//! # docql-calculus — the many-sorted calculus (§5.2, §5.3)
//!
//! Data, attribute and path sorts; path predicates `⟨v P⟩`; range
//! restriction in the style of Abiteboul–Beeri; interpreted predicates and
//! functions (`contains`, `near`, `length`, `name`, `set_to_list`, …); and a
//! safe evaluator, compiled once per query, implementing the paper's restricted path
//! semantics (no two dereferences of objects in the same class), implicit
//! selectors, the marking-attribute omissions, and the false-on-missing-
//! attribute rule.

pub mod eval;
pub mod interp;
pub mod rows;
pub mod term;
pub mod typing;

pub use eval::{
    calc_to_value, check_range_restricted, CalcError, Evaluator, PreparedAtom, Program,
};
pub use interp::{CalcValue, ContainsPattern, Interp, InterpCtx, InterpError};
pub use rows::RowSet;
pub use term::{
    Atom, AttrTerm, DataTerm, Formula, IntTerm, PathAtom, PathTerm, Query, QueryBuilder, Sort, Var,
};
pub use typing::{infer_types, TypeInfo};
