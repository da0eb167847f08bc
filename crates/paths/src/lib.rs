//! # docql-paths — paths as first-class citizens (§4.3, §5.2)
//!
//! The paper's central technical novelty: the sorts PATH and ATT. This crate
//! provides concrete paths over database values ([`step`], [`path`]), path
//! application ([`walk`]), data-level path enumeration under the paper's
//! restricted semantics (no two dereferences in the same class) and the
//! liberal alternative (no object visited twice) ([`enumerate`]),
//! schema-level abstract-path enumeration driving the §5.4 algebraization
//! ([`mod@schema_paths`]), and matching of concrete paths against path patterns
//! with PATH/ATT/index variables ([`pattern`]).

pub mod enumerate;
pub mod extent;
pub mod path;
pub mod pattern;
pub mod schema_paths;
pub mod select;
pub mod step;
pub mod walk;

pub use enumerate::{
    enumerate_paths, path_set, visit_paths, visit_paths_guarded, EnumOptions, PathSemantics,
};
pub use extent::{ExtStep, PathExtentIndex, PathId};
pub use path::ConcretePath;
pub use pattern::{match_path, PatElem, PathBindings, VarId};
pub use schema_paths::{paths_ending_with_attr, schema_paths, AbsPath, AbsStep, SchemaPathOptions};
pub use select::{attr_select, deref1, index_select, list_items};
pub use step::PathStep;
pub use walk::{apply_step, resolve};
