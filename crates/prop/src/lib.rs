//! `docql-prop`: a minimal, dependency-free property-testing harness.
//!
//! The workspace ships five property suites that were written against an
//! external property-testing library and gated off with `#![cfg(any())]`
//! because the build environment is offline. This crate vendors just enough
//! of that design to run them in tier-1 CI:
//!
//! - [`gen`] — generator combinators ([`Gen`]) with integrated shrinking
//!   ([`Shrinkable`]): `just`, `element`, `one_of`, `weighted`, `vec_of`,
//!   `string_of`, numeric/bool primitives, `zip`/`zip3`, and `recursive`
//!   for tree-shaped data.
//! - [`runner`] — [`check`] samples a configurable number of cases
//!   (`DOCQL_PROP_CASES`, `DOCQL_PROP_SEED` env overrides) and greedily
//!   shrinks the first failure to a minimal counterexample before
//!   panicking. Properties return `Result<(), String>`; the
//!   [`prop_assert!`] and [`prop_assert_eq!`] macros produce the `Err`s.
//! - [`SeededRng`] — the deterministic SplitMix64 generator everything runs
//!   on (`docql-guard`'s, shared with the corpus generators and fault
//!   streams).
//!
//! A property looks like:
//!
//! ```
//! use docql_prop::{check, prop_assert, vec_of, usize_in};
//!
//! // (in a test target, mark this `#[test]`)
//! fn reverse_twice_is_identity() {
//!     check("reverse_twice_is_identity", 256, &vec_of(usize_in(0..100), 0..16), |xs| {
//!         let mut twice = xs.clone();
//!         twice.reverse();
//!         twice.reverse();
//!         prop_assert!(twice == *xs);
//!         Ok(())
//!     });
//! }
//! # reverse_twice_is_identity();
//! ```

pub mod gen;
pub mod runner;

pub use docql_guard::SeededRng;
pub use gen::{
    bool_any, element, f64_any, i64_any, just, one_of, recursive, string_of, usize_in, vec_of,
    weighted, zip, zip3, Gen, Shrinkable,
};
pub use runner::{check, check_with, Config, DEFAULT_SEED};
