//! # docql — *From Structured Documents to Novel Query Facilities*
//!
//! A complete Rust implementation of the system described by Christophides,
//! Abiteboul, Cluet and Scholl (SIGMOD 1994): SGML documents mapped into an
//! object-oriented database whose query languages treat **paths as
//! first-class citizens**.
//!
//! ## Quickstart
//!
//! ```
//! use docql::prelude::*;
//!
//! // The paper's Fig. 1 DTD.
//! let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
//! // Ingest the paper's Fig. 2 document and name it (§4.3).
//! let root = db.ingest(docql::fixtures::FIG2_DOCUMENT).unwrap();
//! db.bind("my_article", root).unwrap();
//! // Q3: all titles, wherever they are in the structure.
//! let q3 = "select t from my_article PATH_p.title(t)";
//! let titles = db.query(q3).unwrap();
//! assert!(!titles.is_empty());
//! // The §5.4 algebra answers the same set.
//! let mut alg = db.query_algebraic(q3).unwrap().rows;
//! let mut interp = titles.rows;
//! alg.sort();
//! interp.sort();
//! assert_eq!(alg, interp);
//! ```
//!
//! Every other query shape goes through [`store::DocStore::query_traced`]:
//! an execution [`Mode`](o2sql::Mode), per-call
//! [`QueryLimits`](guard::QueryLimits) (deadline, row budget, path fuel,
//! cancellation), and the flight-recorder trace back. Share a store across
//! threads with [`SharedStore::new`](store::SharedStore::new), or open one
//! whose commits are durable with
//! [`SharedStore::open`](store::SharedStore::open); either way every write
//! is a list of [`WalOp`](store::WalOp)s run by
//! [`SharedStore::apply`](store::SharedStore::apply).
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`model`] | §3, §5.1 | O₂ data model + ordered tuples + marked unions |
//! | [`sgml`] | §2 | DTD/document parsing, tag-omission inference |
//! | [`mapping`] | §3 | DTD→schema (Fig. 1→Fig. 3), document→instance, export |
//! | [`text`] | §4.1 | patterns, `contains`/`near`, inverted index |
//! | [`paths`] | §4.3, §5.2 | concrete/abstract paths, restricted & liberal semantics |
//! | [`calculus`] | §5.2–5.3 | many-sorted calculus, range restriction, typing |
//! | [`algebra`] | §5.4 | algebraization: unions of path-free plans |
//! | [`o2sql`] | §4 | the extended O₂SQL surface language |
//! | [`durable`] | — | write-ahead log, snapshot segments, crash recovery |
//! | [`store`] | — | the assembled document store |

pub use docql_algebra as algebra;
pub use docql_calculus as calculus;
pub use docql_durable as durable;
pub use docql_guard as guard;
pub use docql_mapping as mapping;
pub use docql_model as model;
pub use docql_o2sql as o2sql;
pub use docql_obs as obs;
pub use docql_paths as paths;
pub use docql_sgml as sgml;
pub use docql_store as store;
pub use docql_text as text;

/// The paper's running examples (Fig. 1 DTD, Fig. 2 document, letters DTD).
pub use docql_sgml::fixtures;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use docql_calculus::{CalcValue, Evaluator, Interp, Query, QueryBuilder};
    pub use docql_guard::{CancelToken, ExecError, QueryLimits};
    pub use docql_model::{sym, Instance, Oid, Schema, Sym, Type, Value};
    pub use docql_o2sql::{Engine, Mode, QueryResult};
    pub use docql_obs::{FlightRecorder, QueryTrace, TraceId};
    pub use docql_paths::{ConcretePath, PathSemantics, PathStep};
    pub use docql_sgml::{Document, Dtd};
    pub use docql_store::{DocStore, PersistentStore, SharedStore, WalOp};
    pub use docql_text::ContainsExpr;
}
