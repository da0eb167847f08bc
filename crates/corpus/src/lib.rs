//! # docql-corpus — deterministic synthetic document corpora
//!
//! The paper publishes no corpus; these generators produce documents valid
//! against its DTDs at parameterised scale, with seeded randomness so every
//! run (tests, benches, EXPERIMENTS.md) sees the same data.
//!
//! * [`articles`] — documents valid against the Fig. 1 `article` DTD, with
//!   controllable section/subsection structure and planted phrases (so Q1/Q2
//!   style queries have known answers);
//! * [`letters`] — documents for the §4.4/Q6 letters DTD, with the
//!   `&`-connector preamble in both orders;
//! * [`mutate()`](mutate::mutate) — version-mutation operators (add a section, retitle,
//!   append a paragraph) for the Q4 structural-diff experiments;
//! * [`adversarial`] — corpora with skewed posting lengths, hot/cold path
//!   extents and deep nesting, where the heuristic planner provably picks
//!   the wrong conjunct order (the cost-based planner's stress tests).

pub mod adversarial;
pub mod articles;
pub mod knuth;
pub mod letters;
pub mod mutate;

pub use adversarial::{
    adversarial_corpus, adversarial_sgml, generate_adversarial, AdversarialParams, COMMON_TERMS,
    RARE_TERM,
};
pub use articles::{generate_article, ArticleParams};
pub use docql_guard::SeededRng;
pub use knuth::{knuth_instance, knuth_schema, KnuthParams};
pub use letters::{generate_letter, LetterParams};
pub use mutate::{mutate, Mutation};
