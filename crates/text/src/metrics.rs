//! Counters for the text-search paths: index-answered lookups versus
//! vocabulary greps.
//!
//! A [`TextMetrics`] bundle is attached to an
//! [`InvertedIndex`](crate::InvertedIndex) by the owning store; the index
//! then counts its public query entry points. Recording is gated by the
//! owning registry's enable flag (one relaxed load per text operation), so
//! an attached-but-disabled bundle keeps the index's hot paths unchanged.

use docql_obs::{Counter, SharedRegistry};

/// Registry handles for text-search counters.
#[derive(Clone, Debug)]
pub struct TextMetrics {
    registry: SharedRegistry,
    /// Entries into the index's boolean/candidate/proximity query paths
    /// (`docs_matching`, `candidates`, `near_docs`) — work answered from
    /// postings.
    pub index_queries: Counter,
    /// Vocabulary greps: pattern queries that scanned the term dictionary
    /// (regex-operator patterns, substring candidate bounds).
    pub vocab_scans: Counter,
}

impl TextMetrics {
    /// Resolve (creating if absent) the text counters in `registry`.
    pub fn register(registry: SharedRegistry) -> TextMetrics {
        TextMetrics {
            index_queries: registry.counter("docql_text_index_queries_total"),
            vocab_scans: registry.counter("docql_text_vocab_scans_total"),
            registry,
        }
    }

    /// Is recording on (the owning registry's enable flag)?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }
}
