//! A bounded query-plan cache: source text → compiled plan.
//!
//! Repeated queries — the dominant shape of serving traffic — skip lexing,
//! parsing, translation to the calculus and the interpreter's program
//! compiled beside it, and (in algebraic mode) the §5.4 algebraization.
//! The cache is safe to share across reader threads: the map is guarded by
//! a [`Mutex`] held only for lookups/insertions (never during evaluation),
//! hit/miss counters are atomics, and the lazily algebraized plans live in
//! a per-entry slot guarded by its own mutex.
//!
//! *Correctness* depends only on the schema (translation resolves
//! identifiers against roots of persistence; algebraization substitutes
//! schema paths), so a cached plan evaluates correctly against any snapshot
//! the store publishes — ingests never make a plan wrong, and the same
//! plan serves every forked snapshot version. A schema change means a new
//! store, and with it a new cache. The path-extent index is likewise an
//! evaluation-time choice: plans embed `IndexPathScan` *choice points*
//! resolved from the engine's [`docql_algebra::ExecCtx`].
//!
//! *Quality*, however, depends on the statistics the cost-based planner
//! saw: each algebra slot records the stats version it was planned
//! against, and the engine invalidates the slot
//! ([`CachedPlan::invalidate`]) when observed cardinality diverges from
//! the estimate while fresher statistics exist — the next run re-plans.
//! The translation is kept; only the algebraization re-runs.

use crate::translate::Translated;
use crate::O2sqlError;
use docql_algebra::{algebraize_with_stats, AlgebraError, Algebraized, StatsSource};
use docql_model::Schema;
use docql_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Default number of cached plans ([`PlanCache::with_capacity`] overrides).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// The algebraized set-op chain (pre-order, shared), ready for evaluation.
pub type AlgebraPlans = Arc<Vec<Arc<Algebraized>>>;

/// One memoised algebraization of a plan's set-op chain, stamped with the
/// statistics version it was costed against (0 when planned without
/// statistics — the heuristic planner).
struct AlgebraSlot {
    plans: Result<Arc<Vec<Arc<Algebraized>>>, AlgebraError>,
    stats_version: u64,
}

/// A compiled query, ready for repeated evaluation.
pub struct CachedPlan {
    /// The translated calculus query (with set-op chain).
    pub translated: Translated,
    /// Algebraized plans for the set-op chain in pre-order (left query
    /// first, then each right-hand side), computed on the first algebraic
    /// run. `Err` is cached too: a query that cannot be algebraized fails
    /// identically on every run — until [`CachedPlan::invalidate`] clears
    /// the slot for re-planning against fresh statistics.
    algebra: Mutex<Option<AlgebraSlot>>,
}

impl CachedPlan {
    /// Wrap a translation as a cacheable plan.
    pub fn new(translated: Translated) -> CachedPlan {
        CachedPlan {
            translated,
            algebra: Mutex::new(None),
        }
    }

    /// The algebraized plans for this query's set-op chain (pre-order) and
    /// the stats version they were planned against, computing and memoising
    /// them on first use. Algebraization runs *outside* the slot lock, so a
    /// slow plan never blocks concurrent readers of an already-filled slot;
    /// two threads may race to compute and the first insertion wins (both
    /// get valid plans).
    pub fn algebra_plans(
        &self,
        schema: &Schema,
        stats: Option<&dyn StatsSource>,
    ) -> Result<(AlgebraPlans, u64), AlgebraError> {
        fn collect(
            t: &Translated,
            schema: &Schema,
            stats: Option<&dyn StatsSource>,
            out: &mut Vec<Arc<Algebraized>>,
        ) -> Result<(), AlgebraError> {
            out.push(Arc::new(algebraize_with_stats(&t.query, schema, stats)?));
            if let Some((_, right)) = &t.set_op {
                collect(right, schema, stats, out)?;
            }
            Ok(())
        }
        if let Some(slot) = self.slot_lock().as_ref() {
            return slot_result(slot);
        }
        let version = stats.map_or(0, StatsSource::version);
        let mut out = Vec::new();
        let plans = collect(&self.translated, schema, stats, &mut out).map(|()| Arc::new(out));
        let mut guard = self.slot_lock();
        let slot = guard.get_or_insert(AlgebraSlot {
            plans,
            stats_version: version,
        });
        slot_result(slot)
    }

    /// Has the §5.4 algebraization already run (successfully or not)?
    /// Observability uses this to time algebraization only when it actually
    /// happens — memoised plans would otherwise record meaningless
    /// nanosecond samples on every run.
    pub fn is_algebraized(&self) -> bool {
        self.slot_lock().is_some()
    }

    /// Drop the memoised algebraization so the next algebraic run re-plans
    /// against current statistics. The translation is kept — feedback
    /// re-planning never re-parses. Called by the engine when observed
    /// rows diverge from the plan's estimates and fresher stats exist.
    pub fn invalidate(&self) {
        *self.slot_lock() = None;
    }

    /// The slot guard. Poisoning is recovered: the slot is only ever
    /// replaced whole, so an abandoned guard leaves it consistent.
    fn slot_lock(&self) -> std::sync::MutexGuard<'_, Option<AlgebraSlot>> {
        self.algebra.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn slot_result(slot: &AlgebraSlot) -> Result<(AlgebraPlans, u64), AlgebraError> {
    match &slot.plans {
        Ok(plans) => Ok((Arc::clone(plans), slot.stats_version)),
        Err(e) => Err(e.clone()),
    }
}

/// Cache observability for benches and ops counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum entries before eviction.
    pub capacity: usize,
}

struct Inner {
    map: HashMap<String, Arc<CachedPlan>>,
    /// Recency order, least-recently-used first.
    order: Vec<String>,
}

/// A bounded (LRU) map from query source text to compiled plan.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    /// Hit/miss counters are [`docql_obs`] handles so a metrics registry
    /// can adopt them (see [`PlanCache::register_metrics`]); free-standing
    /// they behave exactly like plain atomics.
    hits: Counter,
    misses: Counter,
    entries: Gauge,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache evicting past `capacity` entries (least recently used
    /// first). A capacity of 0 disables caching but keeps the counters.
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: Vec::new(),
            }),
            hits: Counter::new(),
            misses: Counter::new(),
            entries: Gauge::new(),
        }
    }

    /// Expose this cache's counters through `registry` under the
    /// `docql_plan_cache_*` names. The registry adopts the live handles, so
    /// exports reflect the cache with no copying or polling.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter("docql_plan_cache_hits_total", &self.hits);
        registry.register_counter("docql_plan_cache_misses_total", &self.misses);
        registry.register_gauge("docql_plan_cache_entries", &self.entries);
    }

    /// Look up `src`, or compile it with `compile` and cache the result;
    /// the flag says whether the lookup hit. Compilation runs outside the
    /// lock, so a slow compile never blocks concurrent lookups (two threads
    /// may race to compile the same text; both get valid plans and one
    /// insertion wins).
    pub fn get_or_compile<F>(
        &self,
        src: &str,
        compile: F,
    ) -> Result<(Arc<CachedPlan>, bool), O2sqlError>
    where
        F: FnOnce() -> Result<CachedPlan, O2sqlError>,
    {
        if let Some(hit) = self.lookup(src) {
            return Ok((hit, true));
        }
        let plan = Arc::new(compile()?);
        self.insert(src, Arc::clone(&plan));
        Ok((plan, false))
    }

    /// Look up `src`, refreshing its recency; counts a hit or a miss.
    pub fn lookup(&self, src: &str) -> Option<Arc<CachedPlan>> {
        let mut inner = self.lock();
        match inner.map.get(src).cloned() {
            Some(plan) => {
                self.hits.inc();
                if let Some(i) = inner.order.iter().position(|k| k == src) {
                    let k = inner.order.remove(i);
                    inner.order.push(k);
                }
                Some(plan)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert a compiled plan, evicting the least recently used entries
    /// past capacity.
    pub fn insert(&self, src: &str, plan: Arc<CachedPlan>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.map.insert(src.to_string(), plan).is_none() {
            inner.order.push(src.to_string());
        } else if let Some(i) = inner.order.iter().position(|k| k == src) {
            let k = inner.order.remove(i);
            inner.order.push(k);
        }
        while inner.map.len() > self.capacity {
            let evicted = inner.order.remove(0);
            inner.map.remove(&evicted);
        }
        self.entries.set(inner.map.len() as i64);
    }

    /// Hit/miss counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let entries = self.lock().map.len();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries,
            capacity: self.capacity,
        }
    }

    /// Drop all entries (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
        self.entries.set(0);
    }

    /// Drop all entries *and* zero the hit/miss counters — [`clear`] plus a
    /// fresh statistical slate, for bench phase isolation and tests.
    ///
    /// [`clear`]: PlanCache::clear
    pub fn reset(&self) {
        self.clear();
        self.hits.reset();
        self.misses.reset();
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The guarded state. Poisoning is recovered rather than propagated:
    /// every critical section leaves `map`/`order` consistent before any
    /// call that could panic, so the state a panicking thread abandons is
    /// still valid (worst case: a stale recency order).
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::translate::translate;
    use docql_model::{ClassDef, Type};

    fn schema() -> Schema {
        Schema::builder()
            .class(ClassDef::new("Doc", Type::tuple([("title", Type::String)])))
            .root("Docs", Type::list(Type::class("Doc")))
            .build()
            .unwrap()
    }

    fn compile(src: &str, schema: &Schema) -> CachedPlan {
        CachedPlan::new(translate(&parse(src).unwrap(), schema).unwrap())
    }

    #[test]
    fn hit_and_miss_counters() {
        let schema = schema();
        let cache = PlanCache::with_capacity(8);
        let q = "select d.title from d in Docs";
        for _ in 0..3 {
            cache.get_or_compile(q, || Ok(compile(q, &schema))).unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn eviction_is_lru() {
        let schema = schema();
        let cache = PlanCache::with_capacity(2);
        let qs = [
            "select d.title from d in Docs",
            "select d from d in Docs",
            "select x.title from x in Docs",
        ];
        cache
            .get_or_compile(qs[0], || Ok(compile(qs[0], &schema)))
            .unwrap();
        cache
            .get_or_compile(qs[1], || Ok(compile(qs[1], &schema)))
            .unwrap();
        // Touch qs[0] so qs[1] is the LRU entry, then overflow.
        cache
            .get_or_compile(qs[0], || Ok(compile(qs[0], &schema)))
            .unwrap();
        cache
            .get_or_compile(qs[2], || Ok(compile(qs[2], &schema)))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(qs[0]).is_some(), "recently used entry kept");
        assert!(cache.lookup(qs[1]).is_none(), "LRU entry evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let schema = schema();
        let cache = PlanCache::with_capacity(0);
        let q = "select d.title from d in Docs";
        cache.get_or_compile(q, || Ok(compile(q, &schema))).unwrap();
        cache.get_or_compile(q, || Ok(compile(q, &schema))).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }

    #[test]
    fn reset_zeroes_counters_and_registry_sees_live_values() {
        let schema = schema();
        let cache = PlanCache::with_capacity(4);
        let reg = MetricsRegistry::new();
        cache.register_metrics(&reg);
        let q = "select d.title from d in Docs";
        for _ in 0..2 {
            cache.get_or_compile(q, || Ok(compile(q, &schema))).unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("docql_plan_cache_hits_total"), Some(1));
        assert_eq!(snap.counter("docql_plan_cache_misses_total"), Some(1));
        assert_eq!(snap.gauge("docql_plan_cache_entries"), Some(1));
        cache.reset();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("docql_plan_cache_hits_total"), Some(0));
        assert_eq!(snap.gauge("docql_plan_cache_entries"), Some(0));
    }

    /// A stats source that only carries a version — enough to check the
    /// slot's version stamping and invalidation.
    struct VersionOnly(u64);

    impl StatsSource for VersionOnly {
        fn version(&self) -> u64 {
            self.0
        }
        fn documents(&self) -> u64 {
            1
        }
        fn objects(&self) -> u64 {
            1
        }
        fn extent_targets(&self, _key: &[docql_paths::ExtStep]) -> Option<u64> {
            None
        }
        fn posting_docs(&self, _term: &str) -> u64 {
            0
        }
        fn avg_doc_words(&self) -> u64 {
            0
        }
    }

    #[test]
    fn algebra_slot_stamps_stats_version_and_invalidates() {
        let schema = schema();
        let plan = compile("select d.title from d in Docs", &schema);
        assert!(!plan.is_algebraized());

        // Heuristic planning stamps version 0.
        let (_, v) = plan.algebra_plans(&schema, None).unwrap();
        assert_eq!(v, 0);
        assert!(plan.is_algebraized());

        // The slot is memoised: fresher stats do not re-plan on their own.
        let stats = VersionOnly(7);
        let (_, v) = plan.algebra_plans(&schema, Some(&stats)).unwrap();
        assert_eq!(v, 0, "memoised slot keeps its planned version");

        // Invalidation clears the slot; the next run plans against the
        // attached stats and stamps their version.
        plan.invalidate();
        assert!(!plan.is_algebraized());
        let (plans, v) = plan.algebra_plans(&schema, Some(&stats)).unwrap();
        assert_eq!(v, 7);
        assert!(
            plans.iter().all(|a| a.estimates.is_some()),
            "cost-based planning records estimates"
        );
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::with_capacity(4);
        let r = cache.get_or_compile("select", || Err(O2sqlError::Eval("boom".into())));
        assert!(r.is_err());
        assert_eq!(cache.len(), 0);
    }
}
