//! # relgo-cache
//!
//! A sharded, statistics-versioned LRU plan cache for the converged
//! optimizer's serving path.
//!
//! Planning an SPJM query pays for GLogue cost-based ordering plus rule
//! application on every call, yet serving traffic is dominated by repeated
//! query *templates* that differ only in literals. The cache stores
//! optimized [`PhysicalPlan`] skeletons under [`PlanKey`]s — `(optimizer
//! mode, canonical pattern fingerprint, relational shape, parameter-slot
//! signature)` as produced by [`relgo_core::parameterize`] — together with
//! the literal bindings each skeleton was optimized with, so a hit only
//! needs [`relgo_core::rebind_plan`] before execution.
//!
//! Design:
//!
//! * **Sharding** — keys are spread over `N` `parking_lot`-locked shards by
//!   key fingerprint; concurrent serving threads only contend when they
//!   land on the same shard.
//! * **LRU** — each shard holds at most `capacity / N` entries; inserting
//!   beyond that evicts the least-recently-used entry (a global logical
//!   clock orders uses).
//! * **Statistics versioning** — the cache carries a version counter;
//!   entries remember the version they were planned under and
//!   [`PlanCache::invalidate_all`] bumps it (the session's `commit_delta`
//!   calls it, once per published commit), so stale plans die lazily on
//!   their next lookup. Every stamp is
//!   explicit: [`PlanCache::insert`] and [`PlanCache::pin`] take the
//!   version the caller read *before* pinning the state it planned on, so
//!   a plan raced by an invalidation is at worst born stale, never
//!   wrongly current.
//! * **Metrics** — hits, misses, evictions, invalidations and rebind
//!   failures are atomic counters, snapshot via [`PlanCache::metrics`].
//! * **Pinning** — a prepared-statement handle captures a [`PinnedPlan`]
//!   snapshot via [`PlanCache::pin`]. The pin owns its skeleton (`Arc`), so
//!   LRU eviction of the underlying entry never breaks the handle, while
//!   [`PlanCache::pin_is_current`] still subjects it to statistics-version
//!   invalidation: after `invalidate_all` the handle must re-optimize.

use parking_lot::Mutex;
use relgo_common::fxhash::FxHashMap;
use relgo_common::Value;
use relgo_core::{PhysicalPlan, PlanKey};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of independently locked shards (rounded up to ≥ 1).
    pub shards: usize,
    /// Total entry capacity across all shards (≥ `shards`).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity: 1024,
        }
    }
}

/// Monotonic counters describing cache behavior since construction.
#[derive(Debug, Default)]
pub struct CacheMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    rebind_failures: AtomicU64,
    prepared_hits: AtomicU64,
    prepared_invalidations: AtomicU64,
}

/// A point-in-time copy of [`CacheMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Lookups that returned a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only a stale-version entry).
    pub misses: u64,
    /// Entries displaced by LRU capacity pressure.
    pub evictions: u64,
    /// `invalidate_all` calls (statistics-version bumps).
    pub invalidations: u64,
    /// Hits whose skeleton could not be rebound (caller fell back to the
    /// optimizer).
    pub rebind_failures: u64,
    /// Prepared-statement executes served from a live pinned skeleton
    /// (rebind only — no parameterize, no cache probe).
    pub prepared_hits: u64,
    /// Prepared-statement executes that found their pin stale (statistics
    /// version moved) and transparently re-optimized.
    pub prepared_invalidations: u64,
}

impl MetricsSnapshot {
    /// Counter-wise difference since `earlier` (what one phase of traffic did).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            invalidations: self.invalidations - earlier.invalidations,
            rebind_failures: self.rebind_failures - earlier.rebind_failures,
            prepared_hits: self.prepared_hits - earlier.prepared_hits,
            prepared_invalidations: self.prepared_invalidations - earlier.prepared_invalidations,
        }
    }

    /// The counters as stable `(name, value)` pairs — what an
    /// observability layer folds into a metrics export (the names become
    /// series suffixes, so they are part of the public scrape surface).
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("evictions", self.evictions),
            ("invalidations", self.invalidations),
            ("rebind_failures", self.rebind_failures),
            ("prepared_hits", self.prepared_hits),
            ("prepared_invalidations", self.prepared_invalidations),
        ]
    }

    /// Hit ratio in `[0, 1]` (0 when no lookups happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A pinned plan skeleton: the snapshot a prepared-statement handle
/// executes against. The pin owns the skeleton (`Arc`), so LRU eviction of
/// the cache entry it was taken from cannot invalidate it; only a
/// statistics-version bump ([`PlanCache::invalidate_all`]) makes it stale,
/// checked via [`PlanCache::pin_is_current`].
#[derive(Debug, Clone)]
pub struct PinnedPlan {
    /// The optimized skeleton.
    pub plan: Arc<PhysicalPlan>,
    /// The literal bindings the skeleton was optimized with (rebind source).
    pub params: Vec<Value>,
    /// Statistics version at pin time.
    pub version: u64,
}

/// One cached plan skeleton.
struct Entry {
    plan: Arc<PhysicalPlan>,
    /// The literal bindings the skeleton was optimized with.
    params: Vec<Value>,
    /// Statistics version at insert time.
    version: u64,
    /// Last-use tick (global logical clock).
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: FxHashMap<PlanKey, Entry>,
}

/// The sharded, versioned LRU plan cache. Cheap to share: wrap in an `Arc`
/// and hand clones to every serving thread.
pub struct PlanCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard_capacity: usize,
    version: AtomicU64,
    clock: AtomicU64,
    metrics: CacheMetrics,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("len", &self.len())
            .field("version", &self.stats_version())
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(CacheConfig::default())
    }
}

impl PlanCache {
    /// Create a cache with the given sharding/capacity.
    pub fn new(cfg: CacheConfig) -> PlanCache {
        let shards = cfg.shards.max(1);
        let per_shard_capacity = cfg.capacity.div_ceil(shards).max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            version: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            metrics: CacheMetrics::default(),
        }
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<Shard> {
        let idx = (key.fingerprint() as usize) % self.shards.len();
        &self.shards[idx]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The current statistics version.
    pub fn stats_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Bump the statistics version: every existing entry becomes stale and
    /// is discarded on its next lookup. Called when the GLogue statistics
    /// or the catalog are rebuilt.
    pub fn invalidate_all(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
        self.metrics.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up a plan skeleton. On a hit, returns the skeleton and the
    /// bindings it was optimized with (for rebinding) and refreshes its LRU
    /// position. A stale-version entry counts as a miss and is removed.
    pub fn lookup(&self, key: &PlanKey) -> Option<(Arc<PhysicalPlan>, Vec<Value>)> {
        let version = self.stats_version();
        let mut shard = self.shard(key).lock();
        match shard.map.get_mut(key) {
            Some(entry) if entry.version == version => {
                entry.last_used = self.tick();
                let out = (Arc::clone(&entry.plan), entry.params.clone());
                drop(shard);
                self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                Some(out)
            }
            Some(_) => {
                shard.map.remove(key);
                drop(shard);
                self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(shard);
                self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) a plan skeleton optimized with `params`, evicting
    /// the shard's LRU entry when the shard is full. `version` is the
    /// statistics version the caller read *before* pinning the state it
    /// optimized against: if a concurrent `invalidate_all` raced past it,
    /// the plan was costed against superseded statistics and is born stale
    /// (it dies on its next lookup instead of being served as current).
    pub fn insert(&self, key: PlanKey, plan: Arc<PhysicalPlan>, params: Vec<Value>, version: u64) {
        let current = self.stats_version();
        let last_used = self.tick();
        let mut shard = self.shard(&key).lock();
        let replacing = shard.map.contains_key(&key);
        if !replacing && shard.map.len() >= self.per_shard_capacity {
            // Evict the least-recently-used entry (stale entries first —
            // they are dead weight regardless of recency).
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| (e.version == current, e.last_used))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                shard.map.remove(&victim);
                self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                plan,
                params,
                version,
                last_used,
            },
        );
    }

    /// Record that a hit's skeleton could not be rebound (the caller fell
    /// back to the optimizer).
    pub fn note_rebind_failure(&self) {
        self.metrics.rebind_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Pin `plan` under the statistics version the caller read before
    /// pinning the state it planned on (see [`PlanCache::insert`]). The
    /// returned snapshot stays executable across LRU evictions; staleness
    /// is checked with [`PlanCache::pin_is_current`].
    pub fn pin(&self, plan: Arc<PhysicalPlan>, params: Vec<Value>, version: u64) -> PinnedPlan {
        PinnedPlan {
            plan,
            params,
            version,
        }
    }

    /// Whether `pin` was taken under the current statistics version.
    pub fn pin_is_current(&self, pin: &PinnedPlan) -> bool {
        pin.version == self.stats_version()
    }

    /// Record a prepared-statement execute served from a live pin.
    pub fn note_prepared_hit(&self) {
        self.metrics.prepared_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a prepared-statement execute that found its pin stale and
    /// re-optimized.
    pub fn note_prepared_invalidation(&self) {
        self.metrics
            .prepared_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the metric counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            hits: self.metrics.hits.load(Ordering::Relaxed),
            misses: self.metrics.misses.load(Ordering::Relaxed),
            evictions: self.metrics.evictions.load(Ordering::Relaxed),
            invalidations: self.metrics.invalidations.load(Ordering::Relaxed),
            rebind_failures: self.metrics.rebind_failures.load(Ordering::Relaxed),
            prepared_hits: self.metrics.prepared_hits.load(Ordering::Relaxed),
            prepared_invalidations: self.metrics.prepared_invalidations.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (metrics are kept).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_core::{OptimizerMode, PhysicalPlan, RelOp};
    use relgo_pattern::PatternBuilder;

    fn dummy_plan() -> Arc<PhysicalPlan> {
        let mut b = PatternBuilder::new();
        b.vertex("v", relgo_common::LabelId(0));
        Arc::new(PhysicalPlan {
            pattern: b.build().unwrap(),
            root: RelOp::ScanTable {
                table: "t".to_string(),
                predicate: None,
            },
        })
    }

    fn key(n: u64) -> PlanKey {
        PlanKey {
            mode: OptimizerMode::RelGo,
            canon_fingerprint: n,
            shape: format!("shape-{n}"),
            slot_sig: "i".to_string(),
        }
    }

    #[test]
    fn hit_miss_and_params_roundtrip() {
        let cache = PlanCache::default();
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(
            key(1),
            dummy_plan(),
            vec![Value::Int(5)],
            cache.stats_version(),
        );
        let (plan, params) = cache.lookup(&key(1)).expect("hit");
        assert_eq!(params, vec![Value::Int(5)]);
        assert!(matches!(plan.root, RelOp::ScanTable { .. }));
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        cache.insert(key(1), dummy_plan(), vec![], cache.stats_version());
        cache.insert(key(2), dummy_plan(), vec![], cache.stats_version());
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(3), dummy_plan(), vec![], cache.stats_version());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.metrics().evictions, 1);
        assert!(cache.lookup(&key(1)).is_some(), "recently used survives");
        assert!(cache.lookup(&key(2)).is_none(), "LRU evicted");
        assert!(cache.lookup(&key(3)).is_some());
    }

    #[test]
    fn invalidation_makes_entries_stale() {
        let cache = PlanCache::default();
        cache.insert(key(1), dummy_plan(), vec![], cache.stats_version());
        assert!(cache.lookup(&key(1)).is_some());
        cache.invalidate_all();
        assert!(cache.lookup(&key(1)).is_none(), "stale after version bump");
        assert_eq!(cache.metrics().invalidations, 1);
        // Re-insert under the new version works.
        cache.insert(key(1), dummy_plan(), vec![], cache.stats_version());
        assert!(cache.lookup(&key(1)).is_some());
    }

    #[test]
    fn concurrent_hits_from_many_threads() {
        let cache = Arc::new(PlanCache::new(CacheConfig {
            shards: 4,
            capacity: 64,
        }));
        for n in 0..8 {
            cache.insert(
                key(n),
                dummy_plan(),
                vec![Value::Int(n as i64)],
                cache.stats_version(),
            );
        }
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for round in 0..100 {
                        let n = (t + round) % 8;
                        let (_, params) = cache.lookup(&key(n)).expect("hit");
                        assert_eq!(params, vec![Value::Int(n as i64)]);
                    }
                });
            }
        });
        let m = cache.metrics();
        assert_eq!(m.hits, 800);
        assert_eq!(m.misses, 0);
    }

    #[test]
    fn pinned_plans_survive_eviction_but_not_invalidation() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity: 1,
        });
        cache.insert(
            key(1),
            dummy_plan(),
            vec![Value::Int(5)],
            cache.stats_version(),
        );
        let (plan, params) = cache.lookup(&key(1)).expect("hit");
        let pin = cache.pin(plan, params, cache.stats_version());
        // Displace the entry: the pin still answers.
        cache.insert(key(2), dummy_plan(), vec![], cache.stats_version());
        assert!(cache.lookup(&key(1)).is_none(), "entry evicted");
        assert!(cache.pin_is_current(&pin), "pin outlives eviction");
        assert_eq!(pin.params, vec![Value::Int(5)]);
        // A statistics bump makes the pin stale.
        cache.invalidate_all();
        assert!(!cache.pin_is_current(&pin));
        cache.note_prepared_invalidation();
        cache.note_prepared_hit();
        let m = cache.metrics();
        assert_eq!((m.prepared_hits, m.prepared_invalidations), (1, 1));
    }

    #[test]
    fn insert_with_superseded_version_is_born_stale() {
        let cache = PlanCache::default();
        // A caller snapshots the version, then a rebuild races past it.
        let observed = cache.stats_version();
        cache.invalidate_all();
        cache.insert(key(1), dummy_plan(), vec![], observed);
        assert!(
            cache.lookup(&key(1)).is_none(),
            "plan optimized against superseded statistics must not be served"
        );
        // A pin taken at the observed version is likewise already stale.
        let pin = cache.pin(dummy_plan(), vec![], observed);
        assert!(!cache.pin_is_current(&pin));
    }

    #[test]
    fn metrics_snapshot_delta() {
        let a = MetricsSnapshot {
            hits: 10,
            misses: 4,
            evictions: 1,
            invalidations: 0,
            rebind_failures: 0,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            hits: 25,
            misses: 5,
            evictions: 1,
            invalidations: 1,
            rebind_failures: 2,
            prepared_hits: 3,
            prepared_invalidations: 1,
        };
        let d = b.since(&a);
        assert_eq!(d.hits, 15);
        assert_eq!(d.misses, 1);
        assert_eq!(d.prepared_hits, 3);
        assert_eq!(d.prepared_invalidations, 1);
        assert!((d.hit_ratio() - 15.0 / 16.0).abs() < 1e-12);
    }
}
