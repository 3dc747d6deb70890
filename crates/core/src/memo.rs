//! The shared memo cache of the parallel evaluation engine.
//!
//! The paper credits OpenTuner's habit of "keeping track of the
//! variants already assessed" (Sec. IV-B) for finding the best variant
//! in fewer measurements. The parallel engine generalizes that idea
//! with a *two-level* cache shared by every worker:
//!
//! 1. **Point level** — keyed by `Point::canonical_key`. A search
//!    module re-proposing an identical assignment never re-measures it.
//! 2. **Variant level** — keyed by an FNV-1a digest of the *direct*
//!    Locus program the point denotes ([`super::system::LocusSystem::direct_program`]).
//!    Two different points that specialize to the same search-free
//!    program (e.g. Fig. 7 points that differ only in the
//!    schedule/chunk parameters of the `OR` branch that was *not*
//!    chosen) produce byte-identical variants, so one measurement
//!    serves them all.
//!
//! The variant level is what a sequential point-keyed memo cannot
//! provide, and on spaces with conditional structure it is where most
//! of the parallel engine's savings come from.
//!
//! Entries carry an *origin*: measured in this session, or rehydrated
//! from the persistent tuning store (`locus-store`). Lookups answered
//! by store-origin entries count separately ([`MemoStats::store_hits`]),
//! so a session report can say exactly how much work prior sessions
//! saved it.
//!
//! The cache is what outlives a session; what a session knows about its
//! own points lives in the driver's session table, which asks the cache
//! once per proposal ([`MemoCache::lookup`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use locus_search::Objective;

/// Where a cache entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Measured during this session.
    Session,
    /// Rehydrated from the persistent tuning store.
    Store,
}

impl Origin {
    fn label(self) -> &'static str {
        match self {
            Origin::Session => "session",
            Origin::Store => "store",
        }
    }
}

/// Hit/miss counters of a [`MemoCache`], snapshot after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Proposals answered from session-measured point-level entries.
    pub point_hits: usize,
    /// Proposals answered from session-measured variant-level entries
    /// (including within-batch duplicates coalesced before measuring).
    pub variant_hits: usize,
    /// Proposals answered from entries rehydrated out of the persistent
    /// store (either level) — each one a measurement a prior session
    /// paid for.
    pub store_hits: usize,
    /// Proposals answered by simulating a fresh variant. A point whose
    /// variant failed to build simulates nothing and is not a miss.
    pub misses: usize,
    /// Distinct points held by the point level.
    pub unique_points: usize,
    /// Distinct variants held by the variant level.
    pub unique_variants: usize,
}

impl MemoStats {
    /// Total hits across both levels and both origins.
    pub fn hits(&self) -> usize {
        self.point_hits + self.variant_hits + self.store_hits
    }

    /// What was counted and cached between an `earlier` snapshot of the
    /// same cache and this one: the share of one session over a cache
    /// other sessions used before it.
    pub fn since(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            point_hits: self.point_hits - earlier.point_hits,
            variant_hits: self.variant_hits - earlier.variant_hits,
            store_hits: self.store_hits - earlier.store_hits,
            misses: self.misses - earlier.misses,
            unique_points: self.unique_points - earlier.unique_points,
            unique_variants: self.unique_variants - earlier.unique_variants,
        }
    }
}

/// The two levels of a [`MemoCache`], behind one lock.
#[derive(Debug, Default)]
struct Levels {
    points: HashMap<String, (Objective, Origin)>,
    variants: HashMap<u64, (Objective, Origin)>,
}

/// A thread-safe two-level objective cache. See the module docs.
#[derive(Debug, Default)]
pub struct MemoCache {
    levels: Mutex<Levels>,
    point_hits: AtomicUsize,
    variant_hits: AtomicUsize,
    store_hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MemoCache {
    /// An empty cache.
    pub fn new() -> MemoCache {
        MemoCache::default()
    }

    /// Looks a proposal up by its canonical point key and its variant
    /// digest, counting one hit when either level knows it: a point-level
    /// hit when the point level does, else a variant-level hit. The
    /// objective comes from the variant level first — the measurement of
    /// the program the point denotes — and the origin label
    /// (`"session"` or `"store"`) from the point level first.
    pub fn lookup(&self, key: &str, variant: u64) -> Option<(Objective, &'static str)> {
        let levels = self.levels.lock().expect("memo lock");
        let point = levels.points.get(key).copied();
        let by_variant = levels.variants.get(&variant).copied();
        drop(levels);
        let (origin, counter) = match (point, by_variant) {
            (Some((_, origin)), _) => (origin, &self.point_hits),
            (None, Some((_, origin))) => (origin, &self.variant_hits),
            (None, None) => return None,
        };
        match origin {
            Origin::Session => counter.fetch_add(1, Ordering::Relaxed),
            Origin::Store => self.store_hits.fetch_add(1, Ordering::Relaxed),
        };
        let objective = by_variant.or(point).map(|(objective, _)| objective)?;
        Some((objective, origin.label()))
    }

    /// Records the objective of a point measured this session under
    /// both levels.
    pub fn insert(&self, key: &str, variant: u64, objective: Objective) {
        let mut levels = self.levels.lock().expect("memo lock");
        levels
            .points
            .insert(key.to_string(), (objective, Origin::Session));
        levels
            .variants
            .insert(variant, (objective, Origin::Session));
    }

    /// Records a point-level alias of an already-known variant. An
    /// existing entry keeps its origin (a store-rehydrated point is not
    /// demoted by the merge loop's alias insertion).
    pub fn insert_point(&self, key: &str, objective: Objective) {
        let mut levels = self.levels.lock().expect("memo lock");
        if !levels.points.contains_key(key) {
            levels
                .points
                .insert(key.to_string(), (objective, Origin::Session));
        }
    }

    /// Rehydrates one record from the persistent store: both levels,
    /// store origin, never overwriting session measurements.
    pub fn seed(&self, point_key: &str, variant: u64, objective: Objective) {
        let mut levels = self.levels.lock().expect("memo lock");
        levels
            .points
            .entry(point_key.to_string())
            .or_insert((objective, Origin::Store));
        levels
            .variants
            .entry(variant)
            .or_insert((objective, Origin::Store));
    }

    /// Counts one within-batch coalesced duplicate as a variant hit.
    pub fn note_coalesced(&self) {
        self.variant_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one simulation of a fresh variant.
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the counters.
    pub fn stats(&self) -> MemoStats {
        let levels = self.levels.lock().expect("memo lock");
        MemoStats {
            point_hits: self.point_hits.load(Ordering::Relaxed),
            variant_hits: self.variant_hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            unique_points: levels.points.len(),
            unique_variants: levels.variants.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_level_round_trip() {
        let cache = MemoCache::new();
        assert!(cache.lookup("x=1", 0xabcd).is_none());
        cache.insert("x=1", 0xabcd, Objective::Value(2.5));
        assert_eq!(
            cache.lookup("x=1", 0xabcd),
            Some((Objective::Value(2.5), "session"))
        );
        let stats = cache.stats();
        assert_eq!(stats.point_hits, 1);
        assert_eq!(stats.variant_hits, 0, "one hit per lookup");
        assert_eq!(stats.unique_points, 1);
        assert_eq!(stats.unique_variants, 1);
    }

    #[test]
    fn variant_level_serves_aliasing_points() {
        let cache = MemoCache::new();
        cache.insert("x=1", 7, Objective::Value(1.0));
        // A different point, same variant digest: answered by level 2.
        assert_eq!(
            cache.lookup("x=2", 7),
            Some((Objective::Value(1.0), "session"))
        );
        cache.insert_point("x=2", Objective::Value(1.0));
        assert_eq!(
            cache.lookup("x=2", 7),
            Some((Objective::Value(1.0), "session"))
        );
        let stats = cache.stats();
        assert_eq!(stats.variant_hits, 1);
        assert_eq!(stats.point_hits, 1);
        assert_eq!(stats.unique_points, 2);
        assert_eq!(stats.unique_variants, 1);
    }

    #[test]
    fn lookup_reads_the_objective_from_the_variant_level_and_the_origin_from_the_point_level() {
        let cache = MemoCache::new();
        cache.seed("x=1", 7, Objective::Value(9.0));
        cache.insert("x=2", 8, Objective::Value(1.0));
        // The stored point now denotes variant 8: the variant's
        // measurement answers, the point's store origin labels it, and
        // the hit counts once, at the point level's origin.
        assert_eq!(
            cache.lookup("x=1", 8),
            Some((Objective::Value(1.0), "store"))
        );
        // A point the point level does not know falls back to the
        // variant level for both.
        assert_eq!(
            cache.lookup("x=3", 7),
            Some((Objective::Value(9.0), "store"))
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.store_hits, stats.point_hits, stats.variant_hits),
            (2, 0, 0)
        );
    }

    #[test]
    fn inserts_do_not_count() {
        let cache = MemoCache::new();
        cache.insert("x=1", 7, Objective::Invalid);
        cache.insert_point("x=2", Objective::Invalid);
        cache.seed("x=3", 9, Objective::Invalid);
        assert_eq!(cache.stats().hits(), 0);
    }

    #[test]
    fn store_seeded_entries_count_as_store_hits() {
        let cache = MemoCache::new();
        cache.seed("x=1", 7, Objective::Value(1.0));
        assert_eq!(
            cache.lookup("x=1", 7),
            Some((Objective::Value(1.0), "store"))
        );
        assert_eq!(
            cache.lookup("x=2", 7),
            Some((Objective::Value(1.0), "store"))
        );
        let stats = cache.stats();
        assert_eq!(stats.store_hits, 2, "both levels answered from the store");
        assert_eq!(stats.point_hits, 0);
        assert_eq!(stats.variant_hits, 0);
        assert_eq!(stats.hits(), 2);
    }

    #[test]
    fn seeding_never_overwrites_session_measurements() {
        let cache = MemoCache::new();
        cache.insert("x=1", 7, Objective::Value(1.0));
        cache.seed("x=1", 7, Objective::Value(9.0));
        assert_eq!(
            cache.lookup("x=1", 7),
            Some((Objective::Value(1.0), "session"))
        );
        assert_eq!(cache.stats().point_hits, 1, "session origin preserved");
    }

    #[test]
    fn alias_insert_keeps_store_origin() {
        let cache = MemoCache::new();
        cache.seed("x=1", 7, Objective::Value(1.0));
        cache.insert_point("x=1", Objective::Value(1.0));
        cache.lookup("x=1", 7);
        assert_eq!(cache.stats().store_hits, 1);
    }

    #[test]
    fn stats_since_an_earlier_snapshot_count_only_what_came_after() {
        let cache = MemoCache::new();
        cache.insert("x=1", 7, Objective::Value(1.0));
        cache.lookup("x=1", 7);
        let earlier = cache.stats();
        cache.lookup("x=2", 7);
        cache.insert("x=3", 8, Objective::Value(2.0));
        cache.note_miss();
        let since = cache.stats().since(&earlier);
        assert_eq!(
            since,
            MemoStats {
                point_hits: 0,
                variant_hits: 1,
                store_hits: 0,
                misses: 1,
                unique_points: 1,
                unique_variants: 1,
            }
        );
    }
}
