//! The shared memo cache of the parallel evaluation engine.
//!
//! The paper credits OpenTuner's habit of "keeping track of the
//! variants already assessed" (Sec. IV-B) for finding the best variant
//! in fewer measurements. The parallel engine generalizes that idea
//! with a *two-level* cache shared by every worker:
//!
//! 1. **Point level** — keyed by [`Point::canonical_key`]. A search
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use locus_search::Objective;
use locus_space::Point;

/// Where a cache entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Measured during this session.
    Session,
    /// Rehydrated from the persistent tuning store.
    Store,
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
}

/// A thread-safe two-level objective cache. See the module docs.
#[derive(Debug, Default)]
pub struct MemoCache {
    points: Mutex<HashMap<String, (Objective, Origin)>>,
    variants: Mutex<HashMap<u64, (Objective, Origin)>>,
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

    fn count_hit(&self, origin: Origin, session_counter: &AtomicUsize) {
        match origin {
            Origin::Session => session_counter.fetch_add(1, Ordering::Relaxed),
            Origin::Store => self.store_hits.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Looks a point up in the point level, counting a hit when found.
    pub fn lookup_point(&self, point: &Point) -> Option<Objective> {
        let found = self
            .points
            .lock()
            .expect("memo lock")
            .get(&point.canonical_key())
            .copied();
        if let Some((_, origin)) = found {
            self.count_hit(origin, &self.point_hits);
        }
        found.map(|(objective, _)| objective)
    }

    /// Looks a variant digest up, counting a hit when found.
    pub fn lookup_variant(&self, variant: u64) -> Option<Objective> {
        let found = self
            .variants
            .lock()
            .expect("memo lock")
            .get(&variant)
            .copied();
        if let Some((_, origin)) = found {
            self.count_hit(origin, &self.variant_hits);
        }
        found.map(|(objective, _)| objective)
    }

    /// Reads a point entry without counting a hit (merge path).
    pub fn peek_point(&self, point: &Point) -> Option<Objective> {
        self.points
            .lock()
            .expect("memo lock")
            .get(&point.canonical_key())
            .map(|(objective, _)| *objective)
    }

    /// Reads a variant entry without counting a hit (merge path).
    pub fn peek_variant(&self, variant: u64) -> Option<Objective> {
        self.variants
            .lock()
            .expect("memo lock")
            .get(&variant)
            .map(|(objective, _)| *objective)
    }

    /// Records the objective of a point measured this session under
    /// both levels.
    pub fn insert(&self, point: &Point, variant: u64, objective: Objective) {
        self.points
            .lock()
            .expect("memo lock")
            .insert(point.canonical_key(), (objective, Origin::Session));
        self.variants
            .lock()
            .expect("memo lock")
            .insert(variant, (objective, Origin::Session));
    }

    /// Records a point-level alias of an already-known variant. An
    /// existing entry keeps its origin (a store-rehydrated point is not
    /// demoted by the merge loop's alias insertion).
    pub fn insert_point(&self, point: &Point, objective: Objective) {
        self.points
            .lock()
            .expect("memo lock")
            .entry(point.canonical_key())
            .or_insert((objective, Origin::Session));
    }

    /// Rehydrates one record from the persistent store: both levels,
    /// store origin, never overwriting session measurements. The point
    /// is addressed by its canonical key directly — rehydration needs no
    /// [`Point`] round-trip.
    pub fn seed(&self, point_key: &str, variant: u64, objective: Objective) {
        self.points
            .lock()
            .expect("memo lock")
            .entry(point_key.to_string())
            .or_insert((objective, Origin::Store));
        self.variants
            .lock()
            .expect("memo lock")
            .entry(variant)
            .or_insert((objective, Origin::Store));
    }

    /// Reports where the entry answering a lookup for this point (or,
    /// failing that, this variant digest) came from: `"session"` for
    /// entries measured this run, `"store"` for entries rehydrated from
    /// the persistent store. Does not count a hit — this is the tracing
    /// path, called only after [`MemoCache::lookup_point`] /
    /// [`MemoCache::lookup_variant`] already answered the proposal.
    pub fn peek_origin(&self, point: &Point, variant: u64) -> Option<&'static str> {
        let origin = self
            .points
            .lock()
            .expect("memo lock")
            .get(&point.canonical_key())
            .map(|(_, origin)| *origin)
            .or_else(|| {
                self.variants
                    .lock()
                    .expect("memo lock")
                    .get(&variant)
                    .map(|(_, origin)| *origin)
            })?;
        Some(match origin {
            Origin::Session => "session",
            Origin::Store => "store",
        })
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
        MemoStats {
            point_hits: self.point_hits.load(Ordering::Relaxed),
            variant_hits: self.variant_hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            unique_points: self.points.lock().expect("memo lock").len(),
            unique_variants: self.variants.lock().expect("memo lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_space::ParamValue;

    fn point(v: i64) -> Point {
        let mut p = Point::new();
        p.set("x", ParamValue::Int(v));
        p
    }

    #[test]
    fn point_level_round_trip() {
        let cache = MemoCache::new();
        assert!(cache.lookup_point(&point(1)).is_none());
        cache.insert(&point(1), 0xabcd, Objective::Value(2.5));
        assert_eq!(cache.lookup_point(&point(1)), Some(Objective::Value(2.5)));
        let stats = cache.stats();
        assert_eq!(stats.point_hits, 1);
        assert_eq!(stats.unique_points, 1);
        assert_eq!(stats.unique_variants, 1);
    }

    #[test]
    fn variant_level_serves_aliasing_points() {
        let cache = MemoCache::new();
        cache.insert(&point(1), 7, Objective::Value(1.0));
        // A different point, same variant digest: answered by level 2.
        assert!(cache.lookup_point(&point(2)).is_none());
        assert_eq!(cache.lookup_variant(7), Some(Objective::Value(1.0)));
        cache.insert_point(&point(2), Objective::Value(1.0));
        assert_eq!(cache.lookup_point(&point(2)), Some(Objective::Value(1.0)));
        let stats = cache.stats();
        assert_eq!(stats.variant_hits, 1);
        assert_eq!(stats.unique_points, 2);
        assert_eq!(stats.unique_variants, 1);
    }

    #[test]
    fn peeks_do_not_count() {
        let cache = MemoCache::new();
        cache.insert(&point(1), 7, Objective::Invalid);
        assert!(cache.peek_point(&point(1)).is_some());
        assert!(cache.peek_variant(7).is_some());
        assert_eq!(cache.stats().hits(), 0);
    }

    #[test]
    fn store_seeded_entries_count_as_store_hits() {
        let cache = MemoCache::new();
        cache.seed(&point(1).canonical_key(), 7, Objective::Value(1.0));
        assert_eq!(cache.lookup_point(&point(1)), Some(Objective::Value(1.0)));
        assert_eq!(cache.lookup_variant(7), Some(Objective::Value(1.0)));
        let stats = cache.stats();
        assert_eq!(stats.store_hits, 2, "both levels answered from the store");
        assert_eq!(stats.point_hits, 0);
        assert_eq!(stats.variant_hits, 0);
        assert_eq!(stats.hits(), 2);
    }

    #[test]
    fn seeding_never_overwrites_session_measurements() {
        let cache = MemoCache::new();
        cache.insert(&point(1), 7, Objective::Value(1.0));
        cache.seed(&point(1).canonical_key(), 7, Objective::Value(9.0));
        assert_eq!(cache.lookup_point(&point(1)), Some(Objective::Value(1.0)));
        assert_eq!(cache.stats().point_hits, 1, "session origin preserved");
    }

    #[test]
    fn alias_insert_keeps_store_origin() {
        let cache = MemoCache::new();
        cache.seed(&point(1).canonical_key(), 7, Objective::Value(1.0));
        cache.insert_point(&point(1), Objective::Value(1.0));
        cache.lookup_point(&point(1));
        assert_eq!(cache.stats().store_hits, 1);
    }
}
