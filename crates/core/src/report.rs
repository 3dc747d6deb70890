//! Session accounting for store-backed tuning runs.

use crate::memo::MemoStats;

/// What a store-backed tuning session did, beyond the [`TuneResult`]:
/// how much work the persistent store saved it, and how much it gave
/// back.
///
/// The five mutually exclusive ways a proposal gets an objective are
/// [`TuneReport::evaluations`] (simulated now),
/// [`TuneReport::memo_hits`] (measured earlier *this* session),
/// [`TuneReport::store_hits`] (measured in a *prior* session and
/// rehydrated from disk), [`TuneReport::pruned_illegal`] (statically
/// refused by the safety verifier, never measured at all) and
/// [`TuneReport::build_failed`] (the variant could not be built). A
/// warm repeat of an unchanged session performs zero evaluations —
/// every proposal is a store hit.
///
/// [`TuneResult`]: crate::system::TuneResult
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneReport {
    /// Counters of the run's shared memo cache.
    pub memo: MemoStats,
    /// Evaluation records rehydrated from the store into the cache
    /// before the search started.
    pub rehydrated: usize,
    /// Prior observations fed to `SearchModule::seed_observations`.
    pub seeded: usize,
    /// Fresh evaluation records appended to the store by this session.
    pub appended: usize,
    /// Stale evaluation records dropped by the coherence check (regions
    /// edited since they were recorded).
    pub invalidated: usize,
    /// Points the static safety verifier refused *before* any
    /// evaluation this session — data races under an inserted
    /// `omp parallel for` or illegal transformation sequences. A pruned
    /// point never reaches the simulated machine; it is recorded as
    /// [`locus_search::Objective::Invalid`] so the search moves on.
    pub pruned_illegal: usize,
    /// Points whose variant failed to build for a reason other than the
    /// verifier: a violated dependent-range constraint (recorded as
    /// [`locus_search::Objective::Invalid`]) or a failing module
    /// ([`locus_search::Objective::Error`]). Nothing is simulated for
    /// them.
    pub build_failed: usize,
    /// Proposals the driver resolved. A batch's proposals past the one
    /// that exhausts the budget, or past the one that covers a space
    /// whose point count is exact, are dropped unresolved and not
    /// counted.
    /// The accounting invariant — checked by the parallel determinism
    /// suite — is `proposed == accounted()`: each resolved proposal is
    /// answered exactly once, by a memo hit, a store hit, a fresh
    /// simulation, a static refusal or a failed build.
    pub proposed: usize,
    /// Calls to `LocusSystem::build_variant` this session: by the
    /// legality oracle, the driver and the finalize step together. Each
    /// distinct point is built at most once by the first two; finalize
    /// builds only a winner this session did not measure.
    pub builds: usize,
    /// Why the session ended: its budget was spent, every point of its
    /// space was proposed, or the search module gave up first.
    pub stop: locus_search::StopReason,
}

impl TuneReport {
    /// Simulations of fresh variants this session. Points that failed
    /// to build are counted in [`TuneReport::build_failed`] instead.
    pub fn evaluations(&self) -> usize {
        self.memo.misses
    }

    /// Proposals answered by this session's own earlier measurements
    /// (either cache level, including within-batch coalescing).
    pub fn memo_hits(&self) -> usize {
        self.memo.point_hits + self.memo.variant_hits
    }

    /// Proposals answered by measurements a prior session persisted.
    pub fn store_hits(&self) -> usize {
        self.memo.store_hits
    }

    /// Proposals accounted for by one of the five outcomes: memo hit,
    /// store hit, fresh simulation, static refusal or failed build.
    /// Always equals [`TuneReport::proposed`].
    pub fn accounted(&self) -> usize {
        self.memo_hits()
            + self.store_hits()
            + self.evaluations()
            + self.pruned_illegal
            + self.build_failed
    }
}
