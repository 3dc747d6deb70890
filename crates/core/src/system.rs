//! The Locus system: direct and search workflows (Fig. 2 of the paper).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

use locus_lang::ast::{LItem, LocusProgram};
use locus_lang::interp::{HostError, LocusError};
use locus_lang::{extract_space, Interp};
use locus_machine::{CompiledVariant, Machine, Measurement};
use locus_search::{Objective, SearchModule, SearchOutcome};
use locus_space::{Point, Space};
use locus_srcir::ast::Program;
use locus_srcir::hash::{hash_region, RegionHash};
use locus_srcir::region::{extract_region, find_regions, replace_region};
use locus_trace::{kv, Tracer};

use locus_store::{EvalRecord, PruneRecord, SessionRecord, ShardedStore, StoreKey, TuningStore};

use crate::memo::MemoCache;
use crate::registry::{is_query, run_query, RegionHost};
use crate::report::TuneReport;

/// Number of proposals drawn per batch by the parallel engine. Fixed —
/// independent of the worker count — so a run's proposal stream, and
/// with it the tuning result, is identical for 1, 2 or 8 threads.
///
/// Defined as [`locus_search::OBSERVATION_BLOCK`]: the block-buffering
/// modules (MCTS, the trace sampler) integrate observations at exactly
/// this granularity, which makes their proposal streams bit-identical
/// between the sequential and the batch-parallel drivers.
pub const PARALLEL_BATCH: usize = locus_search::OBSERVATION_BLOCK;

/// How many prior points a store-backed session feeds to
/// [`SearchModule::seed_observations`] when warm-starting.
pub const WARM_START_K: usize = 8;

/// Errors of the orchestration layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyError {
    /// The Locus program references no region present in the source.
    NoMatchingRegion,
    /// Space extraction failed (e.g. unsubstitutable constructs).
    Extract(String),
    /// Interpreting the optimization program failed.
    Locus(String),
    /// The persistent tuning store could not be read or written.
    Store(String),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::NoMatchingRegion => {
                write!(f, "no code region matches any CodeReg of the program")
            }
            ApplyError::Extract(m) => write!(f, "space extraction failed: {m}"),
            ApplyError::Locus(m) => write!(f, "optimization program failed: {m}"),
            ApplyError::Store(m) => write!(f, "tuning store failed: {m}"),
        }
    }
}

impl Error for ApplyError {}

/// The store a tuning session runs against: either an exclusively
/// owned single-file [`TuningStore`], or the shared lock-striped
/// [`ShardedStore`] many concurrent sessions (the `locusd` daemon's
/// workers) multiplex onto. The driver is indifferent — rehydration,
/// warm start and append-back go through this handle — which is what
/// makes daemon results bit-identical to the library path.
pub enum StoreHandle<'a> {
    /// A caller-owned single-file store (the classic library path).
    Single(&'a mut TuningStore),
    /// A shared sharded store; locking is internal and per stripe.
    Sharded(&'a ShardedStore),
}

impl StoreHandle<'_> {
    fn invalidate_stale(&mut self, current: &HashMap<String, u64>) -> usize {
        match self {
            StoreHandle::Single(s) => s.invalidate_stale(current),
            StoreHandle::Sharded(s) => s.invalidate_stale(current),
        }
    }

    fn for_each_eval(&self, key: &StoreKey, mut f: impl FnMut(&EvalRecord)) {
        match self {
            StoreHandle::Single(s) => s.evals(key).iter().for_each(&mut f),
            StoreHandle::Sharded(s) => s.for_each_eval(key, f),
        }
    }

    fn for_each_prune(&self, key: &StoreKey, mut f: impl FnMut(&PruneRecord)) {
        match self {
            StoreHandle::Single(s) => s.prunes(key).iter().for_each(&mut f),
            StoreHandle::Sharded(s) => s.for_each_prune(key, f),
        }
    }

    fn top_k(&self, key: &StoreKey, k: usize) -> Vec<(Point, f64)> {
        match self {
            StoreHandle::Single(s) => s.top_k(key, k),
            StoreHandle::Sharded(s) => s.top_k(key, k),
        }
    }

    fn append_evals(&mut self, key: &StoreKey, records: &[EvalRecord]) -> std::io::Result<usize> {
        match self {
            StoreHandle::Single(s) => s.append_evals(key, records),
            StoreHandle::Sharded(s) => s.append_evals(key, records),
        }
    }

    fn append_prunes(&mut self, key: &StoreKey, records: &[PruneRecord]) -> std::io::Result<usize> {
        match self {
            StoreHandle::Single(s) => s.append_prunes(key, records),
            StoreHandle::Sharded(s) => s.append_prunes(key, records),
        }
    }

    fn append_session(&mut self, key: &StoreKey, record: SessionRecord) -> std::io::Result<()> {
        match self {
            StoreHandle::Single(s) => s.append_session(key, record),
            StoreHandle::Sharded(s) => s.append_session(key, record),
        }
    }
}

/// The inputs of one [`LocusSystem::tune_parallel`] session. Build it as
/// `TuneRequest { store: …, ..TuneRequest::new(budget, threads) }`; the
/// entry point's docs explain what each optional part changes.
pub struct TuneRequest<'a> {
    /// Number of evaluations the search may spend.
    pub budget: usize,
    /// Worker threads measuring each batch (clamped to at least one).
    pub threads: usize,
    /// A caller-owned memo cache shared across runs (`None`: a fresh one).
    pub cache: Option<&'a MemoCache>,
    /// The persistent store the session rehydrates from and appends to.
    pub store: Option<StoreHandle<'a>>,
    /// Receives the session's spans and events. Clones share one
    /// buffer, so the caller drains its own handle afterwards.
    pub tracer: Tracer,
    /// Pre-compiled handle for the tuning *source*: when it wraps
    /// exactly the source and entry being baselined, the baseline runs
    /// through its compile memo instead of re-lowering. The fleet
    /// driver shares one across machine profiles, so the source
    /// compiles once for the whole fan-out.
    pub baseline: Option<Arc<CompiledVariant>>,
}

impl TuneRequest<'_> {
    /// A store-less, untraced request with a fresh cache.
    pub fn new(budget: usize, threads: usize) -> Self {
        TuneRequest {
            budget,
            threads,
            cache: None,
            store: None,
            tracer: Tracer::disabled(),
            baseline: None,
        }
    }
}

/// A prepared (query-substituted, optimized) Locus program together with
/// its extracted optimization space.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The optimized Locus program all variants are generated from.
    pub locus: LocusProgram,
    /// The optimization space (the `convertOptUniverse` result).
    pub space: Space,
    /// Serial-to-parameter-id mapping for the interpreter.
    pub ids: HashMap<usize, String>,
}

/// The result of building and measuring one variant.
#[derive(Debug, Clone)]
pub enum VariantOutcome {
    /// The variant was built and measured.
    Measured(Box<(Program, Measurement)>),
    /// The point violates a dependent-range constraint.
    Invalid(String),
    /// The static safety verifier refused the point: a transformation's
    /// legality check failed, or an inserted `omp parallel for` races.
    /// The payload is the verifier's reason. Illegal points are *pruned*
    /// — excluded from the search without ever being simulated.
    Illegal(String),
    /// A module failed outright, the variant crashed, or the result
    /// diverged from the baseline.
    Failed(String),
}

/// Result of the search workflow.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Search statistics and best point.
    pub outcome: SearchOutcome,
    /// Measurement of the untransformed baseline.
    pub baseline: Measurement,
    /// Best variant: point, transformed program, and its measurement.
    pub best: Option<(Point, Program, Measurement)>,
    /// Size of the optimization space.
    pub space_size: u128,
}

impl TuneResult {
    /// Speedup of the shipped result over the baseline. The system is
    /// non-prescriptive (Sec. II): when the best variant does not beat
    /// the baseline, the baseline itself ships, so the speedup never
    /// drops below 1.0. Degenerate measurements — a zero or near-zero
    /// time on either side, as an empty kernel produces — report 1.0
    /// rather than infinity, and the ratio is clamped so the value is
    /// always finite.
    pub fn speedup(&self) -> f64 {
        const EPS: f64 = 1e-12;
        const MAX_SPEEDUP: f64 = 1e12;
        match &self.best {
            Some((_, _, m)) if m.time_ms > EPS && self.baseline.time_ms.is_finite() => {
                (self.baseline.time_ms / m.time_ms).clamp(1.0, MAX_SPEEDUP)
            }
            _ => 1.0,
        }
    }
}

/// The Locus system: a simulated machine plus orchestration policy.
#[derive(Debug, Clone)]
pub struct LocusSystem {
    /// The machine variants are measured on.
    pub machine: Machine,
    /// Snippet store for `BuiltIn.Altdesc`.
    pub snippets: HashMap<String, String>,
    /// Whether transformation modules run their legality checks.
    pub check_legality: bool,
    /// Entry function executed to measure a variant.
    pub entry: String,
    /// Whether variants must reproduce the baseline's checksum.
    pub verify_results: bool,
    /// Whether the Sec. IV-C program optimizer (constant propagation,
    /// folding, DCE) runs during [`LocusSystem::prepare`]. On by
    /// default; the ablation benches turn it off to measure its effect
    /// on space size and search time.
    pub optimize_programs: bool,
}

impl LocusSystem {
    /// Creates a system over a machine with default policy: legality
    /// checks on, result verification on, entry point `kernel`.
    pub fn new(machine: Machine) -> LocusSystem {
        LocusSystem {
            machine,
            snippets: HashMap::new(),
            check_legality: true,
            entry: "kernel".to_string(),
            verify_results: true,
            optimize_programs: true,
        }
    }

    /// Prepares a Locus program for a given source: substitutes queries
    /// per `CodeReg` (Sec. IV-C), runs the program optimizer, and
    /// extracts the space.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError::Extract`] when a search construct cannot be
    /// statically bounded even after query substitution.
    pub fn prepare(&self, source: &Program, locus: &LocusProgram) -> Result<Prepared, ApplyError> {
        let mut locus = locus.clone();
        let regions = find_regions(source);

        // Per-CodeReg selective query substitution against the first
        // matching region: only queries whose results reach search
        // constructs or control flow are pre-evaluated (Sec. IV-C); the
        // rest (e.g. Fig. 13's `innerloops`) run live per variant so
        // they observe earlier transformations.
        for item in &mut locus.items {
            let LItem::CodeReg { name, body } = item else {
                continue;
            };
            let Some(region) = regions.iter().find(|r| &r.id == name) else {
                continue;
            };
            let Some(code) = extract_region(source, region) else {
                continue;
            };
            crate::subst::substitute_needed_queries(body, &mut |module, func| {
                if is_query(module, func) {
                    run_query(&code.stmt, module, func)
                } else {
                    None
                }
            });
        }

        if self.optimize_programs {
            locus_lang::optimize::optimize(&mut locus);
        }
        let info = extract_space(&locus).map_err(|e| ApplyError::Extract(e.to_string()))?;
        Ok(Prepared {
            locus,
            space: info.space,
            ids: info.ids,
        })
    }

    /// A [`locus_search::LegalityOracle`] over this system: `true` iff
    /// the point decodes and passes verification (`verify::legal`).
    /// The sequential driver attaches it; the parallel one attaches
    /// [`LocusSystem::table_oracle`], which gives the same answers, so
    /// pruning-aware modules behave identically under each. The oracle
    /// is an optimization hook only — a module must also cope with
    /// `Objective::Invalid` feedback for points that slip through.
    fn legality_oracle(
        &self,
        source: &Program,
        prepared: &Prepared,
    ) -> locus_search::LegalityOracle {
        let sys = self.clone();
        let source = source.clone();
        let prepared = prepared.clone();
        Arc::new(move |point: &Point| sys.build_variant(&source, &prepared, point).is_ok())
    }

    /// The legality oracle of [`LocusSystem::tune_parallel`]: the same
    /// answer as [`LocusSystem::legality_oracle`], read from the
    /// session table when the point's verdict is known. A point the
    /// table does not know is built once; the build waits in its row for
    /// the driver, which then does not build it again.
    fn table_oracle(
        &self,
        source: &Program,
        prepared: &Prepared,
        table: &Arc<Mutex<SessionTable>>,
    ) -> locus_search::LegalityOracle {
        let sys = self.clone();
        let source = source.clone();
        let prepared = prepared.clone();
        let table = Arc::clone(table);
        Arc::new(move |point: &Point| {
            let key = point.canonical_key();
            if let Some(legal) = table.lock().expect("session table").verdict(&key) {
                return legal;
            }
            let built = sys.build_variant(&source, &prepared, point);
            let legal = built.is_ok();
            table.lock().expect("session table").hold(&key, built);
            legal
        })
    }

    /// Builds the variant a point denotes: runs the optimization program
    /// on every matching region of (a clone of) the source.
    pub fn build_variant(
        &self,
        source: &Program,
        prepared: &Prepared,
        point: &Point,
    ) -> Result<Program, VariantOutcome> {
        let mut program = source.clone();
        let regions = find_regions(&program);
        let mut matched = false;
        for region in &regions {
            if prepared.locus.codereg(&region.id).is_none() {
                continue;
            }
            matched = true;
            let Some(code) = extract_region(&program, region) else {
                continue;
            };
            let mut stmt = code.stmt;
            {
                let mut host = RegionHost::new(&mut stmt, &self.snippets);
                host.check_legality = self.check_legality;
                let mut interp = Interp::new(&prepared.locus, &mut host, point, &prepared.ids);
                match interp.run_codereg(&region.id) {
                    Ok(()) => {}
                    Err(LocusError::InvalidPoint(m)) => {
                        return Err(VariantOutcome::Invalid(m));
                    }
                    Err(LocusError::Host(HostError::Illegal(m))) => {
                        return Err(VariantOutcome::Illegal(m));
                    }
                    Err(e) => return Err(VariantOutcome::Failed(e.to_string())),
                }
            }
            replace_region(&mut program, region, stmt);
        }
        if !matched {
            return Err(VariantOutcome::Failed(
                ApplyError::NoMatchingRegion.to_string(),
            ));
        }
        Ok(program)
    }

    /// Measures a program on the system's machine.
    ///
    /// # Errors
    ///
    /// Propagates the interpreter's runtime errors.
    pub fn measure(&self, program: &Program) -> Result<Measurement, locus_machine::RuntimeError> {
        self.machine.run(program, &self.entry)
    }

    /// Measures `source` for a baseline, routing through the shared
    /// [`CompiledVariant`] when one is given for exactly this program
    /// and entry (bit-identical to [`LocusSystem::measure`] either way —
    /// the batched path's contract). A handle wrapping any other
    /// program or entry is ignored: a stale handle would measure the
    /// wrong code.
    fn measure_baseline(
        &self,
        source: &Program,
        baseline: Option<&CompiledVariant>,
    ) -> Result<Measurement, locus_machine::RuntimeError> {
        if let Some(v) = baseline {
            if v.entry() == self.entry && v.program() == source {
                return v.run(self.machine.config());
            }
        }
        self.measure(source)
    }

    /// Builds and measures the variant of one point, verifying the
    /// result against `expected_checksum` when verification is on.
    pub fn evaluate_point(
        &self,
        source: &Program,
        prepared: &Prepared,
        point: &Point,
        expected_checksum: Option<u64>,
    ) -> VariantOutcome {
        let program = match self.build_variant(source, prepared, point) {
            Ok(p) => p,
            Err(outcome) => return outcome,
        };
        match self.measure(&program) {
            Ok(m) => {
                if self.verify_results {
                    if let Some(expect) = expected_checksum {
                        if m.checksum != expect {
                            return VariantOutcome::Failed(format!(
                                "variant checksum {:016x} diverged from baseline {expect:016x}",
                                m.checksum
                            ));
                        }
                    }
                }
                VariantOutcome::Measured(Box::new((program, m)))
            }
            Err(e) => VariantOutcome::Failed(e.to_string()),
        }
    }

    /// Renders the *direct* Locus program a chosen point denotes — the
    /// artifact the paper ships alongside the baseline source so the
    /// tuning result can be reused "for machines with similar
    /// environments" (Sec. II). The result contains no search
    /// constructs; running it through [`LocusSystem::apply_direct`]
    /// reproduces the winning variant.
    pub fn direct_program(&self, prepared: &Prepared, point: &Point) -> String {
        let specialized = locus_lang::specialize(&prepared.locus, point, &prepared.ids);
        locus_lang::print_program(&specialized)
    }

    /// The direct workflow (Fig. 2, top): applies the program with
    /// default choices for any search construct and returns the
    /// optimized source.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when the program cannot be prepared or a
    /// module invocation fails.
    pub fn apply_direct(
        &self,
        source: &Program,
        locus: &LocusProgram,
    ) -> Result<Program, ApplyError> {
        let prepared = self.prepare(source, locus)?;
        match self.build_variant(source, &prepared, &Point::new()) {
            Ok(p) => Ok(p),
            Err(VariantOutcome::Invalid(m))
            | Err(VariantOutcome::Illegal(m))
            | Err(VariantOutcome::Failed(m)) => Err(ApplyError::Locus(m)),
            Err(VariantOutcome::Measured(_)) => unreachable!("build never measures"),
        }
    }

    /// The search workflow (Fig. 2, bottom): converts the space, drives
    /// the search module for `budget` evaluations — stopping early, as
    /// [`LocusSystem::tune_parallel`] does, once every point of a space
    /// whose point count is exact was proposed — and returns the best
    /// variant together with the baseline measurement.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when preparation fails or the baseline
    /// cannot be measured.
    pub fn tune(
        &self,
        source: &Program,
        locus: &LocusProgram,
        search: &mut dyn SearchModule,
        budget: usize,
    ) -> Result<TuneResult, ApplyError> {
        let prepared = self.prepare(source, locus)?;
        let baseline = self
            .measure(source)
            .map_err(|e| ApplyError::Locus(format!("baseline run failed: {e}")))?;
        let expected = baseline.checksum;

        search.attach_pruner(&self.legality_oracle(source, &prepared));
        let mut evaluate = |point: &Point| -> Objective {
            match self.evaluate_point(source, &prepared, point, Some(expected)) {
                VariantOutcome::Measured(boxed) => Objective::Value(boxed.1.time_ms),
                // Statically refused points are invalid like
                // constraint-violating ones: the search skips them.
                VariantOutcome::Invalid(_) | VariantOutcome::Illegal(_) => Objective::Invalid,
                VariantOutcome::Failed(_) => Objective::Error,
            }
        };
        let book = locus_search::Bookkeeper::for_space(budget, &prepared.space);
        let outcome = search.drive(&prepared.space, book, &mut evaluate);

        let best = outcome.best.clone().and_then(|(point, _)| {
            match self.evaluate_point(source, &prepared, &point, Some(expected)) {
                VariantOutcome::Measured(boxed) => {
                    let (program, m) = *boxed;
                    Some((point, program, m))
                }
                _ => None,
            }
        });

        Ok(TuneResult {
            outcome,
            baseline,
            best,
            space_size: prepared.space.size(),
        })
    }

    /// The [`StoreKey`] a tuning session of `source` under `prepared`
    /// files its records under: the hashes of the regions the program
    /// actually matches, plus machine and space digests.
    pub fn store_key(&self, source: &Program, prepared: &Prepared) -> StoreKey {
        let regions = matched_regions(source, prepared);
        StoreKey::new(
            regions
                .into_iter()
                .map(|(id, hash, _)| (id, hash))
                .collect(),
            self.machine.digest(),
            prepared.space.digest(),
        )
    }

    /// Forwards to [`LocusSystem::tune_parallel`]; kept because `locus-benchmark` calls it.
    pub fn tune_parallel_with_tracer(
        &self,
        source: &Program,
        locus: &LocusProgram,
        search: &mut dyn SearchModule,
        budget: usize,
        threads: usize,
        tracer: &Tracer,
    ) -> Result<(TuneResult, TuneReport), ApplyError> {
        self.tune_parallel(
            source,
            locus,
            search,
            TuneRequest {
                tracer: tracer.clone(),
                ..TuneRequest::new(budget, threads)
            },
        )
    }

    /// Forwards to [`LocusSystem::tune_parallel`]; kept because `locus-benchmark` calls it.
    #[allow(clippy::too_many_arguments)]
    pub fn tune_parallel_with_store_and_tracer(
        &self,
        source: &Program,
        locus: &LocusProgram,
        search: &mut dyn SearchModule,
        budget: usize,
        threads: usize,
        store: &mut TuningStore,
        tracer: &Tracer,
    ) -> Result<(TuneResult, TuneReport), ApplyError> {
        self.tune_parallel(
            source,
            locus,
            search,
            TuneRequest {
                store: Some(StoreHandle::Single(store)),
                tracer: tracer.clone(),
                ..TuneRequest::new(budget, threads)
            },
        )
    }

    /// The search workflow of Fig. 2 with batched parallel evaluation:
    /// the one tuning entry point beside the sequential reference
    /// [`LocusSystem::tune`]. It converts the space, then per batch
    /// proposes, builds and verifies, measures and feeds back. The full
    /// [`TuneReport`] always comes back: [`TuneReport::pruned_illegal`]
    /// counts the proposals the static safety verifier rejected
    /// *before* simulation, [`TuneReport::builds`] the variants built,
    /// and [`TuneReport::memo`] holds the cache statistics the run added.
    ///
    /// # One row per point, nothing past the budget or the space
    ///
    /// A session keeps one table with a row per distinct point, found by
    /// its canonical key (rendered once per proposal). A row holds the
    /// digest of the point's direct program, whether the point builds,
    /// an oracle build not yet consumed, and the variant the driver built
    /// with the measurement its worker took.
    ///
    /// * The [`locus_search::LegalityOracle`] handed to pruning-aware
    ///   modules answers from the table first. The table is seeded from
    ///   the store records the session rehydrates (a measured point
    ///   builds; an `Invalid` or pruned one does not) and learns the same
    ///   from every point the driver resolves from the cache. A point it
    ///   does not know is built once; the build waits in its row, and
    ///   build-verify takes it instead of building again. Unconsumed
    ///   builds are dropped after each batch; their verdicts stay.
    /// * Build-verify walks each batch in proposal order and asks the
    ///   cache once per proposal ([`MemoCache::lookup`]). It hands the
    ///   merge one resolution per proposal: an objective known without
    ///   measuring, with its origin, or the row whose variant this batch
    ///   measures. It charges the budget as
    ///   [`locus_search::Bookkeeper::record`] will: nothing for
    ///   a point already resolved or an `Invalid` objective, one for
    ///   anything else. It stops where
    ///   [`locus_search::Bookkeeper::done_at`] says the session is over:
    ///   at the proposal that exhausts the budget, or — on a space whose
    ///   point count is exact — at the first proposal that covers the
    ///   space. Nothing past the budget and nothing past the space is
    ///   built, measured or stored. [`TuneReport::proposed`] counts the
    ///   proposals it resolved, `proposed == accounted()` holds, and
    ///   [`TuneReport::stop`] says why the session ended.
    /// * Finalize ships the winner's program with the measurement its
    ///   worker took, both from the row that built it. Only a winner this
    ///   session did not simulate (one answered from the store or a
    ///   shared cache) is built and measured again.
    ///
    /// # Parallel evaluation and determinism
    ///
    /// Each batch of proposals is evaluated by a pool of
    /// `request.threads` worker threads sharing a two-level
    /// [`MemoCache`], so duplicate points — and distinct points denoting
    /// the *same* variant — are measured exactly once. Proposals are
    /// drawn in batches of [`PARALLEL_BATCH`] regardless of the thread
    /// count, workers only compute objectives (the simulated machine is
    /// deterministic), and results are merged back in proposal order
    /// through the same [`locus_search::Bookkeeper`] the sequential
    /// driver uses. For search modules whose proposals do not depend on
    /// observations (exhaustive, seeded random) the outcome is
    /// bit-identical to [`LocusSystem::tune`]; for every module it is
    /// bit-identical across thread counts.
    ///
    /// # Shared cache
    ///
    /// With a caller-owned [`MemoCache`], several tuning runs of one
    /// session — different search modules or seeds over the same source
    /// and machine — share measurements: a variant assessed by any
    /// earlier run is never measured again (the OpenTuner-memoization
    /// effect the paper credits in Sec. IV-B). The report counts only what
    /// this session added to the cache's statistics. Cache entries record
    /// objectives of *this* system's machine; sharing a cache between
    /// systems with different machine configurations would return stale
    /// measurements. Use one cache per (source, machine) pair.
    ///
    /// # Store-backed sessions
    ///
    /// With `request.store` set, the session runs against a persistent
    /// store, closing the loop the paper opens in Sec. II (shipping
    /// tuning results for reuse). Before the search starts the driver:
    ///
    /// 1. **checks coherence** — store entries recorded for region
    ///    contents that have since been edited are invalidated
    ///    ([`TuningStore::invalidate_stale`]); entries of unchanged
    ///    sibling regions stay live;
    /// 2. **rehydrates** the session's [`MemoCache`] with every prior
    ///    evaluation of this exact `(regions, machine, space)` context,
    ///    so previously assessed proposals are answered from disk — a
    ///    repeat session over unchanged code re-measures nothing;
    /// 3. **warm-starts** the search module with the store's
    ///    [`WARM_START_K`] best prior points via
    ///    [`SearchModule::seed_observations`].
    ///
    /// Every fresh measurement is appended to the store — as is every
    /// *prune* (a point the static safety verifier refused before
    /// simulation), so warm sessions replay refusals from disk — along
    /// with a session summary (region profile, winning point, and the
    /// direct recipe it denotes) that
    /// [`crate::suggest::suggest_with_store`] retrieves for structurally
    /// similar regions. Prior points are fed best-first with
    /// canonical-key tie-breaks and objectives are persisted
    /// bit-exactly, so the same store file plus the same search seed
    /// reproduce the same trajectory and the same best point.
    ///
    /// [`StoreHandle::Sharded`] takes the shared lock-striped
    /// [`ShardedStore`] of a tuning service by `&self`, so any number of
    /// concurrent sessions — the `locusd` daemon's worker threads — run
    /// against one process-wide store at once. Each session locks only
    /// the stripe holding its own `(regions, machine, space)` records,
    /// during rehydration, warm start and append-back; the batch loop in
    /// between holds no store lock at all. For the same inputs over the
    /// same store contents the result is bit-identical to
    /// [`StoreHandle::Single`]: only the handle differs.
    ///
    /// # Tracing
    ///
    /// When `request.tracer` is enabled the driver emits, into it:
    ///
    /// * `phase` spans bracketing every pipeline stage — prepare,
    ///   baseline, store rehydration, warm start, and per batch the
    ///   propose / build-verify / measure / merge stages, then
    ///   finalize-best and store-append;
    /// * one `eval` instant event per merged proposal, carrying the
    ///   point's canonical key, its variant digest, where the objective
    ///   came from (fresh measurement, session memo, store, coalesced,
    ///   pruned), the verdict and the measured milliseconds;
    /// * `verify` events for every statically pruned point (with the
    ///   verifier's reason), `machine` spans from the worker threads
    ///   (merged deterministically in evaluation-slot order), `search`
    ///   events from the module's own decisions, and a final `session`
    ///   summary with the complete [`TuneReport`] accounting.
    ///
    /// Tracing is observation-only: for the same inputs the returned
    /// [`TuneResult`] is bit-identical whether the tracer is enabled or
    /// disabled (asserted by the parallel determinism suite).
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when preparation fails, the baseline
    /// cannot be measured, or ([`ApplyError::Store`]) the store or one
    /// of its shards cannot be written.
    pub fn tune_parallel(
        &self,
        source: &Program,
        locus: &LocusProgram,
        search: &mut dyn SearchModule,
        request: TuneRequest<'_>,
    ) -> Result<(TuneResult, TuneReport), ApplyError> {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let TuneRequest {
            budget,
            threads,
            cache,
            mut store,
            tracer,
            baseline: baseline_variant,
        } = request;
        let fresh_cache = MemoCache::new();
        let cache = cache.unwrap_or(&fresh_cache);
        let tracer = &tracer;
        // The report counts only what this session adds to a shared cache.
        let memo_start = cache.stats();

        let prepared = {
            let _span = tracer.span("phase", "prepare");
            self.prepare(source, locus)?
        };
        let baseline = {
            let _span = tracer.span("phase", "baseline");
            self.measure_baseline(source, baseline_variant.as_deref())
                .map_err(|e| ApplyError::Locus(format!("baseline run failed: {e}")))?
        };
        let expected = baseline.checksum;
        let threads = threads.max(1);
        let mut report = TuneReport::default();
        let table = Arc::new(Mutex::new(SessionTable::default()));

        // Store session prologue: coherence check, cache rehydration.
        let store_key = store.as_ref().map(|_| self.store_key(source, &prepared));
        if let (Some(store), Some(key)) = (store.as_mut(), store_key.as_ref()) {
            let _span = tracer.span("phase", "store-rehydrate");
            let current: HashMap<String, u64> = region_hashes(source)
                .into_iter()
                .map(|(id, hash)| (id, hash.0))
                .collect();
            report.invalidated = store.invalidate_stale(&current);
            // Every record also tells the session table whether its
            // point builds, so the legality oracle answers from disk too.
            let mut table = table.lock().expect("session table");
            store.for_each_eval(key, |record| {
                cache.seed(&record.point_key, record.variant, record.objective);
                table.learn(&record.point_key, record.objective);
                report.rehydrated += 1;
            });
            // Prior static refusals replay from disk too: a warm
            // session neither re-analyzes nor re-proposes known-racy
            // points.
            store.for_each_prune(key, |prune| {
                cache.seed(&prune.point_key, prune.variant, Objective::Invalid);
                table.learn(&prune.point_key, Objective::Invalid);
                report.rehydrated += 1;
            });
        }

        search.attach_tracer(tracer);
        search.attach_pruner(&self.table_oracle(source, &prepared, &table));
        search.begin(&prepared.space, budget);
        if let (Some(store), Some(key)) = (store.as_ref(), store_key.as_ref()) {
            let _span = tracer.span("phase", "warm-start");
            let prior = store.top_k(key, WARM_START_K);
            report.seeded = prior.len();
            if !prior.is_empty() {
                search.seed_observations(&prepared.space, &prior);
            }
        }

        let mut eval_index: u64 = 0;
        let search_name = search.name().to_string();
        let mut fresh_records: Vec<EvalRecord> = Vec::new();
        let mut fresh_prunes: Vec<PruneRecord> = Vec::new();
        // The row whose worker measured the best point so far, when this
        // session simulated it, so finalize need not run the winner again.
        let mut winner: Option<usize> = None;

        let mut book = locus_search::Bookkeeper::for_space(budget, &prepared.space);
        while !book.done() {
            let batch = {
                let _span = tracer.span("phase", "propose");
                search.propose_batch(&prepared.space, PARALLEL_BATCH)
            };
            if batch.is_empty() {
                break;
            }

            // Resolve every proposal against the cache, then *build*
            // each new variant on this thread: the build runs the
            // optimization program, and with it every legality check
            // and the race analyzer, so statically refused points are
            // pruned here — before a worker thread ever simulates
            // anything. What reaches the pool is one built program per
            // *new, legal* variant digest.
            //
            // The walk charges the budget as the merge's
            // `Bookkeeper::record` will — nothing for a point already
            // resolved or an `Invalid` objective, one for anything else —
            // and counts the distinct grid points it covers the same way.
            // It stops at the proposal that exhausts the budget or covers
            // the space, so nothing past either is built or measured.
            let mut used = book.evaluations();
            let mut covered = book.covered();
            // Per resolved proposal: row, objective if known, origin label.
            let mut resolved: Vec<(usize, Option<Objective>, &str)> =
                Vec::with_capacity(batch.len());
            // The rows whose variants this batch measures, in build order.
            let mut to_measure: Vec<usize> = Vec::new();
            let build_span = tracer.span("phase", "build-verify");
            let mut guard = table.lock().expect("session table");
            let t = &mut *guard;
            for point in &batch {
                if book.done_at(used, covered) {
                    break;
                }
                let r = t.row(&point.canonical_key());
                let row = &mut t.rows[r];
                // Every point resolved earlier this session — in an
                // earlier batch or earlier in this one — is one the
                // bookkeeper will have seen by the time it records this
                // proposal.
                let seen = std::mem::replace(&mut row.met, true);
                if !seen && book.covers(point) {
                    covered += 1;
                }
                let variant = *row.digest.get_or_insert_with(|| {
                    locus_srcir::hash::fnv1a(self.direct_program(&prepared, point).as_bytes())
                });
                let oracle_build = row.built.take();
                if oracle_build.is_some() {
                    t.pending -= 1;
                }
                let (known, origin) =
                    if let Some((objective, origin)) = cache.lookup(&row.key, variant) {
                        row.learn(objective);
                        (Some(objective), origin)
                    } else if t.variants.contains_key(&variant) {
                        // A variant this batch already measures: its
                        // objective is a `Value` or an `Error`.
                        cache.note_coalesced();
                        (None, "coalesced")
                    } else {
                        let start = std::time::Instant::now();
                        let built = match oracle_build {
                            Some(built) => *built,
                            None => {
                                t.builds += 1;
                                self.build_variant(source, &prepared, point)
                            }
                        };
                        row.legal = Some(built.is_ok());
                        match built {
                            Ok(program) => {
                                // Wrap for batched evaluation: the worker that
                                // measures it compiles it, off the main thread.
                                row.run = Some(Box::new(Run {
                                    compiled: CompiledVariant::new(program, &self.entry),
                                    measured: None,
                                }));
                                t.variants.insert(variant, r);
                                to_measure.push(r);
                                (None, "fresh")
                            }
                            Err(VariantOutcome::Illegal(reason)) => {
                                // Pruned: no measurement happened, so no
                                // `note_miss` — the point simply never costs an
                                // evaluation.
                                let provenance = locus_verify::refusal_provenance(&reason);
                                tracer.instant("verify", "prune", || {
                                    vec![
                                        kv("point", &*row.key),
                                        kv("category", locus_verify::refusal_category(&reason)),
                                        kv("provenance", provenance),
                                        kv("reason", reason.clone()),
                                    ]
                                });
                                cache.insert(&row.key, variant, Objective::Invalid);
                                report.pruned_illegal += 1;
                                if store.is_some() {
                                    fresh_prunes.push(PruneRecord {
                                        point_key: row.key.to_string(),
                                        variant,
                                        reason,
                                        provenance: provenance.to_string(),
                                        search: search_name.clone(),
                                    });
                                }
                                (Some(Objective::Invalid), "pruned")
                            }
                            Err(outcome) => {
                                // A failed build simulates nothing: it is no
                                // cache miss, but it is stored and, unless
                                // `Invalid`, charged like an evaluation.
                                let (objective, origin) = match outcome {
                                    VariantOutcome::Invalid(_) => (Objective::Invalid, "invalid"),
                                    _ => (Objective::Error, "error"),
                                };
                                report.build_failed += 1;
                                cache.insert(&row.key, variant, objective);
                                if store.is_some() {
                                    fresh_records.push(EvalRecord {
                                        point_key: row.key.to_string(),
                                        variant,
                                        objective,
                                        cycles: 0.0,
                                        ops: 0,
                                        flops: 0,
                                        checksum: 0,
                                        search: search_name.clone(),
                                        wall_ms: start.elapsed().as_secs_f64() * 1e3,
                                    });
                                }
                                (Some(objective), origin)
                            }
                        }
                    };
                // A proposal whose objective is not `Invalid` costs
                // budget unless the point was seen before.
                if known != Some(Objective::Invalid) && !seen {
                    used += 1;
                }
                resolved.push((r, known, origin));
            }
            // Oracle builds the batch did not consume (refused or cut
            // points) are dropped; their verdicts stay.
            if t.pending > 0 {
                t.rows.iter_mut().for_each(|row| row.built = None);
                t.pending = 0;
            }
            drop(build_span);
            report.proposed += resolved.len();

            // Fan the fresh measurements out over the worker pool. Each
            // worker owns a clone of the system (and thus the machine);
            // an atomic cursor deals work out. Workers only *measure* —
            // every program handed to them was built (and statically
            // vetted) on the main thread above.
            if !to_measure.is_empty() {
                let _span = tracer.span("phase", "measure");
                let work: Vec<&CompiledVariant> = to_measure
                    .iter()
                    .map(|&r| &t.rows[r].run().compiled)
                    .collect();
                let work = &work;
                let cursor = AtomicUsize::new(0);
                let cursor = &cursor;
                // Per slot: the objective, the measurement behind a
                // `Value`, and the wall-clock of the run.
                type Slot = Mutex<Option<(Objective, Option<Measurement>, f64)>>;
                let results: Vec<Slot> = work.iter().map(|_| Mutex::new(None)).collect();
                let results = &results;
                // One scoped child tracer per work *slot* (not per worker
                // thread): whichever thread measures slot `i` records into
                // slot `i`'s buffer, so absorbing the buffers in slot order
                // below merges worker-side spans deterministically no
                // matter how the scheduler dealt the work out.
                let slot_tracers: Vec<Tracer> = (0..work.len())
                    .map(|i| tracer.scoped(i as u64 + 1))
                    .collect();
                let slot_tracers = &slot_tracers;
                std::thread::scope(|scope| {
                    for _ in 0..threads.min(work.len()) {
                        let sys = self.clone();
                        scope.spawn(move || loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(variant) = work.get(i) else {
                                break;
                            };
                            let start = std::time::Instant::now();
                            let (objective, m) =
                                match variant.run_traced(sys.machine.config(), &slot_tracers[i]) {
                                    Ok(m) if sys.verify_results && m.checksum != expected => {
                                        (Objective::Error, None)
                                    }
                                    Ok(m) => (Objective::Value(m.time_ms), Some(m)),
                                    Err(_) => (Objective::Error, None),
                                };
                            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                            *results[i].lock().expect("result slot") =
                                Some((objective, m, wall_ms));
                        });
                    }
                });
                for slot in slot_tracers {
                    tracer.absorb(slot.drain());
                }
                for (&r, slot) in to_measure.iter().zip(results) {
                    let (objective, m, wall_ms) = slot
                        .lock()
                        .expect("result slot")
                        .take()
                        .expect("worker filled every dealt slot");
                    let row = &mut t.rows[r];
                    let variant = row.digest.expect("the walk digests every row it builds");
                    cache.note_miss();
                    cache.insert(&row.key, variant, objective);
                    if store.is_some() {
                        let m = m.as_ref();
                        fresh_records.push(EvalRecord {
                            point_key: row.key.to_string(),
                            variant,
                            objective,
                            cycles: m.map_or(0.0, |m| m.cycles),
                            ops: m.map_or(0, |m| m.ops),
                            flops: m.map_or(0, |m| m.flops),
                            checksum: m.map_or(0, |m| m.checksum),
                            search: search_name.clone(),
                            wall_ms,
                        });
                    }
                    row.run.as_mut().expect("the walk built it").measured = Some((objective, m));
                }
            }
            drop(guard);

            // Deterministic merge: feed results back in proposal order
            // through the same bookkeeping the sequential driver uses.
            let _span = tracer.span("phase", "merge");
            for (point, &(r, known, origin)) in batch.iter().zip(&resolved) {
                debug_assert!(!book.done(), "the walk stops where the bookkeeper does");
                let mut guard = table.lock().expect("session table");
                let t = &mut *guard;
                let variant = t.rows[r]
                    .digest
                    .expect("the walk digests every row it resolves");
                // A proposal the walk did not answer takes the measurement
                // of the row that built its variant this batch.
                let owner = known.is_none().then(|| t.variants[&variant]);
                let objective = known.unwrap_or_else(|| {
                    let measured = t.rows[owner.unwrap()].run().measured.as_ref();
                    measured.expect("the batch was measured").0
                });
                let row = &mut t.rows[r];
                cache.insert_point(&row.key, objective);
                let best_before = book.best_value().map(f64::to_bits);
                let (recorded, fresh) = book.record(point, |_| objective);
                if book.best_value().map(f64::to_bits) != best_before {
                    // A new best: keep the row whose worker measured it.
                    // A winner answered from the store or a shared cache
                    // is measured by finalize instead.
                    winner = owner;
                }
                if tracer.is_enabled() {
                    eval_index += 1;
                    let (value, verdict) = match recorded {
                        Objective::Value(v) => (Some(v), "ok"),
                        Objective::Invalid => (None, "invalid"),
                        Objective::Error => (None, "error"),
                    };
                    if let Some(v) = value {
                        row.top.get_or_insert_with(|| Box::new((v, point.clone())));
                    }
                    tracer.instant("eval", "point", || {
                        let mut args = vec![
                            kv("index", eval_index),
                            kv("point", &*row.key),
                            kv("variant", format!("{variant:016x}")),
                            kv("origin", origin),
                            kv("verdict", verdict),
                            kv("fresh", fresh),
                        ];
                        if let Some(v) = value {
                            args.push(kv("ms", v));
                        }
                        args
                    });
                }
                drop(guard);
                search.observe(point, recorded, fresh);
            }
            debug_assert_eq!(
                (book.evaluations(), book.covered()),
                (used, covered),
                "the walk charged and covered as the merge did"
            );
        }
        report.stop = book.stop_reason();
        let outcome = book.finish();

        let table = table.lock().expect("session table");
        let best = {
            let _span = tracer.span("phase", "finalize-best");
            outcome.best.clone().and_then(|(point, _)| {
                if let Some(run) = winner.map(|w| table.rows[w].run()) {
                    if let Some((_, Some(m))) = &run.measured {
                        return Some((point, run.compiled.program().clone(), m.clone()));
                    }
                }
                // A winner this session never simulated (resolved from
                // the store or a shared cache) is built and measured.
                report.builds += 1;
                match self.evaluate_point(source, &prepared, &point, Some(expected)) {
                    VariantOutcome::Measured(boxed) => {
                        let (program, m) = *boxed;
                        Some((point, program, m))
                    }
                    _ => None,
                }
            })
        };
        report.builds += table.builds;

        // Store session epilogue: persist fresh measurements and a
        // session summary (region profile + winning recipe) the
        // suggester can retrieve later.
        if let (Some(mut store), Some(key)) = (store, store_key.as_ref()) {
            let _span = tracer.span("phase", "store-append");
            report.appended = store
                .append_evals(key, &fresh_records)
                .map_err(|e| ApplyError::Store(e.to_string()))?;
            report.appended += store
                .append_prunes(key, &fresh_prunes)
                .map_err(|e| ApplyError::Store(e.to_string()))?;
            if let Some((point, _, m)) = &best {
                let recipe = self.direct_program(&prepared, point);
                for (id, _, stmt) in matched_regions(source, &prepared) {
                    let profile = crate::suggest::profile_region(&stmt);
                    store
                        .append_session(
                            key,
                            SessionRecord {
                                region: id,
                                shape: profile.shape(),
                                best_point: point.canonical_key(),
                                best_ms: m.time_ms,
                                recipe: recipe.clone(),
                                search: search_name.clone(),
                            },
                        )
                        .map_err(|e| ApplyError::Store(e.to_string()))?;
                }
            }
        }
        report.memo = cache.stats().since(&memo_start);

        // Trace epilogue: the top variants (with their shippable direct
        // recipes) and a session summary carrying the full report
        // accounting — the raw material of `locus-report`.
        if tracer.is_enabled() {
            let mut ranked: Vec<(&str, f64, &Point)> = table
                .rows
                .iter()
                .filter_map(|row| {
                    row.top
                        .as_deref()
                        .map(|(ms, point)| (&*row.key, *ms, point))
                })
                .collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)));
            for (rank, (key, ms, point)) in ranked.into_iter().take(3).enumerate() {
                let recipe = self.direct_program(&prepared, point);
                tracer.instant("eval", "top-variant", || {
                    vec![
                        kv("rank", (rank + 1) as u64),
                        kv("point", key),
                        kv("ms", ms),
                        kv("recipe", recipe),
                    ]
                });
            }
            let best_ms = best.as_ref().map(|(_, _, m)| m.time_ms);
            tracer.instant("session", "summary", || {
                let mut args = vec![
                    kv("search", search_name.as_str()),
                    kv("budget", budget as u64),
                    kv("threads", threads as u64),
                    kv("space_size", format!("{}", prepared.space.size())),
                    kv("proposed", report.proposed as u64),
                    kv("stop", report.stop.as_str()),
                    kv("evaluations", report.evaluations() as u64),
                    kv("memo_hits", report.memo_hits() as u64),
                    kv("store_hits", report.store_hits() as u64),
                    kv("pruned_illegal", report.pruned_illegal as u64),
                    kv("build_failed", report.build_failed as u64),
                    kv("builds", report.builds as u64),
                    kv("rehydrated", report.rehydrated as u64),
                    kv("seeded", report.seeded as u64),
                    kv("appended", report.appended as u64),
                    kv("baseline_ms", baseline.time_ms),
                    kv("machine_digest", format!("{:016x}", self.machine.digest())),
                    kv("space_digest", format!("{:016x}", prepared.space.digest())),
                ];
                if let Some(ms) = best_ms {
                    args.push(kv("best_ms", ms));
                }
                args
            });
        }

        Ok((
            TuneResult {
                outcome,
                baseline,
                best,
                space_size: prepared.space.size(),
            },
            report,
        ))
    }
}

/// What one tuning session knows about its points, one row per distinct
/// point, shared by the legality oracle, build-verify, the merge,
/// finalize and the trace epilogue.
#[derive(Default)]
struct SessionTable {
    rows: Vec<Row>,
    /// The row of each canonical point key.
    index: HashMap<Arc<str>, usize>,
    /// The row that built each variant this session measured. A measured
    /// variant is in the cache, so a digest the cache lacks but this map
    /// holds is one the current batch is measuring.
    variants: HashMap<u64, usize>,
    /// Rows holding an oracle build the driver has not consumed.
    pending: usize,
    /// `build_variant` calls made through the table.
    builds: usize,
}

impl SessionTable {
    /// The row of `key`, added empty when the session has not met it.
    fn row(&mut self, key: &str) -> usize {
        if let Some(&r) = self.index.get(key) {
            return r;
        }
        let key: Arc<str> = Arc::from(key);
        self.index.insert(Arc::clone(&key), self.rows.len());
        self.rows.push(Row {
            key,
            ..Row::default()
        });
        self.rows.len() - 1
    }

    /// Whether the point of `key` builds, when the session knows.
    fn verdict(&self, key: &str) -> Option<bool> {
        self.index.get(key).and_then(|&r| self.rows[r].legal)
    }

    /// Keeps an oracle build for the driver to consume.
    fn hold(&mut self, key: &str, built: Result<Program, VariantOutcome>) {
        self.builds += 1;
        self.pending += 1;
        let r = self.row(key);
        self.rows[r].legal = Some(built.is_ok());
        self.rows[r].built = Some(Box::new(built));
    }

    /// Records the verdict of a stored objective (see [`Row::learn`])
    /// without adding a row for an `Error`.
    fn learn(&mut self, key: &str, objective: Objective) {
        if objective != Objective::Error {
            let r = self.row(key);
            self.rows[r].learn(objective);
        }
    }
}

/// One point of a [`SessionTable`].
#[derive(Default)]
struct Row {
    /// The point's canonical key.
    key: Arc<str>,
    /// FNV-1a digest of the point's direct program, once rendered.
    digest: Option<u64>,
    /// Whether the point builds (`build_variant(..).is_ok()`), once known.
    legal: Option<bool>,
    /// The oracle's build, held until the driver consumes it.
    built: Option<Box<Result<Program, VariantOutcome>>>,
    /// The variant this row built for the workers, kept for finalize;
    /// boxed, as most rows (rehydrated or hits) never build one.
    run: Option<Box<Run>>,
    /// The first value the merge recorded, for the trace's top variants.
    top: Option<Box<(f64, Point)>>,
    /// Whether a driver batch has resolved the point.
    met: bool,
}

impl Row {
    /// Records the verdict an objective implies: a measured point
    /// builds, an `Invalid` one does not, an `Error` one may do either.
    /// A known verdict is kept.
    fn learn(&mut self, objective: Objective) {
        let legal = match objective {
            Objective::Value(_) => true,
            Objective::Invalid => false,
            Objective::Error => return,
        };
        self.legal = self.legal.or(Some(legal));
    }

    fn run(&self) -> &Run {
        self.run.as_ref().expect("the row built a variant")
    }
}

/// A variant built for the workers, and what its worker measured.
struct Run {
    compiled: CompiledVariant,
    /// The objective and, behind a `Value`, the measurement; set once
    /// the batch that built the variant is measured.
    measured: Option<(Objective, Option<Measurement>)>,
}

/// The regions of `source` the prepared program actually matches, as
/// `(id, content hash, region root)` triples sorted by id — the region
/// component of a session's [`StoreKey`].
fn matched_regions(
    source: &Program,
    prepared: &Prepared,
) -> Vec<(String, u64, locus_srcir::ast::Stmt)> {
    let mut out: Vec<(String, u64, locus_srcir::ast::Stmt)> = Vec::new();
    for region in find_regions(source) {
        if prepared.locus.codereg(&region.id).is_none() {
            continue;
        }
        if out.iter().any(|(id, _, _)| id == &region.id) {
            continue;
        }
        if let Some(code) = extract_region(source, &region) {
            out.push((region.id.clone(), hash_region(&code.stmt).0, code.stmt));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Checks stored region hashes against the current source (the coherence
/// mechanism of Sec. II). Returns a warning per changed or missing
/// region.
pub fn check_coherence(source: &Program, stored: &HashMap<String, RegionHash>) -> Vec<String> {
    let regions = find_regions(source);
    let mut warnings = Vec::new();
    for (id, expected) in stored {
        let found: Vec<_> = regions.iter().filter(|r| &r.id == id).collect();
        if found.is_empty() {
            warnings.push(format!("region `{id}` no longer exists in the source"));
            continue;
        }
        for r in found {
            if let Some(code) = extract_region(source, r) {
                let current = hash_region(&code.stmt);
                if current != *expected {
                    warnings.push(format!(
                        "region `{id}` changed (stored {expected}, current {current}); \
                         stored optimizations may no longer apply"
                    ));
                }
            }
        }
    }
    warnings
}

/// Computes the hashes of every region for storing alongside a Locus
/// program.
pub fn region_hashes(source: &Program) -> HashMap<String, RegionHash> {
    let mut out = HashMap::new();
    for r in find_regions(source) {
        if let Some(code) = extract_region(source, &r) {
            out.entry(r.id.clone())
                .or_insert_with(|| hash_region(&code.stmt));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_machine::MachineConfig;
    use locus_search::BanditTuner;
    use locus_srcir::parse_program;

    const MATMUL_SRC: &str = r#"
    double C[32][32];
    double A[32][32];
    double B[32][32];
    void kernel() {
        int i;
        int j;
        int k;
        #pragma @Locus loop=matmul
        for (i = 0; i < 32; i++)
            for (j = 0; j < 32; j++)
                for (k = 0; k < 32; k++)
                    C[i][j] = C[i][j] + A[i][k] * B[k][j];
    }
    "#;

    fn system() -> LocusSystem {
        LocusSystem::new(Machine::new(MachineConfig::scaled_small().with_cores(1)))
    }

    #[test]
    fn direct_workflow_applies_fixed_sequence() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 2, 1]);
                Pips.Tiling(loop="0", factor=[8, 8, 8]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let optimized = sys.apply_direct(&source, &locus).unwrap();
        let regions = find_regions(&optimized);
        assert_eq!(regions.len(), 1, "region annotation preserved");
        let stmt = extract_region(&optimized, &regions[0]).unwrap().stmt;
        assert_eq!(locus_analysis::loops::all_loops(&stmt).len(), 6);

        // The transformed program computes the same result.
        let base = sys.measure(&source).unwrap();
        let opt = sys.measure(&optimized).unwrap();
        assert_eq!(base.checksum, opt.checksum);
    }

    #[test]
    fn direct_workflow_reports_missing_region() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse("CodeReg other { RoseLocus.LICM(); }").unwrap();
        let sys = system();
        assert!(matches!(
            sys.apply_direct(&source, &locus),
            Err(ApplyError::Locus(_))
        ));
    }

    #[test]
    fn tiling_improves_matmul_locality() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 2, 1]);
                Pips.Tiling(loop="0", factor=[16, 16, 16]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let optimized = sys.apply_direct(&source, &locus).unwrap();
        let base = sys.measure(&source).unwrap();
        let opt = sys.measure(&optimized).unwrap();
        assert_eq!(base.checksum, opt.checksum);
        // Everything fits in the simulated L3, so DRAM traffic ties; the
        // win shows up as more L1 hits and fewer cycles.
        assert!(
            opt.cycles < base.cycles,
            "tiling+interchange should beat naive ijk: {} vs {}",
            opt.cycles,
            base.cycles
        );
    }

    #[test]
    fn search_workflow_finds_an_improving_variant() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 2, 1]);
                tileI = poweroftwo(4..16);
                tileK = poweroftwo(4..16);
                tileJ = poweroftwo(4..16);
                Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let mut search = BanditTuner::new(7);
        let result = sys.tune(&source, &locus, &mut search, 12).unwrap();
        assert_eq!(result.space_size, 27);
        let (_, _, best) = result.best.as_ref().expect("a best variant");
        assert_eq!(best.checksum, result.baseline.checksum);
        assert!(
            result.speedup() > 1.0,
            "tiled matmul should beat the naive baseline (speedup {})",
            result.speedup()
        );
    }

    #[test]
    fn invalid_dependent_points_are_skipped_not_fatal() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                tileI = poweroftwo(4..16);
                tileI_2 = poweroftwo(4..tileI);
                Pips.Tiling(loop="0", factor=[tileI, tileI_2, 8]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let mut search = locus_search::ExhaustiveSearch::default();
        let result = sys.tune(&source, &locus, &mut search, 64).unwrap();
        // 3x3 grid; points with tileI_2 > tileI are invalid.
        assert!(result.outcome.invalid > 0);
        assert!(result.best.is_some());
    }

    #[test]
    fn query_substitution_runs_against_the_region() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                depth = BuiltIn.LoopNestDepth();
                permorder = permutation(seq(0, depth));
                RoseLocus.Interchange(order=permorder);
            }"#,
        )
        .unwrap();
        let sys = system();
        let prepared = sys.prepare(&source, &locus).unwrap();
        assert_eq!(
            prepared.space.param("permorder").unwrap().kind,
            locus_space::ParamKind::Permutation(3)
        );
        assert_eq!(prepared.space.size(), 6);
        // All six permutations of matmul are legal; exhaustively searching
        // them must yield six valid evaluations.
        let mut search = locus_search::ExhaustiveSearch::default();
        let result = sys.tune(&source, &locus, &mut search, 10).unwrap();
        assert_eq!(result.outcome.evaluations, 6);
    }

    #[test]
    fn coherence_check_detects_source_drift() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let hashes = region_hashes(&source);
        assert!(check_coherence(&source, &hashes).is_empty());

        let drifted = parse_program(&MATMUL_SRC.replace("A[i][k] * B[k][j]", "A[i][k]")).unwrap();
        let warnings = check_coherence(&drifted, &hashes);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("matmul"));

        let removed =
            parse_program(&MATMUL_SRC.replace("#pragma @Locus loop=matmul\n", "")).unwrap();
        let warnings = check_coherence(&removed, &hashes);
        assert!(warnings[0].contains("no longer exists"));
    }

    #[test]
    fn store_backed_sessions_skip_prior_measurements() {
        let source = parse_program(MATMUL_SRC).unwrap();
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                tileI = poweroftwo(4..16);
                Pips.Tiling(loop="0", factor=[tileI, tileI, tileI]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let path = std::env::temp_dir().join(format!(
            "locus-core-store-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_file(&path).ok();

        // Each session opens the file afresh, so the warm one sees only
        // what the cold one persisted.
        let session = || {
            let mut store = TuningStore::open(&path).unwrap();
            let mut search = locus_search::ExhaustiveSearch::default();
            sys.tune_parallel(
                &source,
                &locus,
                &mut search,
                TuneRequest {
                    store: Some(StoreHandle::Single(&mut store)),
                    ..TuneRequest::new(8, 2)
                },
            )
            .unwrap()
        };
        let (cold, cold_report) = session();
        assert!(cold_report.evaluations() > 0);
        assert_eq!(cold_report.store_hits(), 0);
        assert_eq!(cold_report.appended, cold_report.evaluations());

        // Re-open the file cold: a brand-new session must answer every
        // proposal from disk.
        let (warm, warm_report) = session();
        assert_eq!(
            warm_report.evaluations(),
            0,
            "warm session re-measures nothing"
        );
        assert_eq!(warm_report.store_hits(), cold_report.evaluations());
        assert_eq!(warm_report.rehydrated, cold_report.appended);
        assert_eq!(warm_report.appended, 0);

        let (cold_point, _, cold_m) = cold.best.as_ref().expect("cold best");
        let (warm_point, _, warm_m) = warm.best.as_ref().expect("warm best");
        assert_eq!(cold_point.canonical_key(), warm_point.canonical_key());
        assert_eq!(cold_m.time_ms.to_bits(), warm_m.time_ms.to_bits());
        assert_eq!(
            cold.outcome.best.as_ref().unwrap().1.to_bits(),
            warm.outcome.best.as_ref().unwrap().1.to_bits(),
            "replayed objective is bit-identical"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn speedup_is_finite_for_degenerate_measurements() {
        fn measurement(time_ms: f64) -> Measurement {
            Measurement {
                cycles: time_ms * 1e6,
                time_ms,
                ops: 1,
                flops: 1,
                cache: Default::default(),
                checksum: 0,
            }
        }
        let source = parse_program(MATMUL_SRC).unwrap();
        let result = |baseline_ms: f64, best_ms: f64| TuneResult {
            outcome: locus_search::SearchOutcome {
                best: Some((Point::new(), best_ms)),
                evaluations: 1,
                invalid: 0,
                duplicates: 0,
                history: vec![(1, best_ms)],
            },
            baseline: measurement(baseline_ms),
            best: Some((Point::new(), source.clone(), measurement(best_ms))),
            space_size: 1,
        };

        // Zero-time baseline (empty kernel): no infinity, no panic.
        assert_eq!(result(0.0, 0.0).speedup(), 1.0);
        assert_eq!(result(0.0, 2.0).speedup(), 1.0);
        // Sub-epsilon variant time is degenerate, not an infinite win.
        assert_eq!(result(1.0, 1e-300).speedup(), 1.0);
        // A tiny-but-measurable variant time is clamped, still finite.
        let huge = result(1e3, 1e-11).speedup();
        assert!(huge.is_finite(), "speedup must never be infinite");
        assert_eq!(huge, 1e12, "clamped at the ceiling");
        // Ordinary case unchanged.
        assert_eq!(result(4.0, 2.0).speedup(), 2.0);
        // Slower-than-baseline best still reports 1.0 (baseline ships).
        assert_eq!(result(1.0, 2.0).speedup(), 1.0);
    }

    #[test]
    fn failed_variants_fall_back_to_baseline() {
        let source = parse_program(MATMUL_SRC).unwrap();
        // Interchange with an order that is not a permutation: every
        // variant fails, yet tune still reports the baseline.
        let locus = locus_lang::parse(
            r#"CodeReg matmul {
                RoseLocus.Interchange(order=[0, 0, 1]);
            }"#,
        )
        .unwrap();
        let sys = system();
        let mut search = locus_search::ExhaustiveSearch::default();
        let result = sys.tune(&source, &locus, &mut search, 4).unwrap();
        assert!(result.best.is_none());
        assert_eq!(result.speedup(), 1.0);
        assert!(result.baseline.cycles > 0.0);
    }
}
