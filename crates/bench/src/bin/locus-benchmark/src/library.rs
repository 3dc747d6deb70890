//! The three workloads that call the tuner as a library: a closed loop
//! of tuning sessions from one caller thread, each session evaluating
//! on [`THREADS`] worker threads.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use locus_core::{LocusSystem, TuneReport, TuneResult};
use locus_lang::LocusProgram;
use locus_machine::{all_profiles, Machine, Measurement};
use locus_search::{
    AnnealTuner, BanditTuner, ExhaustiveSearch, MctsTuner, PortfolioSearch, RandomSearch,
    SearchModule, TraceSampler,
};
use locus_space::{Point, SplitMix64};
use locus_srcir::ast::Program;
use locus_store::TuningStore;
use locus_trace::Tracer;

use crate::calibrate::Calibration;
use crate::deck::Deck;
use crate::layers::{Phases, SearchTimes, TimedSearch};
use crate::{Op, RunConfig, Timed, CALIBRATION_INTERVAL};

/// Evaluation threads of every library session.
pub const THREADS: usize = 2;
/// Matrix size of the Fig. 7 DGEMM workload.
const FIG7_N: usize = 24;
/// Matrix size of the Fig. 7 sweep that pre-fills the warm-replay log.
const WARM_FIG7_N: usize = 8;
/// Largest first-level tile of the Fig. 7 program (an 8192-point space).
const FIG7_MAX_TILE: i64 = 4;
const FIG7_BUDGET: usize = 64;
const CORPUS_BUDGET: usize = 32;
/// Budget of the warm-up sessions that end a store-less set-up.
const WARM_UP_BUDGET: usize = 16;
/// The seed of the bandit sessions that pre-fill the warm-replay log;
/// replaying one of them repeats its exact trajectory from the store.
const PREFILL_SEED: u64 = 7;

/// A search module by its `locusd` wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Module {
    Exhaustive,
    Random,
    Bandit,
    Anneal,
    Mcts,
    Sampler,
    Portfolio,
}

impl Module {
    pub const ALL: [Module; 7] = [
        Module::Exhaustive,
        Module::Random,
        Module::Bandit,
        Module::Anneal,
        Module::Mcts,
        Module::Sampler,
        Module::Portfolio,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Module::Exhaustive => "exhaustive",
            Module::Random => "random",
            Module::Bandit => "bandit",
            Module::Anneal => "anneal",
            Module::Mcts => "mcts",
            Module::Sampler => "sampler",
            Module::Portfolio => "portfolio",
        }
    }

    pub fn build(self, seed: u64) -> Box<dyn SearchModule> {
        match self {
            Module::Exhaustive => Box::new(ExhaustiveSearch::new()),
            Module::Random => Box::new(RandomSearch::new(seed)),
            Module::Bandit => Box::new(BanditTuner::new(seed)),
            Module::Anneal => Box::new(AnnealTuner::new(seed)),
            Module::Mcts => Box::new(MctsTuner::new(seed)),
            Module::Sampler => Box::new(TraceSampler::new(seed)),
            Module::Portfolio => Box::new(PortfolioSearch::new(seed)),
        }
    }
}

/// The Fig. 7 workload's rotation. MCTS and random search stay out of
/// every timed rotation: the census in the traced run covers them.
const FIG7_ROTATION: [Module; 5] = [
    Module::Exhaustive,
    Module::Bandit,
    Module::Anneal,
    Module::Sampler,
    Module::Portfolio,
];
const CORPUS_ROTATION: [Module; 4] = [
    Module::Portfolio,
    Module::Bandit,
    Module::Anneal,
    Module::Sampler,
];

/// What is tuned: a source program, its optimization program, and the
/// system (machine) it is measured on.
pub struct Context {
    pub label: String,
    pub program: Program,
    pub locus: LocusProgram,
    pub system: LocusSystem,
}

impl Context {
    fn new(label: String, program: Program, locus: LocusProgram, machine: Machine) -> Context {
        Context {
            label,
            program,
            locus,
            system: LocusSystem::new(machine),
        }
    }

    /// The size of this context's optimization space.
    pub fn space_size(&self) -> Result<u128, String> {
        let prepared = self
            .system
            .prepare(&self.program, &self.locus)
            .map_err(|e| e.to_string())?;
        Ok(prepared.space.size())
    }
}

fn fig7_context(n: usize) -> Context {
    Context::new(
        format!("fig7-dgemm{n}"),
        locus_corpus::dgemm_program(n),
        locus_bench::fig6::fig7_locus_program(FIG7_MAX_TILE),
        locus_bench::bench_machine_tiny(THREADS),
    )
}

/// Every registry entry on every machine profile, entry-major.
pub fn registry_contexts() -> Vec<Context> {
    let profiles = all_profiles();
    let mut out = Vec::new();
    for entry in locus_corpus::all_programs() {
        for profile in &profiles {
            out.push(Context::new(
                format!("{}@{}", entry.name, profile.name),
                entry.program.clone(),
                entry.locus_program(),
                Machine::new(profile.config.clone()),
            ));
        }
    }
    out
}

/// One tuning session to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub context: usize,
    pub module: Module,
    pub seed: u64,
    pub budget: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One caller tuning the paper's Fig. 7 DGEMM program.
    Fig7,
    /// Every registry kernel on every machine profile.
    Corpus,
    /// Store-backed sessions against a pre-filled log.
    Warm,
}

/// The endless, seeded session list of a workload, produced in rounds
/// so that every prefix of whole rounds has the same mix.
pub struct Schedule {
    kind: Kind,
    contexts: usize,
    rng: SplitMix64,
    round: usize,
    queue: VecDeque<Spec>,
    warm: Option<WarmDecks>,
}

/// What warm-replay sessions draw from: the module of a Fig. 7 replay,
/// the registry context of a replay, and that of a fresh session.
struct WarmDecks {
    fig7_modules: Deck<Module>,
    replays: Deck<usize>,
    fresh: Deck<usize>,
}

impl Schedule {
    pub fn new(kind: Kind, contexts: usize, seed: u64) -> Schedule {
        Schedule {
            kind,
            contexts,
            rng: SplitMix64::new(seed ^ 0x5eed_5e55_1011),
            round: 0,
            queue: VecDeque::new(),
            warm: (kind == Kind::Warm).then(|| WarmDecks {
                fig7_modules: Deck::new(FIG7_ROTATION.to_vec()),
                replays: Deck::new((1..contexts).collect()),
                fresh: Deck::new((1..contexts).collect()),
            }),
        }
    }

    fn refill(&mut self) {
        let rng = &mut self.rng;
        let mut round: Vec<Spec> = match self.kind {
            // Each module of the rotation once per round.
            Kind::Fig7 => FIG7_ROTATION
                .iter()
                .map(|&module| Spec {
                    context: 0,
                    module,
                    seed: rng.next_u64(),
                    budget: FIG7_BUDGET,
                })
                .collect(),
            // Every context once per round; the module assigned to a
            // context moves one step along the rotation each round.
            Kind::Corpus => (0..self.contexts)
                .map(|c| Spec {
                    context: c,
                    module: CORPUS_ROTATION[(c + self.round) % CORPUS_ROTATION.len()],
                    seed: rng.next_u64(),
                    budget: CORPUS_BUDGET,
                })
                .collect(),
            // Context 0 is the fully swept Fig. 7 space, so any module
            // and seed replays it from the store; contexts 1.. are the
            // registry, where only the pre-fill's own bandit session
            // replays exactly. One session in four uses a fresh seed.
            Kind::Warm => {
                let decks = self.warm.as_mut().expect("warm-replay decks");
                let mut fig7 = || Spec {
                    context: 0,
                    module: decks.fig7_modules.draw(rng),
                    seed: rng.next_u64(),
                    budget: FIG7_BUDGET,
                };
                let (a, b) = (fig7(), fig7());
                let replay = Spec {
                    context: decks.replays.draw(rng),
                    module: Module::Bandit,
                    seed: PREFILL_SEED,
                    budget: CORPUS_BUDGET,
                };
                let fresh = Spec {
                    context: decks.fresh.draw(rng),
                    module: CORPUS_ROTATION[self.round % CORPUS_ROTATION.len()],
                    seed: rng.next_u64(),
                    budget: CORPUS_BUDGET,
                };
                vec![a, b, replay, fresh]
            }
        };
        rng.shuffle(&mut round);
        self.round += 1;
        self.queue.extend(round);
    }
}

impl Iterator for Schedule {
    type Item = Spec;

    fn next(&mut self) -> Option<Spec> {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop_front()
    }
}

/// A library workload after set-up.
pub struct Library {
    pub kind: Kind,
    pub contexts: Vec<Context>,
    /// The pre-filled store log (warm-replay only).
    pub store: Option<PathBuf>,
}

impl Library {
    /// Builds the workload's contexts and either runs warm-up sessions,
    /// so that lazy initialization is not timed, or (warm-replay)
    /// pre-fills the store log under `dir`.
    pub fn setup(kind: Kind, dir: &Path) -> Result<Library, String> {
        let contexts = match kind {
            Kind::Fig7 => vec![fig7_context(FIG7_N)],
            Kind::Corpus => registry_contexts(),
            Kind::Warm => {
                let mut contexts = vec![fig7_context(WARM_FIG7_N)];
                contexts.extend(registry_contexts());
                contexts
            }
        };
        let library = Library {
            kind,
            contexts,
            store: (kind == Kind::Warm).then(|| dir.join("warm.jsonl")),
        };
        match &library.store {
            // Warm up on what the timed part runs: every module of the
            // Fig. 7 rotation, or every registry context once.
            None => {
                let warm_ups: Vec<Spec> = match kind {
                    Kind::Fig7 => FIG7_ROTATION
                        .iter()
                        .map(|&module| Spec {
                            context: 0,
                            module,
                            seed: 0,
                            budget: WARM_UP_BUDGET,
                        })
                        .collect(),
                    _ => (0..library.contexts.len())
                        .map(|context| Spec {
                            context,
                            module: Module::Exhaustive,
                            seed: 0,
                            budget: WARM_UP_BUDGET,
                        })
                        .collect(),
                };
                for spec in &warm_ups {
                    run_session(&library.contexts[spec.context], spec, None, false)?;
                }
            }
            Some(path) => {
                let mut store = TuningStore::open(path).map_err(|e| e.to_string())?;
                let sweep = Spec {
                    context: 0,
                    module: Module::Exhaustive,
                    seed: 0,
                    budget: usize::try_from(library.contexts[0].space_size()?)
                        .map_err(|e| e.to_string())?,
                };
                run_session(&library.contexts[0], &sweep, Some(&mut store), false)?;
                for context in 1..library.contexts.len() {
                    let prefill = Spec {
                        context,
                        module: Module::Bandit,
                        seed: PREFILL_SEED,
                        budget: CORPUS_BUDGET,
                    };
                    run_session(
                        &library.contexts[context],
                        &prefill,
                        Some(&mut store),
                        false,
                    )?;
                }
            }
        }
        Ok(library)
    }

    /// Runs sessions from the seeded schedule, one after another, until
    /// the run's time is up.
    pub fn run(&self, config: &RunConfig) -> LibraryRun {
        let mut schedule = Schedule::new(self.kind, self.contexts.len(), config.seed);
        let mut run = LibraryRun::default();
        let mut calibration = Calibration::default();
        let start = Instant::now();
        let mut previous_end = start;
        while !config.time_is_up(start, run.timed.ops.len()) {
            let spec = schedule.next().expect("the schedule is endless");
            let op_start = Instant::now();
            let late_ms = op_start.duration_since(previous_end).as_secs_f64() * 1e3;
            let outcome = catch_unwind(AssertUnwindSafe(|| self.run_op(&spec, config.traced)))
                .unwrap_or_else(|_| Err("session panicked".to_string()));
            let latency_ms = op_start.elapsed().as_secs_f64() * 1e3;
            calibration.sample_every(CALIBRATION_INTERVAL);
            previous_end = Instant::now();
            if let Err(e) = &outcome {
                eprintln!("session {spec:?} failed: {e}");
            }
            let op = Op {
                latency_ms,
                late_ms,
                ok: outcome.is_ok(),
                speedup: outcome.as_ref().ok().map(|s| s.result.speedup()),
            };
            run.record(spec, op, outcome.ok());
        }
        run.timed.wall_s = start.elapsed().as_secs_f64();
        run.timed.reference_ms = calibration.median_ms().unwrap_or(f64::NAN);
        run
    }

    /// One operation: a tuning session, bracketed for warm-replay by
    /// opening and dropping the store as a command-line caller would.
    pub fn run_op(&self, spec: &Spec, traced: bool) -> Result<Session, String> {
        let context = &self.contexts[spec.context];
        match &self.store {
            None => run_session(context, spec, None, traced),
            Some(path) => {
                let open_start = Instant::now();
                let mut store = TuningStore::open(path).map_err(|e| e.to_string())?;
                let open_ms = open_start.elapsed().as_secs_f64() * 1e3;
                let mut session = run_session(context, spec, Some(&mut store), traced)?;
                session.store_open_ms = Some(open_ms);
                Ok(session)
            }
        }
    }
}

/// What one library session returned, plus its trace when traced.
pub struct Session {
    pub result: TuneResult,
    pub report: TuneReport,
    /// Wall-clock of the tuning call itself.
    pub tune_ms: f64,
    pub store_open_ms: Option<f64>,
    pub trace: Option<SessionTrace>,
}

/// The per-layer record of one traced session.
pub struct SessionTrace {
    pub phases: Phases,
    pub search: SearchTimes,
    pub kept: Vec<Point>,
}

/// Runs one session through the library. A traced session records the
/// driver's spans and wraps the search module in [`TimedSearch`].
pub fn run_session(
    context: &Context,
    spec: &Spec,
    store: Option<&mut TuningStore>,
    traced: bool,
) -> Result<Session, String> {
    let tracer = if traced {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let bare = spec.module.build(spec.seed);
    let (mut search, log): (Box<dyn SearchModule>, _) = if traced {
        let (timed, log) = TimedSearch::new(bare);
        (Box::new(timed), Some(log))
    } else {
        (bare, None)
    };
    let (program, locus, system) = (&context.program, &context.locus, &context.system);
    let start = Instant::now();
    let tuned = match store {
        Some(store) => system.tune_parallel_with_store_and_tracer(
            program,
            locus,
            search.as_mut(),
            spec.budget,
            THREADS,
            store,
            &tracer,
        ),
        None => system.tune_parallel_with_tracer(
            program,
            locus,
            search.as_mut(),
            spec.budget,
            THREADS,
            &tracer,
        ),
    };
    let tune_ms = start.elapsed().as_secs_f64() * 1e3;
    let (result, report) = tuned.map_err(|e| e.to_string())?;
    let trace = log.map(|log| SessionTrace {
        phases: Phases::from_events(&tracer.drain()),
        search: log.times(),
        kept: log.kept(),
    });
    Ok(Session {
        result,
        report,
        tune_ms,
        store_open_ms: None,
        trace,
    })
}

/// What a run keeps of one successful session. The session itself is
/// dropped, so the run's memory does not grow with its length.
pub struct Kept {
    pub report: TuneReport,
    /// Distinct points the search spent budget on.
    pub evaluations: usize,
    pub tune_ms: f64,
    pub store_open_ms: Option<f64>,
    pub trace: Option<SessionTrace>,
}

/// A variant sessions shipped: the first shipment's program and
/// measurement, and which operations shipped it.
pub struct Shipped {
    pub program: Program,
    pub measurement: Measurement,
    pub ops: Vec<usize>,
    /// Operations that shipped the same point with a measurement that
    /// is not bit-identical to the first.
    pub diverged: Vec<usize>,
}

/// Everything a library run recorded, in operation order.
#[derive(Default)]
pub struct LibraryRun {
    pub timed: Timed,
    pub specs: Vec<Spec>,
    /// `None` where the session failed.
    pub sessions: Vec<Option<Kept>>,
    /// Shipped variants by context and best point.
    pub shipped: BTreeMap<(usize, String), Shipped>,
}

impl LibraryRun {
    fn record(&mut self, spec: Spec, op: Op, session: Option<Session>) {
        let index = self.specs.len();
        let kept = session.map(|session| {
            if let Some((point, program, measurement)) = session.result.best {
                let shipped = self
                    .shipped
                    .entry((spec.context, point.canonical_key()))
                    .or_insert_with(|| Shipped {
                        program,
                        measurement: measurement.clone(),
                        ops: Vec::new(),
                        diverged: Vec::new(),
                    });
                if crate::check::identical(&shipped.measurement, &measurement) {
                    shipped.ops.push(index);
                } else {
                    shipped.diverged.push(index);
                }
            }
            Kept {
                report: session.report,
                evaluations: session.result.outcome.evaluations,
                tune_ms: session.tune_ms,
                store_open_ms: session.store_open_ms,
                trace: session.trace,
            }
        });
        self.specs.push(spec);
        self.timed.ops.push(op);
        self.sessions.push(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_session_list() {
        for (kind, contexts) in [(Kind::Fig7, 1), (Kind::Corpus, 60), (Kind::Warm, 61)] {
            let a: Vec<Spec> = Schedule::new(kind, contexts, 42).take(300).collect();
            let b: Vec<Spec> = Schedule::new(kind, contexts, 42).take(300).collect();
            let c: Vec<Spec> = Schedule::new(kind, contexts, 43).take(300).collect();
            assert_eq!(a, b, "{kind:?}");
            assert_ne!(a, c, "{kind:?}");
            assert!(a.iter().all(|s| s.context < contexts));
            assert!(a
                .iter()
                .all(|s| s.module != Module::Mcts && s.module != Module::Random));
        }
    }

    #[test]
    fn rounds_keep_the_mix_fixed() {
        let fig7: Vec<Spec> = Schedule::new(Kind::Fig7, 1, 9).take(50).collect();
        for round in fig7.chunks(FIG7_ROTATION.len()) {
            for module in FIG7_ROTATION {
                assert_eq!(round.iter().filter(|s| s.module == module).count(), 1);
            }
        }
        let corpus: Vec<Spec> = Schedule::new(Kind::Corpus, 60, 9).take(240).collect();
        for round in corpus.chunks(60) {
            let mut seen: Vec<usize> = round.iter().map(|s| s.context).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..60).collect::<Vec<_>>());
        }
        let warm: Vec<Spec> = Schedule::new(Kind::Warm, 61, 9).take(400).collect();
        for block in warm.chunks(4) {
            let fresh = block
                .iter()
                .filter(|s| s.context > 0 && s.seed != PREFILL_SEED)
                .count();
            assert_eq!(fresh, 1);
        }
    }
}
