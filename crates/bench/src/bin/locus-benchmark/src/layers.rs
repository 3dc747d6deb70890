//! Per-layer instrumentation recorded from the benchmark's side of each
//! layer boundary: a timing wrapper around the search module (and the
//! legality oracle the driver hands it), and the aggregation of the
//! driver's own `phase`, `machine` and `session` trace events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use locus_search::{LegalityOracle, Objective, SearchModule};
use locus_space::{Point, Space};
use locus_trace::{Event, Tracer};

/// How many distinct proposed points one session keeps for the probe
/// stage.
const KEPT_POINTS: usize = 8;

/// What a [`TimedSearch`] measured over one session.
#[derive(Debug, Default, Clone)]
pub struct SearchTimes {
    pub propose_ms: f64,
    pub propose_calls: u64,
    pub observe_ms: f64,
    pub oracle_calls: u64,
    pub oracle_ms: f64,
}

/// The counters a [`TimedSearch`] and its oracle share with the caller.
/// The oracle may run on any thread, so everything is atomic.
#[derive(Debug, Default)]
pub struct SearchLog {
    propose_ns: AtomicU64,
    propose_calls: AtomicU64,
    observe_ns: AtomicU64,
    oracle_ns: AtomicU64,
    oracle_calls: AtomicU64,
    kept: Mutex<Vec<Point>>,
}

impl SearchLog {
    pub fn times(&self) -> SearchTimes {
        let ms = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e6;
        SearchTimes {
            propose_ms: ms(&self.propose_ns),
            propose_calls: self.propose_calls.load(Ordering::Relaxed),
            observe_ms: ms(&self.observe_ns),
            oracle_calls: self.oracle_calls.load(Ordering::Relaxed),
            oracle_ms: ms(&self.oracle_ns),
        }
    }

    /// Up to [`KEPT_POINTS`] distinct points the module proposed.
    pub fn kept(&self) -> Vec<Point> {
        self.kept.lock().expect("kept points").clone()
    }
}

fn add_elapsed(counter: &AtomicU64, start: Instant) {
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(nanos, Ordering::Relaxed);
}

/// A search module wrapped so that every call the driver makes into it
/// is timed: `propose_batch`, `observe` and `seed_observations` (the
/// latter two count as observation time), plus every legality-oracle
/// call the module makes while proposing. Proposals and objectives
/// pass through untouched, so the wrapped module proposes exactly what
/// the bare one would.
pub struct TimedSearch {
    inner: Box<dyn SearchModule>,
    log: Arc<SearchLog>,
}

impl TimedSearch {
    pub fn new(inner: Box<dyn SearchModule>) -> (TimedSearch, Arc<SearchLog>) {
        let log = Arc::new(SearchLog::default());
        (
            TimedSearch {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl SearchModule for TimedSearch {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, space: &Space, budget: usize) {
        self.inner.begin(space, budget);
    }

    fn seed_observations(&mut self, space: &Space, prior: &[(Point, f64)]) {
        let start = Instant::now();
        self.inner.seed_observations(space, prior);
        add_elapsed(&self.log.observe_ns, start);
    }

    fn attach_tracer(&mut self, tracer: &Tracer) {
        self.inner.attach_tracer(tracer);
    }

    fn attach_pruner(&mut self, oracle: &LegalityOracle) {
        let inner = Arc::clone(oracle);
        let log = Arc::clone(&self.log);
        let timed: LegalityOracle = Arc::new(move |point: &Point| {
            let start = Instant::now();
            let legal = inner(point);
            add_elapsed(&log.oracle_ns, start);
            log.oracle_calls.fetch_add(1, Ordering::Relaxed);
            legal
        });
        self.inner.attach_pruner(&timed);
    }

    fn propose(&mut self, space: &Space) -> Option<Point> {
        self.propose_batch(space, 1).pop()
    }

    fn propose_batch(&mut self, space: &Space, k: usize) -> Vec<Point> {
        let start = Instant::now();
        let batch = self.inner.propose_batch(space, k);
        add_elapsed(&self.log.propose_ns, start);
        self.log.propose_calls.fetch_add(1, Ordering::Relaxed);
        let mut kept = self.log.kept.lock().expect("kept points");
        for point in &batch {
            if kept.len() < KEPT_POINTS && !kept.contains(point) {
                kept.push(point.clone());
            }
        }
        batch
    }

    fn observe(&mut self, point: &Point, objective: Objective, fresh: bool) {
        let start = Instant::now();
        self.inner.observe(point, objective, fresh);
        add_elapsed(&self.log.observe_ns, start);
    }
}

/// One session's driver spans and accounting, read back from its trace
/// events (the library tracer, or one request's slice of the daemon's
/// trace log).
#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub prepare_ms: f64,
    pub baseline_ms: f64,
    pub propose_ms: f64,
    pub build_verify_ms: f64,
    pub measure_ms: f64,
    pub merge_ms: f64,
    pub finalize_ms: f64,
    pub rehydrate_ms: f64,
    pub warm_start_ms: f64,
    pub append_ms: f64,
    pub compile_ms: f64,
    pub sim_ms: f64,
    /// First phase start to last phase end, in milliseconds.
    pub extent_ms: f64,
    pub proposed: u64,
    pub evaluations: u64,
    pub memo_hits: u64,
    pub store_hits: u64,
    pub rehydrated: u64,
    pub appended: u64,
    pub threads: u64,
}

impl Phases {
    pub fn from_events(events: &[Event]) -> Phases {
        let mut p = Phases::default();
        let mut first = u64::MAX;
        let mut last = 0u64;
        for event in events {
            let ms = event.dur_us.unwrap_or(0) as f64 / 1e3;
            match (event.cat.as_str(), event.name.as_str()) {
                ("phase", name) => {
                    let slot = match name {
                        "prepare" => &mut p.prepare_ms,
                        "baseline" => &mut p.baseline_ms,
                        "propose" => &mut p.propose_ms,
                        "build-verify" => &mut p.build_verify_ms,
                        "measure" => &mut p.measure_ms,
                        "merge" => &mut p.merge_ms,
                        "finalize-best" => &mut p.finalize_ms,
                        "store-rehydrate" => &mut p.rehydrate_ms,
                        "warm-start" => &mut p.warm_start_ms,
                        "store-append" => &mut p.append_ms,
                        _ => continue,
                    };
                    *slot += ms;
                    first = first.min(event.ts_us);
                    last = last.max(event.ts_us + event.dur_us.unwrap_or(0));
                }
                ("machine", "compile-regvm") => p.compile_ms += ms,
                ("machine", "vm-measure") => p.sim_ms += ms,
                ("session", "summary") => {
                    let count = |key: &str| event.arg(key).and_then(|v| v.as_u64()).unwrap_or(0);
                    p.proposed = count("proposed");
                    p.evaluations = count("evaluations");
                    p.memo_hits = count("memo_hits");
                    p.store_hits = count("store_hits");
                    p.rehydrated = count("rehydrated");
                    p.appended = count("appended");
                    p.threads = count("threads");
                }
                _ => {}
            }
        }
        if first < last {
            p.extent_ms = (last - first) as f64 / 1e3;
        }
        p
    }

    /// Every top-level phase span of the session, summed.
    pub fn total_ms(&self) -> f64 {
        self.prepare_ms
            + self.baseline_ms
            + self.propose_ms
            + self.build_verify_ms
            + self.measure_ms
            + self.merge_ms
            + self.finalize_ms
            + self.rehydrate_ms
            + self.warm_start_ms
            + self.append_ms
    }
}

/// The per-layer record of one operation of a traced run.
#[derive(Debug, Clone)]
pub struct OpLayers {
    /// The operation as its caller saw it.
    pub latency_ms: f64,
    /// The tuning call alone (library), or the span of the request's
    /// phases (service).
    pub session_ms: f64,
    pub budget: usize,
    pub phases: Phases,
    pub search: Option<SearchTimes>,
    /// Distinct points the search spent budget on, over the budget.
    pub budget_used: Option<f64>,
    pub store_open_ms: Option<f64>,
}

/// Everything a traced run measured, ready to be reduced to the
/// per-layer catalogue.
pub struct LayerRun<'a> {
    pub ops: &'a [OpLayers],
    pub timed: &'a crate::Timed,
    pub probes: &'a crate::probes::LayerProbes,
    pub census: &'a [(crate::library::Module, f64)],
    pub overhead: f64,
    /// Search timings of the sessions the overhead measurement traced,
    /// used where the timed part could not wrap the module (the daemon
    /// builds its own).
    pub overhead_search: Vec<SearchTimes>,
    pub connect_ms: &'a [f64],
    /// Reopening the workload's real store, where it has one that is
    /// not reopened per operation.
    pub store_open_ms: Option<f64>,
    pub store_bytes: Option<u64>,
    pub backlog: usize,
    /// Wire codec costs measured on the workload's own lines.
    pub codec_us: Option<(f64, f64)>,
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    crate::stats::mean(&items.iter().map(f).collect::<Vec<f64>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reduces a traced run to the per-layer catalogue. Store and daemon
/// costs come from the operations where the workload exercises those
/// layers, and from the probe stage where it does not.
pub fn summarize(run: &LayerRun, values: &mut crate::metrics::Values) {
    let ops = run.ops;
    let p = |f: fn(&Phases) -> f64| mean_of(ops, |o| f(&o.phases));
    values.set("core.prepare_ms", p(|x| x.prepare_ms));
    values.set("core.baseline_ms", p(|x| x.baseline_ms));
    values.set("core.propose_ms", p(|x| x.propose_ms));
    values.set("core.build_verify_ms", p(|x| x.build_verify_ms));
    values.set("core.merge_ms", p(|x| x.merge_ms));
    values.set("core.finalize_ms", p(|x| x.finalize_ms));
    values.set(
        "core.outside_ms",
        mean_of(ops, |o| o.latency_ms - o.phases.total_ms()),
    );
    let traced: f64 = ops.iter().map(|o| o.phases.total_ms()).sum();
    let session: f64 = ops.iter().map(|o| o.session_ms).sum();
    values.set("core.untraced_share", 1.0 - ratio(traced, session));
    values.set("core.proposed", p(|x| x.proposed as f64));
    values.set("core.evaluations", p(|x| x.evaluations as f64));
    values.set("core.memo_hits", p(|x| x.memo_hits as f64));
    values.set("core.store_hits", p(|x| x.store_hits as f64));
    let proposed: f64 = ops.iter().map(|o| o.phases.proposed as f64).sum();
    let evaluations: f64 = ops.iter().map(|o| o.phases.evaluations as f64).sum();
    values.set("core.fresh_ratio", ratio(evaluations, proposed));
    values.set(
        "core.overshoot",
        mean_of(ops, |o| {
            o.phases.evaluations.saturating_sub(o.budget as u64) as f64
        }),
    );

    let search: Vec<SearchTimes> = if ops.iter().any(|o| o.search.is_some()) {
        ops.iter().filter_map(|o| o.search.clone()).collect()
    } else {
        run.overhead_search.clone()
    };
    values.set("search.propose_ms", mean_of(&search, |s| s.propose_ms));
    values.set(
        "search.propose_calls",
        mean_of(&search, |s| s.propose_calls as f64),
    );
    values.set("search.observe_ms", mean_of(&search, |s| s.observe_ms));
    values.set(
        "search.oracle_calls",
        mean_of(&search, |s| s.oracle_calls as f64),
    );
    values.set("search.oracle_ms", mean_of(&search, |s| s.oracle_ms));
    let used: Vec<f64> = ops.iter().filter_map(|o| o.budget_used).collect();
    values.set("search.budget_used", crate::stats::mean(&used));
    for (module, share) in run.census {
        let name = format!("search.budget_used.{}", module.name());
        if let Some(metric) = crate::metrics::PER_LAYER.iter().find(|m| m.name == name) {
            values.set(metric.name, *share);
        }
    }

    values.set("machine.measure_ms", p(|x| x.measure_ms));
    values.set("machine.compile_ms", p(|x| x.compile_ms));
    values.set("machine.sim_ms", p(|x| x.sim_ms));
    let busy: f64 = ops
        .iter()
        .map(|o| o.phases.compile_ms + o.phases.sim_ms)
        .sum();
    let capacity: f64 = ops
        .iter()
        .map(|o| o.phases.measure_ms * o.phases.threads.max(1) as f64)
        .sum();
    values.set("machine.busy_share", ratio(busy, capacity));
    let probes = run.probes;
    values.set("machine.compile_us", probes.compile_us);
    values.set("machine.sim_us", probes.sim_us);
    values.set("lang.direct_program_us", probes.direct_program_us);
    values.set("transform.build_variant_us", probes.build_variant_us);
    values.set("analysis.deps_us", probes.deps_us);

    let store_backed = run.store_bytes.is_some();
    let opens: Vec<f64> = ops.iter().filter_map(|o| o.store_open_ms).collect();
    values.set(
        "store.open_ms",
        if !opens.is_empty() {
            crate::stats::mean(&opens)
        } else {
            run.store_open_ms.unwrap_or(probes.store.open_ms)
        },
    );
    if store_backed {
        values.set(
            "store.rehydrate_ms",
            p(|x| x.rehydrate_ms + x.warm_start_ms),
        );
        values.set("store.append_ms", p(|x| x.append_ms));
    } else {
        values.set("store.rehydrate_ms", probes.store.rehydrate_ms);
        values.set("store.append_ms", probes.store.append_ms);
    }
    values.set(
        "store.bytes",
        run.store_bytes.unwrap_or(probes.store.bytes) as f64,
    );
    values.set("store.rehydrated", p(|x| x.rehydrated as f64));
    values.set("store.appended", p(|x| x.appended as f64));

    values.set(
        "daemon.connect_ms",
        crate::stats::median(run.connect_ms).unwrap_or(0.0),
    );
    let (encode_us, decode_us) = run.codec_us.unwrap_or((probes.encode_us, probes.decode_us));
    values.set("daemon.encode_us", encode_us);
    values.set("daemon.decode_us", decode_us);

    values.set("load.backlog", run.backlog as f64);
    let late: Vec<f64> = run.timed.ops.iter().map(|o| o.late_ms).collect();
    values.set(
        "load.late_ms.p90",
        crate::stats::percentile(&late, 90.0).unwrap_or(0.0),
    );
    values.set("trace.overhead", run.overhead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_search::{BanditTuner, Bookkeeper};
    use locus_space::{ParamDef, ParamKind};

    fn space() -> Space {
        let mut space = Space::new();
        space.add(ParamDef::new("x", ParamKind::Integer { min: 0, max: 40 }));
        space
    }

    /// The wrapper passes proposals through unchanged, so a wrapped run
    /// makes the same choices as a bare one.
    #[test]
    fn timed_search_proposes_what_the_bare_module_proposes() {
        let space = space();
        let run = |module: &mut dyn SearchModule| {
            module.begin(&space, 24);
            let mut book = Bookkeeper::new(24);
            let mut seen = Vec::new();
            while !book.done() {
                let batch = module.propose_batch(&space, 4);
                if batch.is_empty() {
                    break;
                }
                for point in &batch {
                    seen.push(point.canonical_key());
                    let x = point.get("x").and_then(|v| v.as_int()).unwrap_or(0) as f64;
                    let (objective, fresh) =
                        book.record(point, |_| Objective::Value((x - 17.0).abs()));
                    module.observe(point, objective, fresh);
                }
            }
            seen
        };
        let bare = run(&mut BanditTuner::new(5));
        let (mut timed, log) = TimedSearch::new(Box::new(BanditTuner::new(5)));
        let wrapped = run(&mut timed);
        assert_eq!(bare, wrapped);
        assert!(log.times().propose_calls > 0);
        let kept = log.kept();
        assert!(!kept.is_empty() && kept.len() <= KEPT_POINTS);
    }

    #[test]
    fn phases_sum_driver_spans_and_read_the_summary() {
        let tracer = Tracer::enabled();
        {
            let _a = tracer.span("phase", "prepare");
        }
        {
            let _b = tracer.span("phase", "propose");
        }
        tracer.instant("session", "summary", || {
            vec![
                locus_trace::kv("proposed", 9u64),
                locus_trace::kv("evaluations", 4u64),
                locus_trace::kv("memo_hits", 5u64),
            ]
        });
        let phases = Phases::from_events(&tracer.events());
        assert_eq!(phases.proposed, 9);
        assert_eq!(phases.evaluations, 4);
        assert_eq!(phases.memo_hits, 5);
        assert!(phases.total_ms() >= 0.0);
        assert!(phases.extent_ms >= phases.total_ms() - 1e-9);
    }
}
