//! `locus-benchmark`: the Locus tuner measured end to end on four
//! seeded workloads, with a separate traced run for per-layer numbers.
//!
//! ```text
//! locus-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! locus-benchmark --runs <N> [--workload <name>]... [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! A run sets the workload up three times (reporting the median set-up
//! time), measures operations for `--seconds` (and at least
//! [`MIN_OPS`] of them), checks every output against the tree
//! interpreter, and prints one JSON line last: `correct`, `attempted`,
//! `failed` and the metrics — the end-to-end catalogue untraced, the
//! per-layer catalogue with `--trace 1`. It exits non-zero when an
//! operation failed or a check did not hold. `--runs N` runs each
//! workload N times in child processes, alternating workloads and
//! seeds, and prints every metric's median and quartiles.

mod calibrate;
mod check;
mod deck;
mod layers;
mod library;
mod metrics;
mod probes;
mod procfs;
mod runs;
mod service;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use layers::{LayerRun, OpLayers};
use library::{Kind, Library, LibraryRun, Module, Spec};
use metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use service::{Service, ServiceRun};

/// The workloads, in the order `--runs` cycles through them.
pub const WORKLOADS: [&str; 4] = ["fig7-dgemm", "corpus-sweep", "warm-replay", "service"];
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// Reference samples taken before and after each set-up.
const SETUP_SAMPLES: usize = 5;
/// A library run keeps measuring past `--seconds` until it has this many
/// operations (so p90 has ten samples beyond it), up to three times the
/// requested time.
const MIN_OPS: usize = 100;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
/// Sessions re-run traced and untraced to measure tracing overhead.
const OVERHEAD_PAIRS: usize = 8;
/// How often a run times the reference computation.
pub const CALIBRATION_INTERVAL: std::time::Duration = std::time::Duration::from_millis(100);
/// Where runs keep their stores and logs, relative to the working
/// directory.
const RUN_ROOT: &str = ".bench_run";

/// The settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl RunConfig {
    /// Whether a closed loop that started at `start` and has completed
    /// `ops` operations should stop.
    pub fn time_is_up(&self, start: Instant, ops: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed >= self.seconds && (ops >= MIN_OPS || elapsed >= 3.0 * self.seconds)
    }
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Completion minus the time the operation was due.
    pub latency_ms: f64,
    /// How late the load generator started the operation.
    pub late_ms: f64,
    pub ok: bool,
    pub speedup: Option<f64>,
}

/// The timed part of a run.
#[derive(Debug, Default)]
pub struct Timed {
    pub ops: Vec<Op>,
    pub wall_s: f64,
    /// Median time of the reference computation during the timed part
    /// (see [`calibrate`]), in milliseconds.
    pub reference_ms: f64,
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: Option<usize>,
}

const USAGE: &str =
    "usage: locus-benchmark --workload <fig7-dgemm|corpus-sweep|warm-replay|service> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>] [--runs <N>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        runs: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workloads.push(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => args.runs = Some(value()?.parse().map_err(|e| format!("--runs: {e}"))?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.runs.is_none() && args.workloads.len() != 1 {
        return Err("exactly one --workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    if let Some(n) = args.runs {
        let workloads = if args.workloads.is_empty() {
            WORKLOADS.iter().map(|w| w.to_string()).collect()
        } else {
            args.workloads
        };
        return runs::repeat(n, &workloads, &config);
    }
    let workload = &args.workloads[0];
    let outcome = RunDir::create(workload).and_then(|dir| run(workload, &config, &dir.0));
    match outcome {
        Ok(outcome) => {
            let catalogue = if config.traced { PER_LAYER } else { END_TO_END };
            let (line, correct) = metrics::result_line(&outcome, catalogue);
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A private working directory under [`RUN_ROOT`], removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str) -> Result<RunDir, String> {
        let path = Path::new(RUN_ROOT).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind; this fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
}

fn run(workload: &str, config: &RunConfig, dir: &Path) -> Result<Outcome, String> {
    match workload {
        "fig7-dgemm" => run_library(Kind::Fig7, config, dir),
        "corpus-sweep" => run_library(Kind::Corpus, config, dir),
        "warm-replay" => run_library(Kind::Warm, config, dir),
        "service" => run_service(config, dir),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The set-up times of a run and the reference time around them.
struct Setups {
    times_s: Vec<f64>,
    reference_ms: f64,
}

/// Sets up [`SETUPS`] times, each in a fresh directory, keeping the last
/// set-up. The reference computation is timed [`SETUP_SAMPLES`] times
/// before and after every set-up.
fn set_up<T>(
    dir: &Path,
    mut make: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(T, Setups), String> {
    let mut times_s = Vec::with_capacity(SETUPS);
    let mut calibration = calibrate::Calibration::default();
    let mut sample = || {
        for _ in 0..SETUP_SAMPLES {
            calibration.sample_every(std::time::Duration::ZERO);
        }
    };
    let mut kept: Option<(T, PathBuf)> = None;
    for k in 0..SETUPS {
        let path = dir.join(format!("setup-{k}"));
        std::fs::create_dir_all(&path).map_err(|e| e.to_string())?;
        sample();
        let start = Instant::now();
        let made = make(&path)?;
        times_s.push(start.elapsed().as_secs_f64());
        sample();
        if let Some((old, old_path)) = kept.replace((made, path)) {
            drop(old);
            let _ = std::fs::remove_dir_all(old_path);
        }
    }
    let (made, _) = kept.expect("at least one set-up");
    let setups = Setups {
        times_s,
        reference_ms: calibration.median_ms().unwrap_or(f64::NAN),
    };
    eprintln!(
        "set-up times (s): {:?}; reference {:.4} ms",
        setups.times_s, setups.reference_ms
    );
    Ok((made, setups))
}

/// The end-to-end catalogue from the set-ups and the timed part. Times
/// are at reference speed: latencies in multiples of the reference
/// computation's median time, the set-up time in seconds on a machine
/// that runs the reference in [`calibrate::NOMINAL_MS`]. A failed
/// operation counts as infinitely slow.
fn end_to_end(setups: &Setups, timed: &Timed, values: &mut Values) {
    let latencies: Vec<f64> = timed.ops.iter().map(|o| o.latency_ms).collect();
    let n = latencies.len();
    let at = |q: f64| stats::percentile(&latencies, q).unwrap_or(f64::NAN);
    let tail =
        stats::tail_percentile(n).map_or("none".to_string(), |q| format!("p{q} = {:.3} ms", at(q)));
    eprintln!(
        "{n} operations in {:.2}s; latency p50 {:.3} ms, p90 {:.3} ms; highest tail with ten \
         samples beyond: {tail}; reference {:.4} ms",
        timed.wall_s,
        at(50.0),
        at(90.0),
        timed.reference_ms,
    );
    let setup_s = stats::median(&setups.times_s).unwrap_or(f64::NAN);
    values.set(
        "setup_s",
        setup_s * calibrate::NOMINAL_MS / setups.reference_ms,
    );
    values.set("latency.p50", at(50.0) / timed.reference_ms);
    values.set("latency.p90", at(90.0) / timed.reference_ms);
    let speedups: Vec<f64> = timed.ops.iter().filter_map(|o| o.speedup).collect();
    values.set("speedup.geomean", locus_bench::geomean(&speedups));
    values.set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(f64::NAN));
}

/// Failed operations plus operations that succeeded but failed a check.
fn count_failed(timed: &Timed, failed_checks: &[usize]) -> usize {
    let failed_ops = timed.ops.iter().filter(|o| !o.ok).count();
    failed_ops + failed_checks.iter().filter(|&&i| timed.ops[i].ok).count()
}

fn run_library(kind: Kind, config: &RunConfig, dir: &Path) -> Result<Outcome, String> {
    let (workload, setup) = set_up(dir, |path| Library::setup(kind, path))?;
    let run = workload.run(config);
    let failed = count_failed(&run.timed, &check::library(&workload, &run));
    let mut values = Values::default();
    if config.traced {
        library_layers(&workload, &run, config, dir, &mut values)?;
    } else {
        end_to_end(&setup, &run.timed, &mut values);
    }
    Ok(Outcome {
        attempted: run.timed.ops.len(),
        failed,
        values,
    })
}

fn library_layers(
    workload: &Library,
    run: &LibraryRun,
    config: &RunConfig,
    dir: &Path,
    values: &mut Values,
) -> Result<(), String> {
    let mut ops = Vec::new();
    let mut points = Vec::new();
    for ((spec, kept), op) in run.specs.iter().zip(&run.sessions).zip(&run.timed.ops) {
        let Some(kept) = kept else { continue };
        let trace = kept.trace.as_ref().ok_or("a traced session has no trace")?;
        for point in &trace.kept {
            let item = (spec.context, point.clone());
            if points.len() < probes::MAX_POINTS && !points.contains(&item) {
                points.push(item);
            }
        }
        ops.push(OpLayers {
            latency_ms: op.latency_ms,
            session_ms: kept.tune_ms,
            budget: spec.budget,
            phases: trace.phases.clone(),
            search: Some(trace.search.clone()),
            budget_used: Some(kept.evaluations as f64 / spec.budget as f64),
            store_open_ms: kept.store_open_ms,
        });
    }
    let probes = probes::layers(&workload.contexts, &points, dir)?;
    let connect_ms = probes::connect_probe(dir)?;
    let (census_context, budget) = match workload.kind {
        Kind::Fig7 | Kind::Warm => (&workload.contexts[0], 64),
        Kind::Corpus => (
            workload
                .contexts
                .iter()
                .find(|c| c.label == "poly-syrk@scaled-xeon")
                .ok_or("the registry lost poly-syrk")?,
            32,
        ),
    };
    let census = probes::census(census_context, budget, config.seed)?;
    // Warm-replay sessions append to the shared log; replays of the
    // fully swept context are the ones that repeat identically.
    let specs: Vec<&Spec> = run
        .specs
        .iter()
        .filter(|s| workload.kind != Kind::Warm || s.context == 0)
        .take(OVERHEAD_PAIRS)
        .collect();
    let (overhead, _) =
        probes::trace_overhead(specs.len(), |i, traced| workload.run_op(specs[i], traced))?;
    let store_bytes = workload
        .store
        .as_ref()
        .and_then(|path| std::fs::metadata(path).ok())
        .map(|m| m.len());
    layers::summarize(
        &LayerRun {
            ops: &ops,
            timed: &run.timed,
            probes: &probes,
            census: &census,
            overhead,
            overhead_search: Vec::new(),
            connect_ms: &connect_ms,
            store_open_ms: None,
            store_bytes,
            backlog: 0,
            codec_us: None,
        },
        values,
    );
    Ok(())
}

fn run_service(config: &RunConfig, dir: &Path) -> Result<Outcome, String> {
    let (workload, setup) = set_up(dir, |path| Service::setup(path, config.traced))?;
    let run = workload.run(config)?;
    run.print_ladder();
    let failed = count_failed(&run.timed, &check::service(&workload, &run));
    let mut values = Values::default();
    if config.traced {
        service_layers(workload, &run, config, dir, &mut values)?;
    } else {
        end_to_end(&setup, &run.timed, &mut values);
    }
    Ok(Outcome {
        attempted: run.timed.ops.len(),
        failed,
        values,
    })
}

fn service_layers(
    workload: Service,
    run: &ServiceRun,
    config: &RunConfig,
    dir: &Path,
    values: &mut Values,
) -> Result<(), String> {
    let connect_ms = workload.connect_ms()?;
    let store_bytes = workload.store_bytes();
    let store_open_ms = workload.stop()?;
    // The tune requests again, as library sessions on the registry
    // contexts they named: probe points, and the overhead measurement.
    let contexts = library::registry_contexts();
    let index_of = |kernel: &str, machine: &str| {
        let label = format!("{kernel}@{machine}");
        contexts.iter().position(|c| c.label == label)
    };
    let mut ops = Vec::new();
    let mut specs = Vec::new();
    let mut points = Vec::new();
    for (answered, op) in run.requests.iter().zip(&run.timed.ops) {
        let request = &answered.planned.request;
        let (Some(phases), Some(reply)) = (&answered.phases, &answered.response) else {
            continue;
        };
        let Some(context) = index_of(&request.kernel, &request.machine) else {
            continue;
        };
        let module = Module::ALL
            .into_iter()
            .find(|m| m.name() == request.search)
            .ok_or("a request named an unknown module")?;
        ops.push(OpLayers {
            latency_ms: op.latency_ms,
            session_ms: phases.extent_ms,
            budget: request.budget,
            phases: phases.clone(),
            search: None,
            budget_used: None,
            store_open_ms: None,
        });
        specs.push(Spec {
            context,
            module,
            seed: request.seed,
            budget: request.budget,
        });
        let best = reply.get_str("best_point").unwrap_or_default();
        if let Some(point) = locus_space::Point::parse_canonical_key(best) {
            let item = (context, point);
            if !best.is_empty() && points.len() < probes::MAX_POINTS && !points.contains(&item) {
                points.push(item);
            }
        }
    }
    let probes = probes::layers(&contexts, &points, dir)?;
    let census_context = index_of("dgemm", "scaled-xeon").ok_or("the registry lost dgemm")?;
    let census = probes::census(&contexts[census_context], 16, config.seed)?;
    let pairs = specs.len().min(OVERHEAD_PAIRS);
    let (overhead, traced) = probes::trace_overhead(pairs, |i, traced| {
        library::run_session(&contexts[specs[i].context], &specs[i], None, traced)
    })?;
    // The daemon builds its own search modules, so search timings and
    // budget use come from the same requests re-run through the library.
    for (op, session) in ops.iter_mut().zip(&traced) {
        op.budget_used = Some(session.result.outcome.evaluations as f64 / op.budget as f64);
    }
    layers::summarize(
        &LayerRun {
            ops: &ops,
            timed: &run.timed,
            probes: &probes,
            census: &census,
            overhead,
            overhead_search: traced
                .iter()
                .filter_map(|s| s.trace.as_ref().map(|t| t.search.clone()))
                .collect(),
            connect_ms: &connect_ms,
            store_open_ms: Some(store_open_ms),
            store_bytes: Some(store_bytes),
            backlog: run.backlog.iter().copied().max().unwrap_or(0),
            codec_us: Some((run.encode_us, run.decode_us)),
        },
        values,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_follow_the_command_line_contract() {
        let args = parse(&[
            "--workload",
            "service",
            "--seed",
            "9",
            "--seconds",
            "4",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(args.workloads, ["service"]);
        assert_eq!((args.seed, args.seconds, args.traced), (9, 4.0, true));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "service", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "service", "--seconds", "0"]).is_err());
        assert!(parse(&["--runs", "3"]).is_ok());
    }
}
