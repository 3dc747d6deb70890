//! The probe stage of a traced run: isolated calls into single layers
//! on inputs the workload itself produced, plus the search census and
//! the tracing-overhead measurement.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use locus_core::Prepared;
use locus_daemon::{Daemon, DaemonConfig, Op, Request, Response};
use locus_machine::CompiledVariant;
use locus_search::Objective;
use locus_space::Point;
use locus_srcir::hash::fnv1a;
use locus_srcir::region::{extract_region, find_regions};
use locus_store::{EvalRecord, StoreKey, TuningStore};
use locus_trace::Tracer;

use crate::layers::Phases;
use crate::library::{run_session, Context, Module, Spec};
use crate::stats::mean;

/// Most points one workload's probe stage measures.
pub const MAX_POINTS: usize = 64;

/// Mean cost of each isolated layer call.
#[derive(Debug, Default)]
pub struct LayerProbes {
    pub direct_program_us: f64,
    pub build_variant_us: f64,
    pub deps_us: f64,
    pub compile_us: f64,
    pub sim_us: f64,
    pub store: StoreProbe,
    pub encode_us: f64,
    pub decode_us: f64,
}

/// A fresh single-file store holding one record per probed point.
#[derive(Debug, Default)]
pub struct StoreProbe {
    pub append_ms: f64,
    pub open_ms: f64,
    pub rehydrate_ms: f64,
    pub bytes: u64,
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Probes every layer on `points` (context index, point) of `contexts`:
/// the direct program and the variant build of each point, dependence
/// analysis of the built region, its compilation and simulation, then a
/// store log of the measurements and the wire codec on a request and
/// reply describing each point.
pub fn layers(
    contexts: &[Context],
    points: &[(usize, Point)],
    dir: &Path,
) -> Result<LayerProbes, String> {
    let mut prepared: HashMap<usize, Prepared> = HashMap::new();
    let (mut direct, mut build, mut deps, mut compile, mut sim) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut records: HashMap<usize, Vec<EvalRecord>> = HashMap::new();
    let mut lines = Vec::new();
    for (index, point) in points.iter().take(MAX_POINTS) {
        let context = &contexts[*index];
        let system = &context.system;
        if !prepared.contains_key(index) {
            let p = system
                .prepare(&context.program, &context.locus)
                .map_err(|e| e.to_string())?;
            prepared.insert(*index, p);
        }
        let prep = &prepared[index];

        let start = Instant::now();
        let recipe = system.direct_program(prep, point);
        direct.push(us_since(start));

        let start = Instant::now();
        let built = system.build_variant(&context.program, prep, point);
        build.push(us_since(start));
        let Ok(program) = built else { continue };

        let region = find_regions(&program)
            .into_iter()
            .filter(|r| prep.locus.codereg(&r.id).is_some())
            .find_map(|r| extract_region(&program, &r));
        if let Some(region) = region {
            let start = Instant::now();
            std::hint::black_box(locus_analysis::deps::analyze_region(&region.stmt));
            deps.push(us_since(start));
        }

        let variant = CompiledVariant::new(program, &system.entry);
        let config = system.machine.config();
        let tracer = Tracer::enabled();
        let first = variant.run_traced(config, &tracer);
        let phases = Phases::from_events(&tracer.drain());
        compile.push(phases.compile_ms * 1e3);
        let start = Instant::now();
        let second = variant.run(config);
        sim.push(us_since(start));
        let (Ok(m), Ok(_)) = (first, second) else {
            continue;
        };

        records.entry(*index).or_default().push(EvalRecord {
            point_key: point.canonical_key(),
            variant: fnv1a(recipe.as_bytes()),
            objective: Objective::Value(m.time_ms),
            cycles: m.cycles,
            ops: m.ops,
            flops: m.flops,
            checksum: m.checksum,
            search: "probe".to_string(),
            wall_ms: sim.last().copied().unwrap_or(0.0) / 1e3,
        });
        let mut request = Request::new(&format!("p{}", lines.len()), Op::Tune);
        request.kernel = context.label.clone();
        let reply = Response::ok(&request.id)
            .with_str("kernel", &context.label)
            .with_f64("baseline_ms", m.time_ms)
            .with_u64("evaluations", 1)
            .with_str("best_point", &point.canonical_key())
            .with_f64("best_ms", m.time_ms)
            .with_str("checksum", &format!("{:016x}", m.checksum));
        lines.push((request, reply));
    }

    let keys: HashMap<usize, StoreKey> = prepared
        .iter()
        .map(|(&i, p)| (i, contexts[i].system.store_key(&contexts[i].program, p)))
        .collect();
    let store = store_probe(&dir.join("probe.jsonl"), &keys, &records)?;
    let (encode_us, decode_us) = codec_probe(&lines)?;
    Ok(LayerProbes {
        direct_program_us: mean(&direct),
        build_variant_us: mean(&build),
        deps_us: mean(&deps),
        compile_us: mean(&compile),
        sim_us: mean(&sim),
        store,
        encode_us,
        decode_us,
    })
}

/// Appends the records to a fresh log, reopens it, and reads every
/// key's records back.
fn store_probe(
    path: &Path,
    keys: &HashMap<usize, StoreKey>,
    records: &HashMap<usize, Vec<EvalRecord>>,
) -> Result<StoreProbe, String> {
    let mut probe = StoreProbe::default();
    {
        let mut store = TuningStore::open(path).map_err(|e| e.to_string())?;
        let start = Instant::now();
        for (index, batch) in records {
            store
                .append_evals(&keys[index], batch)
                .map_err(|e| e.to_string())?;
        }
        probe.append_ms = start.elapsed().as_secs_f64() * 1e3;
    }
    let start = Instant::now();
    let store = TuningStore::open(path).map_err(|e| e.to_string())?;
    probe.open_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let read: usize = keys
        .values()
        .map(|key| std::hint::black_box(store.evals(key)).len())
        .sum();
    probe.rehydrate_ms = start.elapsed().as_secs_f64() * 1e3;
    if read != records.values().map(Vec::len).sum::<usize>() {
        return Err(format!("store probe read back {read} records"));
    }
    probe.bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok(probe)
}

/// Mean microseconds to encode a request line and to parse a reply
/// line.
fn codec_probe(lines: &[(Request, Response)]) -> Result<(f64, f64), String> {
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for (request, reply) in lines {
        let start = Instant::now();
        std::hint::black_box(request.encode());
        encode.push(us_since(start));
        let text = reply.encode();
        let start = Instant::now();
        let parsed = Response::parse(&text).map_err(|e| e.to_string())?;
        decode.push(us_since(start));
        if parsed != *reply {
            return Err(format!("reply {} does not survive the codec", reply.id));
        }
    }
    Ok((mean(&encode), mean(&decode)))
}

/// Fresh-connection latency of a daemon started just for the probe.
pub fn connect_probe(dir: &Path) -> Result<Vec<f64>, String> {
    let mut config = DaemonConfig::new(dir.join("probe-store"));
    config.workers = 1;
    let mut daemon = Daemon::start(config).map_err(|e| e.to_string())?;
    let samples = crate::service::connect_samples(&daemon);
    daemon.stop();
    samples
}

/// The census: every search module runs one store-less session on
/// `context`; returns each module's evaluations over the budget.
pub fn census(context: &Context, budget: usize, seed: u64) -> Result<Vec<(Module, f64)>, String> {
    Module::ALL
        .iter()
        .map(|&module| {
            let spec = Spec {
                context: 0,
                module,
                seed,
                budget,
            };
            let session = run_session(context, &spec, None, false)?;
            Ok((
                module,
                session.result.outcome.evaluations as f64 / budget as f64,
            ))
        })
        .collect()
}

/// Runs each of `n` sessions twice, untraced and traced, alternating
/// which goes first, and returns traced over untraced tuning wall-clock
/// minus one, with the traced sessions' records.
pub fn trace_overhead(
    n: usize,
    mut run: impl FnMut(usize, bool) -> Result<crate::library::Session, String>,
) -> Result<(f64, Vec<crate::library::Session>), String> {
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let mut traced = Vec::with_capacity(n);
    for i in 0..n {
        for &with_trace in if i % 2 == 0 {
            &[false, true]
        } else {
            &[true, false]
        } {
            let session = run(i, with_trace)?;
            if with_trace {
                traced_ms += session.tune_ms;
                traced.push(session);
            } else {
                plain_ms += session.tune_ms;
            }
        }
    }
    if plain_ms <= 0.0 {
        return Err("no untraced session to compare with".to_string());
    }
    Ok((traced_ms / plain_ms - 1.0, traced))
}
