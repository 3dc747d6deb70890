//! The service workload: an in-process `locusd` driven by an open loop
//! of seeded Poisson arrivals over persistent connections.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use locus_daemon::{Client, Daemon, DaemonConfig, Op, Request, Response};
use locus_machine::{all_profiles, ExecEngine, Machine};
use locus_space::SplitMix64;

use crate::calibrate::Calibration;
use crate::deck::Deck;
use crate::layers::Phases;
use crate::library::{Module, THREADS};
use crate::{Op as TimedOp, RunConfig, Timed, CALIBRATION_INTERVAL};

/// Worker threads of the daemon.
const WORKERS: usize = 2;
/// Persistent connections the load generator spreads requests over.
const CONNECTIONS: usize = 2;
/// Evaluation budget of every tune request (pre-fill and timed).
const BUDGET: usize = 16;
/// The pre-fill tunes every kernel on every profile with each of these;
/// warm requests replay one of those sessions.
const PREFILL_MODULES: [Module; 5] = [
    Module::Bandit,
    Module::Anneal,
    Module::Sampler,
    Module::Portfolio,
    Module::Exhaustive,
];
/// Seed of the pre-fill sessions and of every warm request.
const PREFILL_SEED: u64 = 7;
/// The arrival-rate ladder, in requests per second; the run's time is
/// split evenly between the stages.
pub const RATES: [f64; 3] = [20.0, 40.0, 80.0];
/// A stage meets its objective when its p99 latency is at most this.
const SLO_MS: f64 = 250.0;
/// Fresh connections timed by the connect stage of a traced run.
const CONNECT_SAMPLES: usize = 20;
/// The generator times the reference computation only while the next
/// request is due at least this far ahead.
const CALIBRATION_GAP: Duration = Duration::from_millis(10);
/// How long the generator waits for outstanding replies after the last
/// scheduled request.
const DRAIN: Duration = Duration::from_secs(60);

/// One request of the open-loop schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// Scheduled send time, in microseconds after the timed part starts.
    pub due_us: u64,
    pub stage: usize,
    pub conn: usize,
    pub request: Request,
}

/// What one request of the mix asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Replays a pre-filled session: same module, same seed.
    Warm,
    /// A pre-fill module with a fresh seed.
    Cold,
    Suggest,
}

/// The mix per twenty requests: 80% warm tunes, 15% cold, 5% suggests.
const MIX: [(Kind, usize); 3] = [(Kind::Warm, 16), (Kind::Cold, 3), (Kind::Suggest, 1)];

/// The seeded open-loop schedule: per stage, Poisson arrivals at the
/// stage's rate, dealt to the connections in turn. Request kinds and
/// their kernel, profile and module come from decks (see [`Deck`]), so
/// the seed changes the order of the mix but not the mix.
pub fn plan(seed: u64, seconds: f64, kernels: &[&str], profiles: &[&str]) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed ^ 0x0fe2_100b);
    let mut kinds = Deck::new(
        MIX.iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect(),
    );
    let combos = |modules: &[Module]| {
        let mut out = Vec::new();
        for kernel in kernels {
            for profile in profiles {
                for module in modules {
                    out.push((kernel.to_string(), profile.to_string(), *module));
                }
            }
        }
        Deck::new(out)
    };
    let mut warm = combos(&PREFILL_MODULES);
    // A fresh seed makes no difference to exhaustive enumeration.
    let mut cold = combos(&PREFILL_MODULES[..PREFILL_MODULES.len() - 1]);
    let mut suggest = Deck::new(kernels.iter().map(|k| k.to_string()).collect());
    let stage_us = seconds * 1e6 / RATES.len() as f64;
    let mut out = Vec::new();
    for (stage, rate) in RATES.iter().enumerate() {
        let begin = stage as f64 * stage_us;
        let mut t = begin;
        loop {
            t += -(1.0 - rng.next_f64()).ln() / rate * 1e6;
            if t >= begin + stage_us {
                break;
            }
            let id = format!("r{}", out.len());
            let kind = kinds.draw(&mut rng);
            let request = if kind == Kind::Suggest {
                let mut r = Request::new(&id, Op::Suggest);
                r.kernel = suggest.draw(&mut rng);
                r
            } else {
                let (kernel, machine, module) = match kind {
                    Kind::Warm => warm.draw(&mut rng),
                    _ => cold.draw(&mut rng),
                };
                let mut r = Request::new(&id, Op::Tune);
                r.kernel = kernel;
                r.machine = machine;
                r.search = module.name().to_string();
                r.seed = if kind == Kind::Warm {
                    PREFILL_SEED
                } else {
                    rng.next_u64() | 1 << 63
                };
                r.budget = BUDGET;
                r.threads = THREADS;
                r
            };
            out.push(Planned {
                due_us: t as u64,
                stage,
                conn: out.len() % CONNECTIONS,
                request,
            });
        }
    }
    out
}

/// The daemon after set-up, with what the checks need.
pub struct Service {
    daemon: Daemon,
    store_dir: PathBuf,
    trace_log: Option<PathBuf>,
    kernels: Vec<&'static str>,
    profiles: Vec<&'static str>,
    /// Tree-interpreter baseline checksum of every kernel on every
    /// profile.
    reference: HashMap<(String, String), u64>,
}

impl Service {
    /// Starts a daemon over a fresh store under `dir`, pre-fills it with
    /// one session per kernel, profile and pre-fill module, and computes
    /// the reference checksums with the tree interpreter.
    pub fn setup(dir: &Path, traced: bool) -> Result<Service, String> {
        let store_dir = dir.join("store");
        let trace_log = traced.then(|| dir.join("trace.jsonl"));
        let mut config = DaemonConfig::new(&store_dir);
        config.workers = WORKERS;
        config.max_threads = THREADS;
        config.max_budget = BUDGET;
        config.trace_log = trace_log.clone();
        let daemon = Daemon::start(config).map_err(|e| format!("daemon start: {e}"))?;
        let entries = locus_corpus::all_programs();
        let profiles = all_profiles();
        let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        for entry in &entries {
            for profile in &profiles {
                for module in PREFILL_MODULES {
                    let mut r = Request::new("prefill", Op::Tune);
                    r.kernel = entry.name.to_string();
                    r.machine = profile.name.to_string();
                    r.search = module.name().to_string();
                    r.seed = PREFILL_SEED;
                    r.budget = BUDGET;
                    r.threads = THREADS;
                    let reply = client.request(&r).map_err(|e| e.to_string())?;
                    if !reply.ok {
                        return Err(format!("pre-fill {} failed: {reply:?}", r.encode()));
                    }
                }
            }
        }
        let mut reference = HashMap::new();
        for entry in &entries {
            for profile in &profiles {
                let tree = Machine::new(profile.config.clone().with_engine(ExecEngine::Tree));
                let baseline = tree
                    .run(&entry.program, "kernel")
                    .map_err(|e| format!("{} baseline: {e}", entry.name))?;
                reference.insert(
                    (entry.name.to_string(), profile.name.to_string()),
                    baseline.checksum,
                );
            }
        }
        Ok(Service {
            daemon,
            store_dir,
            trace_log,
            kernels: entries.iter().map(|e| e.name).collect(),
            profiles: profiles.iter().map(|p| p.name).collect(),
            reference,
        })
    }

    /// Runs the open loop and collects every reply.
    pub fn run(&self, config: &RunConfig) -> Result<ServiceRun, String> {
        let planned = plan(config.seed, config.seconds, &self.kernels, &self.profiles);
        let trace_offset = match &self.trace_log {
            Some(path) => std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
            None => 0,
        };
        let replies: Arc<Mutex<HashMap<String, Reply>>> = Arc::default();
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        let expected = planned.len();
        let give_up = Instant::now() + Duration::from_secs_f64(config.seconds) + DRAIN;
        for _ in 0..CONNECTIONS {
            let stream = TcpStream::connect(self.daemon.addr()).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let read_half = stream.try_clone().map_err(|e| e.to_string())?;
            read_half
                .set_read_timeout(Some(Duration::from_millis(200)))
                .map_err(|e| e.to_string())?;
            let replies = Arc::clone(&replies);
            readers.push(std::thread::spawn(move || {
                read_replies(read_half, &replies, expected, give_up)
            }));
            writers.push(stream);
        }

        let mut calibration = Calibration::default();
        let start = Instant::now();
        let mut sent = Vec::with_capacity(planned.len());
        for p in &planned {
            let due = start + Duration::from_micros(p.due_us);
            // Time the reference only in gaps it cannot overrun.
            if due.saturating_duration_since(Instant::now()) > CALIBRATION_GAP {
                calibration.sample_every(CALIBRATION_INTERVAL);
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let encode_start = Instant::now();
            let mut line = p.request.encode();
            let encode_ns = encode_start.elapsed().as_nanos();
            line.push('\n');
            let at = Instant::now();
            let result = writers[p.conn].write_all(line.as_bytes());
            sent.push(Sent {
                late_ms: at.duration_since(due).as_secs_f64() * 1e3,
                ok: result.is_ok(),
                encode_ns,
            });
        }
        for writer in &writers {
            let _ = writer.shutdown(Shutdown::Write);
        }
        for reader in readers {
            reader.join().map_err(|_| "reply reader panicked")?;
        }
        let replies = std::mem::take(&mut *replies.lock().expect("replies"));
        let traces = match &self.trace_log {
            Some(path) => request_phases(path, trace_offset)?,
            None => HashMap::new(),
        };
        let stage_us = config.seconds * 1e6 / RATES.len() as f64;
        let mut run = ServiceRun::collect(planned, sent, replies, traces, start, stage_us);
        run.timed.reference_ms = calibration.median_ms().unwrap_or(f64::NAN);
        Ok(run)
    }

    /// Times `CONNECT_SAMPLES` fresh connections from connect to the
    /// reply of their first ping.
    pub fn connect_ms(&self) -> Result<Vec<f64>, String> {
        connect_samples(&self.daemon)
    }

    /// Stops the daemon, then times reopening its store.
    pub fn stop(mut self) -> Result<f64, String> {
        self.daemon.stop();
        let start = Instant::now();
        locus_store::ShardedStore::open(&self.store_dir, locus_store::DEFAULT_SHARDS)
            .map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }

    pub fn reference(&self, kernel: &str, machine: &str) -> Option<u64> {
        self.reference
            .get(&(kernel.to_string(), machine.to_string()))
            .copied()
    }

    /// Bytes of every store shard file.
    pub fn store_bytes(&self) -> u64 {
        std::fs::read_dir(&self.store_dir)
            .map(|dir| {
                dir.filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

/// Times fresh connections to `daemon`: connect, ping, first reply.
pub fn connect_samples(daemon: &Daemon) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(CONNECT_SAMPLES);
    for i in 0..CONNECT_SAMPLES {
        let start = Instant::now();
        let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        if !client.ping(&format!("c{i}")).map_err(|e| e.to_string())? {
            return Err("ping refused".to_string());
        }
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(samples)
}

struct Reply {
    at: Instant,
    decode_ns: u128,
    response: Response,
}

struct Sent {
    late_ms: f64,
    ok: bool,
    encode_ns: u128,
}

/// Reads reply lines until the daemon closes the connection, every
/// expected reply has arrived, or `give_up` passes.
fn read_replies(
    stream: TcpStream,
    replies: &Mutex<HashMap<String, Reply>>,
    expected: usize,
    give_up: Instant,
) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) if line.ends_with(b"\n") => {
                let at = Instant::now();
                let text = String::from_utf8_lossy(&line);
                let decode_start = Instant::now();
                let parsed = Response::parse(text.trim_end());
                let decode_ns = decode_start.elapsed().as_nanos();
                line.clear();
                if let Ok(response) = parsed {
                    let mut map = replies.lock().expect("replies");
                    map.insert(
                        response.id.clone(),
                        Reply {
                            at,
                            decode_ns,
                            response,
                        },
                    );
                    if map.len() >= expected {
                        return;
                    }
                }
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if Instant::now() > give_up || replies.lock().expect("replies").len() >= expected {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Each request's driver spans, read from the daemon's trace log past
/// `offset` and grouped by the request id the daemon stamped on them.
fn request_phases(path: &Path, offset: u64) -> Result<HashMap<String, Phases>, String> {
    let text = std::fs::read(path).map_err(|e| e.to_string())?;
    let start = usize::try_from(offset).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(text.get(start..).unwrap_or_default());
    let events = locus_trace::from_jsonl(&text).map_err(|e| format!("trace log: {e}"))?;
    let mut by_request: HashMap<String, Vec<locus_trace::Event>> = HashMap::new();
    for event in events {
        if let Some(id) = event.arg("req").and_then(|v| v.as_str()) {
            by_request.entry(id.to_string()).or_default().push(event);
        }
    }
    Ok(by_request
        .into_iter()
        .map(|(id, events)| (id, Phases::from_events(&events)))
        .collect())
}

/// One answered (or unanswered) request of the timed part.
pub struct Answered {
    pub planned: Planned,
    pub response: Option<Response>,
    pub phases: Option<Phases>,
}

/// Everything the open loop recorded.
pub struct ServiceRun {
    pub timed: Timed,
    pub requests: Vec<Answered>,
    /// Requests still unanswered at the end of each stage.
    pub backlog: Vec<usize>,
    pub encode_us: f64,
    pub decode_us: f64,
}

impl ServiceRun {
    fn collect(
        planned: Vec<Planned>,
        sent: Vec<Sent>,
        mut replies: HashMap<String, Reply>,
        mut traces: HashMap<String, Phases>,
        start: Instant,
        stage_us: f64,
    ) -> ServiceRun {
        let mut timed = Timed {
            wall_s: start.elapsed().as_secs_f64(),
            ..Timed::default()
        };
        let mut answered_at = Vec::with_capacity(planned.len());
        let mut requests = Vec::with_capacity(planned.len());
        let (mut encode_ns, mut decode_ns) = (0u128, 0u128);
        let count = planned.len();
        for (p, s) in planned.into_iter().zip(sent) {
            encode_ns += s.encode_ns;
            let reply = replies.remove(&p.request.id);
            let due = start + Duration::from_micros(p.due_us);
            let received_us = reply
                .as_ref()
                .map(|r| r.at.duration_since(start).as_micros() as u64);
            answered_at.push((p.due_us, received_us));
            let ok = s.ok && reply.as_ref().is_some_and(|r| r.response.ok);
            timed.ops.push(TimedOp {
                latency_ms: match &reply {
                    Some(r) if ok => r.at.saturating_duration_since(due).as_secs_f64() * 1e3,
                    _ => f64::INFINITY,
                },
                late_ms: s.late_ms,
                ok,
                speedup: reply.as_ref().and_then(|r| r.response.get_f64("speedup")),
            });
            decode_ns += reply.as_ref().map_or(0, |r| r.decode_ns);
            requests.push(Answered {
                phases: traces.remove(&p.request.id),
                response: reply.map(|r| r.response),
                planned: p,
            });
        }
        ServiceRun {
            backlog: backlog(&answered_at, stage_us, RATES.len()),
            timed,
            requests,
            encode_us: encode_ns as f64 / 1e3 / count.max(1) as f64,
            decode_us: decode_ns as f64 / 1e3 / count.max(1) as f64,
        }
    }

    /// Prints each stage of the ladder: rate, request count, p50 and p99
    /// latency, backlog, and whether the stage met the objective (p99
    /// within [`SLO_MS`] and a backlog of at most one second of
    /// arrivals).
    pub fn print_ladder(&self) {
        for (stage, &rate) in RATES.iter().enumerate() {
            let latencies: Vec<f64> = self
                .requests
                .iter()
                .zip(&self.timed.ops)
                .filter(|(a, _)| a.planned.stage == stage)
                .map(|(_, op)| op.latency_ms)
                .collect();
            let p50 = crate::stats::percentile(&latencies, 50.0).unwrap_or(f64::NAN);
            let p99 = crate::stats::percentile(&latencies, 99.0).unwrap_or(f64::NAN);
            let backlog = self.backlog[stage];
            let within = p99 <= SLO_MS && backlog as f64 <= rate;
            eprintln!(
                "rate {rate:>5} req/s: n={:<5} p50 {p50:8.3} ms  p99 {p99:8.3} ms  backlog {backlog:<4} within objective: {within}",
                latencies.len()
            );
        }
    }
}

/// Requests due before each stage's end but answered after it (or
/// never): the backlog the stage left behind.
pub fn backlog(answered: &[(u64, Option<u64>)], stage_us: f64, stages: usize) -> Vec<usize> {
    (1..=stages)
        .map(|k| {
            let end = (k as f64 * stage_us) as u64;
            answered
                .iter()
                .filter(|(due, at)| *due < end && at.is_none_or(|at| at > end))
                .count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [&str; 3] = ["dgemm", "poly-lu", "stencil-heat1d"];
    const PROFILES: [&str; 2] = ["scaled-xeon", "manycore"];

    #[test]
    fn the_same_seed_gives_the_same_request_schedule() {
        let a = plan(11, 6.0, &KERNELS, &PROFILES);
        let b = plan(11, 6.0, &KERNELS, &PROFILES);
        let c = plan(12, 6.0, &KERNELS, &PROFILES);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Arrivals are ordered, and every stage gets about its rate's
        // share of the run.
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        for (stage, rate) in RATES.iter().enumerate() {
            let n = a.iter().filter(|p| p.stage == stage).count() as f64;
            let expect = rate * 2.0;
            assert!(
                (n - expect).abs() < 4.0 * expect.sqrt(),
                "stage {stage}: {n}"
            );
        }
        let suggests = a.iter().filter(|p| p.request.op == Op::Suggest).count();
        assert!(suggests > 0 && suggests < a.len() / 10);
        assert!(a.iter().all(|p| p.conn < CONNECTIONS));
    }

    #[test]
    fn backlog_counts_requests_outstanding_at_each_stage_end() {
        // Stage length 100; requests (due, answered).
        let answered = [
            (10, Some(20)),  // done inside stage 1
            (90, Some(130)), // outstanding at the end of stage 1
            (95, None),      // never answered: outstanding everywhere
            (150, Some(250)),
            (199, Some(205)),
            (250, Some(260)),
        ];
        assert_eq!(backlog(&answered, 100.0, 3), vec![2, 3, 1]);
    }

    #[test]
    fn latency_counts_from_the_scheduled_send_time() {
        let planned = plan(3, 0.3, &KERNELS, &PROFILES);
        let start = Instant::now();
        let n = planned.len();
        let mut replies = HashMap::new();
        for p in &planned {
            // Every reply lands 5 ms after its request was due.
            let at = start + Duration::from_micros(p.due_us + 5_000);
            let response = Response::ok(&p.request.id).with_f64("speedup", 2.0);
            replies.insert(
                p.request.id.clone(),
                Reply {
                    at,
                    decode_ns: 1_000,
                    response,
                },
            );
        }
        let sent = (0..n)
            .map(|i| Sent {
                late_ms: i as f64,
                ok: true,
                encode_ns: 2_000,
            })
            .collect();
        let run = ServiceRun::collect(planned, sent, replies, HashMap::new(), start, 0.1e6);
        assert!(run
            .timed
            .ops
            .iter()
            .all(|op| (op.latency_ms - 5.0).abs() < 1e-9));
        assert_eq!(run.timed.ops[n - 1].late_ms, (n - 1) as f64);
        assert!((run.decode_us - 1.0).abs() < 1e-9);
        assert!((run.encode_us - 2.0).abs() < 1e-9);
        assert_eq!(run.backlog.len(), RATES.len());
    }
}
