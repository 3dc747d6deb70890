//! Trait-level conformance suite for every [`SearchModule`]: seeded
//! determinism, batch/sequential proposal equivalence, warm-start
//! hygiene, hostile-objective robustness, and termination on exhausted
//! spaces. Each test runs over all seven built-in modules, so a new
//! module added to the crate inherits the whole contract by adding one
//! line to [`all_modules`].

use locus::search::{
    AnnealTuner, BanditTuner, ExhaustiveSearch, MctsTuner, Objective, PortfolioSearch,
    RandomSearch, SearchModule, TraceSampler,
};
use locus::space::{ParamDef, ParamKind, ParamValue, Point, Space};

type Factory = Box<dyn Fn(u64) -> Box<dyn SearchModule>>;

/// Every built-in module, by constructor. The seed is ignored by the
/// exhaustive sweep; everything else must honour it.
fn all_modules() -> Vec<(&'static str, Factory)> {
    vec![
        (
            "exhaustive",
            Box::new(|_| Box::new(ExhaustiveSearch::default())),
        ),
        ("random", Box::new(|s| Box::new(RandomSearch::new(s)))),
        ("bandit", Box::new(|s| Box::new(BanditTuner::new(s)))),
        ("anneal", Box::new(|s| Box::new(AnnealTuner::new(s)))),
        ("portfolio", Box::new(|s| Box::new(PortfolioSearch::new(s)))),
        ("mcts", Box::new(|s| Box::new(MctsTuner::new(s)))),
        ("sampler", Box::new(|s| Box::new(TraceSampler::new(s)))),
    ]
}

/// A mixed-kind space: 8 x 2 x 32 = 512 points, optimum at
/// (tile = 16, alg = "fast", n = 10).
fn bench_space() -> Space {
    vec![
        ParamDef::new("tile", ParamKind::PowerOfTwo { min: 2, max: 256 }),
        ParamDef::new("alg", ParamKind::Enum(vec!["slow".into(), "fast".into()])),
        ParamDef::new("n", ParamKind::Integer { min: 1, max: 32 }),
    ]
    .into_iter()
    .collect()
}

fn bench_objective(p: &Point) -> Objective {
    let tile = match p.get("tile") {
        Some(ParamValue::Int(v)) => *v as f64,
        _ => return Objective::Error,
    };
    let alg = match p.get("alg") {
        Some(ParamValue::Choice(c)) => *c as f64,
        _ => return Objective::Error,
    };
    let n = match p.get("n") {
        Some(ParamValue::Int(v)) => *v as f64,
        _ => return Objective::Error,
    };
    Objective::Value((tile.log2() - 4.0).powi(2) + (1.0 - alg) * 3.0 + (n - 10.0).powi(2) * 0.05)
}

/// Same seed, same budget, same objective: the outcome — best point,
/// best value, evaluation counts, improvement history — is identical.
#[test]
fn every_module_is_deterministic_per_seed() {
    let space = bench_space();
    for (name, make) in all_modules() {
        let mut f1 = bench_objective;
        let mut f2 = bench_objective;
        let a = make(41).search(&space, 50, &mut f1);
        let b = make(41).search(&space, 50, &mut f2);
        assert_eq!(a, b, "{name}: two identically-seeded runs diverged");
    }
}

/// `propose_batch(k)` is defined as `k` sequential `propose` calls: a
/// driver alternating batches with in-order observation must see the
/// exact proposal stream of the one-at-a-time driver.
#[test]
fn propose_batch_equals_repeated_propose() {
    let space = bench_space();
    for (name, make) in all_modules() {
        let mut batched = make(17);
        let mut sequential = make(17);
        batched.begin(&space, 60);
        sequential.begin(&space, 60);
        for round in 0..10 {
            let batch = batched.propose_batch(&space, 6);
            let mut singles = Vec::new();
            for _ in 0..6 {
                match sequential.propose(&space) {
                    Some(p) => singles.push(p),
                    None => break,
                }
            }
            let keys =
                |ps: &[Point]| -> Vec<String> { ps.iter().map(Point::canonical_key).collect() };
            assert_eq!(
                keys(&batch),
                keys(&singles),
                "{name}: round {round} batch diverged from repeated propose"
            );
            for p in &batch {
                let obj = bench_objective(p);
                batched.observe(p, obj, true);
                sequential.observe(p, obj, true);
            }
            if batch.is_empty() {
                break;
            }
        }
    }
}

/// Warm-starting must prime, not replay: after `seed_observations`, the
/// first proposal is never one of the seeded points, and the two
/// stateful trace modules never re-propose a seeded point at all.
#[test]
fn seeded_priors_are_not_reproposed() {
    let space = bench_space();
    // Mid-space elites: away from index 0 (exhaustive starts there) and
    // distinctive enough to check re-proposals against.
    let prior: Vec<(Point, f64)> = vec![
        (space.point_at(137), 2.5),
        (space.point_at(301), 3.75),
        (space.point_at(444), 9.0),
    ];
    let prior_keys: Vec<String> = prior.iter().map(|(p, _)| p.canonical_key()).collect();
    for (name, make) in all_modules() {
        let mut m = make(23);
        m.begin(&space, 60);
        m.seed_observations(&space, &prior);
        let first = m.propose(&space).expect("seeded module still proposes");
        assert!(
            !prior_keys.contains(&first.canonical_key()),
            "{name}: first proposal replays a seeded prior"
        );
        if name == "mcts" || name == "sampler" {
            let mut p = first;
            for _ in 0..120 {
                assert!(
                    !prior_keys.contains(&p.canonical_key()),
                    "{name}: re-proposed a seeded prior"
                );
                m.observe(&p, bench_objective(&p), true);
                match m.propose(&space) {
                    Some(next) => p = next,
                    None => break,
                }
            }
        }
    }
}

/// A previously-refused illegal point is never proposed again by the
/// dedup-tracking modules, and only boundedly often by the stateless
/// ones — an observation loop feeding `Invalid` back must always
/// terminate the search rather than spin on the refused region.
#[test]
fn refused_points_do_not_dominate_the_stream() {
    let space = bench_space();
    for (name, make) in all_modules() {
        let mut m = make(31);
        m.begin(&space, 80);
        let mut refusals: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut rounds = 0;
        while let Some(p) = m.propose(&space) {
            rounds += 1;
            if rounds > 2000 {
                panic!("{name}: refused-point loop did not terminate");
            }
            // Refuse the whole `alg = slow` half of the space.
            let refused = matches!(p.get("alg"), Some(ParamValue::Choice(0)));
            if refused {
                *refusals.entry(p.canonical_key()).or_insert(0) += 1;
                m.observe(&p, Objective::Invalid, true);
            } else {
                m.observe(&p, bench_objective(&p), true);
            }
            if rounds >= 400 {
                break;
            }
        }
        let max_repeat = refusals.values().copied().max().unwrap_or(0);
        let bound = if name == "mcts" || name == "sampler" {
            1
        } else {
            12
        };
        assert!(
            max_repeat <= bound,
            "{name}: one refused point was proposed {max_repeat} times"
        );
    }
}

/// NaN, infinities, `Error` and `Invalid` feedback — in any mixture —
/// never panic a module, and never surface as the best value.
#[test]
fn hostile_objectives_never_panic_or_win() {
    let space = bench_space();
    for (name, make) in all_modules() {
        let mut i = 0usize;
        let mut f = |p: &Point| {
            i += 1;
            match i % 6 {
                0 => Objective::Value(f64::NAN),
                1 => Objective::Value(f64::INFINITY),
                2 => Objective::Value(f64::NEG_INFINITY),
                3 => Objective::Error,
                4 => Objective::Invalid,
                _ => bench_objective(p),
            }
        };
        let out = make(53).search(&space, 60, &mut f);
        if let Some((_, best)) = out.best {
            assert!(best.is_finite(), "{name}: non-finite best {best}");
        }
        assert!(out.evaluations <= 60, "{name}: overspent the budget");
    }
}

/// A two-point space is exhausted, not spun on: every module's
/// sequential driver returns with at most two evaluations.
#[test]
fn tiny_spaces_terminate_for_every_module() {
    let space: Space = vec![ParamDef::new("x", ParamKind::Bool)]
        .into_iter()
        .collect();
    for (name, make) in all_modules() {
        let mut f = |p: &Point| match p.get("x") {
            Some(ParamValue::Choice(1)) => Objective::Value(1.0),
            _ => Objective::Value(2.0),
        };
        let out = make(3).search(&space, 100, &mut f);
        assert_eq!(
            out.evaluations, 2,
            "{name}: expected the two distinct points, got {}",
            out.evaluations
        );
        let (best, v) = out.best.expect("best exists");
        assert_eq!(v, 1.0, "{name}: wrong optimum");
        assert_eq!(best.get("x"), Some(&ParamValue::Choice(1)));
    }
}

// ---- the driver stops once the space is spent ------------------------------

use locus::corpus::CorpusEntry;
use locus::search::{Bookkeeper, SearchOutcome, StopReason};
use locus::system::{LocusSystem, TuneRequest, VariantOutcome};

/// The comparable part of an outcome: everything but `duplicates`,
/// which is the one count the stop is allowed to lower.
#[derive(Debug, PartialEq)]
struct Trajectory {
    best: Option<(String, u64)>,
    history: Vec<(usize, u64)>,
    evaluations: usize,
    invalid: usize,
}

fn trajectory(out: &SearchOutcome) -> Trajectory {
    Trajectory {
        best: out
            .best
            .as_ref()
            .map(|(p, v)| (p.canonical_key(), v.to_bits())),
        history: out.history.iter().map(|(i, v)| (*i, v.to_bits())).collect(),
        evaluations: out.evaluations,
        invalid: out.invalid,
    }
}

/// The batch protocol with no stop but the budget ([`Bookkeeper::new`]),
/// proposing `k` points at a time until the module gives up. Returns
/// the outcome and every proposal it recorded, in order.
fn drive_without_stop(
    module: &mut dyn SearchModule,
    space: &Space,
    budget: usize,
    k: usize,
    evaluate: &mut dyn FnMut(&Point) -> Objective,
) -> (SearchOutcome, Vec<Point>) {
    module.begin(space, budget);
    let mut book = Bookkeeper::new(budget);
    let mut stream = Vec::new();
    'run: loop {
        let batch = module.propose_batch(space, k);
        if batch.is_empty() {
            break;
        }
        for point in &batch {
            if book.done() {
                break 'run;
            }
            let (objective, fresh) = book.record(point, |p| evaluate(p));
            module.observe(point, objective, fresh);
            stream.push(point.clone());
        }
    }
    (book.finish(), stream)
}

/// 1-based position of the proposal that makes the distinct grid points
/// of `stream` cover `space`, if any does.
fn covering_position(space: &Space, stream: &[Point]) -> Option<usize> {
    let size = space.exact_size()?;
    let mut seen = std::collections::HashSet::new();
    stream
        .iter()
        .position(|p| {
            space.is_on_grid(p) && seen.insert(p.canonical_key()) && seen.len() as u128 == size
        })
        .map(|i| i + 1)
}

fn registry_entry(name: &str) -> CorpusEntry {
    locus::corpus::all_programs()
        .into_iter()
        .find(|e| e.name == name)
        .expect("registry entry")
}

fn tiny_system() -> LocusSystem {
    use locus::machine::{Machine, MachineConfig};
    LocusSystem::new(Machine::new(MachineConfig::scaled_tiny().with_cores(2)))
}

/// Every module on a 16-point space whose every point is legal, at
/// budget 32: the sequential `tune` and `tune_parallel` at 1 and 2
/// threads stop once every point was proposed, yet return the
/// trajectory of a driver that never stops early. The report says
/// "space spent" at exactly the proposal that covered the space.
#[test]
fn sessions_stop_once_the_space_is_spent() {
    let entry = registry_entry("stencil-heat1d");
    let locus = entry.locus_program();
    let system = tiny_system();
    let budget = 32;
    let prepared = system.prepare(&entry.program, &locus).unwrap();
    let space = prepared.space.clone();
    assert_eq!(space.exact_size(), Some(16));
    let expected = system.measure(&entry.program).unwrap().checksum;
    let mut evaluate =
        |p: &Point| match system.evaluate_point(&entry.program, &prepared, p, Some(expected)) {
            VariantOutcome::Measured(boxed) => Objective::Value(boxed.1.time_ms),
            VariantOutcome::Invalid(_) | VariantOutcome::Illegal(_) => Objective::Invalid,
            VariantOutcome::Failed(_) => Objective::Error,
        };
    let oracle: locus::search::LegalityOracle = {
        let (sys, source, prepared) = (system.clone(), entry.program.clone(), prepared.clone());
        std::sync::Arc::new(move |p: &Point| sys.build_variant(&source, &prepared, p).is_ok())
    };

    for (name, make) in all_modules() {
        let mut reference = make(5);
        reference.attach_pruner(&oracle);
        let (want, _) = drive_without_stop(reference.as_mut(), &space, budget, 1, &mut evaluate);
        let got = system
            .tune(&entry.program, &locus, make(5).as_mut(), budget)
            .unwrap();
        assert_eq!(
            trajectory(&got.outcome),
            trajectory(&want),
            "{name}: tune diverged from the driver without a stop"
        );

        let mut reference = make(5);
        reference.attach_pruner(&oracle);
        let (want, stream) = drive_without_stop(
            reference.as_mut(),
            &space,
            budget,
            locus::system::PARALLEL_BATCH,
            &mut evaluate,
        );
        let covering = covering_position(&space, &stream)
            .unwrap_or_else(|| panic!("{name}: the reference never covered the space"));
        for threads in [1, 2] {
            let (got, report) = system
                .tune_parallel(
                    &entry.program,
                    &locus,
                    make(5).as_mut(),
                    TuneRequest::new(budget, threads),
                )
                .unwrap();
            assert_eq!(
                trajectory(&got.outcome),
                trajectory(&want),
                "{name} threads={threads}: tune_parallel diverged from the driver without a stop"
            );
            assert_eq!(
                report.stop,
                StopReason::SpaceSpent,
                "{name} threads={threads}"
            );
            assert_eq!(
                report.proposed, covering,
                "{name} threads={threads}: the session must stop at the covering proposal"
            );
            assert_eq!(report.proposed, report.accounted(), "{name}");
        }
    }
}

/// A space with a `Float` parameter has no exact point count: however
/// many grid points a session proposes, it never stops as "space spent".
#[test]
fn continuous_spaces_never_stop_as_spent() {
    let entry = registry_entry("dgemm");
    let locus = locus::lang::parse(
        r#"
CodeReg matmul {
    tileI = poweroftwo(2..8);
    scale = float(1..2);
    if scale > 1.5 {
        Pips.Tiling(loop="0", factor=[tileI, tileI, tileI]);
    }
}
"#,
    )
    .unwrap();
    let system = tiny_system();
    let prepared = system.prepare(&entry.program, &locus).unwrap();
    assert!(
        prepared
            .space
            .params()
            .iter()
            .any(|p| matches!(p.kind, ParamKind::Float { .. })),
        "the space keeps its float parameter"
    );
    assert_eq!(prepared.space.exact_size(), None);
    for (name, make) in all_modules() {
        let (_, report) = system
            .tune_parallel(
                &entry.program,
                &locus,
                make(9).as_mut(),
                TuneRequest::new(64, 1),
            )
            .unwrap();
        assert_ne!(report.stop, StopReason::SpaceSpent, "{name}");
    }
}

/// A module that first proposes malformed points — off-grid values, a
/// missing parameter, a parameter the space lacks — more of them than
/// the space has points, then every grid point once.
struct Hostile {
    queue: Vec<Point>,
}

impl SearchModule for Hostile {
    fn name(&self) -> &str {
        "hostile"
    }

    fn begin(&mut self, space: &Space, _budget: usize) {
        let mut queue = Vec::new();
        for tile in [3, 5, 6, 7, 9, 10, 11, 12] {
            let mut p = space.point_at(0);
            p.set("tile", ParamValue::Int(tile));
            queue.push(p);
        }
        for tile in [2, 4, 8, 16] {
            let mut p = Point::new();
            p.set("tile", ParamValue::Int(tile));
            queue.push(p);
            let mut q = space.point_at(0);
            q.set("tile", ParamValue::Int(tile));
            q.set("stray", ParamValue::Int(1));
            queue.push(q);
        }
        queue.extend((0..space.size()).map(|i| space.point_at(i)));
        queue.reverse();
        self.queue = queue;
    }

    fn propose(&mut self, _space: &Space) -> Option<Point> {
        self.queue.pop()
    }

    fn observe(&mut self, _point: &Point, _objective: Objective, _fresh: bool) {}
}

/// Malformed and off-grid proposals never count toward covering the
/// space: the stopping driver records the whole stream, exactly as a
/// driver without the stop does, and stops only at the last grid point.
#[test]
fn malformed_proposals_never_end_a_session_early() {
    let space: Space = vec![
        ParamDef::new("tile", ParamKind::PowerOfTwo { min: 2, max: 16 }),
        ParamDef::new("alg", ParamKind::Enum(vec!["slow".into(), "fast".into()])),
    ]
    .into_iter()
    .collect();
    assert_eq!(space.exact_size(), Some(8));
    let mut f = |p: &Point| match (p.get("tile"), p.get("alg")) {
        (Some(ParamValue::Int(t)), Some(ParamValue::Choice(a))) => {
            Objective::Value(*t as f64 + *a as f64 * 0.5)
        }
        _ => Objective::Error,
    };
    let mut hostile = Hostile { queue: Vec::new() };
    let (want, stream) = drive_without_stop(&mut hostile, &space, 100, 1, &mut f);
    assert_eq!(stream.len(), 24);
    assert_eq!(covering_position(&space, &stream), Some(24));
    let got =
        Hostile { queue: Vec::new() }.drive(&space, Bookkeeper::for_space(100, &space), &mut f);
    assert_eq!(got, want, "the stopping driver cut the stream short");

    let mut book = Bookkeeper::for_space(100, &space);
    for (i, p) in stream.iter().enumerate() {
        assert!(!book.done(), "stopped after {i} proposals");
        book.record(p, |p| f(p));
    }
    assert!(book.done());
    assert_eq!(book.covered(), 8);
    assert_eq!(book.stop_reason(), StopReason::SpaceSpent);
}
