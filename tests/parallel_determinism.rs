//! The contract of the parallel engine ([`LocusSystem::tune_parallel`]):
//! batched, multi-threaded variant evaluation with a shared memo cache
//! returns the *same* best point, best objective, and evaluation count
//! as the sequential driver, for any thread count.
//!
//! Why this holds: proposals are consumed in proposal order through the
//! shared `Bookkeeper`, the batch size is fixed (16) regardless of the
//! thread count, and threads only race on *measuring* — the merge loop
//! that feeds observations back to the search module is sequential and
//! deterministic.

use locus::corpus::dgemm_program;
use locus::machine::{Machine, MachineConfig};
use locus::search::{ExhaustiveSearch, RandomSearch, SearchModule};
use locus::system::{LocusSystem, StoreHandle, TuneReport, TuneRequest, TuneResult};

fn tiny_system(cores: usize) -> LocusSystem {
    LocusSystem::new(Machine::new(MachineConfig::scaled_tiny().with_cores(cores)))
}

/// A small but non-trivial space: the Fig. 7 program with tiles capped
/// at 4 (two tiling levels + OR block over OMP schedules).
fn fig7_small() -> locus::lang::LocusProgram {
    locus_bench::fig6::fig7_locus_program(4)
}

/// [`LocusSystem::tune_parallel`] on this suite's problem: DGEMM at
/// n = 8 under [`fig7_small`].
fn tune_parallel(
    system: &LocusSystem,
    search: &mut dyn SearchModule,
    request: TuneRequest<'_>,
) -> (TuneResult, TuneReport) {
    let (source, locus) = (dgemm_program(8), fig7_small());
    system
        .tune_parallel(&source, &locus, search, request)
        .unwrap()
}

#[derive(Debug, PartialEq)]
struct Fingerprint {
    best_key: Option<String>,
    best_value: Option<u64>,
    evaluations: usize,
    invalid: usize,
}

fn fingerprint(result: &locus::system::TuneResult) -> Fingerprint {
    Fingerprint {
        best_key: result.best.as_ref().map(|(p, _, _)| p.canonical_key()),
        best_value: result.outcome.best.as_ref().map(|(_, v)| v.to_bits()),
        evaluations: result.outcome.evaluations,
        invalid: result.outcome.invalid,
    }
}

/// `tune_parallel` with 1, 2, and 8 threads is bit-identical to the
/// sequential `tune` under exhaustive search.
#[test]
fn parallel_matches_sequential_exhaustive() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 48;

    let mut search = ExhaustiveSearch::default();
    let sequential = system.tune(&source, &locus, &mut search, budget).unwrap();
    let want = fingerprint(&sequential);
    assert!(sequential.best.is_some(), "sequential run found a variant");

    for threads in [1, 2, 8] {
        let mut search = ExhaustiveSearch::default();
        let (parallel, _) = tune_parallel(&system, &mut search, TuneRequest::new(budget, threads));
        assert_eq!(
            fingerprint(&parallel),
            want,
            "threads={threads}: parallel driver diverged from sequential"
        );
    }
}

/// Same bit-identity under seeded random search: the proposal stream is
/// observation-independent, so the driver (batched or not) must not
/// perturb it.
#[test]
fn parallel_matches_sequential_random() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 40;
    let seed = 0xdead;

    let mut search = RandomSearch::new(seed);
    let sequential = system.tune(&source, &locus, &mut search, budget).unwrap();
    let want = fingerprint(&sequential);

    for threads in [1, 2, 8] {
        let mut search = RandomSearch::new(seed);
        let (parallel, _) = tune_parallel(&system, &mut search, TuneRequest::new(budget, threads));
        assert_eq!(
            fingerprint(&parallel),
            want,
            "threads={threads}: parallel driver diverged from sequential"
        );
    }
}

/// Thread-count invariance holds for observation-*dependent* modules
/// too (bandit, anneal, portfolio): at a fixed batch size the
/// observation order is deterministic, so any two thread counts agree
/// with each other.
#[test]
fn thread_count_is_invariant_for_adaptive_modules() {
    let system = tiny_system(1);
    let budget = 32;

    type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;
    let mut make: Vec<(&str, MakeSearch)> = Vec::new();
    make.push((
        "bandit",
        Box::new(|| Box::new(locus::search::BanditTuner::new(7))),
    ));
    make.push((
        "anneal",
        Box::new(|| Box::new(locus::search::AnnealTuner::new(7))),
    ));
    make.push((
        "portfolio",
        Box::new(|| Box::new(locus::search::PortfolioSearch::new(7))),
    ));
    make.push((
        "mcts",
        Box::new(|| Box::new(locus::search::MctsTuner::new(7))),
    ));
    make.push((
        "sampler",
        Box::new(|| Box::new(locus::search::TraceSampler::new(7))),
    ));

    for (name, factory) in &mut make {
        let mut reference: Option<Fingerprint> = None;
        for threads in [1, 2, 8] {
            let mut search = factory();
            let (result, _) =
                tune_parallel(&system, search.as_mut(), TuneRequest::new(budget, threads));
            let fp = fingerprint(&result);
            match &reference {
                None => reference = Some(fp),
                Some(want) => assert_eq!(
                    &fp, want,
                    "{name}: threads={threads} diverged from threads=1"
                ),
            }
        }
    }
}

/// Warm-start is deterministic: the same store file plus the same
/// search seed reproduce the same trajectory — proposal history, best
/// point and objective, bit for bit — and the warm replay of an
/// unchanged source re-measures nothing.
fn warm_start_roundtrip(module: &str, make: &dyn Fn() -> Box<dyn SearchModule>) {
    use locus::store::TuningStore;

    let system = tiny_system(1);
    let budget = 32;

    let dir = std::env::temp_dir();
    let tag = format!("{}-warm-determinism-{module}", std::process::id());
    let cold_path = dir.join(format!("locus-{tag}-cold.jsonl"));
    std::fs::remove_file(&cold_path).ok();

    // Cold session builds the store.
    {
        let mut store = TuningStore::open(&cold_path).unwrap();
        let mut search = make();
        let (_, report) = tune_parallel(
            &system,
            search.as_mut(),
            TuneRequest {
                store: Some(StoreHandle::Single(&mut store)),
                ..TuneRequest::new(budget, 4)
            },
        );
        assert!(report.evaluations() > 0, "{module}: cold run evaluated");
    }

    // Two warm sessions, each against its own copy of the same file (a
    // warm run may append, so copies keep the starting state identical),
    // with different thread counts: same seed => same trajectory.
    let mut runs = Vec::new();
    for (i, threads) in [(0usize, 2usize), (1, 8)] {
        let path = dir.join(format!("locus-{tag}-warm{i}.jsonl"));
        std::fs::copy(&cold_path, &path).unwrap();
        let mut store = TuningStore::open(&path).unwrap();
        let mut search = make();
        let (result, report) = tune_parallel(
            &system,
            search.as_mut(),
            TuneRequest {
                store: Some(StoreHandle::Single(&mut store)),
                ..TuneRequest::new(budget, threads)
            },
        );
        std::fs::remove_file(&path).ok();
        runs.push((fingerprint(&result), result.outcome.history.clone(), report));
    }
    std::fs::remove_file(&cold_path).ok();

    let (fp_a, history_a, report_a) = &runs[0];
    let (fp_b, history_b, report_b) = &runs[1];
    assert_eq!(
        fp_a, fp_b,
        "{module}: same store + same seed must agree on the best"
    );
    let bits = |h: &[(usize, f64)]| -> Vec<(usize, u64)> {
        h.iter().map(|(i, v)| (*i, v.to_bits())).collect()
    };
    assert_eq!(
        bits(history_a),
        bits(history_b),
        "{module}: improvement trajectory must be bit-identical"
    );
    assert_eq!(report_a.seeded, report_b.seeded);
    assert!(
        report_a.seeded > 0,
        "{module}: warm sessions were seeded from the store"
    );
    assert_eq!(report_a.rehydrated, report_b.rehydrated);
}

#[test]
fn warm_start_from_one_store_file_is_deterministic() {
    warm_start_roundtrip("bandit", &|| {
        Box::new(locus::search::BanditTuner::new(0x5eed))
    });
}

/// The block-buffering modules warm-start deterministically too: store
/// elites force tree paths (MCTS) / fit distributions (sampler) the
/// same way at every thread count.
#[test]
fn warm_start_is_deterministic_for_block_modules() {
    warm_start_roundtrip("mcts", &|| Box::new(locus::search::MctsTuner::new(0x5eed)));
    warm_start_roundtrip("sampler", &|| {
        Box::new(locus::search::TraceSampler::new(0x5eed))
    });
}

/// The MCTS and trace-sampler modules integrate observations in blocks
/// of [`locus::search::OBSERVATION_BLOCK`] — exactly the parallel
/// driver's batch size — so their proposal streams are bit-identical
/// between the sequential `tune` driver and `tune_parallel` at every
/// thread count, not merely invariant across thread counts.
#[test]
fn block_modules_match_sequential_tune_exactly() {
    let source = dgemm_program(8);
    let locus = fig7_small();
    let system = tiny_system(1);
    let budget = 32;

    type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;
    let make: Vec<(&str, MakeSearch)> = vec![
        (
            "mcts",
            Box::new(|| Box::new(locus::search::MctsTuner::new(0xb10c))),
        ),
        (
            "sampler",
            Box::new(|| Box::new(locus::search::TraceSampler::new(0xb10c))),
        ),
    ];
    for (name, factory) in &make {
        let mut search = factory();
        let sequential = system
            .tune(&source, &locus, search.as_mut(), budget)
            .unwrap();
        let want = fingerprint(&sequential);
        assert!(
            sequential.best.is_some(),
            "{name}: sequential run found a variant"
        );
        for threads in [1, 2, 8] {
            let mut search = factory();
            let (parallel, _) =
                tune_parallel(&system, search.as_mut(), TuneRequest::new(budget, threads));
            assert_eq!(
                fingerprint(&parallel),
                want,
                "{name} threads={threads}: parallel driver diverged from sequential"
            );
        }
    }
}

/// The shared memo cache actually dedups: exhaustive search over a
/// space whose OR-block dead parameters collapse to few distinct
/// variants must record variant-level hits, and duplicate points
/// proposed twice must record point-level hits.
#[test]
fn memo_cache_sees_hits_on_duplicate_proposals() {
    let system = tiny_system(1);

    // A stride small enough to sweep the fast-varying OR-block params:
    // distinct points in the plain OR branch differ only in dead
    // schedule/chunk values, so their direct programs collide at the
    // variant level and are measured once.
    let mut search = ExhaustiveSearch::default();
    let (result, report) = tune_parallel(&system, &mut search, TuneRequest::new(512, 4));
    let stats = report.memo;
    assert!(result.best.is_some());
    assert!(
        stats.hits() >= 1,
        "expected memo hits on duplicate variants, stats: {stats:?}"
    );
    assert!(
        stats.unique_variants <= stats.unique_points,
        "variant dedup can only shrink the measurement set: {stats:?}"
    );

    // A random walk re-proposing points also scores point-level hits.
    let mut search = RandomSearch::new(3);
    let (_, report) = tune_parallel(&system, &mut search, TuneRequest::new(96, 2));
    let stats = report.memo;
    assert!(
        stats.hits() >= 1,
        "expected point or variant hits under random re-proposals, stats: {stats:?}"
    );
}

/// A caller-owned cache shared across a session replays earlier
/// measurements without perturbing outcomes: a random search run against
/// a cache pre-populated by an exhaustive sweep returns exactly what the
/// same run returns standalone.
#[test]
fn shared_cache_replays_without_perturbing_outcomes() {
    let system = tiny_system(1);

    let mut search = RandomSearch::new(11);
    let (standalone, _) = tune_parallel(&system, &mut search, TuneRequest::new(32, 2));

    let shared = locus::system::MemoCache::new();
    let mut sweep = ExhaustiveSearch::default();
    tune_parallel(
        &system,
        &mut sweep,
        TuneRequest {
            cache: Some(&shared),
            ..TuneRequest::new(8192, 2)
        },
    );
    let before = shared.stats();

    let mut search = RandomSearch::new(11);
    let (replayed, _) = tune_parallel(
        &system,
        &mut search,
        TuneRequest {
            cache: Some(&shared),
            ..TuneRequest::new(32, 2)
        },
    );
    let after = shared.stats();

    assert_eq!(
        fingerprint(&replayed),
        fingerprint(&standalone),
        "cached replay must match the standalone run bit for bit"
    );
    assert_eq!(
        after.unique_variants, before.unique_variants,
        "the sweep covered the space; the replay must measure nothing new"
    );
    assert!(
        after.hits() > before.hits(),
        "the replay must hit the cache"
    );
}

/// Every proposed point is accounted for exactly once: as a memo hit, a
/// store hit, a fresh evaluation, or a statically pruned point. A counter
/// leak here would make the `locus-report` rate table lie.
#[test]
fn report_counters_sum_to_proposed_points() {
    use locus::search::BanditTuner;

    let system = tiny_system(1);

    type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;
    let make: Vec<(&str, MakeSearch)> = vec![
        (
            "exhaustive",
            Box::new(|| Box::new(ExhaustiveSearch::default())),
        ),
        ("random", Box::new(|| Box::new(RandomSearch::new(9)))),
        ("bandit", Box::new(|| Box::new(BanditTuner::new(9)))),
    ];
    for (name, factory) in &make {
        for threads in [1, 4] {
            let mut search = factory();
            let (result, report) =
                tune_parallel(&system, search.as_mut(), TuneRequest::new(48, threads));
            assert!(result.best.is_some(), "{name}: no best found");
            assert!(report.proposed > 0, "{name}: nothing proposed");
            assert_eq!(
                report.accounted(),
                report.proposed,
                "{name} threads={threads}: memo {} + store {} + fresh {} + pruned {} \
                 != proposed {}",
                report.memo_hits(),
                report.store_hits(),
                report.evaluations(),
                report.pruned_illegal,
                report.proposed
            );
            // Nothing past the budget is built or measured: only the
            // points the bookkeeper recorded reach the fresh cache.
            assert_eq!(
                report.memo.unique_points,
                result.outcome.evaluations + result.outcome.invalid,
                "{name} threads={threads}: cached points"
            );
        }
    }

    // A chain of sessions over one shared cache: each report accounts
    // for its own proposals only, not for what earlier sessions left in
    // the cache's counters.
    let shared = locus::system::MemoCache::new();
    for seed in [3, 4, 5] {
        let (_, report) = tune_parallel(
            &system,
            &mut RandomSearch::new(seed),
            TuneRequest {
                cache: Some(&shared),
                ..TuneRequest::new(24, 2)
            },
        );
        assert_eq!(
            report.accounted(),
            report.proposed,
            "shared cache, seed {seed}: memo {} + store {} + fresh {} + pruned {} + failed {} \
             != proposed {}",
            report.memo_hits(),
            report.store_hits(),
            report.evaluations(),
            report.pruned_illegal,
            report.build_failed,
            report.proposed
        );
    }
}

/// The exact accounting of three fixed sessions: every `MemoStats` field
/// and every `TuneReport` counter. Sums and orderings alone would let a
/// hit move between the point and variant levels, or between session
/// and store origin, unnoticed.
#[test]
fn session_accounting_is_pinned() {
    use locus::search::MctsTuner;
    use locus::search::StopReason;
    use locus::store::TuningStore;
    use locus::system::{MemoCache, MemoStats};

    let system = tiny_system(1);
    let request = |cache| TuneRequest {
        cache,
        ..TuneRequest::new(24, 2)
    };

    // A fresh cache.
    let (_, fresh) = tune_parallel(&system, &mut RandomSearch::new(3), request(None));
    let want_fresh = TuneReport {
        memo: MemoStats {
            point_hits: 0,
            variant_hits: 4,
            store_hits: 0,
            misses: 22,
            unique_points: 68,
            unique_variants: 64,
        },
        build_failed: 42,
        proposed: 68,
        builds: 64,
        stop: StopReason::Budget,
        ..TuneReport::default()
    };
    assert_eq!(fresh, want_fresh, "fresh cache");

    // The second of two sessions over one shared cache.
    let shared = MemoCache::new();
    let (_, first) = tune_parallel(&system, &mut RandomSearch::new(3), request(Some(&shared)));
    assert_eq!(first, want_fresh, "first session over a shared cache");
    let (_, second) = tune_parallel(&system, &mut RandomSearch::new(4), request(Some(&shared)));
    let want_second = TuneReport {
        memo: MemoStats {
            point_hits: 1,
            variant_hits: 23,
            store_hits: 0,
            misses: 14,
            unique_points: 61,
            unique_variants: 38,
        },
        build_failed: 24,
        proposed: 62,
        builds: 38,
        stop: StopReason::Budget,
        ..TuneReport::default()
    };
    assert_eq!(second, want_second, "second session over a shared cache");

    // A warm store session: a pruning-aware module over a store a
    // random session filled.
    let path = std::env::temp_dir().join(format!("locus-{}-pinned.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut store = TuningStore::open(&path).unwrap();
    tune_parallel(
        &system,
        &mut RandomSearch::new(3),
        TuneRequest {
            store: Some(StoreHandle::Single(&mut store)),
            ..TuneRequest::new(24, 2)
        },
    );
    let (_, warm) = tune_parallel(
        &system,
        &mut MctsTuner::new(5),
        TuneRequest {
            store: Some(StoreHandle::Single(&mut store)),
            ..TuneRequest::new(32, 2)
        },
    );
    std::fs::remove_file(&path).ok();
    let want_warm = TuneReport {
        memo: MemoStats {
            point_hits: 0,
            variant_hits: 5,
            store_hits: 11,
            misses: 16,
            unique_points: 96,
            unique_variants: 80,
        },
        rehydrated: 64,
        seeded: 8,
        appended: 16,
        invalidated: 0,
        pruned_illegal: 0,
        build_failed: 0,
        proposed: 32,
        builds: 55,
        stop: StopReason::Budget,
    };
    assert_eq!(warm, want_warm, "warm store session");
}

/// Tracing is observation-only: a run with an enabled tracer returns a
/// `TuneResult` bit-identical to the same run without one, and the trace
/// itself is deterministic across thread counts (workers merge by
/// evaluation slot, not by scheduling order).
#[test]
fn traced_runs_are_bit_identical_to_untraced_runs() {
    use locus::search::BanditTuner;
    use locus::trace::Tracer;

    let system = tiny_system(1);
    let budget = 32;
    let seed = 0x7ace;

    let mut search = BanditTuner::new(seed);
    let (untraced, untraced_report) =
        tune_parallel(&system, &mut search, TuneRequest::new(budget, 4));

    let mut traces = Vec::new();
    for threads in [1, 4, 8] {
        let tracer = Tracer::enabled();
        let mut search = BanditTuner::new(seed);
        let (traced, traced_report) = tune_parallel(
            &system,
            &mut search,
            TuneRequest {
                tracer: tracer.clone(),
                ..TuneRequest::new(budget, threads)
            },
        );
        assert_eq!(
            fingerprint(&traced),
            fingerprint(&untraced),
            "threads={threads}: tracing perturbed the tuning outcome"
        );
        assert_eq!(traced_report.evaluations(), untraced_report.evaluations());
        assert_eq!(traced_report.proposed, untraced_report.proposed);
        assert_eq!(traced_report.accounted(), traced_report.proposed);

        let events = tracer.events();
        assert!(
            locus::report::check_trace(&events).is_ok(),
            "threads={threads}: incomplete trace"
        );
        // Scrub wall-clock fields; everything else must be scheduling
        // independent.
        let shape: Vec<(String, String, u64)> = events
            .iter()
            .map(|e| (e.cat.clone(), e.name.clone(), e.lane))
            .collect();
        traces.push((threads, shape));
    }
    let eval_points = |shape: &[(String, String, u64)]| {
        shape
            .iter()
            .filter(|(c, n, _)| c == "eval" && n == "point")
            .count()
    };
    assert!(
        eval_points(&traces[0].1) > 0,
        "trace recorded no evaluations"
    );
    for (threads, shape) in &traces[1..] {
        assert_eq!(
            eval_points(shape),
            eval_points(&traces[0].1),
            "threads={threads}: merged evaluation stream diverged"
        );
    }
}

/// Same observation-only guarantee for the store-backed entry point, and
/// the disabled tracer records nothing.
#[test]
fn store_backed_tracing_is_observation_only() {
    use locus::search::BanditTuner;
    use locus::store::TuningStore;
    use locus::trace::Tracer;

    let system = tiny_system(1);
    let budget = 24;
    let seed = 0xace5;

    let dir = std::env::temp_dir();
    let tag = format!("{}-trace-store", std::process::id());
    let path_a = dir.join(format!("locus-{tag}-a.jsonl"));
    let path_b = dir.join(format!("locus-{tag}-b.jsonl"));
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();

    let mut store = TuningStore::open(&path_a).unwrap();
    let mut search = BanditTuner::new(seed);
    let (plain, _) = tune_parallel(
        &system,
        &mut search,
        TuneRequest {
            store: Some(StoreHandle::Single(&mut store)),
            ..TuneRequest::new(budget, 4)
        },
    );
    drop(store);

    let tracer = Tracer::enabled();
    let mut store = TuningStore::open(&path_b).unwrap();
    let mut search = BanditTuner::new(seed);
    let (traced, _) = tune_parallel(
        &system,
        &mut search,
        TuneRequest {
            store: Some(StoreHandle::Single(&mut store)),
            tracer: tracer.clone(),
            ..TuneRequest::new(budget, 4)
        },
    );
    drop(store);

    assert_eq!(
        fingerprint(&traced),
        fingerprint(&plain),
        "tracing perturbed the store-backed run"
    );
    assert!(
        tracer
            .events()
            .iter()
            .any(|e| e.cat == "phase" && e.name == "store-append"),
        "store-backed trace must record the append phase"
    );

    // And the stores stayed identical, modulo the `wall_ms` field, which
    // records real (non-simulated) wall-clock time and differs between
    // any two runs, traced or not.
    let scrub = |text: String| -> String {
        text.lines()
            .map(|line| match line.split_once("\"wall_ms\":") {
                Some((head, tail)) => {
                    let rest = tail.find([',', '}']).map_or("", |i| &tail[i..]);
                    format!("{head}\"wall_ms\":0{rest}")
                }
                None => line.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = scrub(std::fs::read_to_string(&path_a).unwrap());
    let b = scrub(std::fs::read_to_string(&path_b).unwrap());
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
    assert_eq!(a, b, "tracing changed what was persisted");

    // A disabled tracer stays empty no matter what ran through it.
    let disabled = Tracer::disabled();
    let mut search = BanditTuner::new(seed);
    tune_parallel(
        &system,
        &mut search,
        TuneRequest {
            tracer: disabled.clone(),
            ..TuneRequest::new(budget, 2)
        },
    );
    assert!(disabled.events().is_empty());
}

/// Every optional part of a [`TuneRequest`] is result-preserving: a
/// cold seeded bandit session under each of the twelve combinations of
/// cache (fresh or caller-owned), store (none, a fresh single file, a
/// fresh sharded directory) and tracer (disabled or enabled) agrees bit
/// for bit on the best point and time, the improvement history and the
/// evaluation count. A caller-owned cache's statistics are exactly what
/// the report carries.
#[test]
fn every_request_combination_agrees_bit_for_bit() {
    use locus::search::BanditTuner;
    use locus::store::{ShardedStore, TuningStore, DEFAULT_SHARDS};
    use locus::system::MemoCache;
    use locus::trace::Tracer;

    let system = tiny_system(1);
    let dir = std::env::temp_dir().join(format!("locus-{}-request-table", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut runs = Vec::new();
    for i in 0..12 {
        let (owned_cache, store_kind, traced) =
            (i >= 6, ["none", "single", "sharded"][i / 2 % 3], i % 2 == 1);
        let label = format!("owned_cache={owned_cache} store={store_kind} traced={traced}");
        let at = dir.join(i.to_string());
        let mut single = (store_kind == "single")
            .then(|| TuningStore::open(at.with_extension("jsonl")).unwrap());
        let sharded =
            (store_kind == "sharded").then(|| ShardedStore::open(&at, DEFAULT_SHARDS).unwrap());
        let cache = MemoCache::new();
        let tracer = if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let request = TuneRequest {
            cache: owned_cache.then_some(&cache),
            store: single
                .as_mut()
                .map(StoreHandle::Single)
                .or(sharded.as_ref().map(StoreHandle::Sharded)),
            tracer: tracer.clone(),
            ..TuneRequest::new(32, 4)
        };
        let (result, report) = tune_parallel(&system, &mut BanditTuner::new(0x7ab1e), request);
        if owned_cache {
            assert_eq!(report.memo, cache.stats(), "{label}: report.memo");
        }
        // Each distinct point is built at most once, and nothing past
        // the budget is simulated.
        let resolved = result.outcome.evaluations + result.outcome.invalid;
        assert!(
            report.builds <= resolved,
            "{label}: {} builds for {resolved} distinct points",
            report.builds
        );
        assert!(
            report.evaluations() <= 32,
            "{label}: {} simulations",
            report.evaluations()
        );
        assert_eq!(
            tracer.events().is_empty(),
            !traced,
            "{label}: the caller's tracer handle"
        );
        let best_ms = result.best.as_ref().map(|(_, _, m)| m.time_ms.to_bits());
        let history: Vec<(usize, u64)> = result
            .outcome
            .history
            .iter()
            .map(|(i, v)| (*i, v.to_bits()))
            .collect();
        runs.push((label, (fingerprint(&result), best_ms, history)));
    }
    std::fs::remove_dir_all(&dir).ok();

    let (want_label, want) = &runs[0];
    assert!(want.0.best_key.is_some(), "{want_label}: found no variant");
    for (label, got) in &runs[1..] {
        assert_eq!(got, want, "{label} diverged from {want_label}");
    }
}
