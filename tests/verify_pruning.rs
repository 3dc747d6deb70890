//! Acceptance tests for verifier-pruned search: a space containing
//! statically racy points never simulates them.
//!
//! The Locus program below parallelizes either the outer `i` loop of
//! DGEMM (legal: every iteration writes a distinct row of `C`) or the
//! inner `k` loop (a data race: all `k` iterations of one `(i, j)` pair
//! update the same `C[i][j]`). The race detector of `locus-verify` must
//! prune the `k` choice before the simulated machine ever runs it, the
//! search must still converge on the legal choice, and the outcome must
//! be bit-identical to a sequential run — pruning changes *cost*, never
//! the result.

use locus::corpus::dgemm_program;
use locus::machine::{Machine, MachineConfig};
use locus::search::{ExhaustiveSearch, SearchModule};
use locus::store::TuningStore;
use locus::system::{LocusSystem, StoreHandle, TuneRequest};

fn tiny_system() -> LocusSystem {
    LocusSystem::new(Machine::new(MachineConfig::scaled_tiny().with_cores(2)))
}

/// Parallelize the outer loop ("0", legal) or the k loop ("0.0.0",
/// racy: every iteration accumulates into the same `C[i][j]`).
fn racy_choice_program() -> locus::lang::LocusProgram {
    locus::lang::parse(
        r#"CodeReg matmul {
            target = enum("0", "0.0.0");
            Pragma.OMPFor(loop=target);
        }"#,
    )
    .expect("program parses")
}

#[test]
fn racy_points_are_pruned_before_simulation() {
    let source = dgemm_program(8);
    let locus = racy_choice_program();
    let system = tiny_system();

    let mut search = ExhaustiveSearch::default();
    let (result, report) = system
        .tune_parallel(&source, &locus, &mut search, TuneRequest::new(8, 2))
        .unwrap();

    assert_eq!(result.space_size, 2, "two parallelization choices");
    assert_eq!(report.pruned_illegal, 1, "the k-loop choice is refused");
    assert_eq!(
        report.evaluations(),
        1,
        "only the legal choice reaches the machine"
    );
    assert_eq!(result.outcome.invalid, 1, "the pruned point reads invalid");
    let (best, _, m) = result.best.as_ref().expect("legal choice wins");
    assert_eq!(best.canonical_key(), "target=c0;", "outer loop chosen");
    assert_eq!(m.checksum, result.baseline.checksum);
}

#[test]
fn pruning_preserves_the_sequential_result_bit_for_bit() {
    let source = dgemm_program(8);
    let locus = racy_choice_program();
    let system = tiny_system();

    let mut search = ExhaustiveSearch::default();
    let sequential = system.tune(&source, &locus, &mut search, 8).unwrap();

    for threads in [1, 2, 8] {
        let mut search = ExhaustiveSearch::default();
        let (parallel, report) = system
            .tune_parallel(&source, &locus, &mut search, TuneRequest::new(8, threads))
            .unwrap();
        assert!(report.pruned_illegal > 0, "threads={threads}: prune fired");
        assert_eq!(
            parallel.best.as_ref().map(|(p, _, _)| p.canonical_key()),
            sequential.best.as_ref().map(|(p, _, _)| p.canonical_key()),
            "threads={threads}: best point diverged"
        );
        assert_eq!(
            parallel.outcome.best.as_ref().map(|(_, v)| v.to_bits()),
            sequential.outcome.best.as_ref().map(|(_, v)| v.to_bits()),
            "threads={threads}: best objective diverged"
        );
        assert_eq!(parallel.outcome.evaluations, sequential.outcome.evaluations);
        assert_eq!(parallel.outcome.invalid, sequential.outcome.invalid);
    }
}

#[test]
fn prunes_replay_from_the_store_without_reanalysis() {
    let source = dgemm_program(8);
    let locus = racy_choice_program();
    let system = tiny_system();
    let path = std::env::temp_dir().join(format!(
        "locus-verify-prune-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_file(&path).ok();

    // Each session opens the file afresh, so the warm one sees only
    // what the cold one persisted.
    let session = || {
        let mut store = TuningStore::open(&path).unwrap();
        let mut search = ExhaustiveSearch::default();
        system
            .tune_parallel(
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
    assert_eq!(cold_report.pruned_illegal, 1);
    assert_eq!(
        cold_report.appended, 2,
        "one evaluation and one prune persisted"
    );

    let (warm, warm_report) = session();
    assert_eq!(warm_report.rehydrated, cold_report.appended);
    assert_eq!(warm_report.evaluations(), 0, "nothing is re-measured");
    assert_eq!(warm_report.pruned_illegal, 0, "nothing is re-analyzed");
    assert_eq!(
        warm_report.store_hits(),
        2,
        "both points answered from disk"
    );

    let (cold_point, _, cold_m) = cold.best.as_ref().expect("cold best");
    let (warm_point, _, warm_m) = warm.best.as_ref().expect("warm best");
    assert_eq!(cold_point.canonical_key(), warm_point.canonical_key());
    assert_eq!(cold_m.time_ms.to_bits(), warm_m.time_ms.to_bits());
    std::fs::remove_file(&path).ok();
}

/// The pruning-aware modules consult the legality oracle *at proposal
/// time*: with MCTS or the trace sampler driving, the racy `k`-loop
/// choice never surfaces as a proposal at all — `pruned_illegal` stays
/// zero because nothing illegal ever reaches the driver, and the racy
/// subtree is never simulated.
#[test]
fn oracle_aware_modules_prune_before_proposing() {
    let source = dgemm_program(8);
    let locus = racy_choice_program();
    let system = tiny_system();

    type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;
    let make: Vec<(&str, MakeSearch)> = vec![
        (
            "mcts",
            Box::new(|| Box::new(locus::search::MctsTuner::new(3))),
        ),
        (
            "sampler",
            Box::new(|| Box::new(locus::search::TraceSampler::new(3))),
        ),
    ];
    for (name, factory) in &make {
        let mut search = factory();
        let (result, report) = system
            .tune_parallel(&source, &locus, search.as_mut(), TuneRequest::new(8, 2))
            .unwrap();
        assert_eq!(
            report.pruned_illegal, 0,
            "{name}: an illegal point slipped past the proposal-time oracle"
        );
        assert_eq!(
            report.evaluations(),
            1,
            "{name}: only the legal choice runs"
        );
        let (best, _, _) = result.best.as_ref().expect("legal choice wins");
        assert_eq!(
            best.canonical_key(),
            "target=c0;",
            "{name}: outer loop chosen"
        );
    }
}

/// Regression: a portfolio member whose whole round comes back refused
/// is demoted below participation — before the fix, the flat `0.1`
/// participation floor kept a 100%-pruned member's credit at 0.8, so it
/// kept winning budget it could only waste.
#[test]
fn portfolio_demotes_members_whose_rounds_are_fully_pruned() {
    use locus::search::{Objective, PortfolioSearch};
    use locus::space::{ParamDef, ParamKind, Point};

    let space: locus::space::Space = vec![
        ParamDef::new("tile", ParamKind::PowerOfTwo { min: 2, max: 64 }),
        ParamDef::new("sched", ParamKind::Enum(vec!["a".into(), "b".into()])),
    ]
    .into_iter()
    .collect();

    let mut portfolio = PortfolioSearch::new(5);
    let mut f = |_: &Point| Objective::Invalid;
    let out = portfolio.search(&space, 40, &mut f);
    assert_eq!(out.evaluations, 0, "nothing legal to evaluate");
    assert!(out.best.is_none());
    for (i, credit) in portfolio.credits().iter().enumerate() {
        assert!(
            *credit < 0.7,
            "member {i}: credit {credit} kept the participation floor \
             despite a 100%-refused round"
        );
    }
}

#[test]
fn loop_carried_recurrence_never_ships() {
    // `A[i] = A[i-1] + A[i]` carries a dependence at distance 1: no
    // parallelization of the space exists, so tuning must fall back to
    // the baseline rather than measure (or worse, ship) a racy variant.
    let source = locus::srcir::parse_program(
        r#"
        double A[64];
        void kernel() {
            int i;
            #pragma @Locus loop=scan
            for (i = 1; i < 64; i++)
                A[i] = A[i - 1] + A[i];
        }
        "#,
    )
    .unwrap();
    let locus = locus::lang::parse(
        r#"CodeReg scan {
            Pragma.OMPFor(loop="0");
        }"#,
    )
    .unwrap();
    let system = tiny_system();
    let mut search = ExhaustiveSearch::default();
    let (result, report) = system
        .tune_parallel(&source, &locus, &mut search, TuneRequest::new(4, 2))
        .unwrap();
    assert_eq!(report.pruned_illegal, 1);
    assert_eq!(report.evaluations(), 0, "nothing was ever simulated");
    assert!(result.best.is_none(), "the baseline ships unchanged");
    assert_eq!(result.speedup(), 1.0);
}
