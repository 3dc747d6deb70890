//! The process-wide legality memo behind `verify::legal` and
//! `verify::parallel_for_clauses`, checked end to end: every registry
//! region's questions and the builds of every registry space and of a
//! seeded sample of the paper's Fig. 7 space.
//!
//! The memo is shared by the whole process and its counters are asserted
//! exactly, so this file holds one test: a second test in the same
//! binary would ask questions concurrently and move the counters.
//!
//! In builds with debug assertions (the default for `cargo test`) every
//! memo hit is also re-judged by the unmemoized engine and must agree,
//! so every hit below is checked against the engine as well.

use locus::corpus::{all_programs, dgemm_program};
use locus::space::SplitMix64;
use locus::srcir::ast::Stmt;
use locus::srcir::region::{extract_region, find_regions};
use locus::srcir::visit::{child, child_count};
use locus::srcir::HierIndex;
use locus::system::LocusSystem;
use locus::verify::{legal, memo_stats, parallel_for_clauses, TransformStep, MEMO_CAPACITY};
use locus_bench::bench_machine_tiny;
use locus_bench::fig6::fig7_locus_program;
use locus_bench::verify::build_pass;

/// Every step kind at every loop of `root`, plus the root permutations.
fn questions(root: &Stmt) -> Vec<TransformStep> {
    fn loops(stmt: &Stmt, index: HierIndex, out: &mut Vec<HierIndex>) {
        if stmt.is_for() {
            out.push(index.clone());
        }
        for i in 0..child_count(stmt) {
            if let Some(c) = child(stmt, i) {
                loops(c, index.push(i), out);
            }
        }
    }
    let mut targets = Vec::new();
    loops(root, HierIndex::root(), &mut targets);
    let mut steps: Vec<TransformStep> = [vec![1, 0], vec![0, 2, 1], vec![2, 1, 0]]
        .into_iter()
        .map(|order| TransformStep::Interchange { order })
        .collect();
    for target in targets {
        steps.extend([
            TransformStep::Tile {
                target: target.clone(),
                width: 2,
            },
            TransformStep::UnrollAndJam {
                target: target.clone(),
            },
            TransformStep::Fuse {
                first: target.clone(),
            },
            TransformStep::Distribute {
                target: target.clone(),
            },
            TransformStep::ParallelFor {
                target: target.clone(),
            },
            TransformStep::Vectorize { target },
        ]);
    }
    steps
}

#[test]
fn the_memo_answers_as_the_engine_and_judges_each_question_once() {
    let entries = all_programs();
    let start = memo_stats();
    assert_eq!(start.hits + start.misses, 0, "nothing asked yet");

    // Every registry region's questions, asked twice: the first ask is
    // judged by the engine, the second is a hit with the same answer.
    for entry in &entries {
        let regions = find_regions(&entry.program);
        let region = regions
            .iter()
            .find(|r| r.id == entry.region)
            .expect("registry region");
        let root = extract_region(&entry.program, region)
            .expect("region extracts")
            .stmt;
        for step in questions(&root) {
            let before = memo_stats();
            let judged = legal(&root, &step);
            let judged_clauses = match &step {
                TransformStep::ParallelFor { target } => Some(parallel_for_clauses(&root, target)),
                _ => None,
            };
            let mid = memo_stats();
            assert_eq!(mid.misses, before.misses + 1, "{}: {step:?}", entry.name);
            assert_eq!(legal(&root, &step), judged, "{}: {step:?}", entry.name);
            if let TransformStep::ParallelFor { target } = &step {
                assert_eq!(Some(parallel_for_clauses(&root, target)), judged_clauses);
            }
            let after = memo_stats();
            assert_eq!(after.misses, mid.misses, "{}: {step:?}", entry.name);
            assert!(after.hits > mid.hits, "{}: {step:?}", entry.name);
        }
    }

    // Builds: every point of every registry space and 200 seeded points
    // of Fig. 7, swept twice. The second sweep is all hits and builds
    // every point exactly as the first did.
    let system = LocusSystem::new(bench_machine_tiny(2));
    let mut sweeps = Vec::new();
    for entry in &entries {
        let prepared = system
            .prepare(&entry.program, &entry.locus_program())
            .expect("registry recipe prepares");
        let size = prepared
            .space
            .exact_size()
            .expect("registry spaces are discrete");
        let points: Vec<_> = (0..size).map(|i| prepared.space.point_at(i)).collect();
        sweeps.push((entry.name, entry.program.clone(), prepared, points));
    }
    let fig7 = dgemm_program(24);
    let prepared = system
        .prepare(&fig7, &fig7_locus_program(4))
        .expect("Fig. 7 program prepares");
    let mut rng = SplitMix64::new(0xf167);
    let points: Vec<_> = (0..200)
        .map(|_| prepared.space.random_point(&mut rng))
        .collect();
    sweeps.push(("fig7", fig7, prepared, points));

    let mut asked = 0;
    for (name, source, prepared, points) in &sweeps {
        let (first, first_pass) = build_pass(&system, source, prepared, points);
        let (second, second_pass) = build_pass(&system, source, prepared, points);
        assert_eq!(
            first, second,
            "{name}: a build changed on the memo's answers"
        );
        assert_eq!(second_pass.misses, 0, "{name}: {second_pass:?}");
        assert_eq!(second_pass.hits, first_pass.calls, "{name}: {first_pass:?}");
        asked += first_pass.calls;
    }
    // Every Fig. 7 point asks at least the interchange and the first
    // tiling; the registry sweeps ask more.
    assert!(
        asked > 2 * 200,
        "the sweeps look vacuous: {asked} questions"
    );

    let end = memo_stats();
    assert_eq!(end.clears, 0, "the sweep fits the memo");
    assert!(end.entries <= MEMO_CAPACITY);
    assert_eq!(end.entries as u64, end.misses, "each answer judged once");
}
