//! Benchmarks verifier-pruned search: the same DGEMM tuning session run
//! twice — once with the static safety verifier active (racy
//! parallelization choices are refused before the simulator ever runs
//! them) and once with legality checking disabled (every point is built
//! and measured). The difference in evaluation counts is the number of
//! simulations the verifier saved; the wall-clock ratio is the headline
//! number of `BENCH_verify.json`.
//!
//! The unchecked session also shows *why* the verifier exists: the
//! simulated machine executes racy variants deterministically, so a
//! data race on the reduction loop is invisible to measurement — only
//! static analysis can refuse it.

use std::time::Instant;

use locus_analysis::deps::{analyze_region_conservative, DependenceInfo};
use locus_analysis::loops::perfect_nest_loops;
use locus_core::{LocusSystem, Prepared, TuneReport, TuneRequest, TuneResult};
use locus_corpus::dgemm_program;
use locus_search::ExhaustiveSearch;
use locus_space::Point;
use locus_srcir::ast::Stmt;
use locus_srcir::hash::fnv1a;
use locus_srcir::print_program;
use locus_srcir::region::{extract_region, find_regions};
use locus_srcir::visit::{child, child_count, walk_exprs};
use locus_srcir::HierIndex;
use locus_verify::{explain, legal, memo_stats, TransformStep};

use crate::bench_machine_tiny;
use crate::fig6::fig7_locus_program;

/// One checked-vs-unchecked comparison of a tuning session over a space
/// that contains statically racy parallelization choices.
#[derive(Debug, Clone)]
pub struct VerifyRow {
    /// Row label.
    pub label: String,
    /// Evaluation budget per session.
    pub budget: usize,
    /// Worker threads.
    pub threads: usize,
    /// Points in the search space.
    pub space: u128,
    /// Wall-clock of the checked (verifier active) session.
    pub checked_s: f64,
    /// Wall-clock of the unchecked (legality checks off) session.
    pub unchecked_s: f64,
    /// `unchecked_s / checked_s`.
    pub ratio: f64,
    /// Session accounting of the checked run.
    pub checked: TuneReport,
    /// Session accounting of the unchecked run.
    pub unchecked: TuneReport,
    /// Canonical key of the checked session's best point.
    pub checked_best: Option<String>,
    /// Canonical key of the unchecked session's best point.
    pub unchecked_best: Option<String>,
}

impl VerifyRow {
    /// Simulations the verifier saved: every point the unchecked session
    /// measured that the checked session statically refused.
    pub fn evaluations_avoided(&self) -> usize {
        self.unchecked
            .evaluations()
            .saturating_sub(self.checked.evaluations())
    }

    /// Whether the unchecked session converged on a point the verifier
    /// would have refused — i.e. it shipped a racy variant.
    pub fn unchecked_ships_racy(&self) -> bool {
        self.unchecked_best != self.checked_best
    }
}

/// Parallelize the `i` loop ("0", legal), the `j` loop ("0.0", legal:
/// distinct `C[i][j]` per iteration) or the `k` loop ("0.0.0", a data
/// race: every `k` iteration accumulates into the same `C[i][j]`),
/// crossed with a chunk-size knob so each choice repeats across several
/// otherwise-distinct points.
fn parallel_loop_choice_program() -> locus_lang::LocusProgram {
    locus_lang::parse(
        r#"CodeReg matmul {
            target = enum("0", "0.0", "0.0.0");
            Pragma.OMPFor(loop=target, schedule="static", chunk=integer(1..8));
        }"#,
    )
    .expect("locus program parses")
}

/// The tiled variant: interchange to `i, k, j`, strip-mine all three
/// levels, then parallelize either the outer tile loop ("0", legal via
/// strip-mine coalescing) or the `k` tile loop ("0.0", refused — the
/// tile of the reduction dimension still races on `C`).
fn tiled_loop_choice_program() -> locus_lang::LocusProgram {
    locus_lang::parse(
        r#"CodeReg matmul {
            RoseLocus.Interchange(order=[0, 2, 1]);
            tile = poweroftwo(2..4);
            Pips.Tiling(loop="0", factor=[tile, tile, tile]);
            target = enum("0", "0.0");
            Pragma.OMPFor(loop=target);
        }"#,
    )
    .expect("locus program parses")
}

fn best_key(result: &TuneResult) -> Option<String> {
    result.best.as_ref().map(|(p, _, _)| p.canonical_key())
}

fn session(
    check_legality: bool,
    source: &locus_srcir::ast::Program,
    locus: &locus_lang::LocusProgram,
    budget: usize,
    threads: usize,
) -> (TuneResult, TuneReport, f64) {
    let mut system = LocusSystem::new(bench_machine_tiny(1));
    system.check_legality = check_legality;
    let mut search = ExhaustiveSearch::default();
    let start = Instant::now();
    let (result, report) = system
        .tune_parallel(
            source,
            locus,
            &mut search,
            TuneRequest::new(budget, threads),
        )
        .expect("tuning runs");
    (result, report, start.elapsed().as_secs_f64())
}

/// Runs one checked-vs-unchecked pair over the given space.
pub fn run_pair(
    label: &str,
    locus: &locus_lang::LocusProgram,
    n: usize,
    budget: usize,
    threads: usize,
) -> VerifyRow {
    let source = dgemm_program(n);
    let (checked_result, checked, checked_s) = session(true, &source, locus, budget, threads);
    let (unchecked_result, unchecked, unchecked_s) =
        session(false, &source, locus, budget, threads);

    VerifyRow {
        label: label.to_string(),
        budget,
        threads,
        space: checked_result.space_size,
        checked_s,
        unchecked_s,
        ratio: unchecked_s / checked_s.max(1e-12),
        checked,
        unchecked,
        checked_best: best_key(&checked_result),
        unchecked_best: best_key(&unchecked_result),
    }
}

/// Runs the benchmark: the flat parallel-loop choice space and the tiled
/// tile-loop choice space, both over the Fig. 6 DGEMM kernel.
pub fn run_verify(threads: usize) -> Vec<VerifyRow> {
    vec![
        run_pair(
            "dgemm parallel-loop choice",
            &parallel_loop_choice_program(),
            16,
            64,
            threads,
        ),
        run_pair(
            "dgemm tiled tile-loop choice",
            &tiled_loop_choice_program(),
            16,
            16,
            threads,
        ),
    ]
}

// ---- legality memo -----------------------------------------------------

/// The process-wide legality memo's counters over one pass of builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoPass {
    /// Legality questions asked (`hits + misses`).
    pub calls: u64,
    /// Questions answered from the memo.
    pub hits: u64,
    /// Questions the engine judged.
    pub misses: u64,
    /// Answers the memo holds after the pass.
    pub entries: usize,
}

/// Two sweeps of the same builds in one process: the second must be
/// answered from the memo alone, with the same outcome at every point.
#[derive(Debug, Clone)]
pub struct MemoRow {
    /// Points built per sweep.
    pub points: usize,
    /// Counters of the first sweep.
    pub first: MemoPass,
    /// Counters of the second sweep.
    pub second: MemoPass,
    /// Whether every point's outcome (the printed variant or the
    /// refusal) was the same in both sweeps.
    pub identical: bool,
}

/// Builds every point once, in order, and returns each point's outcome
/// (the digest of the printed variant, or the refusal) with the memo's
/// counters over the pass. The counters are the process's: they are
/// this pass's alone only while nothing else asks legality questions.
pub fn build_pass(
    system: &LocusSystem,
    source: &locus_srcir::ast::Program,
    prepared: &Prepared,
    points: &[Point],
) -> (Vec<String>, MemoPass) {
    let before = memo_stats();
    let outcomes = points
        .iter()
        .map(|p| match system.build_variant(source, prepared, p) {
            Ok(variant) => format!("ok {:016x}", fnv1a(print_program(&variant).as_bytes())),
            Err(refusal) => format!("{refusal:?}"),
        })
        .collect();
    let after = memo_stats();
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let pass = MemoPass {
        calls: hits + misses,
        hits,
        misses,
        entries: after.entries,
    };
    (outcomes, pass)
}

/// Sweeps the builds of the whole Fig. 7 space (`fig7_locus_program(max_tile)`
/// on `dgemm_program(n)`) twice. Run it before anything else in the
/// process asks legality questions, and its counts repeat exactly.
pub fn run_memo(n: usize, max_tile: i64) -> MemoRow {
    let system = LocusSystem::new(bench_machine_tiny(2));
    let source = dgemm_program(n);
    let prepared = system
        .prepare(&source, &fig7_locus_program(max_tile))
        .expect("Fig. 7 program prepares");
    let size = prepared
        .space
        .exact_size()
        .expect("Fig. 7 space is discrete");
    let points: Vec<Point> = (0..size).map(|i| prepared.space.point_at(i)).collect();
    let (first_outcomes, first) = build_pass(&system, &source, &prepared, &points);
    let (second_outcomes, second) = build_pass(&system, &source, &prepared, &points);
    MemoRow {
        points: points.len(),
        first,
        second,
        identical: first_outcomes == second_outcomes,
    }
}

// ---- verdict-precision sweep -------------------------------------------

/// Exact-vs-conservative verdict accounting for one registry entry: how
/// many candidate transformation steps the legality engine judged on
/// exact polyhedral evidence, and how many of its legal verdicts the
/// pre-polyhedral engine (conservative direction enumeration plus the
/// rectangular-bands-only structural gate) would have refused.
#[derive(Debug, Clone)]
pub struct PrecisionRow {
    /// Registry entry name.
    pub entry: String,
    /// Whether the entry's tagged region is rectangular.
    pub rectangular: bool,
    /// Candidate steps judged in the sweep.
    pub steps: usize,
    /// Steps whose verdict rests on exact polyhedral dependence info.
    pub exact_verdicts: usize,
    /// Steps judged on conservative (fallback) dependence info.
    pub conservative_verdicts: usize,
    /// Steps the engine declares legal.
    pub legal_steps: usize,
    /// Legal steps the conservative engine would have refused — the
    /// restructurings the polyhedral engine newly admits.
    pub newly_legal: usize,
}

/// Permutations swept at each region root, as `order[new] = old`.
const PERMS: &[&[usize]] = &[
    &[1, 0],
    &[0, 2, 1],
    &[1, 0, 2],
    &[1, 2, 0],
    &[2, 0, 1],
    &[2, 1, 0],
];

/// All hierarchical indices of `for` loops in the region, root first.
fn loop_targets(root: &Stmt) -> Vec<HierIndex> {
    fn rec(stmt: &Stmt, index: HierIndex, out: &mut Vec<HierIndex>) {
        if stmt.is_for() {
            out.push(index.clone());
        }
        for i in 0..child_count(stmt) {
            if let Some(c) = child(stmt, i) {
                rec(c, index.push(i), out);
            }
        }
    }
    let mut out = Vec::new();
    rec(root, HierIndex::root(), &mut out);
    out
}

/// Whether the leading `width` loops of the perfect nest at `region`
/// form a rectangular band (no bound references another band variable).
fn band_rectangular(region: &Stmt, width: usize) -> bool {
    let nest = perfect_nest_loops(region);
    if nest.len() < width {
        return false;
    }
    let band = &nest[..width];
    band.iter().all(|l| {
        [&l.lower, &l.upper].iter().all(|bound| {
            let mut clean = true;
            walk_exprs(bound, &mut |e| {
                if let locus_srcir::ast::Expr::Ident(n) = e {
                    if band.iter().any(|b| &b.var == n && b.var != l.var) {
                        clean = false;
                    }
                }
            });
            clean
        })
    })
}

/// The step's dependence-level predicate under `info` — `None` when the
/// step has no direction-vector predicate (parallelization and fusion
/// go through race classification instead).
fn dep_predicate(info: &DependenceInfo, step: &TransformStep) -> Option<bool> {
    if !info.available {
        return Some(false);
    }
    match step {
        TransformStep::Interchange { order } => {
            let full: Vec<usize> = order
                .iter()
                .copied()
                .chain(order.len()..info.loop_vars.len())
                .collect();
            Some(info.interchange_legal(&full))
        }
        TransformStep::Tile { width, .. } => {
            let band: Vec<usize> = (0..*width).collect();
            Some(info.band_permutable(&band))
        }
        TransformStep::UnrollAndJam { .. } => Some(info.band_permutable(&[0, 1])),
        TransformStep::Vectorize { .. } => Some(info.vectorizable()),
        TransformStep::Distribute { .. } => Some(info.distribution_legal()),
        TransformStep::ParallelFor { .. } | TransformStep::Fuse { .. } => None,
    }
}

/// What the pre-polyhedral engine would say: the conservative dependence
/// predicate gated by the rectangular-bands-only structural rule.
fn old_engine_legal(region: &Stmt, step: &TransformStep, cons: &DependenceInfo) -> bool {
    let Some(pred) = dep_predicate(cons, step) else {
        return true; // not compared; never counts as newly legal
    };
    let structural = match step {
        TransformStep::Interchange { order } => band_rectangular(region, order.len()),
        TransformStep::Tile { width, .. } => band_rectangular(region, *width),
        TransformStep::UnrollAndJam { .. } => band_rectangular(region, 2),
        _ => true,
    };
    pred && structural
}

/// Sweeps one region: every candidate step judged by the live engine,
/// with provenance counts and the newly-legal diff against the
/// conservative engine.
fn precision_sweep(entry: &str, rectangular: bool, root: &Stmt) -> PrecisionRow {
    let mut row = PrecisionRow {
        entry: entry.to_string(),
        rectangular,
        steps: 0,
        exact_verdicts: 0,
        conservative_verdicts: 0,
        legal_steps: 0,
        newly_legal: 0,
    };
    let mut steps: Vec<TransformStep> = PERMS
        .iter()
        .map(|p| TransformStep::Interchange { order: p.to_vec() })
        .collect();
    for target in loop_targets(root) {
        for width in 1..=3usize {
            steps.push(TransformStep::Tile {
                target: target.clone(),
                width,
            });
        }
        steps.push(TransformStep::UnrollAndJam {
            target: target.clone(),
        });
        steps.push(TransformStep::Vectorize {
            target: target.clone(),
        });
        steps.push(TransformStep::Distribute { target });
    }
    for step in &steps {
        row.steps += 1;
        let ex = explain(root, step);
        if ex.provenance == "exact" {
            row.exact_verdicts += 1;
        } else {
            row.conservative_verdicts += 1;
        }
        if !legal(root, step).is_legal() {
            continue;
        }
        row.legal_steps += 1;
        let region = match step {
            TransformStep::Interchange { .. } | TransformStep::Fuse { .. } => Some(root),
            TransformStep::Tile { target, .. }
            | TransformStep::UnrollAndJam { target }
            | TransformStep::Distribute { target }
            | TransformStep::ParallelFor { target }
            | TransformStep::Vectorize { target } => target.resolve(root).filter(|s| s.is_for()),
        };
        let Some(region) = region else { continue };
        let cons = analyze_region_conservative(region);
        if !old_engine_legal(region, step, &cons) {
            row.newly_legal += 1;
        }
    }
    row
}

/// Runs the verdict-precision sweep over every corpus registry entry.
pub fn run_precision() -> Vec<PrecisionRow> {
    locus_corpus::all_programs()
        .iter()
        .map(|e| {
            let regions = find_regions(&e.program);
            let region = regions
                .iter()
                .find(|r| r.id == e.region)
                .unwrap_or_else(|| panic!("{}: region `{}` missing", e.name, e.region));
            let root = extract_region(&e.program, region)
                .unwrap_or_else(|| panic!("{}: region not extractable", e.name))
                .stmt;
            precision_sweep(e.name, e.rectangular, &root)
        })
        .collect()
}

fn json_opt(key: &Option<String>) -> String {
    match key {
        Some(k) => format!("\"{k}\""),
        None => "null".to_string(),
    }
}

/// Renders the precision rows as a JSON array fragment.
fn precision_json(rows: &[PrecisionRow]) -> String {
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"entry\": \"{}\",\n",
                "      \"rectangular\": {},\n",
                "      \"steps\": {},\n",
                "      \"exact_verdicts\": {},\n",
                "      \"conservative_verdicts\": {},\n",
                "      \"legal_steps\": {},\n",
                "      \"newly_legal\": {}\n",
                "    }}{}\n",
            ),
            r.entry,
            r.rectangular,
            r.steps,
            r.exact_verdicts,
            r.conservative_verdicts,
            r.legal_steps,
            r.newly_legal,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out
}

fn memo_pass_json(pass: &MemoPass) -> String {
    format!(
        "{{ \"calls\": {}, \"hits\": {}, \"misses\": {}, \"entries\": {} }}",
        pass.calls, pass.hits, pass.misses, pass.entries
    )
}

/// Renders the rows as a JSON document (hand-rolled; the workspace has
/// no serde).
pub fn to_json(rows: &[VerifyRow]) -> String {
    to_json_with_precision(rows, &[], None)
}

/// Like [`to_json`], with the verdict-precision sweep appended as a
/// `precision` array and the legality-memo sweep as a `memo` object.
pub fn to_json_with_precision(
    rows: &[VerifyRow],
    precision: &[PrecisionRow],
    memo: Option<&MemoRow>,
) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"verifier-pruned vs unchecked tuning session (fig6 dgemm)\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"label\": \"{}\",\n",
                "      \"budget\": {},\n",
                "      \"threads\": {},\n",
                "      \"space\": {},\n",
                "      \"checked_s\": {:.6},\n",
                "      \"unchecked_s\": {:.6},\n",
                "      \"unchecked_over_checked\": {:.3},\n",
                "      \"pruned_illegal\": {},\n",
                "      \"checked_evaluations\": {},\n",
                "      \"unchecked_evaluations\": {},\n",
                "      \"evaluations_avoided\": {},\n",
                "      \"checked_best\": {},\n",
                "      \"unchecked_best\": {},\n",
                "      \"unchecked_ships_racy\": {}\n",
                "    }}{}\n",
            ),
            r.label,
            r.budget,
            r.threads,
            r.space,
            r.checked_s,
            r.unchecked_s,
            r.ratio,
            r.checked.pruned_illegal,
            r.checked.evaluations(),
            r.unchecked.evaluations(),
            r.evaluations_avoided(),
            json_opt(&r.checked_best),
            json_opt(&r.unchecked_best),
            r.unchecked_ships_racy(),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]");
    if !precision.is_empty() {
        out.push_str(",\n  \"precision\": [\n");
        out.push_str(&precision_json(precision));
        out.push_str("  ]");
    }
    if let Some(m) = memo {
        out.push_str(&format!(
            concat!(
                ",\n  \"memo\": {{\n",
                "    \"points\": {},\n",
                "    \"first\": {},\n",
                "    \"second\": {},\n",
                "    \"identical\": {}\n",
                "  }}",
            ),
            m.points,
            memo_pass_json(&m.first),
            memo_pass_json(&m.second),
            m.identical,
        ));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifier_saves_exactly_the_racy_points() {
        // Scaled-down kernel; the bench_verify binary runs the same
        // harness at the full size.
        let row = run_pair("test", &parallel_loop_choice_program(), 8, 64, 2);
        assert_eq!(row.space, 24, "3 targets x 8 chunk sizes");
        assert!(row.checked.pruned_illegal > 0, "{:?}", row.checked);
        assert_eq!(row.unchecked.pruned_illegal, 0, "{:?}", row.unchecked);
        // Every point the unchecked session measured but the checked one
        // did not is exactly a statically-refused point.
        assert_eq!(
            row.checked.evaluations() + row.checked.pruned_illegal,
            row.unchecked.evaluations(),
        );
        assert_eq!(row.evaluations_avoided(), row.checked.pruned_illegal);
        // The verifier never refuses the winner: the checked best is one
        // of the legal parallelizations.
        let best = row.checked_best.as_deref().expect("a legal point wins");
        assert!(!best.contains("c2"), "k-loop must not win: {best}");
        let json = to_json(&[row]);
        assert!(json.contains("\"evaluations_avoided\": 8"), "{json}");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn precision_sweep_finds_newly_legal_triangular_restructurings() {
        let rows = run_precision();
        assert!(rows.len() >= 15, "registry shrank to {}", rows.len());
        // The polyhedral engine must admit at least one restructuring of
        // a triangular entry the conservative engine refused — SYRK's
        // `j <= i` band (tiling/interchange were structurally rejected
        // as "not rectangular") is the canonical case.
        let triangular_newly_legal: usize = rows
            .iter()
            .filter(|r| !r.rectangular)
            .map(|r| r.newly_legal)
            .sum();
        assert!(
            triangular_newly_legal >= 1,
            "no triangular entry gained a legal restructuring: {rows:?}"
        );
        let syrk = rows.iter().find(|r| r.entry == "poly-syrk").expect("syrk");
        assert!(syrk.newly_legal >= 1, "syrk gained nothing: {syrk:?}");
        // TRMM's k loop sits *below* the shared (i, j) nest; the old
        // engine happened to admit its restructurings, so the gain there
        // is exactness, not new legality: the inner-loop existential lets
        // every verdict come from the polyhedral engine.
        let trmm = rows.iter().find(|r| r.entry == "poly-trmm").expect("trmm");
        assert!(
            trmm.exact_verdicts >= 1,
            "trmm never decided exactly: {trmm:?}"
        );
        // Every row judges a non-empty step list, and verdict provenance
        // partitions it.
        for r in &rows {
            assert!(r.steps > 0, "{r:?}");
            assert_eq!(r.exact_verdicts + r.conservative_verdicts, r.steps, "{r:?}");
            assert!(r.newly_legal <= r.legal_steps, "{r:?}");
        }
        let json = to_json_with_precision(&[], &rows, None);
        assert!(json.contains("\"precision\": ["), "{json}");
        assert!(json.contains("\"entry\": \"poly-syrk\""), "{json}");
    }

    #[test]
    fn memo_sweeps_build_every_point_alike() {
        // Other tests in this process ask legality questions too, so
        // only the outcomes are exact here; `bench_verify --check`
        // gates the counters in a process of their own.
        let row = run_memo(8, 2);
        assert_eq!(row.points, 128, "one tile size; 2 x 2 x 32 OMP choices");
        assert!(row.identical);
        let json = to_json_with_precision(&[], &[], Some(&row));
        assert!(json.contains("\"memo\": {"), "{json}");
        assert!(json.ends_with("}\n}\n"), "{json}");
    }

    #[test]
    fn tiled_space_prunes_the_reduction_tile_loop() {
        let row = run_pair("test", &tiled_loop_choice_program(), 8, 16, 2);
        assert_eq!(row.space, 4, "2 tiles x 2 targets");
        assert_eq!(row.checked.pruned_illegal, 2, "{:?}", row.checked);
        assert_eq!(row.checked.evaluations(), 2);
        assert_eq!(row.unchecked.evaluations(), 4);
    }
}
