//! Benchmarks the parallel batched-evaluation engine
//! ([`LocusSystem::tune_parallel`]) against the sequential driver on the
//! Fig. 7 DGEMM tuning problem, and checks the determinism contract
//! while at it: same seed, same best — bit for bit.
//!
//! The interesting effect on a small host is not thread-level speedup
//! (the simulated measurements are CPU-bound) but the shared memo
//! cache: OR-block points whose dead parameters differ specialize to
//! the *same* direct program, so the parallel engine measures each
//! distinct variant exactly once where the sequential driver measures
//! every point.

use std::time::Instant;

use locus_core::{LocusSystem, MemoStats, TuneRequest, TuneResult};
use locus_corpus::dgemm_program;
use locus_search::{ExhaustiveSearch, RandomSearch, SearchModule};

use crate::bench_machine_tiny;
use crate::fig6::fig7_locus_program;

/// One comparison row of the parallel-vs-sequential benchmark.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Row label.
    pub label: String,
    /// Search module driven on both sides.
    pub search: String,
    /// Evaluation budget.
    pub budget: usize,
    /// Worker threads of the parallel side.
    pub threads: usize,
    /// Wall-clock of the sequential `tune`.
    pub sequential_s: f64,
    /// Wall-clock of `tune_parallel`.
    pub parallel_s: f64,
    /// `sequential_s / parallel_s`.
    pub speedup: f64,
    /// Evaluations recorded (identical on both sides by contract).
    pub evaluations: usize,
    /// Memo-cache statistics of the parallel run.
    pub stats: MemoStats,
    /// Whether both drivers returned the same best point and objective.
    pub identical_best: bool,
}

fn best_key(result: &TuneResult) -> Option<(String, u64)> {
    result
        .outcome
        .best
        .as_ref()
        .map(|(p, v)| (p.canonical_key(), v.to_bits()))
}

fn compare<F>(label: &str, name: &str, budget: usize, threads: usize, mut make: F) -> ParallelRow
where
    F: FnMut() -> Box<dyn SearchModule>,
{
    let source = dgemm_program(16);
    let locus = fig7_locus_program(4);
    let system = LocusSystem::new(bench_machine_tiny(1));

    let mut search = make();
    let start = Instant::now();
    let sequential = system
        .tune(&source, &locus, search.as_mut(), budget)
        .expect("sequential tuning runs");
    let sequential_s = start.elapsed().as_secs_f64();

    let mut search = make();
    let start = Instant::now();
    let (parallel, report) = system
        .tune_parallel(
            &source,
            &locus,
            search.as_mut(),
            TuneRequest::new(budget, threads),
        )
        .expect("parallel tuning runs");
    let parallel_s = start.elapsed().as_secs_f64();

    ParallelRow {
        label: label.to_string(),
        search: name.to_string(),
        budget,
        threads,
        sequential_s,
        parallel_s,
        speedup: sequential_s / parallel_s.max(1e-12),
        evaluations: parallel.outcome.evaluations,
        stats: report.memo,
        identical_best: best_key(&sequential) == best_key(&parallel),
    }
}

/// A Fig. 6-style tuning *session*: several searches over the same
/// source and machine, back to back. Sequential `tune` starts every run
/// from scratch; `tune_parallel` with one caller-owned cache amortizes
/// the whole session, so later runs mostly replay cached
/// measurements — the OpenTuner-memoization effect of Sec. IV-B.
fn compare_session(threads: usize) -> ParallelRow {
    let source = dgemm_program(8);
    let locus = fig7_locus_program(4);
    let system = LocusSystem::new(bench_machine_tiny(1));
    type MakeSearch = Box<dyn Fn() -> Box<dyn SearchModule>>;
    let runs: Vec<(usize, MakeSearch)> = vec![
        // A full sweep of the 8192-point space, then two adaptive
        // searches that re-propose inside it.
        (8192, Box::new(|| Box::new(ExhaustiveSearch::default()))),
        (512, Box::new(|| Box::new(RandomSearch::new(7)))),
        (
            512,
            Box::new(|| Box::new(locus_search::BanditTuner::new(1))),
        ),
    ];
    let budget: usize = runs.iter().map(|(b, _)| b).sum();

    let mut sequential_s = 0.0;
    let mut seq_best: Option<(String, u64)> = None;
    let mut evaluations = 0;
    for (budget, make) in &runs {
        let mut search = make();
        let start = Instant::now();
        let result = system
            .tune(&source, &locus, search.as_mut(), *budget)
            .expect("sequential session run");
        sequential_s += start.elapsed().as_secs_f64();
        evaluations += result.outcome.evaluations;
        let best = best_key(&result);
        if seq_best.is_none() || best_value(&best) < best_value(&seq_best) {
            seq_best = best;
        }
    }

    let cache = locus_core::MemoCache::new();
    let mut parallel_s = 0.0;
    let mut par_best: Option<(String, u64)> = None;
    for (budget, make) in &runs {
        let mut search = make();
        let start = Instant::now();
        let (result, _) = system
            .tune_parallel(
                &source,
                &locus,
                search.as_mut(),
                TuneRequest {
                    cache: Some(&cache),
                    ..TuneRequest::new(*budget, threads)
                },
            )
            .expect("parallel session run");
        parallel_s += start.elapsed().as_secs_f64();
        let best = best_key(&result);
        if par_best.is_none() || best_value(&best) < best_value(&par_best) {
            par_best = best;
        }
    }

    ParallelRow {
        label: "fig6 dgemm tuning session".to_string(),
        search: "Exhaustive(8192) + Random(512) + Bandit(512), shared cache".to_string(),
        budget,
        threads,
        sequential_s,
        parallel_s,
        speedup: sequential_s / parallel_s.max(1e-12),
        evaluations,
        stats: cache.stats(),
        identical_best: seq_best == par_best,
    }
}

fn best_value(best: &Option<(String, u64)>) -> f64 {
    best.as_ref()
        .map(|(_, bits)| f64::from_bits(*bits))
        .unwrap_or(f64::INFINITY)
}

/// Runs the benchmark: two single-run comparisons on the Fig. 7 program
/// (tiles capped at 4, an 8192-point space), then the shared-cache
/// session — the headline row of `BENCH_parallel.json`.
pub fn run_parallel(threads: usize) -> Vec<ParallelRow> {
    vec![
        // Budget 2048 over the 8192-point space = stride 4: each batch
        // sweeps the fast-varying OR-block params, so most points in the
        // plain branch are dead-param duplicates of an already-measured
        // variant.
        compare(
            "fig7 dgemm exhaustive",
            "ExhaustiveSearch",
            2048,
            threads,
            || Box::new(ExhaustiveSearch::default()),
        ),
        compare(
            "fig7 dgemm random",
            "RandomSearch(seed 7)",
            256,
            threads,
            || Box::new(RandomSearch::new(7)),
        ),
        compare_session(threads),
    ]
}

/// The acceptance bar of `bench_parallel --check`: every row's parallel
/// driver returned the sequential driver's best point and objective.
/// Returns one line per violation.
pub fn check(rows: &[ParallelRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| !r.identical_best)
        .map(|r| format!("{}: parallel best differs from sequential best", r.label))
        .collect()
}

/// Renders the rows as a JSON document (hand-rolled; the workspace has
/// no serde).
pub fn to_json(rows: &[ParallelRow]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"tune_parallel vs tune (fig7 dgemm)\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"label\": \"{}\",\n",
                "      \"search\": \"{}\",\n",
                "      \"budget\": {},\n",
                "      \"threads\": {},\n",
                "      \"sequential_s\": {:.6},\n",
                "      \"parallel_s\": {:.6},\n",
                "      \"speedup\": {:.3},\n",
                "      \"evaluations\": {},\n",
                "      \"unique_points\": {},\n",
                "      \"unique_variants\": {},\n",
                "      \"point_hits\": {},\n",
                "      \"variant_hits\": {},\n",
                "      \"identical_best\": {}\n",
                "    }}{}\n",
            ),
            r.label,
            r.search,
            r.budget,
            r.threads,
            r.sequential_s,
            r.parallel_s,
            r.speedup,
            r.evaluations,
            r.stats.unique_points,
            r.stats.unique_variants,
            r.stats.point_hits,
            r.stats.variant_hits,
            r.identical_best,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_bench_rows_are_consistent() {
        // Scaled-down budgets: the real rows (run by the bench_parallel
        // binary) use the same harness with bigger sweeps.
        let rows = vec![
            compare("exhaustive", "ExhaustiveSearch", 512, 2, || {
                Box::new(ExhaustiveSearch::default())
            }),
            compare("random", "RandomSearch(seed 7)", 64, 2, || {
                Box::new(RandomSearch::new(7))
            }),
        ];
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.identical_best, "{}: drivers disagreed", row.label);
            assert!(row.evaluations > 0);
            assert!(
                row.stats.unique_variants <= row.stats.unique_points,
                "{}: variant dedup can only shrink",
                row.label
            );
        }
        // The exhaustive row sweeps dead OR-block parameters: the memo
        // cache must fire.
        assert!(rows[0].stats.hits() > 0, "{:?}", rows[0].stats);
        let json = to_json(&rows);
        assert!(json.contains("\"identical_best\": true"));
        assert!(json.ends_with("}\n"));
    }
}
