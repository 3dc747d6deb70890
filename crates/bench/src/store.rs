//! Benchmarks the persistent tuning store: the same Fig. 6 DGEMM tuning
//! session run twice against one store file. The cold session pays for
//! every measurement; the warm session rehydrates the memo cache from
//! disk, warm-starts the search, and should perform **zero** fresh
//! measurements — its wall-clock is pure replay. The cold/warm ratio is
//! the headline number of `BENCH_store.json`. Each row also times
//! reopening the finished log, the cost every store-backed command-line
//! session pays before it tunes.

use std::time::Instant;

use locus_core::{LocusSystem, StoreHandle, TuneReport, TuneRequest, TuneResult};
use locus_corpus::dgemm_program;
use locus_search::{ExhaustiveSearch, SearchModule};
use locus_store::TuningStore;

use crate::bench_machine_tiny;
use crate::fig6::fig7_locus_program;

/// One cold-vs-warm comparison of a store-backed tuning session.
#[derive(Debug, Clone)]
pub struct StoreRow {
    /// Row label.
    pub label: String,
    /// Search module driven in both sessions.
    pub search: String,
    /// Evaluation budget per session.
    pub budget: usize,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock of the cold (empty-store) session.
    pub cold_s: f64,
    /// Wall-clock of the warm (rehydrated) session.
    pub warm_s: f64,
    /// `cold_s / warm_s`.
    pub ratio: f64,
    /// Session accounting of the cold run.
    pub cold: TuneReport,
    /// Session accounting of the warm run.
    pub warm: TuneReport,
    /// Whether both sessions returned the same best point and objective,
    /// bit for bit.
    pub identical_best: bool,
    /// Size of the store file after both sessions, in bytes.
    pub store_bytes: u64,
    /// Median wall-clock of [`OPEN_REPEATS`] reopens of the finished
    /// log, milliseconds.
    pub open_ms: f64,
    /// Evaluation and prune records the reopened log indexes.
    pub open_records: usize,
    /// Lines the reopened log skipped as malformed.
    pub open_skipped: usize,
}

/// How many times each row reopens its finished log for `open_ms`.
pub const OPEN_REPEATS: usize = 5;

/// Reopens a finished log [`OPEN_REPEATS`] times: the median open
/// wall-clock in milliseconds, then the records indexed and the lines
/// skipped.
fn reopen(path: &std::path::Path) -> (f64, usize, usize) {
    let mut times = Vec::with_capacity(OPEN_REPEATS);
    let mut counts = (0, 0);
    for _ in 0..OPEN_REPEATS {
        let start = Instant::now();
        let store = TuningStore::open(path).expect("reopen tuning store");
        times.push(start.elapsed().as_secs_f64() * 1e3);
        let records = store
            .keys()
            .into_iter()
            .map(|key| store.evals(key).len() + store.prunes(key).len())
            .sum();
        counts = (records, store.skipped_lines());
    }
    times.sort_by(f64::total_cmp);
    (times[OPEN_REPEATS / 2], counts.0, counts.1)
}

fn best_key(result: &TuneResult) -> Option<(String, u64)> {
    result
        .outcome
        .best
        .as_ref()
        .map(|(p, v)| (p.canonical_key(), v.to_bits()))
}

fn session(
    system: &LocusSystem,
    store_path: &std::path::Path,
    search: &mut dyn SearchModule,
    budget: usize,
    threads: usize,
) -> (TuneResult, TuneReport, f64) {
    let source = dgemm_program(8);
    let locus = fig7_locus_program(4);
    let mut store = TuningStore::open(store_path).expect("open tuning store");
    let start = Instant::now();
    let (result, report) = system
        .tune_parallel(
            &source,
            &locus,
            search,
            TuneRequest {
                store: Some(StoreHandle::Single(&mut store)),
                ..TuneRequest::new(budget, threads)
            },
        )
        .expect("store-backed tuning runs");
    (result, report, start.elapsed().as_secs_f64())
}

/// Runs one cold-vs-warm pair. The store file lives in the system temp
/// directory and is removed afterwards; each session opens it fresh, so
/// the warm session sees only what the cold session persisted.
pub fn run_pair(label: &str, budget: usize, threads: usize) -> StoreRow {
    let system = LocusSystem::new(bench_machine_tiny(1));
    let path = std::env::temp_dir().join(format!(
        "locus-bench-store-{}-{label}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();

    let mut search = ExhaustiveSearch::default();
    let (cold_result, cold, cold_s) = session(&system, &path, &mut search, budget, threads);
    let mut search = ExhaustiveSearch::default();
    let (warm_result, warm, warm_s) = session(&system, &path, &mut search, budget, threads);

    let store_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let (open_ms, open_records, open_skipped) = reopen(&path);
    std::fs::remove_file(&path).ok();

    StoreRow {
        label: label.to_string(),
        search: "ExhaustiveSearch".to_string(),
        budget,
        threads,
        cold_s,
        warm_s,
        ratio: cold_s / warm_s.max(1e-12),
        cold,
        warm,
        identical_best: best_key(&cold_result) == best_key(&warm_result),
        store_bytes,
        open_ms,
        open_records,
        open_skipped,
    }
}

/// Runs the benchmark: the Fig. 7 DGEMM space (tiles capped at 4) at two
/// budgets — a partial sweep and the full 8192-point space.
pub fn run_store(threads: usize) -> Vec<StoreRow> {
    vec![
        run_pair("fig6 dgemm partial sweep", 1024, threads),
        run_pair("fig6 dgemm full space", 8192, threads),
    ]
}

/// The acceptance bar of `bench_store --check`: per row, the warm
/// session returns the cold session's best bit for bit, simulates
/// nothing and answers every proposal from the store, and reopening the
/// log indexes every appended record and skips no line. Returns one
/// line per violation.
pub fn check(rows: &[StoreRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows {
        if !r.identical_best {
            violations.push(format!("{}: warm best differs from cold best", r.label));
        }
        if r.warm.evaluations() != 0 {
            violations.push(format!(
                "{}: warm session simulated {} variants",
                r.label,
                r.warm.evaluations()
            ));
        }
        if r.warm.store_hits() != r.budget {
            violations.push(format!(
                "{}: {} warm store hits for budget {}",
                r.label,
                r.warm.store_hits(),
                r.budget
            ));
        }
        let appended = r.cold.appended + r.warm.appended;
        if r.open_records != appended {
            violations.push(format!(
                "{}: reopened log indexes {} records, {} were appended",
                r.label, r.open_records, appended
            ));
        }
        if r.open_skipped != 0 {
            violations.push(format!(
                "{}: reopened log skipped {} lines",
                r.label, r.open_skipped
            ));
        }
    }
    violations
}

/// Renders the rows as a JSON document (hand-rolled; the workspace has
/// no serde).
pub fn to_json(rows: &[StoreRow]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"cold vs warm store-backed tuning session (fig6 dgemm)\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"label\": \"{}\",\n",
                "      \"search\": \"{}\",\n",
                "      \"budget\": {},\n",
                "      \"threads\": {},\n",
                "      \"cold_s\": {:.6},\n",
                "      \"warm_s\": {:.6},\n",
                "      \"cold_over_warm\": {:.3},\n",
                "      \"cold_evaluations\": {},\n",
                "      \"cold_appended\": {},\n",
                "      \"warm_evaluations\": {},\n",
                "      \"warm_store_hits\": {},\n",
                "      \"warm_rehydrated\": {},\n",
                "      \"store_bytes\": {},\n",
                "      \"open_ms\": {:.3},\n",
                "      \"open_records\": {},\n",
                "      \"open_skipped\": {},\n",
                "      \"identical_best\": {}\n",
                "    }}{}\n",
            ),
            r.label,
            r.search,
            r.budget,
            r.threads,
            r.cold_s,
            r.warm_s,
            r.ratio,
            r.cold.evaluations(),
            r.cold.appended,
            r.warm.evaluations(),
            r.warm.store_hits(),
            r.warm.rehydrated,
            r.store_bytes,
            r.open_ms,
            r.open_records,
            r.open_skipped,
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
    fn warm_session_is_pure_replay() {
        // Scaled-down budget; the bench_store binary runs the same
        // harness with the full sweeps.
        let row = run_pair("test", 256, 2);
        assert!(row.identical_best, "cold and warm best must agree");
        assert!(row.cold.evaluations() > 0);
        assert_eq!(row.cold.store_hits(), 0, "{:?}", row.cold);
        assert_eq!(row.warm.evaluations(), 0, "warm re-measures nothing");
        // Every warm proposal is a store hit — including the ones the
        // cold session answered from its own in-session memo cache or
        // could not build.
        assert_eq!(
            row.warm.store_hits(),
            row.cold.evaluations() + row.cold.memo_hits() + row.cold.build_failed
        );
        assert_eq!(row.warm.rehydrated, row.cold.appended);
        assert!(row.store_bytes > 0);
        assert_eq!(row.open_records, row.cold.appended);
        assert_eq!(row.open_skipped, 0);
        assert!(check(std::slice::from_ref(&row)).is_empty());
        let json = to_json(&[row]);
        assert!(json.contains("\"warm_evaluations\": 0"), "{json}");
        assert!(json.ends_with("}\n"));
    }
}
