//! Benchmarks the persistent tuning store: the Fig. 6 DGEMM tuning
//! session run cold (empty store) and warm (rehydrated from the cold
//! session's records) and writes the cold-vs-warm wall-clock ratio to
//! `BENCH_store.json`.
//!
//! Usage: `cargo run --release -p locus-bench --bin bench_store
//! [output.json] [--check]` (threads via `LOCUS_THREADS`, default 8).
//! With `--check` it writes the report, then exits non-zero unless every
//! row has `identical_best`, no warm evaluations, one warm store hit
//! per unit of budget, and a reopened log (`open_ms`, median of five
//! reopens) that indexes every appended record and skips no line.

use locus_bench::store::{check, run_store, to_json};

fn main() {
    let threads = std::env::var("LOCUS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let mut out = "BENCH_store.json".to_string();
    let mut check_mode = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check_mode = true;
        } else {
            out = arg;
        }
    }

    eprintln!("cold vs warm store-backed tuning, {threads} worker threads");
    let rows = run_store(threads);
    for r in &rows {
        println!(
            "{:<26} {:<18} budget {:>5}  cold {:>8.3}s ({} evals)  warm {:>8.3}s \
             ({} evals, {} store hits)  cold/warm {:>6.2}x  store {:>7} B  \
             reopen {:>7.3}ms ({} records, {} skipped)  identical_best {}",
            r.label,
            r.search,
            r.budget,
            r.cold_s,
            r.cold.evaluations(),
            r.warm_s,
            r.warm.evaluations(),
            r.warm.store_hits(),
            r.ratio,
            r.store_bytes,
            r.open_ms,
            r.open_records,
            r.open_skipped,
            r.identical_best,
        );
    }

    std::fs::write(&out, to_json(&rows)).expect("write benchmark report");
    eprintln!("wrote {out}");
    if check_mode {
        let violations = check(&rows);
        assert!(
            violations.is_empty(),
            "acceptance bar failed:\n  {}",
            violations.join("\n  ")
        );
        eprintln!("ok");
    }
}
