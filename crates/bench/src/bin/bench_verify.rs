//! Benchmarks verifier-pruned search: the Fig. 6 DGEMM tuning session
//! run with the static safety verifier active and with legality checks
//! disabled, the exact-vs-conservative verdict-precision sweep over the
//! corpus registry, and the legality memo over two sweeps of the Fig. 7
//! space's builds. Writes the evaluations avoided, the wall-clock ratio,
//! the precision counters and the memo counters to `BENCH_verify.json`.
//!
//! Usage: `cargo run --release -p locus-bench --bin bench_verify
//! [--check] [output.json]` (threads via `LOCUS_THREADS`, default 8).
//! `--check` runs only the memo and precision sweeps and fails (exit 1)
//! unless the second memo sweep judged nothing afresh and built every
//! point as the first did, and at least one triangular registry entry
//! admits a restructuring the conservative engine refused; it writes
//! nothing.

use locus_bench::verify::{
    run_memo, run_precision, run_verify, to_json_with_precision, MemoRow, PrecisionRow,
};

/// The memo sweep's space: `fig7_locus_program(4)` on `dgemm_program(24)`,
/// 8,192 points.
const MEMO_N: usize = 24;
const MEMO_MAX_TILE: i64 = 4;

fn print_memo(row: &MemoRow) {
    for (label, pass) in [("first", &row.first), ("second", &row.second)] {
        println!(
            "memo {label:<6} sweep of {} builds: {} calls, {} hits, {} misses, {} entries",
            row.points, pass.calls, pass.hits, pass.misses, pass.entries,
        );
    }
    println!("memo sweeps identical: {}", row.identical);
}

fn print_precision(rows: &[PrecisionRow]) {
    for r in rows {
        println!(
            "{:<18} {:<12} steps {:>3}  exact {:>3}  conservative {:>3}  legal {:>3}  \
             newly-legal {:>2}",
            r.entry,
            if r.rectangular {
                "rectangular"
            } else {
                "triangular"
            },
            r.steps,
            r.exact_verdicts,
            r.conservative_verdicts,
            r.legal_steps,
            r.newly_legal,
        );
    }
}

fn main() {
    let threads = std::env::var("LOCUS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let args: Vec<String> = std::env::args().skip(1).collect();

    // First, so that the memo's counters are the sweeps' alone.
    let memo = run_memo(MEMO_N, MEMO_MAX_TILE);
    print_memo(&memo);

    if args.iter().any(|a| a == "--check") {
        assert_eq!(
            memo.second.misses, 0,
            "memo smoke: the second sweep judged questions afresh"
        );
        assert!(
            memo.identical,
            "memo smoke: a point built differently from the memo"
        );
        eprintln!("verdict-precision smoke: registry sweep, exact vs conservative");
        let precision = run_precision();
        print_precision(&precision);
        let triangular_newly_legal: usize = precision
            .iter()
            .filter(|r| !r.rectangular)
            .map(|r| r.newly_legal)
            .sum();
        assert!(
            triangular_newly_legal >= 1,
            "smoke: no triangular registry entry admits a restructuring the \
             conservative engine refused"
        );
        eprintln!("ok ({triangular_newly_legal} newly-legal triangular restructurings)");
        return;
    }

    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_verify.json".to_string());

    eprintln!("verifier-pruned vs unchecked tuning, {threads} worker threads");
    let rows = run_verify(threads);
    for r in &rows {
        println!(
            "{:<30} space {:>3}  checked {:>8.3}s ({} evals, {} pruned)  unchecked \
             {:>8.3}s ({} evals)  unchecked/checked {:>5.2}x  ships_racy {}",
            r.label,
            r.space,
            r.checked_s,
            r.checked.evaluations(),
            r.checked.pruned_illegal,
            r.unchecked_s,
            r.unchecked.evaluations(),
            r.ratio,
            r.unchecked_ships_racy(),
        );
    }
    let precision = run_precision();
    print_precision(&precision);

    std::fs::write(&out, to_json_with_precision(&rows, &precision, Some(&memo)))
        .expect("write benchmark report");
    eprintln!("wrote {out}");
}
