//! Benchmarks `tune_parallel` (batched evaluation over a memo cache; the
//! session row passes one caller-owned cache to every run) against the
//! sequential `tune` on the Fig. 7 DGEMM problem and writes the result
//! to `BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p locus-bench --bin bench_parallel
//! [output.json] [--check]` (threads via `LOCUS_THREADS`, default 8).
//! With `--check` it writes the report, then exits non-zero unless
//! every row has `identical_best`.

use locus_bench::parallel::{check, run_parallel, to_json};

fn main() {
    let threads = std::env::var("LOCUS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let mut out = "BENCH_parallel.json".to_string();
    let mut check_mode = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check_mode = true;
        } else {
            out = arg;
        }
    }

    eprintln!("tune_parallel vs tune, {threads} worker threads");
    let rows = run_parallel(threads);
    for r in &rows {
        println!(
            "{:<28} {:<20} budget {:>4}  seq {:>8.3}s  par {:>8.3}s  speedup {:>5.2}x  \
             variants {}/{} points  hits {}+{}  identical_best {}",
            r.label,
            r.search,
            r.budget,
            r.sequential_s,
            r.parallel_s,
            r.speedup,
            r.stats.unique_variants,
            r.stats.unique_points,
            r.stats.point_hits,
            r.stats.variant_hits,
            r.identical_best,
        );
    }
    std::fs::write(&out, to_json(&rows)).expect("write benchmark JSON");
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
