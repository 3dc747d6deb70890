//! Benchmark harnesses reproducing every table and figure of the Locus
//! paper's evaluation (Sec. V) on the simulated machine.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig6`] | Fig. 6: DGEMM speedups over 1..10 cores (Locus vs Pluto vs MKL-like) and the six stencil speedups (Locus vs Pluto) |
//! | [`fig12`] | Fig. 12: Kripke — Locus-generated vs hand-optimized versions across the six data layouts |
//! | [`table1`] | Table I + the Sec. V-D summary statistics over the synthetic extraction corpus |
//! | [`parallel`] | The parallel batched-evaluation engine vs the sequential driver (BENCH_parallel.json) |
//! | [`store`] | Cold vs warm store-backed tuning sessions (BENCH_store.json) |
//! | [`verify`] | Verifier-pruned vs unchecked tuning sessions (BENCH_verify.json) |
//! | [`interp`] | Register VM vs tree interpreter on the corpus kernels (BENCH_interp.json) |
//! | [`corpus`] | Corpus-registry x machine-profile sweep: cold search vs store transfer (BENCH_corpus.json) |
//! | [`daemon`] | `locusd` service throughput/latency at 1/4/16 concurrent clients, cold vs warm store (BENCH_daemon.json) |
//! | [`search`] | Search-module shoot-out: evaluations-to-best-known per corpus family (BENCH_search.json) |
//! | [`report`] | Plain-text table rendering shared by the harness binaries |
//! | [`timer`] | Minimal timing harness for the `benches/` entry points |
//!
//! Each module has a binary (`cargo run --release -p locus-bench --bin
//! fig6_dgemm`, ...) that prints the regenerated rows next to the
//! paper's reported values. Absolute numbers come from the simulator and
//! are not comparable to the paper's Xeon; the *shape* (who wins, by
//! what rough factor) is the reproduction target, see `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod corpus;
pub mod daemon;
pub mod fig12;
pub mod fig6;
pub mod interp;
pub mod parallel;
pub mod report;
pub mod search;
pub mod store;
pub mod table1;
pub mod timer;
pub mod verify;

use locus_machine::{Machine, MachineConfig};

/// The standard scaled-down machine used by most harnesses.
pub fn bench_machine(cores: usize) -> Machine {
    Machine::new(MachineConfig::scaled_small().with_cores(cores))
}

/// The tiny-cache machine used by the stencil harness, whose grids are
/// scaled furthest from the paper's sizes (see
/// `MachineConfig::scaled_tiny`).
pub fn bench_machine_tiny(cores: usize) -> Machine {
    Machine::new(MachineConfig::scaled_tiny().with_cores(cores))
}

/// Geometric mean of a non-empty slice (1.0 for empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }
}
