//! Execution substrate for the Locus reproduction.
//!
//! The paper evaluates program variants by compiling them with ICC and
//! running them on a 10-core Xeon E5-2660 v3. This crate replaces that
//! testbed with a deterministic *simulated machine*:
//!
//! * [`interp`] — an interpreter for the mini-C source IR that executes
//!   the transformed program exactly (so variants can be checked for
//!   semantic equivalence via array checksums), while
//! * [`cache`] — a set-associative, LRU, three-level cache hierarchy —
//!   charges every array access its memory latency, and
//! * [`cost`] — a cost model translating operation counts, vectorization
//!   pragmas and OpenMP parallel-for pragmas (including `schedule` and
//!   `chunk`) into a cycle estimate.
//!
//! Because the cache simulator is faithful to locality, loop tiling,
//! interchange, fusion and skewing genuinely change the measured cost,
//! so empirical search over program variants has the same *shape* as on
//! the paper's hardware: tile sizes matter, bad interchanges lose, and
//! parallel scheduling has measurable overhead. Absolute numbers are, of
//! course, those of the model, not of a Xeon.
//!
//! # Example
//!
//! ```
//! use locus_machine::{Machine, MachineConfig};
//!
//! let src = r#"
//! double A[256];
//! void kernel() {
//!     for (int i = 0; i < 256; i++)
//!         A[i] = 2.0 * (double)i;
//! }
//! "#;
//! let program = locus_srcir::parse_program(src).unwrap();
//! let machine = Machine::new(MachineConfig::scaled_small());
//! let m = machine.run(&program, "kernel").unwrap();
//! assert!(m.cycles > 0.0);
//! ```

#![warn(missing_docs)]

mod bytecode;
pub mod cache;
pub mod cost;
pub mod interp;
pub mod profiles;
mod regalloc;
mod runtime;
mod vm;

pub use cache::{CacheConfig, CacheHierarchy, CacheStats, Level};
pub use cost::{CostModel, OmpModel};
pub use interp::{Interp, Measurement, RuntimeError};
pub use profiles::{all_profiles, MachineProfile};
pub use runtime::MAX_ARRAY_ELEMS;

use std::sync::Arc;

use locus_srcir::ast::Program;

/// Which execution engine [`Machine::run`] uses.
///
/// Both engines implement the *same* semantics and performance model
/// and produce bit-identical [`Measurement`]s (asserted by the
/// differential suite in `tests/vm_equivalence.rs`); they differ only
/// in wall-clock speed. The tree interpreter is the reference oracle;
/// the register VM is the production path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Walk the AST directly ([`Interp`]): simple, slow, the oracle.
    Tree,
    /// Compile to register-based three-address code and run it in a
    /// direct-threaded VM: operands are pre-decoded virtual registers,
    /// per-iteration cost constants (vector discounts, charge folding)
    /// are hoisted to compile time, and hot compare-branch /
    /// subscript-chain / step-jump sequences are fused into single
    /// dispatches.
    #[default]
    RegisterVm,
}

/// Full machine description: cores, vector units, cache hierarchy and
/// operation costs.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores available to `omp parallel for` regions.
    pub cores: usize,
    /// SIMD lanes for double precision (AVX2 = 4).
    pub vector_width: usize,
    /// Clock frequency in GHz, used to convert cycles to milliseconds.
    pub ghz: f64,
    /// The cache hierarchy geometry and latencies.
    pub cache: CacheConfig,
    /// Operation costs and parallel overheads.
    pub cost: CostModel,
    /// Upper bound on interpreted operations, a runaway guard.
    pub max_ops: u64,
    /// Model the compiler's auto-vectorizer (`icc -O3 -xHost`): innermost
    /// loops whose dependences are provably all loop-independent get the
    /// SIMD discount without an explicit pragma. Loops the analysis
    /// cannot prove safe (non-affine subscripts, recurrences) only
    /// vectorize under `#pragma ivdep` / `#pragma vector always` — the
    /// reason the paper's stencil program inserts those pragmas.
    pub auto_vectorize: bool,
    /// Execution engine (defaults to the register VM). Deliberately
    /// *excluded* from [`MachineConfig::digest`]: the engines are
    /// bit-identical, so stored measurements replay across either of
    /// them and persistent-store keys stay stable.
    pub engine: ExecEngine,
}

impl MachineConfig {
    /// The paper's testbed: 10-core Intel Xeon E5-2660 v3 at 2.6 GHz with
    /// 32 KB L1d, 256 KB L2 and a 25 MB shared L3.
    pub fn xeon_e5_2660_v3() -> MachineConfig {
        MachineConfig {
            cores: 10,
            vector_width: 4,
            ghz: 2.6,
            cache: CacheConfig::xeon_e5_2660_v3(),
            cost: CostModel::default(),
            max_ops: 2_000_000_000,
            auto_vectorize: true,
            engine: ExecEngine::RegisterVm,
        }
    }

    /// A proportionally scaled-down machine for laptop-scale experiments:
    /// the cache capacities shrink with the benchmark problem sizes so
    /// the capacity-miss structure (and hence the tiling landscape) of
    /// the paper's full-size runs is preserved.
    pub fn scaled_small() -> MachineConfig {
        MachineConfig {
            cores: 10,
            vector_width: 4,
            ghz: 2.6,
            cache: CacheConfig::scaled_small(),
            cost: CostModel::default(),
            max_ops: 400_000_000,
            auto_vectorize: true,
            engine: ExecEngine::RegisterVm,
        }
    }

    /// Like [`MachineConfig::scaled_small`] but with an aggressively
    /// scaled cache hierarchy (see [`CacheConfig::scaled_tiny`]) for the
    /// most heavily downscaled kernels.
    pub fn scaled_tiny() -> MachineConfig {
        MachineConfig {
            cache: CacheConfig::scaled_tiny(),
            ..MachineConfig::scaled_small()
        }
    }

    /// Returns a copy with a different core count (used for the paper's
    /// 1..10 core sweeps).
    pub fn with_cores(mut self, cores: usize) -> MachineConfig {
        self.cores = cores;
        self
    }

    /// Returns a copy running on a different execution engine.
    pub fn with_engine(mut self, engine: ExecEngine) -> MachineConfig {
        self.engine = engine;
        self
    }

    /// A stable 64-bit FNV-1a digest over every field that influences a
    /// measurement: core count, vector width, clock, the full cache
    /// geometry, every cost-model constant (via float bit patterns, so
    /// the digest is exact), the fuel limit and the auto-vectorizer flag.
    /// The [`ExecEngine`] is deliberately not part of the digest — the
    /// engines produce bit-identical measurements, so records written
    /// under one engine stay valid under the other.
    ///
    /// The persistent tuning store keys records by this digest: a stored
    /// measurement is only replayed onto a machine that would reproduce
    /// it bit for bit. It also serves as a provenance line in BENCH
    /// reports.
    pub fn digest(&self) -> u64 {
        let mut desc = format!(
            "cores:{};vw:{};ghz:{:016x};line:{};memlat:{};maxops:{};autovec:{};",
            self.cores,
            self.vector_width,
            self.ghz.to_bits(),
            self.cache.line,
            self.cache.memory_latency,
            self.max_ops,
            self.auto_vectorize,
        );
        for level in &self.cache.levels {
            desc.push_str(&format!(
                "{}:{}:{}:{};",
                level.name, level.capacity, level.ways, level.latency
            ));
        }
        let c = &self.cost;
        for v in [
            c.add,
            c.mul,
            c.div,
            c.loop_iter,
            c.loop_entry,
            c.omp_fork,
            c.omp_dispatch,
            c.omp_barrier_per_thread,
            c.vector_discount,
        ] {
            desc.push_str(&format!("{:016x};", v.to_bits()));
        }
        locus_srcir::hash::fnv1a(desc.as_bytes())
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::scaled_small()
    }
}

/// A simulated machine that can run programs and report measurements.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Machine {
        Machine { config }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// [`MachineConfig::digest`] of this machine's configuration.
    pub fn digest(&self) -> u64 {
        self.config.digest()
    }

    /// Runs `entry` (a zero-argument function using global arrays) and
    /// returns the measurement.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] for undefined names, out-of-bounds
    /// accesses, unsupported constructs, or fuel exhaustion.
    pub fn run(&self, program: &Program, entry: &str) -> Result<Measurement, RuntimeError> {
        match self.config.engine {
            ExecEngine::Tree => {
                let mut interp = Interp::new(program, &self.config)?;
                interp.run(entry)
            }
            ExecEngine::RegisterVm => {
                // Validate the cache geometry *before* compiling so
                // configuration errors take precedence over program
                // errors, matching `Interp::new`'s order.
                let cache = cache::CacheHierarchy::new(&self.config.cache)
                    .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
                let exe = regalloc::compile(program, &self.config, entry)?;
                vm::run(&exe, &self.config, cache)
            }
        }
    }

    /// Compiles `entry` once and evaluates it under every configuration
    /// in `configs`, reusing the compiled code across all points that
    /// share compile-time parameters (cost constants, vector geometry,
    /// auto-vectorizer setting, parallel lowering). Tuning drivers that
    /// sweep one variant across data sizes or machine profiles pay
    /// lowering once instead of once per point.
    ///
    /// Each element is exactly what `Machine::new(cfg).run(program,
    /// entry)` would return for that configuration — bit-identical
    /// measurement or the same error — so batched and per-variant
    /// evaluation are interchangeable.
    pub fn run_batched(
        program: &Program,
        entry: &str,
        configs: &[MachineConfig],
    ) -> Vec<Result<Measurement, RuntimeError>> {
        let variant = CompiledVariant::new(program.clone(), entry);
        configs.iter().map(|cfg| variant.run(cfg)).collect()
    }

    /// Like [`Machine::run`], but emits `machine`-category spans into
    /// `tracer` around each internal stage (register lowering and VM
    /// execution, or tree interpretation). With a disabled tracer this
    /// is exactly `run` — the span guards compile to no-ops — so the
    /// traced and untraced paths cannot diverge.
    pub fn run_traced(
        &self,
        program: &Program,
        entry: &str,
        tracer: &locus_trace::Tracer,
    ) -> Result<Measurement, RuntimeError> {
        match self.config.engine {
            ExecEngine::Tree => {
                let _span = tracer.span("machine", "tree-interp");
                let mut interp = Interp::new(program, &self.config)?;
                interp.run(entry)
            }
            ExecEngine::RegisterVm => {
                let cache = cache::CacheHierarchy::new(&self.config.cache)
                    .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
                let exe = {
                    let _span = tracer.span("machine", "compile-regvm");
                    regalloc::compile(program, &self.config, entry)?
                };
                let _span = tracer.span("machine", "vm-measure");
                vm::run(&exe, &self.config, cache)
            }
        }
    }
}

/// A program variant held ready for *batched evaluation*: compile once,
/// then measure under many machine configurations.
///
/// [`Machine::run`] re-lowers the program on every call, which is the
/// right trade for one-off measurements but wasteful for tuning sweeps
/// that evaluate the same variant across data sizes, core counts or
/// whole machine profiles. A `CompiledVariant` memoizes the lowered
/// code keyed by the compile-time slice of the configuration
/// (`compile_key`: cost constants, vector geometry, auto-vectorizer
/// flag, parallel lowering); runtime-only knobs (fuel limit, cache
/// geometry, clock, core *count* beyond the >1 lowering decision) hit
/// the memo. [`CompiledVariant::run`] returns exactly what
/// [`Machine::run`] would — bit-identical measurements, same errors in
/// the same precedence order — so callers may swap freely between the
/// two paths (`bench_interp --check` asserts this across the corpus).
///
/// The memo is behind a mutex, so one variant can be shared across
/// evaluation worker threads (`&self` access).
pub struct CompiledVariant {
    program: Program,
    entry: String,
    memo: std::sync::Mutex<Vec<(u64, Arc<bytecode::Exe>)>>,
}

/// FNV-1a digest of the configuration fields that influence *lowering*
/// (as opposed to execution): the five charge constants baked into
/// emitted code, the vector discount and width (pre-divided into
/// charges by the register compiler), the auto-vectorizer flag, and
/// whether parallel regions lower to parallel code at all
/// (`cores > 1`). Two configurations with equal keys compile to
/// identical code for every program.
fn compile_key(config: &MachineConfig) -> u64 {
    let c = &config.cost;
    let desc = format!(
        "{:016x};{:016x};{:016x};{:016x};{:016x};{:016x};vw:{};av:{};par:{};",
        c.add.to_bits(),
        c.mul.to_bits(),
        c.div.to_bits(),
        c.loop_iter.to_bits(),
        c.loop_entry.to_bits(),
        c.vector_discount.to_bits(),
        config.vector_width,
        config.auto_vectorize,
        config.cores > 1,
    );
    locus_srcir::hash::fnv1a(desc.as_bytes())
}

impl CompiledVariant {
    /// Wraps a program + entry point for batched evaluation. Lowering
    /// is lazy: nothing is compiled until the first [`run`].
    ///
    /// [`run`]: CompiledVariant::run
    pub fn new(program: Program, entry: &str) -> CompiledVariant {
        CompiledVariant {
            program,
            entry: entry.to_string(),
            memo: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The entry point this variant measures.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Measures the variant under `config`, compiling at most once per
    /// distinct `compile_key`. Exactly equivalent to
    /// `Machine::new(config.clone()).run(self.program(), self.entry())`.
    pub fn run(&self, config: &MachineConfig) -> Result<Measurement, RuntimeError> {
        self.run_traced(config, &locus_trace::Tracer::disabled())
    }

    /// Like [`CompiledVariant::run`], but emits `machine`-category spans
    /// into `tracer` around each internal stage, mirroring
    /// [`Machine::run_traced`]. A memo hit emits no compile span — the
    /// spans reflect the work actually done.
    pub fn run_traced(
        &self,
        config: &MachineConfig,
        tracer: &locus_trace::Tracer,
    ) -> Result<Measurement, RuntimeError> {
        // The tree engine has no compile stage to amortize.
        if config.engine == ExecEngine::Tree {
            let _span = tracer.span("machine", "tree-interp");
            let mut interp = Interp::new(&self.program, config)?;
            return interp.run(&self.entry);
        }
        // Validate the cache geometry *before* touching the memo so
        // error precedence matches `Machine::run` (configuration
        // errors beat program errors even on a memo hit).
        let cache = cache::CacheHierarchy::new(&config.cache)
            .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
        let key = compile_key(config);
        let exe = {
            let memo = self.memo.lock().expect("compile memo poisoned");
            memo.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, exe)| exe.clone())
        };
        let exe = match exe {
            Some(exe) => exe,
            None => {
                // Compile outside the lock; failures are not cached
                // (they are cheap to reproduce and keep the memo to
                // successful entries only).
                let compiled = {
                    let _span = tracer.span("machine", "compile-regvm");
                    Arc::new(regalloc::compile(&self.program, config, &self.entry)?)
                };
                let mut memo = self.memo.lock().expect("compile memo poisoned");
                if !memo.iter().any(|(k, _)| *k == key) {
                    memo.push((key, compiled.clone()));
                }
                compiled
            }
        };
        let _span = tracer.span("machine", "vm-measure");
        vm::run(&exe, config, cache)
    }
}

impl std::fmt::Debug for CompiledVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledVariant")
            .field("entry", &self.entry)
            .finish_non_exhaustive()
    }
}

/// Compile-time contract of the parallel evaluation engine in the core
/// crate: workers clone the machine and carry it across threads, and
/// share measurements back through the merge. `Machine` is plain data
/// (no interior mutability — [`Machine::run`] takes `&self`), so these
/// bounds hold structurally; this block turns any regression into a
/// build error.
const _: () = {
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<Machine>();
    assert_send_sync_clone::<MachineConfig>();
    assert_send_sync_clone::<crate::cache::CacheHierarchy>();
    assert_send_sync_clone::<Measurement>();
    // Batched evaluation shares one compiled variant across worker
    // threads by reference; the memo mutex carries the sync.
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledVariant>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets_differ_in_cache_size() {
        let big = MachineConfig::xeon_e5_2660_v3();
        let small = MachineConfig::scaled_small();
        assert!(big.cache.levels[0].capacity > small.cache.levels[0].capacity);
        assert_eq!(big.cores, 10);
    }

    #[test]
    fn with_cores_overrides() {
        let cfg = MachineConfig::scaled_small().with_cores(4);
        assert_eq!(cfg.cores, 4);
    }

    #[test]
    fn digest_is_stable_and_sensitive_to_every_knob() {
        let a = MachineConfig::scaled_small();
        assert_eq!(a.digest(), MachineConfig::scaled_small().digest());
        assert_eq!(Machine::new(a.clone()).digest(), a.digest());

        // Any field that changes a measurement changes the digest.
        assert_ne!(a.digest(), a.clone().with_cores(4).digest());
        assert_ne!(a.digest(), MachineConfig::scaled_tiny().digest());
        assert_ne!(a.digest(), MachineConfig::xeon_e5_2660_v3().digest());
        let mut b = a.clone();
        b.auto_vectorize = false;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.cost.omp_fork += 1.0;
        assert_ne!(a.digest(), c.digest());
    }
}
