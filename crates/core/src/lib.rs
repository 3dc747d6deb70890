//! The Locus orchestration system (Sec. II, Fig. 1 and Fig. 2 of the
//! paper).
//!
//! This crate ties the workspace together:
//!
//! * [`registry`] — the transformation-module registry and the wrapper
//!   that lets Locus programs invoke `RoseLocus.*`, `Pips.*`, `Pragma.*`
//!   and `BuiltIn.*` modules on a concrete code region (Sec. IV-A);
//! * [`system`] — the two workflows of Fig. 2:
//!   the **direct** workflow ([`system::LocusSystem::apply_direct`])
//!   applies one transformation sequence and returns the optimized
//!   program, and the **search** workflow
//!   ([`system::LocusSystem::tune`]) converts the optimization space,
//!   repeatedly asks a search module for points, builds each variant,
//!   measures it on the simulated machine, feeds the metric back, and
//!   returns the best variant found;
//! * region-hash coherence checking ([`system::check_coherence`])
//!   warns when the application source drifted under a stored
//!   optimization program.
//!
//! The system is *non-prescriptive* (Sec. II): when no transformation
//! applies or every variant fails, the baseline version remains the
//! result.

#![warn(missing_docs)]

pub mod fleet;
pub mod memo;
pub mod registry;
pub mod report;
pub mod subst;
pub mod suggest;
pub mod system;

pub use fleet::{transfer_recipe, tune_across_machines, MachineTuneResult, TransferOutcome};
pub use memo::{MemoCache, MemoStats};
pub use registry::{RegionHost, SnippetProvider};
pub use report::TuneReport;
pub use suggest::{
    profile_region, suggest_program, suggest_with_sharded_store, suggest_with_store, RegionProfile,
    MAX_SUGGEST_DISTANCE,
};
pub use system::{
    check_coherence, region_hashes, ApplyError, LocusSystem, Prepared, StoreHandle, TuneRequest,
    TuneResult, VariantOutcome, PARALLEL_BATCH, WARM_START_K,
};
