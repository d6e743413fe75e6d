//! # autoreconf
//!
//! Automatic application-specific microarchitecture reconfiguration — the
//! core contribution of *"Automatic Application-Specific Microarchitecture
//! Reconfiguration"* (Padmanabhan, Cytron, Chamberlain, Lockwood;
//! IPDPS 2006), reproduced in Rust.
//!
//! Given an application (a guest program for the LEON2-like simulator) and an
//! objective (runtime-weighted or resource-weighted), the tool:
//!
//! 1. perturbs **one parameter value at a time** from the base LEON
//!    configuration (the paper's Figure 1 space, 52 decision variables),
//! 2. **measures** each perturbation's application runtime (one
//!    cycle-accurate simulation captures an execution trace, and replaying
//!    it retimes every perturbation bit-identically) and chip cost (%LUT /
//!    %BRAM via the analytical synthesis model),
//! 3. formulates a **constrained Binary Integer Nonlinear Program** over the
//!    perturbation variables (Section 4 of the paper),
//! 4. **solves** it exactly with branch-and-bound,
//! 5. decodes and **validates** the recommended configuration by
//!    synthesising it and replaying the trace on it — bit-identical to
//!    building and running it.
//!
//! ```no_run
//! use autoreconf::{AutoReconfigurator, Weights};
//! use workloads::{Blastn, Scale};
//!
//! let tool = AutoReconfigurator::new().with_weights(Weights::runtime_optimized());
//! let outcome = tool.optimize(&Blastn::scaled(Scale::Small)).unwrap();
//! println!("recommended changes: {:?}", outcome.changes);
//! println!("runtime gain: {:.2}%", outcome.runtime_gain_pct());
//! ```
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation as views over one [`CampaignSession`], which measures
//! each application once for all of them; the `experiments` binary prints
//! them.

#![warn(missing_docs)]

pub mod campaign;
pub mod dcache_study;
pub mod experiments;
pub mod faults;
pub mod formulation;
pub mod measure;
pub mod optimizer;
pub mod params;
pub mod population;
pub mod search;
pub mod service;
pub mod store;

pub use campaign::{
    canonical_shares, effective_threads, replay_batch_indexed, run_indexed, Campaign,
    CampaignResult, CampaignSession, CoOutcome, CoWorkloadRun, SessionCounters, TraceSet,
    TracedWorkload, WorkloadShare,
};
pub use population::{
    random_mixes, FrontierPoint, MixProfile, MixProfileFile, PopulationOutcome, TenantOutcome,
};
pub use faults::{FaultAction, FaultCounters, FaultPlan, FaultRule};
pub use store::{
    ArtifactStore, ClaimOutcome, DoctorReport, EntryMeta, Fingerprint, FingerprintBuilder,
    GcReport, KindUsage, LazyArtifact, Lease, LeaseInfo, LeaseWaitTimeout, Manifest,
    ManifestEntry, PackStats, StoreStats, DEFAULT_LEASE_TTL, DEFAULT_LEASE_WAIT,
};
pub use dcache_study::{best_runtime_row, dcache_exhaustive, dcache_exhaustive_traced, DcacheRow};
pub use formulation::{
    blend_cost_tables, formulate, formulate_mixed, predict, ConstraintForm, FormulationOptions,
    Prediction, Weights,
};
pub use measure::{
    measure_cost_table, measure_cost_table_traced, BaseCosts, CostTable, MeasurementOptions,
    VariableCost,
};
pub use optimizer::{AutoReconfigurator, OptimizeError, Outcome, Validation};
pub use params::{ParamChange, ParameterSpace, Variable};
pub use search::{
    candidates_enumerated, candidates_pruned_closed_form, candidates_walk_validated, SearchBest,
    SearchMode, SearchOutcome, SearchSpace, SearchSpaceChoice,
};
