//! The parallel batch-replay campaign engine.
//!
//! The paper optimises one microarchitecture per application.  A production
//! deployment serves a *mixed* application set from one bitstream, which
//! needs three things the per-figure drivers did not have:
//!
//! 1. **A shared [`TraceSet`]** — every workload of the suite is fully
//!    simulated exactly once (in parallel), and every subsequent study —
//!    cost tables, the Figure 2 exhaustive sweep, per-application
//!    optimisation, co-optimization — retimes those traces by
//!    [`leon_sim::replay`] instead of re-executing anything.
//! 2. **A scoped worker pool everywhere** — [`run_indexed`] generalises the
//!    per-index-slot pattern `measure_cost_table` introduced: jobs land in
//!    deterministic slots, so `threads = 1` and `threads = N` produce
//!    byte-identical results (asserted by `tests/campaign_engine.rs`), and
//!    the first error a caller sees is always the lowest-indexed one.
//! 3. **Multi-workload co-optimization** — a runtime-weighted objective over
//!    all workloads' retimed cycles under a *single* candidate
//!    configuration, assembled by [`crate::formulation::blend_cost_tables`]
//!    and solved through the existing BINLP path.  A degenerate mix (weight
//!    1.0 on one workload) reproduces that workload's per-application
//!    optimum exactly — the correctness anchor tying the engine back to the
//!    paper's Figures 5 and 7.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use binlp::SolveStats;
use fpga_model::SynthesisModel;
use leon_sim::{LeonConfig, SimError, Trace};
use serde::{Deserialize, Serialize};
use workloads::Workload;

use crate::dcache_study::{best_runtime_row, dcache_exhaustive_traced, DcacheRow};
use crate::formulation::{formulate_mixed, FormulationOptions, Weights};
use crate::measure::{measure_cost_table_traced, CostTable, MeasurementOptions};
use crate::optimizer::{AutoReconfigurator, OptimizeError, Outcome};
use crate::params::ParameterSpace;
use crate::search::{SearchInputs, SearchMode, SearchOutcome, SearchSpace};
use crate::store::{
    ArtifactStore, ClaimOutcome, Fingerprint, FingerprintBuilder, LazyArtifact,
    DEFAULT_LEASE_WAIT, RESULTS_VERSION,
};

/// Parse an `AUTORECONF_THREADS` value: a non-negative integer worker
/// count.  `Ok(None)` means "no override" — the value is empty or `0`, both
/// of which mean one worker per available CPU.  Anything else (`all`, `4x`,
/// `-1`, …) is an error: a mistyped override must fail loudly, not silently
/// fall back to all cores (the same no-silent-fallback contract as
/// [`workloads::Scale::parse`]).
pub fn parse_threads_env(value: &str) -> Result<Option<usize>, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "invalid AUTORECONF_THREADS value `{value}`: expected a non-negative \
             integer (0 = one worker per available CPU)"
        )),
    }
}

/// Read and strictly validate the `AUTORECONF_THREADS` environment
/// variable (see [`parse_threads_env`]).  Front ends (the `experiments`
/// CLI, the service daemon) call this once at startup so a bad value is a
/// clean error instead of a mid-campaign panic.
pub fn threads_env() -> Result<Option<usize>, String> {
    match std::env::var("AUTORECONF_THREADS") {
        Ok(v) => parse_threads_env(&v),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("invalid AUTORECONF_THREADS value: not valid UTF-8".to_string())
        }
    }
}

/// Resolve a requested worker count.  `0` means one worker per available
/// CPU, overridable via the `AUTORECONF_THREADS` environment variable —
/// the CI matrix runs the whole test suite at 1 and at 4 workers through
/// it without touching any call site.
///
/// Panics on an invalid `AUTORECONF_THREADS` value: an override that
/// silently fell back to all cores would make "why is threads=1 not
/// threads=1?" undebuggable (validate early via [`threads_env`] to turn
/// that panic into a clean CLI error).
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    match threads_env() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        Err(e) => panic!("{e}"),
    }
}

/// Fan `count` independent jobs out over a scoped worker pool and collect
/// their results in index order.
///
/// This is the per-index-slot pattern every campaign study shares: workers
/// pull the next job index from a shared counter and write the result into
/// that job's dedicated slot, so the output vector — and, when the item type
/// is a `Result`, which error a caller propagates first — is deterministic
/// under any worker interleaving.  `threads = 1` short-circuits to a plain
/// loop (no pool, no locks), which the determinism tests compare against.
pub fn run_indexed<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads).min(count.max(1));
    if threads <= 1 {
        return (0..count).map(job).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = job(i);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot is written exactly once"))
        .collect()
}

/// Collect per-index `Result`s, propagating the lowest-indexed error.
pub(crate) fn collect_indexed<T, E>(results: Vec<Result<T, E>>) -> Result<Vec<T>, E> {
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Deterministically split `count` behavior classes into at most `workers`
/// contiguous spans — the unit of work the batched replay engine fans out
/// over the pool.
fn class_spans(count: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    if count == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, count);
    let chunk = count.div_ceil(workers);
    (0..count).step_by(chunk).map(|start| start..(start + chunk).min(count)).collect()
}

/// Retime every configuration of `configs` against one captured trace
/// through the one-pass batched replay engine, partitioning behavior
/// classes — not configurations — over the worker pool.
///
/// Each stream's classes are cut into at most `threads` contiguous spans,
/// and every span is one [`run_indexed`] job that walks its whole stream
/// once ([`leon_sim::ReplayBatch::walk_mem_span`] /
/// [`leon_sim::ReplayBatch::walk_fetch_span`]).  A class's result does not
/// depend on which span holds it, so element `i` of the result equals
/// `leon_sim::replay(trace, &configs[i], max_cycles)` bit-for-bit
/// (including errors) at any thread count; `threads = 1` degenerates to one
/// fused pass per stream.  This is the retiming kernel behind
/// [`crate::measure::measure_cost_table_traced`] and
/// [`crate::dcache_study::dcache_exhaustive_traced`].
pub fn replay_batch_indexed(
    trace: &Trace,
    configs: &[LeonConfig],
    max_cycles: u64,
    threads: usize,
) -> Vec<Result<leon_sim::Stats, SimError>> {
    let plan = leon_sim::ReplayBatch::new(trace, configs, max_cycles);
    let workers = effective_threads(threads);
    let mem_spans = class_spans(plan.mem_class_count(), workers);
    let fetch_spans = class_spans(plan.fetch_class_count(), workers);
    let jobs = mem_spans.len() + fetch_spans.len();
    let walks = run_indexed(jobs, threads, |g| match mem_spans.get(g) {
        Some(span) => (plan.walk_mem_span(span.clone()), Vec::new()),
        None => (Vec::new(), plan.walk_fetch_span(fetch_spans[g - mem_spans.len()].clone())),
    });
    let (mem, fetch): (Vec<Vec<_>>, Vec<Vec<_>>) = walks.into_iter().unzip();
    plan.finish(&mem.concat(), &fetch.concat())
}

/// One workload's captured trace plus its base-configuration run costs.
#[derive(Clone, Debug)]
pub struct TracedWorkload {
    /// Workload name (`BLASTN`, `DRR`, …).
    pub name: String,
    /// The execution trace captured on the shared base configuration.
    pub trace: Trace,
    /// Base-configuration runtime in cycles.
    pub base_cycles: u64,
    /// Base-configuration runtime in seconds.
    pub base_seconds: f64,
}

/// One execution trace per workload of a benchmark suite, captured on a
/// shared base configuration.
///
/// Capturing is the only phase of a campaign that executes guest code; every
/// study afterwards (cost tables, sweeps, co-optimization, validation of
/// trace-invariant candidates) replays these traces.  [`Trace`] is plain
/// `Send + Sync` data, so one `TraceSet` is shared read-only by every worker
/// of every study.
#[derive(Clone, Debug)]
pub struct TraceSet {
    /// The configuration all traces were captured on.
    pub base: LeonConfig,
    /// Per-workload traces, in suite order.
    pub entries: Vec<TracedWorkload>,
}

impl TraceSet {
    /// Capture one verified trace per workload, in parallel.
    pub fn capture(
        suite: &[Box<dyn Workload + Send + Sync>],
        base: &LeonConfig,
        max_cycles: u64,
        threads: usize,
    ) -> Result<TraceSet, SimError> {
        let results = run_indexed(suite.len(), threads, |i| -> Result<TracedWorkload, SimError> {
            let workload = suite[i].as_ref();
            let (run, trace) = workloads::capture_verified(workload, base, max_cycles)?;
            Ok(TracedWorkload {
                name: workload.name().to_string(),
                trace,
                base_cycles: run.stats.cycles,
                base_seconds: run.seconds,
            })
        });
        Ok(TraceSet { base: *base, entries: collect_indexed(results)? })
    }

    /// Number of captured workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no workload was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Workload names, in suite order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Total in-memory footprint of all trace buffers, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.trace.memory_bytes()).sum()
    }
}

/// Validate a workload mix and normalise it into its canonical shares.
///
/// Canonical means every share is `weight / total` with an IEEE `-0.0`
/// result mapped to `+0.0` (the `+ 0.0`), so two mixes that are scalar
/// multiples of each other — including ones differing only in the sign of
/// a zero weight — yield bit-identical share vectors.  The share vector is
/// what both the blended objective and every co/population store
/// fingerprint are built from, so this function is the single definition
/// of "the same mix".
///
/// Rejected with [`OptimizeError::InvalidMix`] (never a panic — mixes
/// arrive over the wire): an empty mix, a negative or non-finite weight, a
/// weight *sum* that overflows to infinity (finite weights can still sum
/// to `+inf`, which would zero every share and collide store keys), and an
/// all-zero mix.
pub fn canonical_shares(mix: &[f64]) -> Result<Vec<f64>, OptimizeError> {
    if mix.is_empty() {
        return Err(OptimizeError::InvalidMix("mix must not be empty".to_string()));
    }
    if mix.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(OptimizeError::InvalidMix(
            "mix weights must be finite and non-negative".to_string(),
        ));
    }
    let total: f64 = mix.iter().sum();
    if !total.is_finite() {
        return Err(OptimizeError::InvalidMix(
            "mix weight sum must be finite (the weights overflow when summed)".to_string(),
        ));
    }
    if total <= 0.0 {
        return Err(OptimizeError::InvalidMix(
            "mix weights must not all be zero".to_string(),
        ));
    }
    Ok(mix.iter().map(|w| w / total + 0.0).collect())
}

/// A workload's share of the co-optimization objective.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadShare {
    /// Workload name.
    pub name: String,
    /// Normalised share (all shares sum to 1).
    pub weight: f64,
}

/// Per-workload validation of the co-optimized configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoWorkloadRun {
    /// Workload name.
    pub name: String,
    /// Normalised objective share of this workload.
    pub weight: f64,
    /// Base-configuration runtime in cycles.
    pub base_cycles: u64,
    /// Runtime under the co-optimized configuration, in cycles.
    pub cycles: u64,
    /// Runtime improvement over the base configuration in percent
    /// (positive = faster).
    pub runtime_gain_pct: f64,
}

/// Result of a multi-workload co-optimization: one configuration serving
/// the whole mix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoOutcome {
    /// The normalised workload mix the objective was weighted with.
    pub mix: Vec<WorkloadShare>,
    /// The runtime/resource objective weights (the paper's w₁/w₂).
    pub weights: Weights,
    /// Selected decision variables (paper indices, ascending).
    pub selected: Vec<usize>,
    /// Human-readable descriptions of the selected changes.
    pub changes: Vec<String>,
    /// The recommended shared configuration.
    pub recommended: LeonConfig,
    /// Per-workload runtimes of the recommendation (replay-validated).
    pub per_workload: Vec<CoWorkloadRun>,
    /// Mix-weighted relative runtime of the recommendation
    /// (`Σ ωᵥ·cycles_w/base_w`; 1.0 = the base configuration, lower is
    /// better).
    pub weighted_relative_runtime: f64,
    /// Synthesised LUT utilisation (percent of device, truncated).
    pub lut_pct: u32,
    /// Synthesised BRAM utilisation (percent of device, truncated).
    pub bram_pct: u32,
    /// Whether the recommendation fits the device.
    pub fits: bool,
    /// Solver statistics.
    pub solver: SolveStats,
}

impl CoOutcome {
    /// Mix-weighted runtime improvement over the base configuration in
    /// percent (positive = faster).
    pub fn weighted_gain_pct(&self) -> f64 {
        (1.0 - self.weighted_relative_runtime) * 100.0
    }
}

/// Everything one campaign run produces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Workload names, in suite order.
    pub workloads: Vec<String>,
    /// Per-workload one-at-a-time cost tables (replayed from the trace set).
    pub tables: Vec<CostTable>,
    /// Per-workload Figure 2 exhaustive d-cache sweeps.
    pub sweeps: Vec<Vec<DcacheRow>>,
    /// Per-application optima (the paper's per-workload pipeline).
    pub per_app: Vec<Outcome>,
    /// The multi-workload co-optimization result.
    pub co: CoOutcome,
}

impl CampaignResult {
    /// Render a campaign summary table: per-application optima next to the
    /// single co-optimized configuration.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Campaign: {} workloads, co-optimization mix {}\n",
            self.workloads.len(),
            self.co
                .mix
                .iter()
                .map(|s| format!("{}={:.2}", s.name, s.weight))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "{:<10} {:>14} {:>16} {:>16} {:>12}\n",
            "workload", "base(cycles)", "per-app(cycles)", "co-opt(cycles)", "sweep best"
        ));
        for (i, name) in self.workloads.iter().enumerate() {
            let per_app = &self.per_app[i].validation;
            let co = &self.co.per_workload[i];
            let sweep_best = best_runtime_row(&self.sweeps[i])
                .map(|r| format!("{}x{}KB", r.ways, r.way_kb))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<10} {:>14} {:>16} {:>16} {:>12}\n",
                name, co.base_cycles, per_app.cycles, co.cycles, sweep_best
            ));
        }
        out.push_str(&format!(
            "co-optimized configuration: {:?} -> weighted gain {:.2}% (LUT {}%, BRAM {}%)\n",
            self.co.changes,
            self.co.weighted_gain_pct(),
            self.co.lut_pct,
            self.co.bram_pct
        ));
        out
    }
}

/// The multi-workload campaign engine.
///
/// Mirrors [`AutoReconfigurator`]'s builder surface but operates on a whole
/// benchmark suite at once over a shared [`TraceSet`].
#[derive(Clone, Debug)]
pub struct Campaign {
    space: ParameterSpace,
    base: LeonConfig,
    model: SynthesisModel,
    weights: Weights,
    formulation: FormulationOptions,
    measurement: MeasurementOptions,
    store: Option<ArtifactStore>,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

impl Campaign {
    /// A campaign over the paper's full 52-variable space with the paper's
    /// runtime-optimisation weights.
    pub fn new() -> Campaign {
        Campaign {
            space: ParameterSpace::paper(),
            base: LeonConfig::base(),
            model: SynthesisModel::default(),
            weights: Weights::runtime_optimized(),
            formulation: FormulationOptions::default(),
            measurement: MeasurementOptions::default(),
            store: None,
        }
    }

    /// Restrict the search to a different parameter space.
    pub fn with_space(mut self, space: ParameterSpace) -> Self {
        self.space = space;
        self
    }

    /// Change the base configuration traces are captured on.
    pub fn with_base(mut self, base: LeonConfig) -> Self {
        self.base = base;
        self
    }

    /// Change the synthesis model / target device.
    pub fn with_model(mut self, model: SynthesisModel) -> Self {
        self.model = model;
        self
    }

    /// Change the objective weights.
    pub fn with_weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Change the constraint-form options.
    pub fn with_formulation(mut self, options: FormulationOptions) -> Self {
        self.formulation = options;
        self
    }

    /// Change the measurement options (cycle budget, worker threads).
    pub fn with_measurement(mut self, options: MeasurementOptions) -> Self {
        self.measurement = options;
        self
    }

    /// Attach an on-disk [`ArtifactStore`]: captures, cost tables, sweeps
    /// and per-application optima are then served from the store when a
    /// content-identical artifact exists and persisted when computed fresh.
    /// Results are byte-identical with and without a store.
    pub fn with_store(mut self, store: ArtifactStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Convenience: open (creating if needed) a store directory and attach it.
    pub fn with_store_dir(self, dir: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(self.with_store(ArtifactStore::open(dir)?))
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The measurement options (cycle budget, worker threads).
    pub(crate) fn measurement(&self) -> &MeasurementOptions {
        &self.measurement
    }

    /// The parameter space being explored.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// The base configuration.
    pub fn base(&self) -> &LeonConfig {
        &self.base
    }

    /// The synthesis model / target device.
    pub fn model(&self) -> &SynthesisModel {
        &self.model
    }

    /// The objective weights every per-application optimum is solved with.
    pub fn weights(&self) -> Weights {
        self.weights
    }

    /// An equal-share workload mix for `n` workloads.
    pub fn equal_mix(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    /// Capture the suite's trace set (one full verified simulation per
    /// workload, fanned out over the worker pool).
    pub fn capture(
        &self,
        suite: &[Box<dyn Workload + Send + Sync>],
    ) -> Result<TraceSet, SimError> {
        TraceSet::capture(suite, &self.base, self.measurement.max_cycles, self.measurement.threads)
    }

    /// Measure every workload's one-at-a-time cost table by replaying the
    /// shared trace set.  The per-variable fan-out inside each table already
    /// saturates the pool, so workloads are processed in order.
    pub fn cost_tables(
        &self,
        suite: &[Box<dyn Workload + Send + Sync>],
        traces: &TraceSet,
    ) -> Result<Vec<CostTable>, SimError> {
        assert_eq!(suite.len(), traces.len(), "suite and trace set must align");
        suite
            .iter()
            .zip(&traces.entries)
            .map(|(w, t)| {
                measure_cost_table_traced(
                    &self.space,
                    w.name(),
                    &traces.base,
                    &self.model,
                    &self.measurement,
                    &t.trace,
                )
            })
            .collect()
    }

    /// Run the Figure 2 exhaustive d-cache sweep for every workload of the
    /// trace set (each sweep fans its 28 geometries out over the pool).
    pub fn sweeps(&self, traces: &TraceSet) -> Result<Vec<Vec<DcacheRow>>, SimError> {
        traces
            .entries
            .iter()
            .map(|e| {
                dcache_exhaustive_traced(
                    &e.trace,
                    &traces.base,
                    &self.model,
                    self.measurement.max_cycles,
                    self.measurement.threads,
                )
            })
            .collect()
    }

    /// Solve each workload's per-application problem from its measured cost
    /// table, fanned out over the pool (solving and validation are
    /// independent across workloads).  Each recommendation is validated by
    /// replaying the workload's shared trace — bit-identical to full
    /// simulation — so the whole per-application stage executes no guest
    /// code at all.  `suite` only has to align with `traces` and `tables`.
    pub fn optimize_each(
        &self,
        suite: &[Box<dyn Workload + Send + Sync>],
        traces: &TraceSet,
        tables: &[CostTable],
    ) -> Result<Vec<Outcome>, OptimizeError> {
        assert_eq!(suite.len(), tables.len(), "suite and tables must align");
        assert_eq!(suite.len(), traces.len(), "suite and trace set must align");
        let tool = self.per_app_tool();
        let results = run_indexed(suite.len(), self.measurement.threads, |i| {
            let entry = &traces.entries[i];
            tool.optimize_with_table_traced(&entry.name, tables[i].clone(), &entry.trace)
        });
        collect_indexed(results)
    }

    /// Multi-workload co-optimization: find the single configuration that
    /// minimises the mix-weighted runtime objective across every workload of
    /// the trace set, subject to the paper's validity and resource
    /// constraints.
    ///
    /// `mix` gives each workload's (not necessarily normalised) share of the
    /// runtime objective, in suite order; the recommendation is validated by
    /// replaying every trace under it.
    pub fn co_optimize(
        &self,
        traces: &TraceSet,
        tables: &[CostTable],
        mix: &[f64],
    ) -> Result<CoOutcome, OptimizeError> {
        assert_eq!(tables.len(), traces.len(), "tables and trace set must align");
        let entries: Vec<&TracedWorkload> = traces.entries.iter().collect();
        let tables: Vec<&CostTable> = tables.iter().collect();
        self.co_optimize_on(&entries, &tables, mix)
    }

    /// [`Campaign::co_optimize`] over borrowed per-workload artifacts — the
    /// form [`CampaignSession`] calls with its lazily materialised handles,
    /// so no trace or table is ever cloned just to be solved over.
    fn co_optimize_on(
        &self,
        entries: &[&TracedWorkload],
        tables: &[&CostTable],
        mix: &[f64],
    ) -> Result<CoOutcome, OptimizeError> {
        assert_eq!(tables.len(), entries.len(), "tables and traces must align");
        if mix.len() != tables.len() {
            return Err(OptimizeError::InvalidMix(format!(
                "mix has {} weights but the suite has {}",
                mix.len(),
                tables.len()
            )));
        }
        let shares = canonical_shares(mix)?;

        let weighted: Vec<(f64, &CostTable)> =
            shares.iter().copied().zip(tables.iter().copied()).collect();
        let (formulation, _blended) =
            formulate_mixed(&self.space, &weighted, self.weights, self.formulation);
        let solution =
            binlp::solve(&formulation.problem).map_err(|_| OptimizeError::Infeasible)?;
        let mut selected = formulation.selected_indices(&solution.assignment);
        selected.sort_unstable();

        let recommended = self.space.apply(&self.base, &selected);
        let report = self.model.synthesize(&recommended);

        // validate on every workload by replaying its trace under the shared
        // candidate — bit-identical to fully simulating the recommendation,
        // since every Figure 1 variable is trace-invariant
        let runs = run_indexed(entries.len(), self.measurement.threads, |i| {
            leon_sim::replay(&entries[i].trace, &recommended, self.measurement.max_cycles)
                .map(|stats| stats.cycles)
        });
        let cycles = collect_indexed(runs)?;

        let mut per_workload = Vec::with_capacity(entries.len());
        let mut weighted_relative = 0.0;
        for (i, entry) in entries.iter().enumerate() {
            weighted_relative += shares[i] * cycles[i] as f64 / entry.base_cycles as f64;
            per_workload.push(CoWorkloadRun {
                name: entry.name.clone(),
                weight: shares[i],
                base_cycles: entry.base_cycles,
                cycles: cycles[i],
                runtime_gain_pct: (entry.base_cycles as f64 - cycles[i] as f64) * 100.0
                    / entry.base_cycles as f64,
            });
        }

        let changes = selected
            .iter()
            .filter_map(|i| self.space.by_index(*i).map(|v| v.name.clone()))
            .collect();

        Ok(CoOutcome {
            mix: entries
                .iter()
                .zip(&shares)
                .map(|(e, &weight)| WorkloadShare { name: e.name.clone(), weight })
                .collect(),
            weights: self.weights,
            selected,
            changes,
            recommended,
            per_workload,
            weighted_relative_runtime: weighted_relative,
            lut_pct: report.lut_percent,
            bram_pct: report.bram_percent,
            fits: report.fits,
            solver: solution.stats,
        })
    }

    /// Run the whole campaign: capture the trace set, measure every cost
    /// table, sweep every workload's d-cache space, solve every
    /// per-application problem, and co-optimize the mix.
    ///
    /// With a store attached ([`Campaign::with_store`]) every per-workload
    /// artifact is first looked up by content fingerprint; only what is
    /// missing (or damaged) is recomputed, and a fully warm run executes
    /// zero guest instructions.  The result is byte-identical either way.
    pub fn run(
        &self,
        suite: &[Box<dyn Workload + Send + Sync>],
        mix: &[f64],
    ) -> Result<CampaignResult, OptimizeError> {
        self.session(suite)?.into_result(mix)
    }

    // -- store keys ---------------------------------------------------------

    /// Common prefix of every artifact key (workload-specific or not): the
    /// results version, the cycle budget (a budget-exhausting run errors/
    /// truncates, so artifacts measured under a different budget are not
    /// interchangeable) and the base configuration every artifact derives
    /// from.  `co_key` builds on this too — any field added here invalidates
    /// all key families together.
    pub(crate) fn engine_key(&self) -> FingerprintBuilder {
        FingerprintBuilder::new()
            .u64(RESULTS_VERSION as u64)
            .u64(self.measurement.max_cycles)
            .debug(&self.base)
    }

    /// Mix in the fields the solve-stage artifacts (`optimum`, `co`) depend
    /// on beyond the engine key: space, model and objective.
    pub(crate) fn objective_fields(&self, b: FingerprintBuilder) -> FingerprintBuilder {
        b.debug(&self.space).debug(&self.model).debug(&self.weights).debug(&self.formulation)
    }

    fn key_base(&self, workload_fp: u64) -> FingerprintBuilder {
        self.engine_key().u64(workload_fp)
    }

    fn trace_key(&self, workload_fp: u64) -> Fingerprint {
        self.key_base(workload_fp)
            .str("trace")
            .u64(leon_sim::TRACE_FORMAT_VERSION as u64)
            .finish()
    }

    /// Cost-table key over a variable space: the session's own space keys
    /// its tables, a search space or a figure's sub-space keys its own, and
    /// one space always keys one entry per workload.
    fn table_key(&self, workload_fp: u64, space: &ParameterSpace) -> Fingerprint {
        self.key_base(workload_fp).str("table").debug(space).debug(&self.model).finish()
    }

    fn sweep_key(&self, workload_fp: u64) -> Fingerprint {
        self.key_base(workload_fp).str("sweep").debug(&self.model).finish()
    }

    fn optimum_key(&self, workload_fp: u64) -> Fingerprint {
        self.objective_fields(self.key_base(workload_fp).str("optimum")).finish()
    }

    /// Content key of a search outcome: the engine key, the workload, the
    /// synthesis model, the objective weights, the *search space fingerprint*
    /// (variables + full candidate list in enumeration order) and the funnel
    /// mode.  Deliberately independent of the session's own
    /// [`ParameterSpace`] — a search carries its space with it, so the same
    /// search issued from differently-spaced sessions shares one entry.
    fn search_key(&self, workload_fp: u64, sspace: &SearchSpace, mode: SearchMode) -> Fingerprint {
        self.key_base(workload_fp)
            .str("search")
            .debug(&self.model)
            .debug(&self.weights)
            .u64(sspace.fingerprint())
            .str(mode.name())
            .finish()
    }

    // -- store-aware per-workload derivation --------------------------------
    //
    // Every artifact kind is split into a *try-load* half (store lookup by
    // key — safe to call without any other artifact materialised) and a
    // *compute-and-persist* half (which needs the trace).  The lazy session
    // wires them so that the compute half — and therefore the trace — is
    // only reached on a store miss.

    /// Materialise one artifact under the store's claim/lease dedup
    /// protocol: load when present, otherwise race concurrent processes for
    /// the compute claim — the winner computes (under a heartbeat, so a slow
    /// compute cannot be usurped) and persists; losers block on the winner's
    /// atomically published result instead of duplicating the work.
    ///
    /// The boolean reports whether *this* caller computed (`true`) or was
    /// served — from the store, or by a sibling process's compute
    /// (`false`).  Without a store the compute half runs directly.  Claim
    /// I/O failures degrade to undeduplicated compute: the protocol only
    /// ever removes duplicate work, never adds a failure mode.  The one
    /// typed failure it *can* surface is [`LeaseWaitTimeout`] (hence the
    /// `E: From` bound): a sibling that holds a live, renewing claim but
    /// never publishes would otherwise hang every waiter forever.
    pub(crate) fn lease_guarded<T, E: From<crate::store::LeaseWaitTimeout>>(
        &self,
        kind: &str,
        key: Fingerprint,
        mut try_load: impl FnMut() -> Option<T>,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, bool), E> {
        // stamp *before* the load: any publish after this point changes the
        // stamp and forces the next load attempt to look again
        let mut last_seen = self.store.as_ref().and_then(|s| s.entry_file_stamp(kind, key));
        if let Some(value) = try_load() {
            return Ok((value, false));
        }
        let Some(store) = &self.store else {
            return Ok((compute()?, true));
        };
        let mut compute = Some(compute);
        loop {
            match store.try_claim(kind, key, crate::store::lease_ttl()) {
                Ok(ClaimOutcome::Acquired(mut lease)) => {
                    // double-check under the claim: the previous holder may
                    // have published while we raced for it — but only if the
                    // entry file actually changed since we last looked, so a
                    // corrupt entry is not detected (and counted) twice
                    if store.entry_file_stamp(kind, key) != last_seen {
                        if let Some(value) = try_load() {
                            return Ok((value, false));
                        }
                    }
                    lease.start_heartbeat();
                    // the canonical crash point: claim held and heartbeating,
                    // artifact not yet computed or published
                    let _ = crate::faults::check("lease.acquired", store.dir());
                    let value = (compute.take().expect("compute reached at most once"))()?;
                    return Ok((value, true)); // dropping the lease releases the claim
                }
                Ok(ClaimOutcome::Busy(_)) => {
                    let published = store
                        .await_entry_or_lease_deadline(kind, key, DEFAULT_LEASE_WAIT)
                        .map_err(E::from)?;
                    if published {
                        last_seen = store.entry_file_stamp(kind, key);
                        if let Some(value) = try_load() {
                            return Ok((value, false));
                        }
                        // the published entry didn't decode for us: fall
                        // through and claim the recompute ourselves
                    }
                    // no entry and no live lease: the holder failed or
                    // crashed — retry the claim (we may now win it)
                }
                Err(e) => {
                    eprintln!(
                        "warning: could not claim {kind}-{key} for cold-compute dedup ({e}); \
                         computing without a claim"
                    );
                    let value = (compute.take().expect("compute reached at most once"))()?;
                    return Ok((value, true));
                }
            }
        }
    }

    /// Serve the workload's verified trace (plus its base-run costs) from
    /// the store, if a valid entry exists.  Ticks the process-wide
    /// [`workloads::trace_payload_bytes_read`] counter on every actual
    /// payload read — the cost the lazy session exists to avoid.
    fn try_load_trace(&self, name: &str, workload_fp: u64) -> Option<TracedWorkload> {
        let store = self.store.as_ref()?;
        let payload = store.load("trace", self.trace_key(workload_fp))?;
        workloads::record_trace_payload_read(payload.len() as u64);
        match decode_stored_trace(&payload, name, &self.base) {
            Some(entry) => Some(entry),
            None => {
                // envelope was intact but the payload didn't decode (format
                // drift): count it and let the caller recompute/overwrite
                store.note_decode_failure();
                None
            }
        }
    }

    /// Capture the workload's trace by full (guest-executing) simulation and
    /// persist it.
    fn capture_and_persist_trace(
        &self,
        workload: &(dyn Workload + Send + Sync),
        workload_fp: u64,
    ) -> Result<TracedWorkload, SimError> {
        let (run, trace) =
            workloads::capture_verified(workload, &self.base, self.measurement.max_cycles)?;
        let entry = TracedWorkload {
            name: workload.name().to_string(),
            trace,
            base_cycles: run.stats.cycles,
            base_seconds: run.seconds,
        };
        if let Some(store) = &self.store {
            let payload = encode_stored_trace(&entry);
            if let Err(e) = store.save("trace", self.trace_key(workload_fp), &payload) {
                eprintln!("warning: could not persist trace for {}: {e}", entry.name);
            }
        }
        Ok(entry)
    }

    /// Serve the workload's trace from the store, or capture it.  The
    /// boolean reports whether a capture (guest execution) happened.
    fn load_or_capture(
        &self,
        workload: &(dyn Workload + Send + Sync),
        workload_fp: u64,
    ) -> Result<(TracedWorkload, bool), SimError> {
        self.lease_guarded(
            "trace",
            self.trace_key(workload_fp),
            || self.try_load_trace(workload.name(), workload_fp),
            || self.capture_and_persist_trace(workload, workload_fp),
        )
    }

    /// Load a JSON artifact from the attached store, if any.
    pub(crate) fn try_load_json<T: serde::Deserialize>(&self, kind: &str, key: Fingerprint) -> Option<T> {
        self.store.as_ref()?.load_json(kind, key)
    }

    /// Persist a JSON artifact to the attached store (best effort).
    pub(crate) fn persist_json<T: serde::Serialize>(
        &self,
        kind: &str,
        key: Fingerprint,
        what: &str,
        value: &T,
    ) {
        if let Some(store) = &self.store {
            if let Err(e) = store.save_json(kind, key, value) {
                eprintln!("warning: could not persist {what}: {e}");
            }
        }
    }
}

/// Length of the base-cost prefix ([`encode_stored_trace`]) that precedes
/// the serialised trace bytes in a stored trace entry's payload.
pub(crate) const STORED_TRACE_PREFIX_LEN: usize = 16;

/// Binary payload of a stored trace entry: the base-run costs the campaign
/// needs alongside the trace itself, so a warm load replays nothing.  The
/// trace is encoded straight after the prefix, into the same buffer.
fn encode_stored_trace(entry: &TracedWorkload) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&entry.base_cycles.to_le_bytes());
    payload.extend_from_slice(&entry.base_seconds.to_bits().to_le_bytes());
    entry.trace.encode_into(&mut payload);
    payload
}

/// Decode a stored trace payload; `None` (→ recompute) on any mismatch.
fn decode_stored_trace(
    payload: &[u8],
    name: &str,
    expected_base: &LeonConfig,
) -> Option<TracedWorkload> {
    if payload.len() < STORED_TRACE_PREFIX_LEN {
        return None;
    }
    let base_cycles = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let base_seconds = f64::from_bits(u64::from_le_bytes(payload[8..16].try_into().unwrap()));
    let trace_bytes = &payload[STORED_TRACE_PREFIX_LEN..];
    // header-only peek: reject version skew or a foreign capture
    // configuration before paying the full record decode + stream rebuild
    let header = Trace::peek_header(trace_bytes).ok()?;
    if header.captured != *expected_base {
        return None; // keyed correctly but captured elsewhere — never trust it
    }
    let trace = Trace::from_bytes(trace_bytes).ok()?;
    Some(TracedWorkload { name: name.to_string(), trace, base_cycles, base_seconds })
}

/// What a [`CampaignSession`] actually did, per artifact kind: how many
/// artifacts were recomputed and how many were served from the store.
///
/// These counters are per-session (not global), so tests can assert
/// invalidation precision — e.g. that updating one workload of a four-way
/// mix re-captures exactly one trace and re-measures exactly one cost table
/// — without racing against other tests in the same process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Traces captured by full (guest-executing) simulation.
    pub trace_captures: usize,
    /// Traces served from the store.
    pub trace_store_hits: usize,
    /// Cost tables measured (by replay over the trace set).
    pub table_measurements: usize,
    /// Cost tables served from the store.
    pub table_store_hits: usize,
    /// Figure 2 sweeps recomputed by replay.
    pub sweeps_computed: usize,
    /// Figure 2 sweeps served from the store.
    pub sweep_store_hits: usize,
    /// Per-application problems formulated, solved and validated.
    pub optimizations_solved: usize,
    /// Per-application optima served from the store.
    pub optimum_store_hits: usize,
    /// Population outcomes computed fresh (batch solve + frontier prune).
    pub populations_solved: usize,
    /// Population outcomes served from the store.
    pub population_store_hits: usize,
    /// Design-space searches computed fresh (the enumerate-then-prune
    /// funnel actually ran).
    pub searches_solved: usize,
    /// Search outcomes served from the store.
    pub search_store_hits: usize,
}

/// RAII pin set: every key registered here is pinned in the store once,
/// for the guard's lifetime ([`crate::store::ArtifactStore::gc`] never
/// evicts pinned entries), and released once on drop.  Registering a key
/// the guard already holds is a set lookup, so a long-lived session (the
/// daemon's) holds one pin per key it touched, however many requests it
/// serves.  A no-op without a store.
#[derive(Debug, Default)]
struct PinGuard {
    store: Option<ArtifactStore>,
    keys: Mutex<HashSet<(&'static str, Fingerprint)>>,
}

impl PinGuard {
    fn new(store: Option<ArtifactStore>) -> PinGuard {
        PinGuard { store, keys: Mutex::new(HashSet::new()) }
    }

    fn pin(&self, kind: &'static str, key: Fingerprint) {
        if let Some(store) = &self.store {
            // the store pin is taken under the lock, so no caller proceeds
            // on a key another caller registered but has not pinned yet
            let mut keys = self.keys.lock().unwrap_or_else(|e| e.into_inner());
            if keys.insert((kind, key)) {
                store.pin(kind, key);
            }
        }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        if let Some(store) = &self.store {
            let keys = self.keys.get_mut().unwrap_or_else(|e| e.into_inner());
            for (kind, key) in keys.drain() {
                store.unpin(kind, key);
            }
        }
    }
}

/// A lazily materialised campaign over one benchmark suite.
///
/// Creating a session derives *nothing*: it computes the per-workload
/// content fingerprints, pins the corresponding store keys (so a concurrent
/// [`crate::store::ArtifactStore::gc`] cannot evict them mid-session) and
/// hands out [`LazyArtifact`] slots.  Artifacts materialise — store load or
/// recompute — exactly when a result's dependency chain dereferences them:
///
/// * [`CampaignSession::co_optimize`] with a stored co outcome dereferences
///   **nothing**: a warm `co` hit reads zero trace payload bytes and
///   executes zero guest instructions (both counter-asserted by
///   `tests/incremental_store.rs`);
/// * [`CampaignSession::result`] additionally materialises the cost tables,
///   sweeps and per-application optima the [`CampaignResult`] carries —
///   all small JSON artifacts — but still no traces when they hit;
/// * only a store **miss** walks the dependency chain down to the trace
///   (and only that workload's trace), recomputes, and persists.
///
/// [`CampaignSession::update_workload`] swaps one workload of the mix and
/// re-derives *only* that workload's artifacts (a content-identical
/// replacement is even served from the store), all or nothing; the other
/// workloads' slots are untouched.
///
/// Every store key the session may dereference stays pinned until the
/// session drops, each key once however often it is requested.
pub struct CampaignSession<'a> {
    engine: Campaign,
    suite: &'a [Box<dyn Workload + Send + Sync>],
    names: Vec<String>,
    fingerprints: Vec<u64>,
    traces: Vec<LazyArtifact<TracedWorkload>>,
    tables: Vec<LazyArtifact<CostTable>>,
    sweeps: Vec<LazyArtifact<Vec<DcacheRow>>>,
    per_app: Vec<LazyArtifact<Outcome>>,
    counters: Mutex<SessionCounters>,
    pins: PinGuard,
}

impl Campaign {
    /// Open a lazy session over `suite`: fingerprint every workload, pin the
    /// session's store keys, and hand out pending [`LazyArtifact`] slots.
    ///
    /// Nothing is loaded or computed here — materialisation happens on
    /// dereference (see [`CampaignSession`]).  The suite must outlive the
    /// session: pending slots capture it for on-demand recapture.
    pub fn session<'a>(
        &self,
        suite: &'a [Box<dyn Workload + Send + Sync>],
    ) -> Result<CampaignSession<'a>, OptimizeError> {
        let fingerprints: Vec<u64> =
            suite.iter().map(|w| w.fingerprint()).collect();
        let names: Vec<String> = suite.iter().map(|w| w.name().to_string()).collect();
        let pins = PinGuard::new(self.store.clone());
        for &fp in &fingerprints {
            pins.pin("trace", self.trace_key(fp));
            pins.pin("table", self.table_key(fp, &self.space));
            pins.pin("sweep", self.sweep_key(fp));
            pins.pin("optimum", self.optimum_key(fp));
        }
        Ok(CampaignSession {
            engine: self.clone(),
            suite,
            names,
            fingerprints,
            traces: (0..suite.len()).map(|_| LazyArtifact::pending()).collect(),
            tables: (0..suite.len()).map(|_| LazyArtifact::pending()).collect(),
            sweeps: (0..suite.len()).map(|_| LazyArtifact::pending()).collect(),
            per_app: (0..suite.len()).map(|_| LazyArtifact::pending()).collect(),
            counters: Mutex::new(SessionCounters::default()),
            pins,
        })
    }

    /// The per-application pipeline configuration shared by
    /// [`Campaign::session`], [`Campaign::optimize_each`] and the figure
    /// drivers: same space, base, model, weights and options, with the inner
    /// stages kept serial because the outer per-workload fan-out owns the
    /// pool.
    pub(crate) fn per_app_tool(&self) -> AutoReconfigurator {
        AutoReconfigurator::new()
            .with_space(self.space.clone())
            .with_base(self.base)
            .with_model(self.model.clone())
            .with_weights(self.weights)
            .with_formulation(self.formulation)
            .with_measurement(MeasurementOptions { threads: 1, ..self.measurement })
    }
}

impl<'a> CampaignSession<'a> {
    /// The campaign configuration this session was derived with.
    pub fn engine(&self) -> &Campaign {
        &self.engine
    }

    /// Number of workloads in the session's suite.
    pub fn len(&self) -> usize {
        self.suite.len()
    }

    /// True for an empty suite.
    pub fn is_empty(&self) -> bool {
        self.suite.is_empty()
    }

    /// Workload names, in suite order (reflects
    /// [`CampaignSession::update_workload`] replacements).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// What this session recomputed vs. served from the store so far.
    /// Pending (never-dereferenced) artifacts appear in neither column —
    /// that absence *is* the laziness guarantee.
    pub fn counters(&self) -> SessionCounters {
        *self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Tick either the "recomputed" or the "served from store" counter.
    fn bump(
        &self,
        computed_fresh: bool,
        pick: impl FnOnce(&mut SessionCounters) -> (&mut usize, &mut usize),
    ) {
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let (computed, hit) = pick(&mut counters);
        if computed_fresh {
            *computed += 1;
        } else {
            *hit += 1;
        }
    }

    /// The workload's trace, materialising it (store load or full capture)
    /// on first dereference.
    pub fn trace(&self, index: usize) -> Result<&TracedWorkload, OptimizeError> {
        self.traces[index].get_or_try_materialize(|| {
            let (entry, captured) = self
                .engine
                .load_or_capture(self.suite[index].as_ref(), self.fingerprints[index])?;
            self.bump(captured, |c| (&mut c.trace_captures, &mut c.trace_store_hits));
            Ok(entry)
        })
    }

    /// The workload's cost table over the session's space; a store hit
    /// never touches the trace.
    pub fn table(&self, index: usize) -> Result<&CostTable, OptimizeError> {
        self.tables[index].get_or_try_materialize(|| self.table_in(index, &self.engine.space))
    }

    /// The workload's cost table over any variable space — the session's
    /// own ([`CampaignSession::table`]), a search space's or a figure's
    /// sub-space.  One `table` entry per (workload, space), named after the
    /// session's current workload: a store hit never touches the trace, a
    /// miss replays it and persists the table.
    pub(crate) fn table_in(
        &self,
        index: usize,
        space: &ParameterSpace,
    ) -> Result<CostTable, OptimizeError> {
        let fp = self.fingerprints[index];
        let key = self.engine.table_key(fp, space);
        self.pins.pin("table", key);
        let (table, measured) = self.engine.lease_guarded(
            "table",
            key,
            || self.engine.try_load_json::<CostTable>("table", key),
            || -> Result<CostTable, OptimizeError> {
                let entry = self.trace(index)?;
                let table = measure_cost_table_traced(
                    space,
                    &self.names[index],
                    &self.engine.base,
                    &self.engine.model,
                    &self.engine.measurement,
                    &entry.trace,
                )?;
                self.engine.persist_json(
                    "table",
                    key,
                    &format!("cost table for {}", self.names[index]),
                    &table,
                );
                Ok(table)
            },
        )?;
        self.bump(measured, |c| (&mut c.table_measurements, &mut c.table_store_hits));
        Ok(table)
    }

    /// The workload's Figure 2 sweep; a store hit never touches the trace.
    /// A miss loads (or captures) the trace like every other artifact does,
    /// and the trace stays resident for the session's later requests.
    pub fn sweep(&self, index: usize) -> Result<&Vec<DcacheRow>, OptimizeError> {
        self.sweeps[index].get_or_try_materialize(|| {
            let key = self.engine.sweep_key(self.fingerprints[index]);
            let (sweep, computed) = self.engine.lease_guarded(
                "sweep",
                key,
                || self.engine.try_load_json::<Vec<DcacheRow>>("sweep", key),
                || -> Result<Vec<DcacheRow>, OptimizeError> {
                    let engine = &self.engine;
                    let sweep = dcache_exhaustive_traced(
                        &self.trace(index)?.trace,
                        &engine.base,
                        &engine.model,
                        engine.measurement.max_cycles,
                        engine.measurement.threads,
                    )?;
                    let what = format!("sweep for {}", self.names[index]);
                    engine.persist_json("sweep", key, &what, &sweep);
                    Ok(sweep)
                },
            )?;
            self.bump(computed, |c| (&mut c.sweeps_computed, &mut c.sweep_store_hits));
            Ok(sweep)
        })
    }

    /// The workload's per-application optimum; a store hit touches neither
    /// the cost table nor the trace.
    pub fn per_app_outcome(&self, index: usize) -> Result<&Outcome, OptimizeError> {
        self.per_app[index].get_or_try_materialize(|| {
            let key = self.engine.optimum_key(self.fingerprints[index]);
            let (outcome, solved) = self.engine.lease_guarded(
                "optimum",
                key,
                || self.engine.try_load_json::<Outcome>("optimum", key),
                || -> Result<Outcome, OptimizeError> {
                    let name = &self.names[index];
                    let table = self.table(index)?.clone();
                    let outcome = self.engine.per_app_tool().optimize_with_table_traced(
                        name,
                        table,
                        &self.trace(index)?.trace,
                    )?;
                    let what = format!("optimum for {name}");
                    self.engine.persist_json("optimum", key, &what, &outcome);
                    Ok(outcome)
                },
            )?;
            self.bump(solved, |c| (&mut c.optimizations_solved, &mut c.optimum_store_hits));
            Ok(outcome)
        })
    }

    /// Materialise the measurement artifacts a co-optimization solve needs:
    /// every trace (parallel — capture is the expensive, guest-executing
    /// phase) and every cost table (serial; the per-variable fan-out inside
    /// each measurement already saturates the pool).
    fn materialize_measurements(&self) -> Result<(), OptimizeError> {
        self.each(|i| self.trace(i).map(|_| ()))?;
        for i in 0..self.len() {
            self.table(i)?;
        }
        Ok(())
    }

    /// Materialise the artifacts a [`CampaignResult`] carries (tables,
    /// sweeps, per-application optima) — but *not* the traces: when every
    /// store lookup hits, zero trace payload bytes are read.
    fn materialize_result_artifacts(&self) -> Result<(), OptimizeError> {
        for i in 0..self.len() {
            self.table(i)?;
        }
        for i in 0..self.len() {
            self.sweep(i)?;
        }
        self.each(|i| self.per_app_outcome(i).map(|_| ()))?;
        Ok(())
    }

    /// Materialise *every* artifact of the session, traces included — the
    /// eager (PR-3) semantics, used by tests that exercise the whole store
    /// surface and by the `warm_eager` benchmark baseline.
    pub fn materialize_all(&self) -> Result<(), OptimizeError> {
        self.each(|i| self.trace(i).map(|_| ()))?;
        self.materialize_result_artifacts()
    }

    /// Run `job` for every workload of the session over the worker pool —
    /// one job per workload slot, so jobs never share an artifact.  Results
    /// come back in suite order, and the first error returned is the
    /// lowest-indexed one, at any thread count.
    pub(crate) fn each<T: Send>(
        &self,
        job: impl Fn(usize) -> Result<T, OptimizeError> + Sync,
    ) -> Result<Vec<T>, OptimizeError> {
        collect_indexed(run_indexed(self.len(), self.engine.measurement.threads, job))
    }

    /// Per-workload content fingerprints, in suite order — the identity the
    /// population key folds in alongside the engine configuration.
    pub(crate) fn workload_fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }

    /// Pin a store key for the rest of the session (no-op without a store).
    pub(crate) fn pin_artifact(&self, kind: &'static str, key: Fingerprint) {
        self.pins.pin(kind, key);
    }

    /// Tick the population computed/served counters.
    pub(crate) fn bump_population(&self, computed_fresh: bool) {
        self.bump(computed_fresh, |c| {
            (&mut c.populations_solved, &mut c.population_store_hits)
        });
    }

    /// Tick the search computed/served counters.
    fn bump_search(&self, computed_fresh: bool) {
        self.bump(computed_fresh, |c| (&mut c.searches_solved, &mut c.search_store_hits));
    }

    /// Search a candidate space for workload `index`'s optimum through the
    /// enumerate-then-prune funnel (DESIGN.md §13).
    ///
    /// With a store attached, an unchanged (workload, space, objective,
    /// mode) search is served straight from disk — zero guest instructions,
    /// zero trace walks, and none of the funnel counters tick.  Only a miss
    /// materialises the trace and the search-space cost table, runs the
    /// funnel (closed-form bounds → Pareto frontier → batched
    /// branch-and-bound validation) and persists the outcome under the
    /// `search` artifact kind, keyed by [`SearchSpace::fingerprint`].
    ///
    /// [`SearchMode::Pruned`] and [`SearchMode::Exhaustive`] return the
    /// byte-identical optimum (`best`); their funnel statistics differ.
    pub fn search(
        &self,
        index: usize,
        sspace: &SearchSpace,
        mode: SearchMode,
    ) -> Result<SearchOutcome, OptimizeError> {
        let weights = self.engine.weights;
        if !(weights.runtime.is_finite() && weights.runtime >= 0.0)
            || !(weights.resources.is_finite() && weights.resources >= 0.0)
        {
            return Err(OptimizeError::InvalidMix(format!(
                "search weights must be finite and non-negative, got w1={} w2={}",
                weights.runtime, weights.resources
            )));
        }
        if sspace.is_empty() {
            return Err(OptimizeError::InvalidMix(format!(
                "search space `{}` has no candidates",
                sspace.name
            )));
        }
        let fp = self.fingerprints[index];
        let key = self.engine.search_key(fp, sspace, mode);
        self.pins.pin("search", key);
        let (outcome, computed) = self.engine.lease_guarded(
            "search",
            key,
            || self.engine.try_load_json::<SearchOutcome>("search", key),
            || -> Result<SearchOutcome, OptimizeError> {
                let table = self.table_in(index, &sspace.space)?;
                let entry = self.trace(index)?;
                let inputs = SearchInputs {
                    workload: &self.names[index],
                    sspace,
                    base: &self.engine.base,
                    model: &self.engine.model,
                    weights,
                    table: &table,
                    trace: &entry.trace,
                    max_cycles: self.engine.measurement.max_cycles,
                    threads: self.engine.measurement.threads,
                };
                let outcome = crate::search::run_search(&inputs, mode)?;
                self.engine.persist_json(
                    "search",
                    key,
                    &format!("search outcome for {}", self.names[index]),
                    &outcome,
                );
                Ok(outcome)
            },
        )?;
        self.bump_search(computed);
        Ok(outcome)
    }

    /// Content key of a co-optimization outcome: every workload fingerprint
    /// (in mix order), the *canonical* normalised shares (see
    /// [`canonical_shares`] — `-0.0` never reaches a fingerprint), and the
    /// whole engine configuration.  Any change to any of them is a
    /// different key.
    fn co_key(&self, shares: &[f64]) -> Fingerprint {
        let mut b = self.engine.objective_fields(self.engine.engine_key().str("co"));
        for (fp, share) in self.fingerprints.iter().zip(shares) {
            b = b.u64(*fp).u64(share.to_bits());
        }
        b.finish()
    }

    /// Co-optimize the session's suite for a workload mix.
    ///
    /// With a store attached, an unchanged (mix, artifact-set) pair is
    /// served straight from disk — no trace bytes, no tables, no replays,
    /// no solver.  Only a miss materialises the traces and cost tables and
    /// runs blend + BINLP + replay validation, then persists the outcome.
    pub fn co_optimize(&self, mix: &[f64]) -> Result<CoOutcome, OptimizeError> {
        if mix.len() != self.len() {
            return Err(OptimizeError::InvalidMix(format!(
                "mix has {} weights but the suite has {}",
                mix.len(),
                self.len()
            )));
        }
        let shares = canonical_shares(mix)?;
        let key = self.co_key(&shares);
        self.pins.pin("co", key);
        let (outcome, _computed) = self.engine.lease_guarded(
            "co",
            key,
            || self.engine.try_load_json::<CoOutcome>("co", key),
            || -> Result<CoOutcome, OptimizeError> {
                self.materialize_measurements()?;
                let entries: Vec<&TracedWorkload> = (0..self.len())
                    .map(|i| self.traces[i].get().expect("just materialised"))
                    .collect();
                let tables: Vec<&CostTable> = (0..self.len())
                    .map(|i| self.tables[i].get().expect("just materialised"))
                    .collect();
                let outcome = self.engine.co_optimize_on(&entries, &tables, mix)?;
                self.engine.persist_json("co", key, "co-optimization outcome", &outcome);
                Ok(outcome)
            },
        )?;
        Ok(outcome)
    }

    /// Assemble the full [`CampaignResult`] for a workload mix.
    ///
    /// The co-optimization is resolved *first*, so on a fully warm store
    /// the result is assembled from the co entry plus the (small, JSON)
    /// table/sweep/optimum entries — zero trace payload bytes.
    pub fn result(&self, mix: &[f64]) -> Result<CampaignResult, OptimizeError> {
        let co = self.co_optimize(mix)?;
        self.materialize_result_artifacts()?;
        Ok(CampaignResult {
            workloads: self.names.clone(),
            tables: (0..self.len()).map(|i| self.tables[i].get().unwrap().clone()).collect(),
            sweeps: (0..self.len()).map(|i| self.sweeps[i].get().unwrap().clone()).collect(),
            per_app: (0..self.len()).map(|i| self.per_app[i].get().unwrap().clone()).collect(),
            co,
        })
    }

    /// [`CampaignSession::result`] for one-shot use: consumes the session
    /// and moves the artifacts into the result instead of cloning them.
    pub fn into_result(self, mix: &[f64]) -> Result<CampaignResult, OptimizeError> {
        let co = self.co_optimize(mix)?;
        self.materialize_result_artifacts()?;
        let CampaignSession { names, tables, sweeps, per_app, pins, .. } = self;
        let result = CampaignResult {
            workloads: names,
            tables: tables.into_iter().map(|l| l.into_inner().expect("materialised")).collect(),
            sweeps: sweeps.into_iter().map(|l| l.into_inner().expect("materialised")).collect(),
            per_app: per_app.into_iter().map(|l| l.into_inner().expect("materialised")).collect(),
            co,
        };
        drop(pins); // release the session's store pins
        Ok(result)
    }

    /// Replace the workload at `index` and re-derive *only* its artifacts.
    ///
    /// The slot takes the replacement's name, fingerprint and trace (loaded
    /// or captured — the replacement reference does not outlive this call,
    /// so its trace cannot stay pending), and its table, sweep and
    /// per-application optimum are derived through
    /// [`CampaignSession::table`], [`CampaignSession::sweep`] and
    /// [`CampaignSession::per_app_outcome`], exactly as the session derives
    /// any other slot.  The other workloads' artifacts are left untouched
    /// (and unqueried), so the cost of a mix update is one capture + one
    /// table + one sweep + one solve in the worst case — and zero guest
    /// execution when the replacement's artifacts are already in the store.
    ///
    /// All or nothing: when any derivation fails, slot `index` is restored
    /// to the previous workload and its artifacts, and the error returned.
    /// Call [`CampaignSession::result`] afterwards to re-run the (cheap)
    /// blend + BINLP co-optimization over the updated mix.
    pub fn update_workload(
        &mut self,
        index: usize,
        workload: &(dyn Workload + Send + Sync),
    ) -> Result<(), OptimizeError> {
        assert!(index < self.len(), "workload index {index} out of range");
        let fp = workload.fingerprint();
        self.pins.pin("trace", self.engine.trace_key(fp));
        self.pins.pin("table", self.engine.table_key(fp, &self.engine.space));
        self.pins.pin("sweep", self.engine.sweep_key(fp));
        self.pins.pin("optimum", self.engine.optimum_key(fp));

        let (entry, captured) = self.engine.load_or_capture(workload, fp)?;
        self.bump(captured, |c| (&mut c.trace_captures, &mut c.trace_store_hits));

        let previous = (
            std::mem::replace(&mut self.names[index], workload.name().to_string()),
            std::mem::replace(&mut self.fingerprints[index], fp),
            std::mem::replace(&mut self.traces[index], LazyArtifact::ready(entry)),
            std::mem::replace(&mut self.tables[index], LazyArtifact::pending()),
            std::mem::replace(&mut self.sweeps[index], LazyArtifact::pending()),
            std::mem::replace(&mut self.per_app[index], LazyArtifact::pending()),
        );
        let derived = self
            .table(index)
            .and_then(|_| self.sweep(index))
            .and_then(|_| self.per_app_outcome(index))
            .map(|_| ());
        if derived.is_err() {
            (
                self.names[index],
                self.fingerprints[index],
                self.traces[index],
                self.tables[index],
                self.sweeps[index],
                self.per_app[index],
            ) = previous;
        }
        derived
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{benchmark_suite, Scale};

    fn campaign(threads: usize) -> Campaign {
        Campaign::new()
            .with_space(ParameterSpace::dcache_geometry())
            .with_weights(Weights::runtime_only())
            .with_measurement(MeasurementOptions { max_cycles: 400_000_000, threads })
    }

    #[test]
    fn run_indexed_preserves_order_and_runs_every_job() {
        for threads in [1, 2, 7] {
            let out = run_indexed(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn canonical_shares_normalise_and_scale_invariantly() {
        let a = canonical_shares(&[1.0, 1.0, 0.0, 2.0]).unwrap();
        let b = canonical_shares(&[2.0, 2.0, 0.0, 4.0]).unwrap();
        assert_eq!(a, b, "scalar multiples must canonicalise identically");
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn canonical_shares_scrub_negative_zero() {
        // -0.0 compares equal to 0.0 (so it passes validation) but has a
        // different bit pattern; a canonical share vector must never leak
        // it into a fingerprint
        let shares = canonical_shares(&[-0.0, 1.0]).unwrap();
        assert_eq!(shares[0].to_bits(), 0.0_f64.to_bits(), "share must be +0.0, not -0.0");
        let plain = canonical_shares(&[0.0, 1.0]).unwrap();
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&shares), bits(&plain), "-0.0 and 0.0 weights must key identically");
    }

    #[test]
    fn canonical_shares_reject_degenerate_weight_vectors() {
        let err = |mix: &[f64]| match canonical_shares(mix).unwrap_err() {
            OptimizeError::InvalidMix(m) => m,
            other => panic!("expected InvalidMix, got {other:?}"),
        };
        assert!(err(&[]).contains("empty"));
        assert!(err(&[0.0, 0.0]).contains("zero"));
        assert!(err(&[1.0, -1.0]).contains("non-negative"));
        assert!(err(&[1.0, f64::NAN]).contains("finite"));
        assert!(err(&[1.0, f64::INFINITY]).contains("finite"));
        // every weight finite, but the *sum* overflows to +inf: without the
        // sum check this normalised to all-zero shares and collided with
        // every other overflowing mix in the store
        assert!(err(&[f64::MAX, f64::MAX]).contains("finite"));
    }

    #[test]
    fn effective_threads_prefers_explicit_requests() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn threads_env_values_parse_strictly() {
        assert_eq!(parse_threads_env(""), Ok(None));
        assert_eq!(parse_threads_env("   "), Ok(None));
        assert_eq!(parse_threads_env("0"), Ok(None)); // 0 = one worker per CPU
        assert_eq!(parse_threads_env("4"), Ok(Some(4)));
        assert_eq!(parse_threads_env(" 16 "), Ok(Some(16)));
        for bad in ["all", "-1", "2.5", "4x", "0x2"] {
            let err = parse_threads_env(bad).unwrap_err();
            assert!(
                err.contains("invalid AUTORECONF_THREADS") && err.contains(bad),
                "error for {bad:?} should name the variable and echo the value: {err}"
            );
        }
    }

    #[test]
    fn trace_set_captures_every_workload_once() {
        let suite = benchmark_suite(Scale::Tiny);
        let traces =
            TraceSet::capture(&suite, &LeonConfig::base(), 400_000_000, 2).unwrap();
        assert_eq!(traces.names(), vec!["BLASTN", "DRR", "FRAG", "Arith"]);
        assert!(traces.memory_bytes() > 0);
        for e in &traces.entries {
            assert!(e.base_cycles > 0);
            assert!(e.base_seconds > 0.0);
        }
    }

    #[test]
    fn campaign_runs_end_to_end_and_co_optimum_is_shared() {
        let suite = benchmark_suite(Scale::Tiny);
        let c = campaign(2);
        let result = c.run(&suite, &Campaign::equal_mix(suite.len())).unwrap();
        assert_eq!(result.workloads.len(), 4);
        assert_eq!(result.tables.len(), 4);
        assert_eq!(result.sweeps.len(), 4);
        assert!(result.sweeps.iter().all(|s| s.len() == 28));
        assert_eq!(result.per_app.len(), 4);
        assert_eq!(result.co.per_workload.len(), 4);
        assert!(result.co.fits, "the shared configuration must fit the device");
        assert!(result.co.recommended.validate().is_ok());
        // the runtime-weighted co-optimum must not be worse than the base
        // for the mix as a whole
        assert!(result.co.weighted_relative_runtime <= 1.0 + 1e-12);
        assert!(result.render().contains("co-optimized configuration"));
    }

    #[test]
    fn co_optimum_is_bounded_by_the_exhaustive_sweep_optimum() {
        // over the d-cache geometry space every co-recommended configuration
        // lies inside the exhaustive Figure 2 grid, so no workload can run
        // faster under the shared configuration than under its own
        // exhaustive optimum
        let suite = benchmark_suite(Scale::Tiny);
        let c = campaign(2);
        let result = c.run(&suite, &Campaign::equal_mix(suite.len())).unwrap();
        for (sweep, co) in result.sweeps.iter().zip(&result.co.per_workload) {
            let best = best_runtime_row(sweep).unwrap();
            assert!(
                co.cycles >= best.cycles,
                "{}: shared config ({} cycles) cannot beat the exhaustive optimum ({} cycles)",
                co.name,
                co.cycles,
                best.cycles
            );
        }
    }
}
