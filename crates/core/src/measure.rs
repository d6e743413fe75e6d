//! One-at-a-time cost measurement.
//!
//! This is the data-gathering phase of the paper's approach (Section 3): for
//! every decision variable, build the perturbed processor configuration,
//! synthesise it to measure the chip-resource deltas (λᵢ %LUTs and βᵢ %BRAM),
//! and execute the application on it to measure the runtime delta (ρᵢ).
//! The paper performs each measurement on real hardware (a ~30-minute FPGA
//! build plus a timed run); here synthesis is analytical and runs are
//! simulated, and the independent measurements are spread across worker
//! threads.
//!
//! The hot path is trace-driven: the application executes in full exactly
//! once (capturing an execution trace, see [`leon_sim::trace`]), and every
//! perturbation is retimed in one batched replay over that trace
//! ([`crate::campaign::replay_batch_indexed`]) instead of re-running the
//! cycle-accurate interpreter.  All 52 Figure 1 variables are
//! trace-invariant today — register-window changes included, because the
//! trace records every `save`/`restore` rotation and replay re-derives the
//! traps — but the classification ([`Variable::is_trace_invariant`]) stays
//! explicit so a future stream-changing parameter falls back to full
//! simulation rather than silently mis-measuring.  Enabler reference
//! measurements and synthesis reports are additionally memoised per
//! configuration, so shared work is done once.

use std::collections::HashMap;
use std::sync::Mutex;

use fpga_model::{SynthesisModel, SynthesisReport};
use leon_sim::{LeonConfig, SimError, Trace};
use serde::{Deserialize, Serialize};
use workloads::Workload;

use crate::params::{ParameterSpace, Variable};

/// Options controlling the measurement phase.
#[derive(Clone, Copy, Debug)]
pub struct MeasurementOptions {
    /// Per-run simulation cycle budget.
    pub max_cycles: u64,
    /// Number of worker threads (0 = one per available CPU).
    pub threads: usize,
    /// Measure trace-invariant perturbations by batched trace replay (the
    /// default; see [`leon_sim::ReplayBatch`]).  Disable to force full
    /// simulation everywhere — the oracle the equivalence tests compare
    /// against, and the baseline of the replay speedup benchmarks.
    pub use_replay: bool,
}

impl Default for MeasurementOptions {
    fn default() -> Self {
        MeasurementOptions {
            max_cycles: leon_sim::DEFAULT_MAX_CYCLES,
            threads: 0,
            use_replay: true,
        }
    }
}

/// Measured costs of the base configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaseCosts {
    /// Runtime in cycles.
    pub cycles: u64,
    /// Runtime in seconds at the nominal clock.
    pub seconds: f64,
    /// Absolute LUT count.
    pub luts: u32,
    /// Absolute BRAM block count.
    pub bram_blocks: u32,
    /// LUT utilisation in percent of the device (exact, not truncated).
    pub lut_pct: f64,
    /// BRAM utilisation in percent of the device (exact, not truncated).
    pub bram_pct: f64,
    /// Percent of the device LUTs still free after the base configuration
    /// (the constant `L` of the paper's resource constraints).
    pub headroom_lut_pct: f64,
    /// Percent of the device BRAM still free after the base configuration
    /// (the constant `B` of the paper's resource constraints).
    pub headroom_bram_pct: f64,
}

/// Measured cost of one perturbation variable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VariableCost {
    /// Paper variable index (1-based).
    pub index: usize,
    /// Human-readable description of the perturbation.
    pub name: String,
    /// Runtime of the perturbed configuration, in cycles.
    pub cycles: u64,
    /// Runtime of the perturbed configuration, in seconds.
    pub seconds: f64,
    /// ρᵢ: runtime delta as a percentage of the base runtime.
    pub rho: f64,
    /// λᵢ: LUT delta as a percentage of the device.
    pub lambda: f64,
    /// βᵢ: BRAM delta as a percentage of the device.
    pub beta: f64,
    /// Absolute LUT utilisation (percent of device, exact).
    pub lut_pct: f64,
    /// Absolute BRAM utilisation (percent of device, exact).
    pub bram_pct: f64,
}

/// The complete one-at-a-time cost table for one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostTable {
    /// Workload name.
    pub workload: String,
    /// Base-configuration costs.
    pub base: BaseCosts,
    /// Per-variable costs, ordered by paper index.
    pub costs: Vec<VariableCost>,
}

impl CostTable {
    /// Look up the cost entry of a paper variable index.
    ///
    /// O(1) for the common case of a contiguously indexed table (both
    /// `ParameterSpace::paper()` and the dcache sub-space are contiguous);
    /// falls back to a binary search over the index-sorted `costs` otherwise.
    pub fn by_index(&self, index: usize) -> Option<&VariableCost> {
        let first = self.costs.first()?.index;
        if let Some(slot) = index.checked_sub(first) {
            if let Some(cost) = self.costs.get(slot) {
                if cost.index == index {
                    return Some(cost);
                }
            }
        }
        self.costs
            .binary_search_by_key(&index, |c| c.index)
            .ok()
            .map(|i| &self.costs[i])
    }

    /// Number of measured configurations (excluding the base).
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when no perturbations were measured.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

fn exact_lut_pct(model: &SynthesisModel, luts: u32) -> f64 {
    luts as f64 * 100.0 / model.device().luts as f64
}

fn exact_bram_pct(model: &SynthesisModel, blocks: u32) -> f64 {
    blocks as f64 * 100.0 / model.device().bram_blocks as f64
}

/// A per-configuration memo of synthesis reports.  The analytical model is
/// cheap, but the measurement phase asks for the same reference
/// configurations over and over (base + enabler for every variable of a
/// one-hot group), so results are computed once and shared across workers.
struct SynthCache<'a> {
    model: &'a SynthesisModel,
    reports: Mutex<HashMap<LeonConfig, SynthesisReport>>,
}

impl<'a> SynthCache<'a> {
    fn new(model: &'a SynthesisModel) -> SynthCache<'a> {
        SynthCache { model, reports: Mutex::new(HashMap::new()) }
    }

    fn synthesize(&self, config: &LeonConfig) -> SynthesisReport {
        if let Some(report) = self.reports.lock().unwrap().get(config) {
            return *report;
        }
        let report = self.model.synthesize(config);
        self.reports.lock().unwrap().insert(*config, report);
        report
    }
}

/// Reference-point measurements (cycles, exact %LUT, exact %BRAM) memoised
/// per enabler configuration; shared by every variable of a one-hot group.
type RefCache = Mutex<HashMap<LeonConfig, (u64, f64, f64)>>;

/// Shared context of one cost-table measurement.
struct MeasureCtx<'a> {
    workload: &'a (dyn Workload + Sync),
    base: &'a LeonConfig,
    base_costs: &'a BaseCosts,
    options: &'a MeasurementOptions,
    synth: &'a SynthCache<'a>,
    references: &'a RefCache,
}

impl MeasureCtx<'_> {
    /// Runtime of `config` in (cycles, seconds), by full verified
    /// simulation.
    fn timed_run(&self, config: &LeonConfig) -> Result<(u64, f64), SimError> {
        let run = workloads::run_verified(self.workload, config, self.options.max_cycles)?;
        Ok((run.stats.cycles, run.seconds))
    }

    /// Reference point of a variable: the base configuration plus its
    /// enabler (if any), so that the additive model `cost(enabler) +
    /// cost(change)` approximates the cost of the combined configuration.
    fn reference_costs(&self, reference: &LeonConfig) -> Result<(u64, f64, f64), SimError> {
        if let Some(costs) = self.references.lock().unwrap().get(reference) {
            return Ok(*costs);
        }
        let report = self.synth.synthesize(reference);
        let (cycles, _) = self.timed_run(reference)?;
        let costs = (
            cycles,
            exact_lut_pct(self.synth.model, report.luts),
            exact_bram_pct(self.synth.model, report.bram_blocks),
        );
        self.references.lock().unwrap().insert(*reference, costs);
        Ok(costs)
    }

    /// Measure one variable by full simulation (the batched kernel covers
    /// every replayable one).
    fn measure_variable(&self, var: &Variable) -> Result<VariableCost, SimError> {
        let mut reference = *self.base;
        if let Some(enabler) = &var.enabler {
            enabler.apply(&mut reference);
        }
        let mut perturbed = reference;
        var.change.apply(&mut perturbed);

        let (ref_cycles, ref_lut_pct, ref_bram_pct) = if var.enabler.is_some() {
            self.reference_costs(&reference)?
        } else {
            (self.base_costs.cycles, self.base_costs.lut_pct, self.base_costs.bram_pct)
        };

        let report = self.synth.synthesize(&perturbed);
        let (cycles, seconds) = self.timed_run(&perturbed)?;
        let lut_pct = exact_lut_pct(self.synth.model, report.luts);
        let bram_pct = exact_bram_pct(self.synth.model, report.bram_blocks);

        Ok(VariableCost {
            index: var.index,
            name: var.name.clone(),
            cycles,
            seconds,
            rho: (cycles as f64 - ref_cycles as f64) * 100.0 / self.base_costs.cycles as f64,
            lambda: lut_pct - ref_lut_pct,
            beta: bram_pct - ref_bram_pct,
            lut_pct,
            bram_pct,
        })
    }
}

fn base_costs_from(model: &SynthesisModel, report: SynthesisReport, cycles: u64, seconds: f64) -> BaseCosts {
    let lut_pct = exact_lut_pct(model, report.luts);
    let bram_pct = exact_bram_pct(model, report.bram_blocks);
    BaseCosts {
        cycles,
        seconds,
        luts: report.luts,
        bram_blocks: report.bram_blocks,
        lut_pct,
        bram_pct,
        headroom_lut_pct: 100.0 - lut_pct,
        headroom_bram_pct: 100.0 - bram_pct,
    }
}

/// Measure the base configuration: one synthesis plus one verified run.
pub fn measure_base(
    workload: &dyn Workload,
    base: &LeonConfig,
    model: &SynthesisModel,
    options: &MeasurementOptions,
) -> Result<BaseCosts, SimError> {
    let report = model.synthesize(base);
    let run = workloads::run_verified(workload, base, options.max_cycles)?;
    Ok(base_costs_from(model, report, run.stats.cycles, run.seconds))
}

/// Measure one variable in isolation with full simulation (no shared trace
/// or memoisation).  `measure_cost_table` is the fast path; this entry point
/// exists for spot measurements and tests.
pub fn measure_variable(
    var: &Variable,
    workload: &(dyn Workload + Sync),
    base: &LeonConfig,
    base_costs: &BaseCosts,
    model: &SynthesisModel,
    options: &MeasurementOptions,
) -> Result<VariableCost, SimError> {
    let synth = SynthCache::new(model);
    let references = RefCache::default();
    let ctx = MeasureCtx {
        workload,
        base,
        base_costs,
        options,
        synth: &synth,
        references: &references,
    };
    ctx.measure_variable(var)
}

/// The shared measurement kernel: retime (or simulate) every variable of the
/// space.  Results land in per-variable slots, so both the table order and
/// error propagation (first failing variable by index) are deterministic
/// regardless of worker scheduling — `threads = 1` and `threads = N` produce
/// byte-identical tables.
///
/// With a trace and replay enabled (the default), every replayable
/// configuration of the table — perturbations and enabler references alike —
/// is retimed through one batched walk per behavior class
/// ([`crate::campaign::replay_batch_indexed`], which fans spans of classes
/// out over the pool, one whole-stream walk per span); otherwise each
/// variable is fully simulated on its own, fanned out per variable.
fn measure_all(
    space: &ParameterSpace,
    workload: &(dyn Workload + Sync),
    base: &LeonConfig,
    model: &SynthesisModel,
    options: &MeasurementOptions,
    trace: Option<&Trace>,
    base_costs: BaseCosts,
) -> Result<CostTable, SimError> {
    let variables = space.variables();
    let synth = SynthCache::new(model);
    let references = RefCache::default();
    let ctx = MeasureCtx {
        workload,
        base,
        base_costs: &base_costs,
        options,
        synth: &synth,
        references: &references,
    };

    if options.use_replay {
        if let Some(trace) = trace {
            let costs = measure_all_batched(variables, &ctx, trace)?;
            return Ok(CostTable {
                workload: workload.name().to_string(),
                base: base_costs,
                costs,
            });
        }
    }

    let results = crate::campaign::run_indexed(variables.len(), options.threads, |i| {
        ctx.measure_variable(&variables[i])
    });
    let mut costs = Vec::with_capacity(variables.len());
    for result in results {
        costs.push(result?);
    }
    Ok(CostTable { workload: workload.name().to_string(), base: base_costs, costs })
}

/// The batched measurement kernel: collect every *unique* configuration the
/// replayable variables need timed — each perturbation, plus each distinct
/// enabler reference — retime them all with one trace walk per behavior
/// class, then assemble the per-variable costs closed-form.
///
/// Bit-identical to the per-variable full-simulation path, including error
/// order: variables are assembled in index order and each variable surfaces
/// its reference's error before its perturbation's, exactly as
/// `measure_variable` evaluates them.  Non-replayable variables (none exist
/// in today's Figure 1 space, but the classification stays explicit) fall
/// back to per-variable full simulation on the pool.
fn measure_all_batched(
    variables: &[Variable],
    ctx: &MeasureCtx<'_>,
    trace: &Trace,
) -> Result<Vec<VariableCost>, SimError> {
    struct Plan {
        replayable: bool,
        reference: LeonConfig,
        /// Batch slot of the reference run; `None` when the variable has no
        /// enabler (its reference is the already-measured base).
        reference_slot: Option<usize>,
        perturbed: LeonConfig,
        perturbed_slot: Option<usize>,
    }

    fn intern(
        config: LeonConfig,
        unique: &mut Vec<LeonConfig>,
        slots: &mut HashMap<LeonConfig, usize>,
    ) -> usize {
        *slots.entry(config).or_insert_with(|| {
            unique.push(config);
            unique.len() - 1
        })
    }

    let mut unique: Vec<LeonConfig> = Vec::new();
    let mut slots: HashMap<LeonConfig, usize> = HashMap::new();
    let plans: Vec<Plan> = variables
        .iter()
        .map(|var| {
            let replayable = var.is_trace_invariant();
            let mut reference = *ctx.base;
            if let Some(enabler) = &var.enabler {
                enabler.apply(&mut reference);
            }
            let mut perturbed = reference;
            var.change.apply(&mut perturbed);
            let (reference_slot, perturbed_slot) = if replayable {
                (
                    var.enabler.is_some().then(|| intern(reference, &mut unique, &mut slots)),
                    Some(intern(perturbed, &mut unique, &mut slots)),
                )
            } else {
                (None, None)
            };
            Plan { replayable, reference, reference_slot, perturbed, perturbed_slot }
        })
        .collect();

    // one batched walk per behavior class, classes spread over the pool
    let retimed = crate::campaign::replay_batch_indexed(
        trace,
        &unique,
        ctx.options.max_cycles,
        ctx.options.threads,
    );

    // non-replayable variables fall back to per-variable full simulation
    let fallback_vars: Vec<usize> =
        plans.iter().enumerate().filter(|(_, p)| !p.replayable).map(|(i, _)| i).collect();
    let fallback = crate::campaign::run_indexed(fallback_vars.len(), ctx.options.threads, |j| {
        ctx.measure_variable(&variables[fallback_vars[j]])
    });
    let mut fallback = fallback.into_iter();

    let mut costs = Vec::with_capacity(variables.len());
    for (var, plan) in variables.iter().zip(&plans) {
        if !plan.replayable {
            costs.push(fallback.next().expect("one fallback result per non-replayable var")?);
            continue;
        }
        let (ref_cycles, ref_lut_pct, ref_bram_pct) = match plan.reference_slot {
            None => (ctx.base_costs.cycles, ctx.base_costs.lut_pct, ctx.base_costs.bram_pct),
            Some(slot) => {
                let cycles = retimed[slot].as_ref().map_err(Clone::clone)?.cycles;
                let report = ctx.synth.synthesize(&plan.reference);
                (
                    cycles,
                    exact_lut_pct(ctx.synth.model, report.luts),
                    exact_bram_pct(ctx.synth.model, report.bram_blocks),
                )
            }
        };
        let report = ctx.synth.synthesize(&plan.perturbed);
        let slot = plan.perturbed_slot.expect("replayable variables are always interned");
        let cycles = retimed[slot].as_ref().map_err(Clone::clone)?.cycles;
        let lut_pct = exact_lut_pct(ctx.synth.model, report.luts);
        let bram_pct = exact_bram_pct(ctx.synth.model, report.bram_blocks);
        costs.push(VariableCost {
            index: var.index,
            name: var.name.clone(),
            cycles,
            seconds: plan.perturbed.cycles_to_seconds(cycles),
            rho: (cycles as f64 - ref_cycles as f64) * 100.0 / ctx.base_costs.cycles as f64,
            lambda: lut_pct - ref_lut_pct,
            beta: bram_pct - ref_bram_pct,
            lut_pct,
            bram_pct,
        });
    }
    Ok(costs)
}

/// Measure the full one-at-a-time cost table for `workload`.
///
/// The application is fully simulated once (capturing its execution trace);
/// trace-invariant perturbations are then retimed by replay, the rest by
/// full simulation, with the independent measurements spread across worker
/// threads.
pub fn measure_cost_table(
    space: &ParameterSpace,
    workload: &(dyn Workload + Sync),
    base: &LeonConfig,
    model: &SynthesisModel,
    options: &MeasurementOptions,
) -> Result<CostTable, SimError> {
    let (base_costs, trace) = if options.use_replay {
        let base_report = model.synthesize(base);
        let (run, trace) = workloads::capture_verified(workload, base, options.max_cycles)?;
        (base_costs_from(model, base_report, run.stats.cycles, run.seconds), Some(trace))
    } else {
        (measure_base(workload, base, model, options)?, None)
    };
    measure_all(space, workload, base, model, options, trace.as_ref(), base_costs)
}

/// Measure the cost table from an already-captured trace (the campaign-engine
/// entry point: one [`crate::campaign::TraceSet`] capture serves every study
/// of a session, so the workload is never re-executed here).
///
/// The trace must have been captured on `base`; base costs are reconstructed
/// by replaying the trace on its own capture configuration, which is
/// bit-identical to the capturing run.
pub fn measure_cost_table_traced(
    space: &ParameterSpace,
    workload: &(dyn Workload + Sync),
    base: &LeonConfig,
    model: &SynthesisModel,
    options: &MeasurementOptions,
    trace: &Trace,
) -> Result<CostTable, SimError> {
    let base_report = model.synthesize(base);
    let base_stats = leon_sim::replay(trace, base, options.max_cycles)?;
    let base_costs = base_costs_from(
        model,
        base_report,
        base_stats.cycles,
        base.cycles_to_seconds(base_stats.cycles),
    );
    measure_all(space, workload, base, model, options, Some(trace), base_costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Arith, Blastn, Scale};

    fn options() -> MeasurementOptions {
        MeasurementOptions { max_cycles: 100_000_000, threads: 2, use_replay: true }
    }

    fn no_replay() -> MeasurementOptions {
        MeasurementOptions { use_replay: false, ..options() }
    }

    #[test]
    fn base_measurement_matches_synthesis_and_run() {
        let w = Arith::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let b = measure_base(&w, &base, &model, &options()).unwrap();
        assert_eq!(b.luts, 14_992);
        assert_eq!(b.bram_blocks, 82);
        assert!(b.cycles > 10_000);
        assert!(b.headroom_lut_pct > 60.0);
        assert!(b.headroom_bram_pct > 48.0);
    }

    #[test]
    fn cost_table_covers_the_whole_space_and_is_deterministic() {
        let w = Arith::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let space = ParameterSpace::dcache_geometry();
        let t1 = measure_cost_table(&space, &w, &base, &model, &options()).unwrap();
        let t2 = measure_cost_table(&space, &w, &base, &model, &options()).unwrap();
        assert_eq!(t1.len(), space.len());
        assert_eq!(t1.costs, t2.costs, "parallel measurement must be deterministic");
        // Arith is not data intensive: every dcache perturbation has zero
        // runtime delta (the paper's Figure 4 observation)
        assert!(t1.costs.iter().all(|c| c.rho.abs() < 1e-9));
        // but shrinking the dcache saves BRAM and growing it costs BRAM
        let smaller = t1.by_index(15).unwrap(); // dcache 1 KB way
        let larger = t1.by_index(19).unwrap(); // dcache 32 KB way
        assert!(smaller.beta < 0.0);
        assert!(larger.beta > 0.0);
    }

    #[test]
    fn replay_and_full_simulation_produce_identical_cost_tables() {
        let w = Blastn::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let space = ParameterSpace::paper();
        let fast = measure_cost_table(&space, &w, &base, &model, &options()).unwrap();
        let slow = measure_cost_table(&space, &w, &base, &model, &no_replay()).unwrap();
        assert_eq!(fast.base, slow.base);
        assert_eq!(fast.costs, slow.costs, "replay must be bit-identical to full simulation");
    }

    #[test]
    fn traced_cost_table_is_identical_to_the_capture_path() {
        let w = Blastn::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let space = ParameterSpace::dcache_geometry();
        let (_, trace) = workloads::capture_verified(&w, &base, options().max_cycles).unwrap();
        let traced =
            measure_cost_table_traced(&space, &w, &base, &model, &options(), &trace).unwrap();
        let direct = measure_cost_table(&space, &w, &base, &model, &options()).unwrap();
        assert_eq!(traced.base, direct.base);
        assert_eq!(traced.costs, direct.costs, "shared-trace measurement must be bit-identical");
    }

    #[test]
    fn by_index_is_direct_and_complete() {
        let w = Arith::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let space = ParameterSpace::dcache_geometry();
        let t = measure_cost_table(&space, &w, &base, &model, &options()).unwrap();
        for v in space.variables() {
            assert_eq!(t.by_index(v.index).unwrap().index, v.index);
        }
        assert!(t.by_index(11).is_none());
        assert!(t.by_index(20).is_none());
        assert!(t.by_index(0).is_none());
    }

    #[test]
    fn enabler_variables_measure_relative_to_their_enabler() {
        let w = Arith::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let space = ParameterSpace::paper();
        let lrr = space.by_index(21).unwrap();
        let base_costs = measure_base(&w, &base, &model, &options()).unwrap();
        let cost = measure_variable(lrr, &w, &base, &base_costs, &model, &options()).unwrap();
        // replacement policy alone costs (almost) nothing in resources
        assert!(cost.beta.abs() < 1.0);
        assert!(cost.lambda.abs() < 1.0);
    }
}
