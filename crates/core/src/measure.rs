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
//! The application executes in full exactly once, capturing an execution
//! trace (see [`leon_sim::trace`]); every perturbation, and every distinct
//! enabler reference, is then retimed in one batched replay over that trace
//! ([`crate::campaign::replay_batch_indexed`]) instead of re-running the
//! cycle-accurate interpreter.  Replay is bit-identical to full simulation
//! on every configuration of the space — register-window changes included,
//! because the trace records every `save`/`restore` rotation and replay
//! re-derives the traps — and the tests hold each retimed cost against a
//! full simulation of its configuration.

use std::collections::HashMap;

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
}

impl Default for MeasurementOptions {
    fn default() -> Self {
        MeasurementOptions {
            max_cycles: leon_sim::DEFAULT_MAX_CYCLES,
            threads: 0,
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

/// The measurement kernel: collect every *unique* configuration the table
/// times — each perturbation, plus each distinct enabler reference — retime
/// them all with one trace walk per behavior class (spans of classes fan out
/// over the pool), then assemble the per-variable costs closed-form.
///
/// Costs land in per-variable slots, so both the table order and error
/// propagation (first failing variable by index; a variable surfaces its
/// reference's error before its perturbation's) are deterministic
/// regardless of worker scheduling — `threads = 1` and `threads = N`
/// produce byte-identical tables.
fn measure_all(
    variables: &[Variable],
    base: &LeonConfig,
    base_costs: &BaseCosts,
    model: &SynthesisModel,
    options: &MeasurementOptions,
    trace: &Trace,
) -> Result<Vec<VariableCost>, SimError> {
    struct Plan {
        /// The enabler reference and its batch slot; `None` when the
        /// variable has no enabler (its reference is the measured base).
        reference: Option<(LeonConfig, usize)>,
        perturbed: LeonConfig,
        slot: usize,
    }

    let mut unique: Vec<LeonConfig> = Vec::new();
    let mut slots: HashMap<LeonConfig, usize> = HashMap::new();
    let mut intern = |config: LeonConfig| {
        *slots.entry(config).or_insert_with(|| {
            unique.push(config);
            unique.len() - 1
        })
    };
    let plans: Vec<Plan> = variables
        .iter()
        .map(|var| {
            let mut reference = *base;
            if let Some(enabler) = &var.enabler {
                enabler.apply(&mut reference);
            }
            let mut perturbed = reference;
            var.change.apply(&mut perturbed);
            Plan {
                reference: var.enabler.is_some().then(|| (reference, intern(reference))),
                perturbed,
                slot: intern(perturbed),
            }
        })
        .collect();

    let retimed =
        crate::campaign::replay_batch_indexed(trace, &unique, options.max_cycles, options.threads);
    let retimed_cycles = |slot: usize| {
        retimed[slot].as_ref().map(|stats| stats.cycles).map_err(Clone::clone)
    };

    variables
        .iter()
        .zip(&plans)
        .map(|(var, plan)| {
            let (ref_cycles, ref_lut_pct, ref_bram_pct) = match plan.reference {
                None => (base_costs.cycles, base_costs.lut_pct, base_costs.bram_pct),
                Some((reference, slot)) => {
                    let report = model.synthesize(&reference);
                    (
                        retimed_cycles(slot)?,
                        exact_lut_pct(model, report.luts),
                        exact_bram_pct(model, report.bram_blocks),
                    )
                }
            };
            let cycles = retimed_cycles(plan.slot)?;
            let report = model.synthesize(&plan.perturbed);
            let lut_pct = exact_lut_pct(model, report.luts);
            let bram_pct = exact_bram_pct(model, report.bram_blocks);
            Ok(VariableCost {
                index: var.index,
                name: var.name.clone(),
                cycles,
                seconds: plan.perturbed.cycles_to_seconds(cycles),
                rho: (cycles as f64 - ref_cycles as f64) * 100.0 / base_costs.cycles as f64,
                lambda: lut_pct - ref_lut_pct,
                beta: bram_pct - ref_bram_pct,
                lut_pct,
                bram_pct,
            })
        })
        .collect()
}

/// Measure the full one-at-a-time cost table for `workload`.
///
/// The application is fully simulated once, on `base`, capturing its
/// execution trace; the table is then measured from that trace
/// ([`measure_cost_table_traced`]), with the independent retimings spread
/// across worker threads.
pub fn measure_cost_table(
    space: &ParameterSpace,
    workload: &(dyn Workload + Sync),
    base: &LeonConfig,
    model: &SynthesisModel,
    options: &MeasurementOptions,
) -> Result<CostTable, SimError> {
    let (_, trace) = workloads::capture_verified(workload, base, options.max_cycles)?;
    measure_cost_table_traced(space, workload, base, model, options, &trace)
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
    let costs = measure_all(space.variables(), base, &base_costs, model, options, trace)?;
    Ok(CostTable { workload: workload.name().to_string(), base: base_costs, costs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Arith, Blastn, Scale};

    fn options() -> MeasurementOptions {
        MeasurementOptions { max_cycles: 100_000_000, threads: 2 }
    }

    #[test]
    fn base_measurement_matches_synthesis_and_run() {
        let w = Arith::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let space = ParameterSpace::dcache_geometry();
        let b = measure_cost_table(&space, &w, &base, &model, &options()).unwrap().base;
        let report = model.synthesize(&base);
        let run = workloads::run_verified(&w, &base, options().max_cycles).unwrap();
        assert_eq!((b.luts, b.bram_blocks), (report.luts, report.bram_blocks));
        assert_eq!((b.cycles, b.seconds), (run.stats.cycles, run.seconds));
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
        // the simulator is the oracle: each configuration the table retimes
        // must time exactly as a full verified run of that configuration
        let w = Blastn::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let space = ParameterSpace::paper();
        let table = measure_cost_table(&space, &w, &base, &model, &options()).unwrap();

        let mut runs: HashMap<LeonConfig, (u64, f64)> = HashMap::new();
        let mut run = |config: LeonConfig| {
            *runs.entry(config).or_insert_with(|| {
                let run = workloads::run_verified(&w, &config, options().max_cycles).unwrap();
                (run.stats.cycles, run.seconds)
            })
        };
        let (base_cycles, base_seconds) = run(base);
        assert_eq!((table.base.cycles, table.base.seconds), (base_cycles, base_seconds));
        for var in space.variables() {
            let mut reference = base;
            if let Some(enabler) = &var.enabler {
                enabler.apply(&mut reference);
            }
            let mut perturbed = reference;
            var.change.apply(&mut perturbed);
            let (ref_cycles, _) = run(reference);
            let (cycles, seconds) = run(perturbed);
            let cost = table.by_index(var.index).unwrap();
            assert_eq!(
                (cost.cycles, cost.seconds),
                (cycles, seconds),
                "x{} ({}): replay must equal full simulation",
                var.index,
                var.name
            );
            let rho = (cycles as f64 - ref_cycles as f64) * 100.0 / base_cycles as f64;
            assert_eq!(cost.rho, rho, "x{} ({}): rho from the simulated runs", var.index, var.name);
        }
    }

    #[test]
    fn traced_cost_table_is_identical_to_the_capture_path() {
        let w = Blastn::scaled(Scale::Tiny);
        let model = SynthesisModel::default();
        let base = LeonConfig::base();
        let space = ParameterSpace::dcache_geometry();
        let (run, trace) = workloads::capture_verified(&w, &base, options().max_cycles).unwrap();
        let traced =
            measure_cost_table_traced(&space, &w, &base, &model, &options(), &trace).unwrap();
        let direct = measure_cost_table(&space, &w, &base, &model, &options()).unwrap();
        assert_eq!(traced.base, direct.base);
        assert_eq!(traced.costs, direct.costs, "shared-trace measurement must be bit-identical");
        // replaying the capture configuration reproduces the capturing run
        assert_eq!((traced.base.cycles, traced.base.seconds), (run.stats.cycles, run.seconds));
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
        let table = measure_cost_table(&space, &w, &base, &model, &options()).unwrap();
        let lrr = space.by_index(21).unwrap();
        let cost = table.by_index(21).unwrap();
        // resource deltas are taken against base + enabler, not the base
        let mut reference = base;
        lrr.enabler.as_ref().expect("LRR needs a 2-way d-cache").apply(&mut reference);
        let report = model.synthesize(&reference);
        assert_eq!(cost.lambda, cost.lut_pct - exact_lut_pct(&model, report.luts));
        assert_eq!(cost.beta, cost.bram_pct - exact_bram_pct(&model, report.bram_blocks));
        // replacement policy alone costs (almost) nothing in resources
        assert!(cost.beta.abs() < 1.0);
        assert!(cost.lambda.abs() < 1.0);
    }
}
