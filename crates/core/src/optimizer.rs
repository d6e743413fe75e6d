//! The end-to-end automatic reconfiguration pipeline.
//!
//! [`AutoReconfigurator`] glues the stages of the paper's approach together:
//!
//! 1. measure the one-at-a-time cost table (one simulated run captures the
//!    application's trace, replay retimes every perturbation, and synthesis
//!    is analytical);
//! 2. formulate the constrained BINLP (Section 4);
//! 3. solve it with branch-and-bound (standing in for Tomlab /MINLP);
//! 4. decode the solution into a recommended [`LeonConfig`];
//! 5. validate the recommendation by synthesising it and replaying the
//!    captured trace on it — bit-identical to building and running it —
//!    reporting both the optimiser's cost approximations and the actual
//!    measurements (the two halves of the paper's Figures 5 and 7).

use binlp::SolveStats;
use fpga_model::SynthesisModel;
use leon_sim::{LeonConfig, SimError, Trace};
use serde::{Deserialize, Serialize};
use workloads::Workload;

use crate::formulation::{formulate, predict, FormulationOptions, Prediction, Weights};
use crate::measure::{measure_cost_table_traced, CostTable, MeasurementOptions};
use crate::params::ParameterSpace;

/// Actual (validation) measurements of the recommended configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Validation {
    /// Runtime of the recommended configuration, in cycles.
    pub cycles: u64,
    /// Runtime of the recommended configuration, in seconds.
    pub seconds: f64,
    /// Runtime change relative to the base configuration, in percent
    /// (negative = faster).
    pub runtime_delta_pct: f64,
    /// Synthesised LUT utilisation (percent of device, truncated as in the
    /// paper's tables).
    pub lut_pct: u32,
    /// Synthesised BRAM utilisation (percent of device, truncated).
    pub bram_pct: u32,
    /// Whether the recommended configuration fits the device.
    pub fits: bool,
}

/// The result of one optimisation run for one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Outcome {
    /// Application name.
    pub workload: String,
    /// Objective weights used.
    pub weights: Weights,
    /// The measured one-at-a-time cost table.
    pub cost_table: CostTable,
    /// Selected decision variables (paper indices, ascending).
    pub selected: Vec<usize>,
    /// Human-readable descriptions of the selected changes.
    pub changes: Vec<String>,
    /// The recommended configuration.
    pub recommended: LeonConfig,
    /// The optimiser's cost approximations for the recommendation.
    pub prediction: Prediction,
    /// Actual measurements of the recommendation: its synthesis and a replay
    /// of the captured trace on it (bit-identical to building and running
    /// it).
    pub validation: Validation,
    /// Solver statistics.
    pub solver: SolveStats,
}

impl Outcome {
    /// Runtime improvement over the base configuration in percent
    /// (positive = faster), as the paper reports it.
    pub fn runtime_gain_pct(&self) -> f64 {
        -self.validation.runtime_delta_pct
    }

    /// Predicted runtime improvement in percent (positive = faster).
    pub fn predicted_gain_pct(&self) -> f64 {
        -self.prediction.runtime_delta_pct
    }
}

/// Errors from the optimisation pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum OptimizeError {
    /// A simulation failed while measuring costs or validating.
    Simulation(SimError),
    /// The solver found no feasible configuration.
    Infeasible,
    /// A workload mix (or other request parameter) failed validation —
    /// e.g. a negative/non-finite weight, a weight sum that is zero or
    /// overflows to infinity, or a mix whose arity does not match the
    /// suite.  Wire-reachable inputs must surface this as an error, never
    /// a panic or a silently mis-keyed store entry.
    InvalidMix(String),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Simulation(e) => write!(f, "simulation failed: {e}"),
            OptimizeError::Infeasible => write!(f, "no feasible configuration satisfies the constraints"),
            OptimizeError::InvalidMix(m) => write!(f, "invalid mix: {m}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<SimError> for OptimizeError {
    fn from(e: SimError) -> Self {
        OptimizeError::Simulation(e)
    }
}

/// The automatic application-specific reconfiguration tool.
#[derive(Clone, Debug)]
pub struct AutoReconfigurator {
    space: ParameterSpace,
    base: LeonConfig,
    model: SynthesisModel,
    weights: Weights,
    formulation: FormulationOptions,
    measurement: MeasurementOptions,
}

impl Default for AutoReconfigurator {
    fn default() -> Self {
        AutoReconfigurator::new()
    }
}

impl AutoReconfigurator {
    /// A reconfigurator over the paper's full 52-variable space, optimising
    /// runtime over resources (`w₁=100, w₂=1`), starting from the base LEON
    /// configuration on an XCV2000E.
    pub fn new() -> AutoReconfigurator {
        AutoReconfigurator {
            space: ParameterSpace::paper(),
            base: LeonConfig::base(),
            model: SynthesisModel::default(),
            weights: Weights::runtime_optimized(),
            formulation: FormulationOptions::default(),
            measurement: MeasurementOptions::default(),
        }
    }

    /// Restrict the search to a different parameter space.
    pub fn with_space(mut self, space: ParameterSpace) -> Self {
        self.space = space;
        self
    }

    /// Change the base configuration the search starts from.
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

    /// The parameter space being explored.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// The base configuration.
    pub fn base(&self) -> &LeonConfig {
        &self.base
    }

    /// Run the full measure → formulate → solve → validate pipeline for an
    /// application.  The application executes once, capturing its trace on
    /// the base configuration; measurement and validation both replay it.
    pub fn optimize(&self, workload: &(dyn Workload + Sync)) -> Result<Outcome, OptimizeError> {
        let (_, trace) =
            workloads::capture_verified(workload, &self.base, self.measurement.max_cycles)?;
        let table = measure_cost_table_traced(
            &self.space,
            workload.name(),
            &self.base,
            &self.model,
            &self.measurement,
            &trace,
        )?;
        self.optimize_with_table_traced(workload.name(), table, &trace)
    }

    /// Run formulate → solve → validate on a previously measured cost table,
    /// validating the recommendation by replaying `trace`, an
    /// already-captured trace of the base configuration — bit-identical to
    /// building and running it.  This is the campaign engine's
    /// per-application path: with a shared [`crate::campaign::TraceSet`], a
    /// whole per-application pipeline runs without executing a single guest
    /// instruction.
    pub fn optimize_with_table_traced(
        &self,
        workload_name: &str,
        table: CostTable,
        trace: &Trace,
    ) -> Result<Outcome, OptimizeError> {
        let formulation = formulate(&self.space, &table, self.weights, self.formulation);
        let solution = binlp::solve(&formulation.problem).map_err(|_| OptimizeError::Infeasible)?;
        let mut selected = formulation.selected_indices(&solution.assignment);
        selected.sort_unstable();

        let recommended = self.space.apply(&self.base, &selected);
        let prediction = predict(&self.space, &table, &selected);

        // validation: synthesise the recommendation and time it
        let report = self.model.synthesize(&recommended);
        let cycles = leon_sim::replay(trace, &recommended, self.measurement.max_cycles)?.cycles;
        let validation = Validation {
            cycles,
            seconds: recommended.cycles_to_seconds(cycles),
            runtime_delta_pct: (cycles as f64 - table.base.cycles as f64) * 100.0
                / table.base.cycles as f64,
            lut_pct: report.lut_percent,
            bram_pct: report.bram_percent,
            fits: report.fits,
        };

        let changes = selected
            .iter()
            .filter_map(|i| self.space.by_index(*i).map(|v| v.name.clone()))
            .collect();

        Ok(Outcome {
            workload: workload_name.to_string(),
            weights: self.weights,
            cost_table: table,
            selected,
            changes,
            recommended,
            prediction,
            validation,
            solver: solution.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Arith, Blastn, Scale};

    fn fast_measurement() -> MeasurementOptions {
        MeasurementOptions { max_cycles: 200_000_000, threads: 0 }
    }

    #[test]
    fn recommended_configurations_are_always_valid_and_fit() {
        let tool = AutoReconfigurator::new()
            .with_space(ParameterSpace::dcache_geometry())
            .with_weights(Weights::runtime_only())
            .with_measurement(fast_measurement());
        let w = Blastn::scaled(Scale::Tiny);
        let outcome = tool.optimize(&w).unwrap();
        assert!(outcome.recommended.validate().is_ok());
        assert!(outcome.validation.fits);
        assert!(outcome.solver.proven_optimal);
    }

    #[test]
    fn runtime_weighting_never_recommends_a_slower_configuration() {
        let tool = AutoReconfigurator::new()
            .with_space(ParameterSpace::dcache_geometry())
            .with_weights(Weights::runtime_only())
            .with_measurement(fast_measurement());
        let w = Blastn::scaled(Scale::Tiny);
        let outcome = tool.optimize(&w).unwrap();
        assert!(
            outcome.validation.cycles <= outcome.cost_table.base.cycles,
            "runtime optimisation must not slow the application down"
        );
    }

    #[test]
    fn arith_dcache_optimisation_changes_nothing_for_runtime() {
        // the paper's Figure 4: "No effect, as application is not data
        // intensive" — with runtime-only weights the optimiser has no reason
        // to select any dcache change
        let tool = AutoReconfigurator::new()
            .with_space(ParameterSpace::dcache_geometry())
            .with_weights(Weights::runtime_only())
            .with_measurement(fast_measurement());
        let w = Arith::scaled(Scale::Tiny);
        let outcome = tool.optimize(&w).unwrap();
        assert!(
            outcome.predicted_gain_pct().abs() < 1e-9,
            "no runtime gain should be predicted for Arith from dcache changes"
        );
    }

    #[test]
    fn traced_validation_is_bit_identical_to_full_simulation() {
        let tool = AutoReconfigurator::new()
            .with_space(ParameterSpace::dcache_geometry())
            .with_weights(Weights::runtime_only())
            .with_measurement(fast_measurement());
        let w = Blastn::scaled(Scale::Tiny);
        let outcome = tool.optimize(&w).unwrap();
        // the simulator is the oracle: build and run the recommendation
        let run =
            workloads::run_verified(&w, &outcome.recommended, fast_measurement().max_cycles)
                .unwrap();
        assert_eq!(
            (outcome.validation.cycles, outcome.validation.seconds),
            (run.stats.cycles, run.seconds),
            "replay validation must be bit-identical to running the recommendation"
        );
    }

    #[test]
    fn resource_weighting_reduces_resources() {
        let tool = AutoReconfigurator::new()
            .with_space(ParameterSpace::dcache_geometry())
            .with_weights(Weights::resource_optimized())
            .with_measurement(fast_measurement());
        let w = Arith::scaled(Scale::Tiny);
        let outcome = tool.optimize(&w).unwrap();
        let base_bram = outcome.cost_table.base.bram_pct;
        assert!(
            (outcome.validation.bram_pct as f64) < base_bram,
            "resource optimisation should shrink the data cache (bram {} >= base {base_bram})",
            outcome.validation.bram_pct
        );
    }
}
