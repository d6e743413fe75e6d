//! Experiment drivers that regenerate every table and figure of the paper's
//! evaluation (Figures 2–7) plus the Section 3 search-space accounting.
//!
//! Every driver is a view over one [`CampaignSession`] — the campaign
//! engine's lazily materialised traces, cost tables, sweeps and optima, opened
//! over the benchmark suite with the engine [`ExperimentOptions::engine`]
//! builds.  The paper measures each application once and reuses the
//! measurements across its evaluation; so do the drivers: each workload is
//! captured at most once per session, whichever figures read it, and with a
//! store attached every figure is served from it.
//!
//! Each driver returns a structured result (serialisable, consumed by the
//! benchmark harness and the integration tests) and can render itself as a
//! text table shaped like the corresponding figure in the paper.

use leon_sim::LeonConfig;
use serde::{Deserialize, Serialize};
use workloads::Scale;

use crate::campaign::{Campaign, CampaignResult, CampaignSession};
use crate::dcache_study::{best_runtime_row, DcacheRow};
use crate::formulation::Weights;
use crate::measure::MeasurementOptions;
use crate::optimizer::{OptimizeError, Outcome};
use crate::params::ParameterSpace;
use crate::population::{random_mixes, MixProfile, PopulationOutcome};
use crate::search::{SearchMode, SearchOutcome, SearchSpaceChoice};
use crate::store::ArtifactStore;

/// The workload of Figures 2, 3 and 6.
const BLASTN: &str = "BLASTN";

/// Options shared by all experiment drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Benchmark problem scale.
    pub scale: Scale,
    /// Per-run simulation cycle budget.
    pub max_cycles: u64,
    /// Measurement worker threads (0 = all cores).
    pub threads: usize,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions { scale: Scale::Small, max_cycles: leon_sim::DEFAULT_MAX_CYCLES, threads: 0 }
    }
}

impl ExperimentOptions {
    /// Options sized for fast unit/integration tests.
    pub fn test_sized() -> ExperimentOptions {
        ExperimentOptions { scale: Scale::Tiny, max_cycles: 400_000_000, threads: 0 }
    }

    /// The replay-first measurement configuration every experiment target —
    /// and the campaign service, which must share store keys with them —
    /// derives from these options.
    pub fn measurement(&self) -> MeasurementOptions {
        MeasurementOptions { max_cycles: self.max_cycles, threads: self.threads }
    }

    /// The campaign engine every experiment target and the campaign service
    /// open their session with: the paper's space, runtime-optimised
    /// weights ([`Weights::runtime_optimized`], which Figures 5 and 6 report)
    /// and [`ExperimentOptions::measurement`], rooted on `store` when one is
    /// given.  One engine configuration is what lets every target and the
    /// daemon share store entries.
    pub fn engine(&self, store: Option<ArtifactStore>) -> Campaign {
        let engine = Campaign::new()
            .with_weights(Weights::runtime_optimized())
            .with_measurement(self.measurement());
        match store {
            Some(store) => engine.with_store(store),
            None => engine,
        }
    }
}

/// Index of the workload named `name` in the session's suite.
fn workload_index(session: &CampaignSession, name: &str) -> Result<usize, OptimizeError> {
    session.names().iter().position(|n| n == name).ok_or_else(|| {
        OptimizeError::InvalidMix(format!(
            "unknown workload `{name}` (expected one of: {})",
            session.names().join(", ")
        ))
    })
}

/// The sweep row of the base configuration's d-cache geometry.
fn base_row(rows: &[DcacheRow], base: &LeonConfig) -> DcacheRow {
    rows.iter()
        .find(|r| r.ways == base.dcache.ways && r.way_kb == base.dcache.way_kb)
        .copied()
        .expect("the base geometry is part of the sweep")
}

// ---------------------------------------------------------------------------
// Figure 1 — the reconfigurable parameter space
// ---------------------------------------------------------------------------

/// Render the paper's Figure 1: the reconfigurable parameters, their value
/// counts and the decision-variable numbering.
pub fn fig1_parameter_table() -> String {
    let space = ParameterSpace::paper();
    let mut out = String::new();
    out.push_str("Figure 1: LEON reconfigurable parameters (52 decision variables)\n");
    out.push_str(&format!(
        "{:<6} {:<30} {}\n",
        "var", "perturbation", "enabler (measured together)"
    ));
    for v in space.variables() {
        out.push_str(&format!(
            "x{:<5} {:<30} {}\n",
            v.index,
            v.name,
            v.enabler.map(|e| e.describe()).unwrap_or_else(|| "-".to_string())
        ));
    }
    out.push_str(&format!(
        "\nexhaustive configurations: {} (paper reports {})   one-at-a-time configurations: {}\n",
        ParameterSpace::exhaustive_config_count(),
        ParameterSpace::PAPER_REPORTED_EXHAUSTIVE,
        space.one_at_a_time_config_count()
    ));
    out
}

// ---------------------------------------------------------------------------
// Figure 2 — exhaustive dcache sweep for BLASTN
// ---------------------------------------------------------------------------

/// Result of the Figure 2 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig2Result {
    /// Workload name (BLASTN).
    pub workload: String,
    /// Runtime of the base configuration in seconds.
    pub base_seconds: f64,
    /// All 28 sweep rows (infeasible ones flagged).
    pub rows: Vec<DcacheRow>,
    /// The runtime-optimal feasible row.
    pub optimal: DcacheRow,
}

impl Fig2Result {
    /// Performance gain of the optimal row over the base configuration, in
    /// percent (the paper reports 3.63 % for BLASTN).
    pub fn optimal_gain_pct(&self) -> f64 {
        (self.base_seconds - self.optimal.seconds) * 100.0 / self.base_seconds
    }

    /// Render as a Figure 2-shaped table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Figure 2: {}: exhaustive: dcache sets,setsize\n", self.workload));
        out.push_str(&format!(
            "{:>5} {:>10} {:>14} {:>8} {:>8}\n",
            "nsets", "setsz(KB)", "runtime(sec)", "LUTs(%)", "BRAM(%)"
        ));
        for r in self.rows.iter().filter(|r| r.fits) {
            out.push_str(&format!(
                "{:>5} {:>10} {:>14.4} {:>8} {:>8}\n",
                r.ways, r.way_kb, r.seconds, r.lut_pct, r.bram_pct
            ));
        }
        out.push_str("Optimal runtime\n");
        out.push_str(&format!(
            "{:>5} {:>10} {:>14.4} {:>8} {:>8}   (gain {:.2}% over base)\n",
            self.optimal.ways,
            self.optimal.way_kb,
            self.optimal.seconds,
            self.optimal.lut_pct,
            self.optimal.bram_pct,
            self.optimal_gain_pct()
        ));
        out
    }
}

/// Run the Figure 2 experiment: the exhaustive dcache (sets × set size)
/// sweep for BLASTN — the session's BLASTN sweep.
pub fn fig2(session: &CampaignSession) -> Result<Fig2Result, OptimizeError> {
    let index = workload_index(session, BLASTN)?;
    let rows = session.sweep(index)?.clone();
    let base_seconds = base_row(&rows, session.engine().base()).seconds;
    let optimal = *best_runtime_row(&rows).expect("at least one feasible row");
    Ok(Fig2Result { workload: session.names()[index].clone(), base_seconds, rows, optimal })
}

// ---------------------------------------------------------------------------
// Figures 3 and 4 — dcache optimisation (optimizer vs exhaustive)
// ---------------------------------------------------------------------------

/// Optimiser-vs-exhaustive comparison for one workload over the dcache
/// geometry sub-space (one row group of Figures 3/4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DcacheComparison {
    /// Workload name.
    pub workload: String,
    /// Base-configuration runtime in seconds.
    pub base_seconds: f64,
    /// The one-at-a-time configurations the optimiser evaluated
    /// (ways, way KB, seconds, %LUT, %BRAM) — the body of Figure 3.
    pub evaluated: Vec<DcacheRow>,
    /// Exhaustive runtime optimum.
    pub exhaustive_best: DcacheRow,
    /// dcache geometry selected by the optimiser (ways, way KB).
    pub optimizer_choice: (u8, u32),
    /// Validation run of the optimiser's choice.
    pub optimizer_row: DcacheRow,
    /// Whether the dcache runtime is flat (the paper's "no effect" note for
    /// Arith).
    pub no_effect: bool,
}

impl DcacheComparison {
    /// Runtime gap between the optimiser's choice and the exhaustive optimum,
    /// in percent of the base runtime (0.02 % for BLASTN in the paper).
    pub fn gap_pct(&self) -> f64 {
        (self.optimizer_row.seconds - self.exhaustive_best.seconds) * 100.0 / self.base_seconds
    }
}

/// Result of the Figure 3 experiment (BLASTN) — also reused per-benchmark by
/// Figure 4.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig3Result {
    /// The BLASTN comparison.
    pub comparison: DcacheComparison,
}

impl Fig3Result {
    /// Render as a Figure 3-shaped table.
    pub fn render(&self) -> String {
        let c = &self.comparison;
        let mut out = String::new();
        out.push_str(&format!(
            "Figure 3: {}: optimizer: dcache sets,setsize (w1=100, w2=0)\n",
            c.workload
        ));
        out.push_str(&format!(
            "{:>5} {:>10} {:>14} {:>8} {:>8}\n",
            "sets", "setsz(KB)", "runtime(sec)", "LUTs(%)", "BRAM(%)"
        ));
        for r in &c.evaluated {
            out.push_str(&format!(
                "{:>5} {:>10} {:>14.4} {:>8} {:>8}\n",
                r.ways, r.way_kb, r.seconds, r.lut_pct, r.bram_pct
            ));
        }
        out.push_str(&format!(
            "optimizer selection: {} set(s) of {} KB  -> runtime {:.4}s (exhaustive best {}x{} = {:.4}s, gap {:.3}% of base)\n",
            c.optimizer_choice.0,
            c.optimizer_choice.1,
            c.optimizer_row.seconds,
            c.exhaustive_best.ways,
            c.exhaustive_best.way_kb,
            c.exhaustive_best.seconds,
            c.gap_pct()
        ));
        out
    }
}

/// The optimiser-vs-exhaustive comparison for workload `index`: the
/// session's sweep against a runtime-only solve over the d-cache geometry
/// sub-space, whose cost table the session measures (or loads) from the
/// workload's trace and whose choice is validated by replaying it.
fn dcache_comparison(
    session: &CampaignSession,
    index: usize,
) -> Result<DcacheComparison, OptimizeError> {
    let base = *session.engine().base();
    let model = session.engine().model();
    let rows = session.sweep(index)?;
    let exhaustive_best = *best_runtime_row(rows).expect("feasible rows exist");
    let base_row = base_row(rows, &base);

    let tool = session
        .engine()
        .per_app_tool()
        .with_space(ParameterSpace::dcache_geometry())
        .with_weights(Weights::runtime_only());
    let table = session.table_in(index, tool.space())?;
    let outcome = tool.optimize_with_table_traced(
        &session.names()[index],
        table,
        &session.trace(index)?.trace,
    )?;
    let choice = (outcome.recommended.dcache.ways, outcome.recommended.dcache.way_kb);
    let report = model.synthesize(&outcome.recommended);
    let optimizer_row = DcacheRow {
        ways: choice.0,
        way_kb: choice.1,
        cycles: outcome.validation.cycles,
        seconds: outcome.validation.seconds,
        lut_pct: report.lut_percent,
        bram_pct: report.bram_percent,
        fits: report.fits,
    };

    // the configurations the optimiser evaluated: base + each one-at-a-time
    // perturbation of the dcache geometry (the body of Figure 3)
    let mut evaluated = vec![base_row];
    for cost in &outcome.cost_table.costs {
        let var = tool.space().by_index(cost.index).unwrap();
        let cfg = tool.space().apply(&base, &[var.index]);
        let rep = model.synthesize(&cfg);
        evaluated.push(DcacheRow {
            ways: cfg.dcache.ways,
            way_kb: cfg.dcache.way_kb,
            cycles: cost.cycles,
            seconds: cost.seconds,
            lut_pct: rep.lut_percent,
            bram_pct: rep.bram_percent,
            fits: rep.fits,
        });
    }

    let feasible: Vec<_> = rows.iter().filter(|r| r.fits).collect();
    let no_effect = feasible.iter().all(|r| r.cycles == feasible[0].cycles);

    Ok(DcacheComparison {
        workload: session.names()[index].clone(),
        base_seconds: base_row.seconds,
        evaluated,
        exhaustive_best,
        optimizer_choice: choice,
        optimizer_row,
        no_effect,
    })
}

/// Run the Figure 3 experiment: dcache-only optimisation of BLASTN with
/// runtime-only weights, compared against the exhaustive optimum.
pub fn fig3(session: &CampaignSession) -> Result<Fig3Result, OptimizeError> {
    Ok(Fig3Result { comparison: dcache_comparison(session, workload_index(session, BLASTN)?)? })
}

/// Result of the Figure 4 experiment: the dcache comparison for the other
/// three benchmarks.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Comparisons for DRR, FRAG and Arith (in the paper's order).
    pub comparisons: Vec<DcacheComparison>,
}

impl Fig4Result {
    /// Render as a Figure 4-shaped table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Figure 4: optimizer: dcache sets,setsize (w1=100, w2=0)\n");
        out.push_str(&format!(
            "{:<10} {:>9} {:>5} {:>10} {:>14} {:>6} {:>6}\n",
            "benchmark", "method", "sets", "setsz(KB)", "time(sec)", "LUT%", "BRAM%"
        ));
        for c in &self.comparisons {
            if c.no_effect {
                out.push_str(&format!(
                    "{:<10} No effect, as application is not data intensive\n",
                    c.workload
                ));
                continue;
            }
            let e = &c.exhaustive_best;
            out.push_str(&format!(
                "{:<10} {:>9} {:>5} {:>10} {:>14.4} {:>6} {:>6}\n",
                c.workload, "Exhaust", e.ways, e.way_kb, e.seconds, e.lut_pct, e.bram_pct
            ));
            let o = &c.optimizer_row;
            out.push_str(&format!(
                "{:<10} {:>9} {:>5} {:>10} {:>14.4} {:>6} {:>6}\n",
                c.workload, "Optimiz", o.ways, o.way_kb, o.seconds, o.lut_pct, o.bram_pct
            ));
        }
        out
    }
}

/// Run the Figure 4 experiment: dcache optimisation for every workload of
/// the session but BLASTN — DRR, FRAG and Arith, in suite order.
pub fn fig4(session: &CampaignSession) -> Result<Fig4Result, OptimizeError> {
    let blastn = workload_index(session, BLASTN)?;
    let comparisons =
        session.each(|i| (i != blastn).then(|| dcache_comparison(session, i)).transpose())?;
    Ok(Fig4Result { comparisons: comparisons.into_iter().flatten().collect() })
}

// ---------------------------------------------------------------------------
// Figures 5 and 7 — full-space optimisation
// ---------------------------------------------------------------------------

/// Result of a full-space optimisation experiment over the whole benchmark
/// suite (Figure 5 with runtime weights, Figure 7 with resource weights).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FullSpaceResult {
    /// Objective weights used.
    pub weights: Weights,
    /// One outcome per benchmark, in the paper's order.
    pub outcomes: Vec<Outcome>,
}

impl FullSpaceResult {
    /// Render as a Figure 5 / Figure 7-shaped table.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{title} (w1={}, w2={})\n",
            self.weights.runtime, self.weights.resources
        ));
        // reconfigured parameters
        out.push_str(&format!("{:<28}{:>12}", "param", "base"));
        for o in &self.outcomes {
            out.push_str(&format!("{:>12}", o.workload));
        }
        out.push('\n');
        let params: [(&str, fn(&LeonConfig) -> String); 11] = [
            ("icache setsize (KB)", |c| c.icache.way_kb.to_string()),
            ("icache linesize (words)", |c| c.icache.line_words.to_string()),
            ("dcache sets", |c| c.dcache.ways.to_string()),
            ("dcache setsize (KB)", |c| c.dcache.way_kb.to_string()),
            ("dcache linesize (words)", |c| c.dcache.line_words.to_string()),
            ("dcache replace", |c| c.dcache.replacement.short_name().to_string()),
            ("fast jump", |c| if c.iu.fast_jump { "on" } else { "off" }.to_string()),
            ("icc hold", |c| if c.iu.icc_hold { "on" } else { "off" }.to_string()),
            ("divider", |c| c.iu.divider.short_name().to_string()),
            ("register windows", |c| c.iu.reg_windows.to_string()),
            ("multiplier", |c| c.iu.multiplier.short_name().to_string()),
        ];
        let base = LeonConfig::base();
        for (name, extract) in params {
            out.push_str(&format!("{:<28}", name));
            out.push_str(&format!("{:>12}", extract(&base)));
            for o in &self.outcomes {
                out.push_str(&format!("{:>12}", extract(&o.recommended)));
            }
            out.push('\n');
        }
        out.push_str("Base configuration\n");
        out.push_str(&format!("{:<28}{:>12}", "runtime(sec)", "base"));
        for o in &self.outcomes {
            out.push_str(&format!("{:>12.3}", o.cost_table.base.seconds));
        }
        out.push('\n');
        out.push_str("Cost approximations by the optimizer\n");
        let pred_rows: [(&str, fn(&Outcome) -> f64); 5] = [
            ("runtime(sec)", |o| o.prediction.runtime_seconds),
            ("LUTs%", |o| o.prediction.lut_pct_linear),
            ("LUTs%-nonlin", |o| o.prediction.lut_pct_nonlinear),
            ("BRAM%", |o| o.prediction.bram_pct_nonlinear),
            ("BRAM%-lin", |o| o.prediction.bram_pct_linear),
        ];
        for (name, extract) in pred_rows {
            out.push_str(&format!("{:<28}{:>12}", name, ""));
            for o in &self.outcomes {
                out.push_str(&format!("{:>12.2}", extract(o)));
            }
            out.push('\n');
        }
        out.push_str("Actual synthesis\n");
        out.push_str(&format!("{:<28}{:>12}", "runtime(sec)", ""));
        for o in &self.outcomes {
            out.push_str(&format!("{:>12.3}", o.validation.seconds));
        }
        out.push('\n');
        out.push_str(&format!("{:<28}{:>12}", "LUTs%", ""));
        for o in &self.outcomes {
            out.push_str(&format!("{:>12}", o.validation.lut_pct));
        }
        out.push('\n');
        out.push_str(&format!("{:<28}{:>12}", "BRAM%", ""));
        for o in &self.outcomes {
            out.push_str(&format!("{:>12}", o.validation.bram_pct));
        }
        out.push('\n');
        out.push_str(&format!("{:<28}{:>12}", "runtime gain %", ""));
        for o in &self.outcomes {
            out.push_str(&format!("{:>12.2}", o.runtime_gain_pct()));
        }
        out.push('\n');
        out
    }
}

/// Run the Figure 5 experiment: application runtime optimisation
/// (`w₁=100, w₂=1`, the weights of [`ExperimentOptions::engine`]) over the
/// full 52-variable space for all four benchmarks — the session's
/// per-application optima.
pub fn fig5(session: &CampaignSession) -> Result<FullSpaceResult, OptimizeError> {
    let outcomes = session.each(|i| session.per_app_outcome(i).cloned())?;
    Ok(FullSpaceResult { weights: session.engine().weights(), outcomes })
}

/// Run the Figure 7 experiment: chip resource optimisation (`w₁=1, w₂=100`)
/// — a resource-weighted solve on each workload's session cost table (the
/// one Figure 5 measured), validated by replaying the workload's trace.
pub fn fig7(session: &CampaignSession) -> Result<FullSpaceResult, OptimizeError> {
    let weights = Weights::resource_optimized();
    let tool = session.engine().per_app_tool().with_weights(weights);
    let outcomes = session.each(|i| {
        let table = session.table(i)?.clone();
        tool.optimize_with_table_traced(&session.names()[i], table, &session.trace(i)?.trace)
    })?;
    Ok(FullSpaceResult { weights, outcomes })
}

// ---------------------------------------------------------------------------
// Figure 6 — per-perturbation costs behind BLASTN's runtime optimisation
// ---------------------------------------------------------------------------

/// One row of Figure 6: the measured cost of a single perturbation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Paper variable index.
    pub index: usize,
    /// Perturbation description.
    pub name: String,
    /// Measured runtime in seconds.
    pub seconds: f64,
    /// %LUTs of the perturbed configuration (truncated).
    pub lut_pct: u32,
    /// %BRAM of the perturbed configuration (truncated).
    pub bram_pct: u32,
}

/// Result of the Figure 6 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Workload name (BLASTN).
    pub workload: String,
    /// Base runtime in seconds.
    pub base_seconds: f64,
    /// The measured costs of the perturbations selected by the runtime
    /// optimisation of Figure 5.
    pub rows: Vec<Fig6Row>,
}

impl Fig6Result {
    /// Render as a Figure 6-shaped table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Figure 6: {} runtime optimization costs\n", self.workload));
        out.push_str(&format!(
            "{:<30} {:>14} {:>8} {:>8}\n",
            "param", "runtime(sec)", "LUTs(%)", "BRAM(%)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<30} {:>14.4} {:>8} {:>8}\n",
                r.name, r.seconds, r.lut_pct, r.bram_pct
            ));
        }
        out.push_str(&format!("(base runtime {:.4}s)\n", self.base_seconds));
        out
    }
}

/// Run the Figure 6 experiment: the measured costs of exactly the
/// perturbations BLASTN's runtime optimisation (Figure 5) chose — read from
/// the session's BLASTN optimum.
pub fn fig6(session: &CampaignSession) -> Result<Fig6Result, OptimizeError> {
    let outcome = session.per_app_outcome(workload_index(session, BLASTN)?)?;
    let rows = outcome
        .selected
        .iter()
        .filter_map(|i| outcome.cost_table.by_index(*i))
        .map(|c| Fig6Row {
            index: c.index,
            name: c.name.clone(),
            seconds: c.seconds,
            lut_pct: c.lut_pct.floor() as u32,
            bram_pct: c.bram_pct.floor() as u32,
        })
        .collect();
    Ok(Fig6Result {
        workload: outcome.workload.clone(),
        base_seconds: outcome.cost_table.base.seconds,
        rows,
    })
}

// ---------------------------------------------------------------------------
// Campaign — multi-workload co-optimization (beyond the paper)
// ---------------------------------------------------------------------------

/// Run the full campaign over the session's suite with an equal-share
/// runtime mix: every cost table and Figure 2 sweep, every per-application
/// optimum, and a single configuration co-optimized for the whole mix.  On
/// a warm store every artifact is served from disk (executing zero guest
/// instructions) and only what is missing is recomputed.
pub fn campaign(session: &CampaignSession) -> Result<CampaignResult, OptimizeError> {
    session.result(&Campaign::equal_mix(session.len()))
}

// ---------------------------------------------------------------------------
// Population — fleet-scale mix co-optimization
// ---------------------------------------------------------------------------

/// Where the `population` target's tenant mixes come from.
#[derive(Clone, Debug, PartialEq)]
pub enum PopulationSource {
    /// Explicit tenant profiles (parsed from a `--mixes FILE` document).
    Profiles(Vec<MixProfile>),
    /// `count` deterministic pseudo-random mixes over the served suite
    /// (the `--random N --seed S` flags).
    Random {
        /// How many tenant mixes to generate.
        count: usize,
        /// PRNG seed — the same seed always yields the same population.
        seed: u64,
    },
}

/// Batch co-optimize a population of tenant mixes and reduce them to a
/// Pareto frontier of configurations — the `population` CLI target's entry
/// point.
pub fn population(
    session: &CampaignSession,
    source: &PopulationSource,
    tolerance_pct: f64,
) -> Result<PopulationOutcome, OptimizeError> {
    let profiles = match source {
        PopulationSource::Profiles(profiles) => profiles.clone(),
        PopulationSource::Random { count, seed } => random_mixes(*count, session.len(), *seed),
    };
    session.population(&profiles, tolerance_pct)
}

// ---------------------------------------------------------------------------
// Design-space search — the enumerate-then-prune funnel
// ---------------------------------------------------------------------------

/// Search a shipped candidate space for each requested workload's measured
/// optimum — the `search` CLI target's entry point.  `workload = None`
/// searches the whole suite.
///
/// [`SearchMode::Pruned`] and [`SearchMode::Exhaustive`] return the
/// byte-identical optimum; pruned walk-validates a fraction of the
/// candidates (the `search_budget` suite pins how small).
pub fn search(
    session: &CampaignSession,
    workload: Option<&str>,
    choice: SearchSpaceChoice,
    mode: SearchMode,
) -> Result<Vec<SearchOutcome>, OptimizeError> {
    let indices = match workload {
        None => (0..session.len()).collect(),
        Some(name) => vec![workload_index(session, name)?],
    };
    let sspace = choice.space();
    indices.into_iter().map(|i| session.search(i, &sspace, mode)).collect()
}

// ---------------------------------------------------------------------------
// Section 3 — search-space accounting
// ---------------------------------------------------------------------------

/// Render the Section 3 scale argument (exhaustive vs one-at-a-time).
pub fn space_summary() -> String {
    let space = ParameterSpace::paper();
    format!(
        "Search space: {} exhaustive configurations (paper reports {}) vs {} one-at-a-time \
         configurations (linear in the number of parameter values)\n",
        ParameterSpace::exhaustive_config_count(),
        ParameterSpace::PAPER_REPORTED_EXHAUSTIVE,
        space.one_at_a_time_config_count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_and_space_summary_render() {
        let t = fig1_parameter_table();
        assert!(t.contains("x52"));
        assert!(t.contains("3641573376"));
        let s = space_summary();
        assert!(s.contains("3641573376"));
        assert!(s.contains("52"));
    }

    fn suite() -> Vec<Box<dyn workloads::Workload + Send + Sync>> {
        workloads::benchmark_suite(ExperimentOptions::test_sized().scale)
    }

    #[test]
    fn fig2_finds_an_optimum_no_worse_than_base() {
        let suite = suite();
        let session = ExperimentOptions::test_sized().engine(None).session(&suite).unwrap();
        let r = fig2(&session).unwrap();
        assert_eq!(r.rows.len(), 28);
        assert!(r.optimal.fits);
        assert!(r.optimal_gain_pct() >= 0.0);
        assert!(r.render().contains("Optimal runtime"));
    }

    #[test]
    fn fig6_lists_only_selected_perturbations() {
        let suite = suite();
        let session = ExperimentOptions::test_sized().engine(None).session(&suite).unwrap();
        let r = fig6(&session).unwrap();
        assert!(!r.rows.is_empty());
        assert!(r.render().contains("runtime optimization costs"));
    }
}
