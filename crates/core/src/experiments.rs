//! Experiment drivers that regenerate every table and figure of the paper's
//! evaluation (Figures 2–7) plus the Section 3 search-space accounting.
//!
//! Each driver returns a structured result (serialisable, consumed by the
//! benchmark harness and the integration tests) and can render itself as a
//! text table shaped like the corresponding figure in the paper.

use fpga_model::SynthesisModel;
use leon_sim::LeonConfig;
use serde::{Deserialize, Serialize};
use workloads::{Arith, Blastn, Drr, Frag, Scale, Workload};

use crate::campaign::{run_indexed, Campaign, CampaignResult};
use crate::dcache_study::{best_runtime_row, dcache_exhaustive, DcacheRow};
use crate::population::{random_mixes, MixProfile, PopulationOutcome};
use crate::formulation::Weights;
use crate::measure::MeasurementOptions;
use crate::optimizer::{AutoReconfigurator, Outcome, OptimizeError};
use crate::params::ParameterSpace;

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
        MeasurementOptions { max_cycles: self.max_cycles, threads: self.threads, use_replay: true }
    }
}

fn suite(scale: Scale) -> Vec<Box<dyn Workload + Send + Sync>> {
    workloads::benchmark_suite(scale)
}

fn blastn(scale: Scale) -> Blastn {
    Blastn::scaled(scale)
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

/// Run the Figure 2 experiment: exhaustive dcache (sets × set size) sweep for
/// BLASTN.
pub fn fig2(options: &ExperimentOptions) -> Result<Fig2Result, OptimizeError> {
    let w = blastn(options.scale);
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let rows = dcache_exhaustive(&w, &base, &model, options.max_cycles, options.threads)?;
    let base_row = rows
        .iter()
        .find(|r| r.ways == base.dcache.ways && r.way_kb == base.dcache.way_kb)
        .copied()
        .expect("the base geometry is part of the sweep");
    let optimal = *best_runtime_row(&rows).expect("at least one feasible row");
    Ok(Fig2Result { workload: w.name().to_string(), base_seconds: base_row.seconds, rows, optimal })
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

fn dcache_comparison(
    workload: &(dyn Workload + Sync),
    options: &ExperimentOptions,
) -> Result<DcacheComparison, OptimizeError> {
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let rows = dcache_exhaustive(workload, &base, &model, options.max_cycles, options.threads)?;
    let exhaustive_best = *best_runtime_row(&rows).expect("feasible rows exist");
    let base_row = rows.iter().find(|r| r.ways == 1 && r.way_kb == 4).copied().unwrap();

    let tool = AutoReconfigurator::new()
        .with_space(ParameterSpace::dcache_geometry())
        .with_weights(Weights::runtime_only())
        .with_measurement(options.measurement());
    let outcome = tool.optimize(workload)?;
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
        workload: workload.name().to_string(),
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
pub fn fig3(options: &ExperimentOptions) -> Result<Fig3Result, OptimizeError> {
    Ok(Fig3Result { comparison: dcache_comparison(&blastn(options.scale), options)? })
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

/// Run the Figure 4 experiment: dcache optimisation for DRR, FRAG and Arith,
/// fanned out over the worker pool (one comparison pipeline per workload,
/// with the thread budget split between the workload fan-out and each
/// pipeline's inner stages).
pub fn fig4(options: &ExperimentOptions) -> Result<Fig4Result, OptimizeError> {
    let workloads: Vec<Box<dyn Workload + Send + Sync>> = vec![
        Box::new(Drr::scaled(options.scale)),
        Box::new(Frag::scaled(options.scale)),
        Box::new(Arith::scaled(options.scale)),
    ];
    let inner =
        ExperimentOptions { threads: inner_threads(options.threads, workloads.len()), ..*options };
    let results = run_indexed(workloads.len(), options.threads, |i| {
        dcache_comparison(workloads[i].as_ref(), &inner)
    });
    let mut comparisons = Vec::with_capacity(results.len());
    for r in results {
        comparisons.push(r?);
    }
    Ok(Fig4Result { comparisons })
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

fn full_space(options: &ExperimentOptions, weights: Weights) -> Result<FullSpaceResult, OptimizeError> {
    // One measure→formulate→solve→validate pipeline per benchmark, fanned
    // out over the worker pool; the thread budget is split between the
    // benchmark fan-out and each pipeline's per-variable fan-out, so hosts
    // with more cores than benchmarks stay saturated without
    // oversubscribing.  Outcomes land in per-benchmark slots, so the result
    // (and first error) is deterministic.
    let suite = suite(options.scale);
    let inner = inner_threads(options.threads, suite.len());
    let tool = AutoReconfigurator::new()
        .with_weights(weights)
        .with_measurement(MeasurementOptions { threads: inner, ..options.measurement() });
    let results =
        run_indexed(suite.len(), options.threads, |i| tool.optimize(suite[i].as_ref()));
    let mut outcomes = Vec::with_capacity(results.len());
    for r in results {
        outcomes.push(r?);
    }
    Ok(FullSpaceResult { weights, outcomes })
}

/// Split a thread budget between an outer fan-out of `jobs` pipelines and
/// each pipeline's inner fan-out: `total / jobs` workers per pipeline, at
/// least one.
fn inner_threads(requested: usize, jobs: usize) -> usize {
    (crate::campaign::effective_threads(requested) / jobs.max(1)).max(1)
}

/// Run the Figure 5 experiment: application runtime optimisation
/// (`w₁=100, w₂=1`) over the full 52-variable space for all four benchmarks.
pub fn fig5(options: &ExperimentOptions) -> Result<FullSpaceResult, OptimizeError> {
    full_space(options, Weights::runtime_optimized())
}

/// Run the Figure 7 experiment: chip resource optimisation (`w₁=1, w₂=100`).
pub fn fig7(options: &ExperimentOptions) -> Result<FullSpaceResult, OptimizeError> {
    full_space(options, Weights::resource_optimized())
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

/// Run the Figure 6 experiment from an already computed Figure 5 result
/// (the paper's Figure 6 lists the measured costs of exactly the
/// perturbations chosen for BLASTN).
pub fn fig6_from(fig5: &FullSpaceResult) -> Fig6Result {
    let outcome = fig5
        .outcomes
        .iter()
        .find(|o| o.workload == "BLASTN")
        .expect("figure 5 includes BLASTN");
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
    Fig6Result {
        workload: outcome.workload.clone(),
        base_seconds: outcome.cost_table.base.seconds,
        rows,
    }
}

/// Run the Figure 6 experiment from scratch (runs the Figure 5 pipeline for
/// BLASTN only).
pub fn fig6(options: &ExperimentOptions) -> Result<Fig6Result, OptimizeError> {
    let tool = AutoReconfigurator::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(options.measurement());
    let outcome = tool.optimize(&blastn(options.scale))?;
    let result = FullSpaceResult { weights: Weights::runtime_optimized(), outcomes: vec![outcome] };
    Ok(fig6_from(&result))
}

// ---------------------------------------------------------------------------
// Campaign — multi-workload co-optimization (beyond the paper)
// ---------------------------------------------------------------------------

/// Run the full campaign over the paper's benchmark suite with an
/// equal-share runtime mix: capture one trace per workload, measure every
/// cost table and Figure 2 sweep from the shared [`crate::campaign::TraceSet`],
/// solve every per-application problem, and co-optimize a single
/// configuration for the whole mix.
///
/// When the `AUTORECONF_STORE` environment variable names a directory, the
/// campaign runs on top of the incremental artifact store rooted there: a
/// warm store serves every unchanged artifact from disk (executing zero
/// guest instructions) and only the final co-optimization is recomputed.
pub fn campaign(options: &ExperimentOptions) -> Result<CampaignResult, OptimizeError> {
    campaign_with_store(options, crate::store::ArtifactStore::from_env())
}

/// [`campaign`] with an explicit (optional) artifact store — the `campaign`
/// CLI target's `--store <dir>` entry point.
pub fn campaign_with_store(
    options: &ExperimentOptions,
    store: Option<crate::store::ArtifactStore>,
) -> Result<CampaignResult, OptimizeError> {
    let suite = suite(options.scale);
    let mut engine = Campaign::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(options.measurement());
    if let Some(store) = store {
        engine = engine.with_store(store);
    }
    let result = engine.run(&suite, &Campaign::equal_mix(suite.len()))?;
    if let Some(store) = engine.store() {
        let s = store.stats();
        eprintln!(
            "artifact store {}: {} hits, {} misses ({} corrupt), {} writes, {} payload bytes read",
            store.dir().display(),
            s.hits,
            s.misses,
            s.corrupt,
            s.writes,
            s.payload_bytes_read
        );
    }
    Ok(result)
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
/// point (same engine configuration as the `campaign` target and the
/// service daemon, so all three share store entries).
pub fn population_with_store(
    options: &ExperimentOptions,
    store: Option<crate::store::ArtifactStore>,
    source: &PopulationSource,
    tolerance_pct: f64,
) -> Result<PopulationOutcome, OptimizeError> {
    let suite = suite(options.scale);
    let mut engine = Campaign::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(options.measurement());
    if let Some(store) = store {
        engine = engine.with_store(store);
    }
    let session = engine.session(&suite)?;
    let profiles = match source {
        PopulationSource::Profiles(profiles) => profiles.clone(),
        PopulationSource::Random { count, seed } => random_mixes(*count, suite.len(), *seed),
    };
    let outcome = session.population(&profiles, tolerance_pct)?;
    if let Some(store) = session.engine().store() {
        let s = store.stats();
        eprintln!(
            "artifact store {}: {} hits, {} misses ({} corrupt), {} writes, {} payload bytes read",
            store.dir().display(),
            s.hits,
            s.misses,
            s.corrupt,
            s.writes,
            s.payload_bytes_read
        );
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Design-space search — the enumerate-then-prune funnel
// ---------------------------------------------------------------------------

/// Search a shipped candidate space for each requested workload's measured
/// optimum — the `search` CLI target's entry point (same engine
/// configuration as the `campaign` target and the service daemon, so all
/// three share store entries).  `workload = None` searches the whole suite.
///
/// [`crate::SearchMode::Pruned`] and [`crate::SearchMode::Exhaustive`]
/// return the byte-identical optimum; pruned walk-validates a fraction of
/// the candidates (the `search_budget` suite pins how small).
pub fn search_with_store(
    options: &ExperimentOptions,
    store: Option<crate::store::ArtifactStore>,
    workload: Option<&str>,
    choice: crate::search::SearchSpaceChoice,
    mode: crate::search::SearchMode,
) -> Result<Vec<crate::search::SearchOutcome>, OptimizeError> {
    let suite = suite(options.scale);
    let mut engine = Campaign::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(options.measurement());
    if let Some(store) = store {
        engine = engine.with_store(store);
    }
    let session = engine.session(&suite)?;
    let indices: Vec<usize> = match workload {
        None => (0..suite.len()).collect(),
        Some(name) => {
            let index = session.names().iter().position(|n| n == name).ok_or_else(|| {
                OptimizeError::InvalidMix(format!(
                    "unknown workload `{name}` (expected one of: {})",
                    session.names().join(", ")
                ))
            })?;
            vec![index]
        }
    };
    let sspace = choice.space();
    let outcomes = indices
        .into_iter()
        .map(|i| session.search(i, &sspace, mode))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(store) = session.engine().store() {
        let s = store.stats();
        eprintln!(
            "artifact store {}: {} hits, {} misses ({} corrupt), {} writes, {} payload bytes read",
            store.dir().display(),
            s.hits,
            s.misses,
            s.corrupt,
            s.writes,
            s.payload_bytes_read
        );
    }
    Ok(outcomes)
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

    #[test]
    fn fig2_finds_an_optimum_no_worse_than_base() {
        let r = fig2(&ExperimentOptions::test_sized()).unwrap();
        assert_eq!(r.rows.len(), 28);
        assert!(r.optimal.fits);
        assert!(r.optimal_gain_pct() >= 0.0);
        assert!(r.render().contains("Optimal runtime"));
    }

    #[test]
    fn fig6_lists_only_selected_perturbations() {
        let r = fig6(&ExperimentOptions::test_sized()).unwrap();
        assert!(!r.rows.is_empty());
        assert!(r.render().contains("runtime optimization costs"));
    }
}
