//! Pruned design-space search: enumerate-then-prune (ROADMAP item 4).
//!
//! The paper's studies are exhaustive — the Figure 2 sweep walks all 28
//! d-cache geometries and the cost table fixes 52 one-at-a-time variables.
//! That stops scaling the moment the space grows multiplicatively (i-cache ×
//! d-cache × register windows × multipliers).  This module replaces
//! enumerate-everything with a three-stage funnel, borrowing the
//! enumerate-then-prune workflow of the ruler/`enumo` exemplar (generate a
//! candidate space, aggressively discard dominated members, iterate):
//!
//! 1. **Closed-form bound pass** — every candidate is priced *before any
//!    trace walk*: exact synthesis (LUT/BRAM/fits, the resources are not an
//!    estimate) plus the additive per-variable runtime prediction the BINLP
//!    objective already uses (`Σρᵢ`, bit-identical to
//!    [`crate::formulation::predict`]'s `runtime_delta_pct`).  Candidates
//!    that do not fit the device are discarded here in both modes.
//! 2. **Dominance/Pareto pruning** — the skyline of (predicted runtime,
//!    %LUT, %BRAM) picks the initial validation frontier: a candidate weakly
//!    dominated on all three axes cannot beat the frontier *on its bounds*
//!    and is deferred (never discarded — only the margin rule of stage 3 may
//!    discard a feasible candidate).
//! 3. **Branch-and-bound with batched replay** — frontier survivors are
//!    validated in one [`crate::campaign::replay_batch_indexed`] call per
//!    round (one trace walk per behavior class, the PR-5 lever, *not* one
//!    per candidate); the best measured objective becomes the incumbent, and
//!    an unvalidated candidate is pruned only when its *objective floor*
//!    still exceeds the incumbent **strictly**.  Anything not provably worse
//!    is validated in the next round, until a fixpoint.
//!
//! The objective floor is sound by construction rather than error-scaled:
//! resources are always priced exactly (so with `w₁ = 0` every prune is
//! provably sound); a single-variable candidate's runtime is priced exactly
//! too (the cost table *measured* that very configuration); and a
//! combination's runtime is floored at `Σ min(0, ρᵢ)` — a harm may be fully
//! rescued by a companion variable (a 1 KB way re-armed by extra ways), but
//! improvements shrink disjoint stall sources and never stack beyond their
//! sum.  The `pruned_search_matches_exhaustive` proptest and the CI parity
//! leg pin pruned ≡ exhaustive byte-for-byte, and the budget suite pins how
//! little gets walked (DESIGN.md §13).
//!
//! Three process-wide counters make the funnel auditable the same way
//! `trace_walks_performed` audits the replay batcher:
//! [`candidates_enumerated`] (stage 1 entered), [`candidates_pruned_closed_form`]
//! (discarded without ever being walked — infeasible or bound-pruned) and
//! [`candidates_walk_validated`] (handed to the batched replay engine; the
//! batcher may still price a timing-only class without a walk, which
//! `trace_walks_performed` accounts separately).  They only tick on cold
//! computes — a warm store hit ticks nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use fpga_model::SynthesisModel;
use leon_sim::{LeonConfig, SimError, Trace};
use serde::{Deserialize, Serialize};

use crate::campaign::replay_batch_indexed;
use crate::formulation::Weights;
use crate::measure::CostTable;
use crate::params::ParameterSpace;
use crate::store::FingerprintBuilder;

// ---------------------------------------------------------------------------
// Process-wide funnel counters

static ENUMERATED: AtomicU64 = AtomicU64::new(0);
static PRUNED_CLOSED_FORM: AtomicU64 = AtomicU64::new(0);
static WALK_VALIDATED: AtomicU64 = AtomicU64::new(0);

/// Candidates that entered the stage-1 closed-form bound pass.
pub fn candidates_enumerated() -> u64 {
    ENUMERATED.load(Ordering::Relaxed)
}

/// Candidates discarded without ever reaching the replay engine: infeasible
/// under exact synthesis, or bound-pruned by the stage-3 margin rule.
/// `enumerated = pruned_closed_form + walk_validated` holds per search.
pub fn candidates_pruned_closed_form() -> u64 {
    PRUNED_CLOSED_FORM.load(Ordering::Relaxed)
}

/// Candidates whose runtime was validated through the batched replay engine.
pub fn candidates_walk_validated() -> u64 {
    WALK_VALIDATED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Search space

/// How the funnel treats the candidate list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchMode {
    /// Walk-validate every feasible candidate (the baseline the pruned mode
    /// is pinned byte-identical against).
    Exhaustive,
    /// The three-stage funnel: bound, Pareto-prune, branch-and-bound.
    Pruned,
}

impl SearchMode {
    /// CLI/wire name.
    pub fn name(&self) -> &'static str {
        match self {
            SearchMode::Exhaustive => "exhaustive",
            SearchMode::Pruned => "pruned",
        }
    }

    /// Parse a CLI/wire name (loud on anything unknown).
    pub fn parse(s: &str) -> Result<SearchMode, String> {
        match s {
            "exhaustive" => Ok(SearchMode::Exhaustive),
            "pruned" => Ok(SearchMode::Pruned),
            other => Err(format!("unknown search mode `{other}` (expected exhaustive|pruned)")),
        }
    }
}

/// The shipped candidate spaces, as a wire-friendly choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchSpaceChoice {
    /// The paper's Figure 2 grid: 28 d-cache geometries.
    Figure2,
    /// The expanded cross product: 24 192 candidates (864× Figure 2).
    Expanded,
}

impl SearchSpaceChoice {
    /// CLI/wire name.
    pub fn name(&self) -> &'static str {
        match self {
            SearchSpaceChoice::Figure2 => "figure2",
            SearchSpaceChoice::Expanded => "expanded",
        }
    }

    /// Parse a CLI/wire name (loud on anything unknown).
    pub fn parse(s: &str) -> Result<SearchSpaceChoice, String> {
        match s {
            "figure2" => Ok(SearchSpaceChoice::Figure2),
            "expanded" => Ok(SearchSpaceChoice::Expanded),
            other => {
                Err(format!("unknown search space `{other}` (expected figure2|expanded)"))
            }
        }
    }

    /// Materialise the candidate space.
    pub fn space(&self) -> SearchSpace {
        match self {
            SearchSpaceChoice::Figure2 => SearchSpace::figure2(),
            SearchSpaceChoice::Expanded => SearchSpace::expanded(),
        }
    }
}

/// A concrete candidate space: a [`ParameterSpace`] giving every variable a
/// cost-table slot, plus the explicit list of candidate selections (sets of
/// 1-based variable indices; the empty selection is the base configuration).
///
/// Candidate order is part of the space's identity — it is the deterministic
/// enumeration order, the final tie-break, and folded into
/// [`SearchSpace::fingerprint`].
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// Short name (store keys, reports).
    pub name: String,
    /// The variable space candidates select from.
    pub space: ParameterSpace,
    /// Candidate selections, in enumeration order.
    pub candidates: Vec<Vec<usize>>,
}

/// Cross product of option groups: each group contributes either nothing
/// (`None` = stay at the base value) or one variable index.  Earlier groups
/// vary slowest.
fn cross(groups: &[Vec<Option<usize>>]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for group in groups {
        let mut next = Vec::with_capacity(out.len() * group.len());
        for prefix in &out {
            for choice in group {
                let mut candidate = prefix.clone();
                if let Some(index) = choice {
                    candidate.push(*index);
                }
                next.push(candidate);
            }
        }
        out = next;
    }
    out
}

impl SearchSpace {
    /// The paper's Figure 2 grid — 4 d-cache way counts × 7 way sizes
    /// (64 KB included, exactly as the exhaustive sweep enumerates it), in
    /// [`crate::dcache_study::dcache_combinations`] order.
    pub fn figure2() -> SearchSpace {
        let ways = vec![None, Some(12), Some(13), Some(14)];
        let kb = vec![
            Some(15), // 1 KB
            Some(16), // 2 KB
            None,     // 4 KB (base)
            Some(17), // 8 KB
            Some(18), // 16 KB
            Some(19), // 32 KB
            Some(ParameterSpace::DCACHE_WAY_KB_64),
        ];
        let candidates = cross(&[ways, kb]);
        debug_assert_eq!(candidates.len(), 28);
        SearchSpace {
            name: "figure2".to_string(),
            space: ParameterSpace::dcache_figure2(),
            candidates,
        }
    }

    /// The expanded cross product over semantic groups of the paper's
    /// variables: i-cache ways (4) × i-cache way size (6) × d-cache ways (4)
    /// × d-cache way size (7, 64 KB included) × register windows (6) ×
    /// hardware multipliers (6) = 24 192 candidates — 864× Figure 2's 28.
    pub fn expanded() -> SearchSpace {
        let icache_ways = vec![None, Some(1), Some(2), Some(3)];
        let icache_kb = vec![Some(4), Some(5), None, Some(6), Some(7), Some(8)];
        let dcache_ways = vec![None, Some(12), Some(13), Some(14)];
        let dcache_kb = vec![
            Some(15),
            Some(16),
            None,
            Some(17),
            Some(18),
            Some(19),
            Some(ParameterSpace::DCACHE_WAY_KB_64),
        ];
        let windows = vec![None, Some(30), Some(34), Some(38), Some(42), Some(46)];
        let multipliers = vec![None, Some(47), Some(48), Some(49), Some(50), Some(51)];
        let candidates =
            cross(&[icache_ways, icache_kb, dcache_ways, dcache_kb, windows, multipliers]);
        debug_assert_eq!(candidates.len(), 24_192);
        SearchSpace {
            name: "expanded".to_string(),
            space: ParameterSpace::expanded(),
            candidates,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when the space holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Content fingerprint of the space: name, variable definitions and the
    /// full candidate list in enumeration order.  The store keys `search`
    /// artifacts by this, so a reordered or subsetted space is a different
    /// artifact.
    pub fn fingerprint(&self) -> u64 {
        let mut b = FingerprintBuilder::new().str(&self.name).debug(&self.space);
        for candidate in &self.candidates {
            b = b.u64(candidate.len() as u64);
            for &index in candidate {
                b = b.u64(index as u64);
            }
        }
        b.finish().0
    }

    /// A subspace keeping only the candidates at `keep` (enumeration order
    /// preserved, out-of-range positions ignored) — the random-subspace
    /// generator of the parity proptest.
    pub fn subset(&self, keep: &[usize], name: &str) -> SearchSpace {
        let positions: BTreeSet<usize> = keep.iter().copied().collect();
        SearchSpace {
            name: name.to_string(),
            space: self.space.clone(),
            candidates: positions
                .into_iter()
                .filter_map(|p| self.candidates.get(p).cloned())
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Outcome

/// The winning candidate, fully measured.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchBest {
    /// Position in the space's candidate enumeration.
    pub candidate_index: usize,
    /// Selected variable indices (1-based).
    pub selected: Vec<usize>,
    /// Human-readable changes, in selection order.
    pub changes: Vec<String>,
    /// The combined configuration.
    pub recommended: LeonConfig,
    /// Measured runtime in cycles (batched replay, bit-identical to full
    /// simulation).
    pub cycles: u64,
    /// Measured runtime in seconds.
    pub seconds: f64,
    /// Measured runtime change vs. the base configuration, in percent.
    pub runtime_delta_pct: f64,
    /// Exact %LUT of the device.
    pub lut_pct: f64,
    /// Exact %BRAM of the device.
    pub bram_pct: f64,
    /// Total cache capacity in KB (the deterministic tie-break).
    pub total_cache_kb: u32,
    /// The scalar objective `w₁·Δruntime% + w₂·(%LUT + %BRAM)`.
    pub objective: f64,
}

/// Result of one search over one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Workload name.
    pub workload: String,
    /// Search-space name.
    pub space: String,
    /// Space fingerprint (ties the outcome to the exact candidate list).
    pub space_fingerprint: u64,
    /// Funnel mode.
    pub mode: SearchMode,
    /// Objective weights.
    pub weights: Weights,
    /// Candidates that entered the bound pass (= the space size).
    pub candidates_enumerated: usize,
    /// Candidates rejected by exact synthesis (do not fit the device).
    pub candidates_infeasible: usize,
    /// Candidates never handed to the replay engine (infeasible or
    /// bound-pruned); `enumerated = pruned_closed_form + walk_validated`.
    pub candidates_pruned_closed_form: usize,
    /// Candidates measured through the batched replay engine.
    pub candidates_walk_validated: usize,
    /// Batched validation rounds (1 in exhaustive mode).
    pub validation_rounds: usize,
    /// Size of the stage-2 Pareto frontier that seeded validation (feasible
    /// count in exhaustive mode).
    pub frontier_size: usize,
    /// Candidate positions that were walk-validated, ascending.
    pub validated: Vec<usize>,
    /// The optimum, when any candidate fits.
    pub best: Option<SearchBest>,
}

impl SearchOutcome {
    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "search[{}] {} over {}: {} candidates, {} infeasible, {} pruned closed-form, \
             {} walk-validated ({} rounds, frontier {})\n",
            self.mode.name(),
            self.workload,
            self.space,
            self.candidates_enumerated,
            self.candidates_infeasible,
            self.candidates_pruned_closed_form,
            self.candidates_walk_validated,
            self.validation_rounds,
            self.frontier_size,
        );
        match &self.best {
            Some(best) => {
                let changes =
                    if best.changes.is_empty() { "base".to_string() } else { best.changes.join(", ") };
                out.push_str(&format!(
                    "  best: #{} [{}] {} cycles ({:+.3}% runtime), {:.2}%LUT {:.2}%BRAM, \
                     objective {:.4}\n",
                    best.candidate_index,
                    changes,
                    best.cycles,
                    best.runtime_delta_pct,
                    best.lut_pct,
                    best.bram_pct,
                    best.objective,
                ));
            }
            None => out.push_str("  best: none (no candidate fits the device)\n"),
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The funnel

/// Everything a search needs; assembled by
/// [`crate::campaign::CampaignSession::search`].
pub(crate) struct SearchInputs<'a> {
    pub workload: &'a str,
    pub sspace: &'a SearchSpace,
    pub base: &'a LeonConfig,
    pub model: &'a SynthesisModel,
    pub weights: Weights,
    pub table: &'a CostTable,
    pub trace: &'a Trace,
    pub max_cycles: u64,
    pub threads: usize,
}

/// Stage-1 closed-form pricing of one candidate.
struct Candidate {
    config: LeonConfig,
    fits: bool,
    /// Predicted runtime delta `Σρᵢ`, bit-identical to
    /// [`crate::formulation::predict`]'s `runtime_delta_pct`.
    bound_pct: f64,
    /// Rescue-aware runtime floor `Σ min(0, ρᵢ)`: harms may be fully rescued
    /// by the other selected variables (a small cache re-armed by extra ways),
    /// improvements never stack beyond their sum (they shrink disjoint stall
    /// sources; overlap only makes the combination *sub*additive).
    floor_pct: f64,
    /// True when at most one variable is selected: the cost table measured
    /// exactly this configuration, so `bound_pct` is its measured runtime
    /// delta bit-for-bit, not an estimate.
    exact: bool,
    /// Exact %LUT (synthesis, not the cost-table λ estimate).
    lut_pct: f64,
    /// Exact %BRAM.
    bram_pct: f64,
    total_kb: u32,
}

impl Candidate {
    fn resource_pct(&self) -> f64 {
        self.lut_pct + self.bram_pct
    }
}

/// One validated measurement.
struct Measured {
    cycles: u64,
    delta_pct: f64,
    objective: f64,
}

/// Slack under the multi-variable runtime floor, in percentage points —
/// absorbs sub-percentage-point cross-group timing overlap the additive
/// model cannot see.  Deliberately tiny: at the paper's runtime-heavy
/// weights one percentage point of runtime is worth more than the whole
/// resource spread of the Figure 2 grid, so any error-sized margin would
/// either keep everything or prune blind.
const FLOOR_MARGIN_PP: f64 = 0.02;

/// The provable lower bound on a candidate's objective: exact for
/// single-variable candidates (the cost table *measured* them), and the
/// rescue-aware floor `Σ min(0, ρᵢ)` relaxed by [`FLOOR_MARGIN_PP`] for
/// combinations.  A candidate is pruned only when this *strictly* exceeds
/// the incumbent objective — exact ties always get validated, which keeps
/// the deterministic tie-break (and hence byte-parity with exhaustive mode)
/// intact.
fn objective_floor(weights: &Weights, c: &Candidate) -> f64 {
    if c.exact {
        weights.objective(c.bound_pct, c.resource_pct())
    } else {
        weights.objective(c.floor_pct - FLOOR_MARGIN_PP, c.resource_pct())
    }
}

/// `(objective, total KB, candidate position)` — the deterministic
/// preference order.  Strictly total: positions are distinct.
fn better(a: (f64, u32, usize), b: (f64, u32, usize)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => (a.1, a.2) < (b.1, b.2),
    }
}

/// Validate a batch of candidates through the batched replay engine — one
/// call, one walk per behavior class, element `i` bit-identical to
/// `leon_sim::replay` of that candidate alone.
fn measure_batch(
    inputs: &SearchInputs<'_>,
    candidates: &[Candidate],
    ids: &[usize],
) -> Result<Vec<Measured>, SimError> {
    let configs: Vec<LeonConfig> = ids.iter().map(|&id| candidates[id].config).collect();
    let base_cycles = inputs.table.base.cycles as f64;
    replay_batch_indexed(inputs.trace, &configs, inputs.max_cycles, inputs.threads)
        .into_iter()
        .zip(ids)
        .map(|(result, &id)| {
            let stats = result?;
            let delta_pct = (stats.cycles as f64 - base_cycles) * 100.0 / base_cycles;
            Ok(Measured {
                cycles: stats.cycles,
                delta_pct,
                objective: inputs
                    .weights
                    .objective(delta_pct, candidates[id].resource_pct()),
            })
        })
        .collect()
}

/// The best `(id, objective)` over the validated set under the deterministic
/// preference order.
fn incumbent(
    validated: &BTreeMap<usize, Measured>,
    candidates: &[Candidate],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (&id, m) in validated {
        let key = (m.objective, candidates[id].total_kb, id);
        match best {
            Some((bid, bobj)) if !better(key, (bobj, candidates[bid].total_kb, bid)) => {}
            _ => best = Some((id, m.objective)),
        }
    }
    best
}

/// Run the funnel.  Ticks the process-wide counters (cold computes only —
/// the campaign layer never calls this on a store hit).
pub(crate) fn run_search(
    inputs: &SearchInputs<'_>,
    mode: SearchMode,
) -> Result<SearchOutcome, SimError> {
    assert!(
        inputs.weights.runtime >= 0.0 && inputs.weights.resources >= 0.0,
        "search weights must be non-negative (validated at the session boundary)"
    );
    let sspace = inputs.sspace;
    let device = inputs.model.device();
    let rho: BTreeMap<usize, f64> =
        inputs.table.costs.iter().map(|c| (c.index, c.rho)).collect();

    // ---- stage 1: closed-form bounds, exact synthesis -------------------
    ENUMERATED.fetch_add(sspace.len() as u64, Ordering::Relaxed);
    let candidates: Vec<Candidate> = sspace
        .candidates
        .iter()
        .map(|selected| {
            let config = sspace.space.apply(inputs.base, selected);
            let report = inputs.model.synthesize(&config);
            // identical order and values to predict()'s rho_sum — pinned by
            // the bound_matches_predict test
            let bound_pct: f64 = selected.iter().filter_map(|i| rho.get(i)).sum();
            let floor_pct: f64 =
                selected.iter().filter_map(|i| rho.get(i)).map(|&r| r.min(0.0)).sum();
            Candidate {
                config,
                fits: report.fits && config.validate().is_ok(),
                bound_pct,
                floor_pct,
                exact: selected.len() <= 1,
                lut_pct: report.luts as f64 * 100.0 / device.luts as f64,
                bram_pct: report.bram_blocks as f64 * 100.0 / device.bram_blocks as f64,
                total_kb: config.icache.ways as u32 * config.icache.way_kb
                    + config.dcache.ways as u32 * config.dcache.way_kb,
            }
        })
        .collect();
    let feasible: Vec<usize> =
        (0..candidates.len()).filter(|&id| candidates[id].fits).collect();
    let infeasible = candidates.len() - feasible.len();

    // ---- stage 2: the initial validation frontier ------------------------
    let frontier_size;
    let mut pending: Vec<usize>;
    match mode {
        SearchMode::Exhaustive => {
            frontier_size = feasible.len();
            pending = feasible.clone();
        }
        SearchMode::Pruned => {
            // skyline of (bound, %LUT, %BRAM): sort by the bound and keep
            // every candidate not weakly dominated on (lut, bram) by an
            // earlier (hence bound-better-or-equal) survivor
            let mut order = feasible.clone();
            order.sort_by(|&a, &b| {
                let ca = &candidates[a];
                let cb = &candidates[b];
                ca.bound_pct
                    .total_cmp(&cb.bound_pct)
                    .then(ca.lut_pct.total_cmp(&cb.lut_pct))
                    .then(ca.bram_pct.total_cmp(&cb.bram_pct))
                    .then(a.cmp(&b))
            });
            let mut skyline: Vec<usize> = Vec::new();
            let mut frontier2d: Vec<(f64, f64)> = Vec::new();
            for id in order {
                let c = &candidates[id];
                if frontier2d.iter().any(|&(l, b)| l <= c.lut_pct && b <= c.bram_pct) {
                    continue;
                }
                frontier2d.retain(|&(l, b)| !(c.lut_pct <= l && c.bram_pct <= b));
                frontier2d.push((c.lut_pct, c.bram_pct));
                skyline.push(id);
            }
            // seed with the best few *weighted* bounds too, so round 1
            // already produces a strong incumbent and observes multi-variable
            // interaction error
            let mut by_obj = feasible.clone();
            by_obj.sort_by(|&a, &b| {
                let ka = (
                    inputs.weights.objective(candidates[a].bound_pct, candidates[a].resource_pct()),
                    candidates[a].total_kb,
                    a,
                );
                let kb = (
                    inputs.weights.objective(candidates[b].bound_pct, candidates[b].resource_pct()),
                    candidates[b].total_kb,
                    b,
                );
                ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1)).then(ka.2.cmp(&kb.2))
            });
            let initial: BTreeSet<usize> =
                skyline.into_iter().chain(by_obj.into_iter().take(4)).collect();
            frontier_size = initial.len();
            pending = initial.into_iter().collect();
        }
    }

    // ---- stage 3: batched validation to a fixpoint ------------------------
    let mut validated: BTreeMap<usize, Measured> = BTreeMap::new();
    let mut rounds = 0;
    while !pending.is_empty() {
        rounds += 1;
        WALK_VALIDATED.fetch_add(pending.len() as u64, Ordering::Relaxed);
        let measured = measure_batch(inputs, &candidates, &pending)?;
        for (&id, m) in pending.iter().zip(measured) {
            validated.insert(id, m);
        }
        if mode == SearchMode::Exhaustive {
            break;
        }
        let Some((_, incumbent_obj)) = incumbent(&validated, &candidates) else { break };
        pending = feasible
            .iter()
            .copied()
            .filter(|id| !validated.contains_key(id))
            // keep (→ validate next round) unless provably worse
            .filter(|&id| objective_floor(&inputs.weights, &candidates[id]) <= incumbent_obj)
            .collect();
    }
    PRUNED_CLOSED_FORM
        .fetch_add((sspace.len() - validated.len()) as u64, Ordering::Relaxed);

    let best = incumbent(&validated, &candidates).map(|(id, _)| {
        let c = &candidates[id];
        let m = &validated[&id];
        let selected = sspace.candidates[id].clone();
        let changes = selected
            .iter()
            .map(|&i| sspace.space.by_index(i).expect("candidate index in space").name.clone())
            .collect();
        SearchBest {
            candidate_index: id,
            selected,
            changes,
            recommended: c.config,
            cycles: m.cycles,
            seconds: c.config.cycles_to_seconds(m.cycles),
            runtime_delta_pct: m.delta_pct,
            lut_pct: c.lut_pct,
            bram_pct: c.bram_pct,
            total_cache_kb: c.total_kb,
            objective: m.objective,
        }
    });

    Ok(SearchOutcome {
        workload: inputs.workload.to_string(),
        space: sspace.name.clone(),
        space_fingerprint: sspace.fingerprint(),
        mode,
        weights: inputs.weights,
        candidates_enumerated: sspace.len(),
        candidates_infeasible: infeasible,
        candidates_pruned_closed_form: sspace.len() - validated.len(),
        candidates_walk_validated: validated.len(),
        validation_rounds: rounds,
        frontier_size,
        validated: validated.keys().copied().collect(),
        best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcache_study::dcache_combinations;
    use crate::formulation::predict;
    use crate::measure::{measure_cost_table, MeasurementOptions};
    use workloads::{Arith, Scale};

    #[test]
    fn cross_product_enumerates_groups_slow_to_fast() {
        let got = cross(&[vec![None, Some(1)], vec![Some(2), None, Some(3)]]);
        assert_eq!(
            got,
            vec![vec![2], vec![], vec![3], vec![1, 2], vec![1], vec![1, 3]]
        );
    }

    #[test]
    fn figure2_space_matches_the_sweeps_grid_in_order() {
        let s = SearchSpace::figure2();
        assert_eq!(s.len(), 28);
        let base = LeonConfig::base();
        let combos = dcache_combinations();
        for (candidate, (ways, kb)) in s.candidates.iter().zip(combos) {
            let config = s.space.apply(&base, candidate);
            assert_eq!((config.dcache.ways, config.dcache.way_kb), (ways, kb));
            // dcache-only candidates leave everything else at base
            assert_eq!(config.icache, base.icache);
            assert_eq!(config.iu, base.iu);
        }
    }

    #[test]
    fn expanded_space_is_864_times_figure2() {
        let s = SearchSpace::expanded();
        assert_eq!(s.len(), 24_192);
        assert_eq!(s.len() / SearchSpace::figure2().len(), 864);
        let factor = s.len() / SearchSpace::figure2().len();
        assert!((100..=1000).contains(&factor));
        // candidates are distinct configurations
        let base = LeonConfig::base();
        let mut seen = std::collections::HashSet::new();
        for candidate in &s.candidates {
            assert!(seen.insert(s.space.apply(&base, candidate)), "duplicate candidate");
        }
    }

    #[test]
    fn fingerprint_covers_candidate_list_and_order() {
        let a = SearchSpace::figure2();
        let mut b = SearchSpace::figure2();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.candidates.swap(0, 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let sub = a.subset(&[0, 5, 27], "sub");
        assert_eq!(sub.len(), 3);
        assert_ne!(sub.fingerprint(), a.fingerprint());
    }

    #[test]
    fn stage1_bound_is_bit_identical_to_predict() {
        let s = SearchSpace::figure2();
        let w = Arith::scaled(Scale::Tiny);
        let table = measure_cost_table(
            &s.space,
            &w,
            &LeonConfig::base(),
            &SynthesisModel::default(),
            &MeasurementOptions {
                max_cycles: 100_000_000,
                threads: 2,
                use_replay: true,
            },
        )
        .unwrap();
        let rho: BTreeMap<usize, f64> = table.costs.iter().map(|c| (c.index, c.rho)).collect();
        for candidate in &s.candidates {
            let bound: f64 = candidate.iter().filter_map(|i| rho.get(i)).sum();
            let predicted = predict(&s.space, &table, candidate).runtime_delta_pct;
            assert_eq!(
                bound.to_bits(),
                predicted.to_bits(),
                "stage-1 bound must be the predict() machinery, bit-for-bit"
            );
        }
    }

    #[test]
    fn modes_and_choices_round_trip_their_names() {
        for mode in [SearchMode::Exhaustive, SearchMode::Pruned] {
            assert_eq!(SearchMode::parse(mode.name()), Ok(mode));
        }
        for choice in [SearchSpaceChoice::Figure2, SearchSpaceChoice::Expanded] {
            assert_eq!(SearchSpaceChoice::parse(choice.name()), Ok(choice));
        }
        assert!(SearchMode::parse("greedy").is_err());
        assert!(SearchSpaceChoice::parse("paper").is_err());
        assert_eq!(SearchSpaceChoice::Figure2.space().name, "figure2");
        assert_eq!(SearchSpaceChoice::Expanded.space().name, "expanded");
    }
}
