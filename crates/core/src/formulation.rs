//! BINLP problem formulation (Section 4 of the paper).
//!
//! Builds a [`binlp::Problem`] from a measured [`CostTable`]:
//!
//! * **Objective** — minimise `Σ w₁·ρᵢ·xᵢ + w₂·(λᵢ+βᵢ)·xᵢ` (Section 4.1);
//! * **Parameter validity constraints** — at most one value selected per
//!   multi-valued parameter (Section 4.2);
//! * **LEON structural constraints** — LRR replacement requires a 2-way
//!   cache, LRU requires a multi-way cache;
//! * **FPGA resource constraints** — the selected perturbations must fit the
//!   LUT/BRAM head-room left by the base configuration.  The cache terms are
//!   bilinear (ways × way-size), which is what makes the problem a Binary
//!   Integer *Nonlinear* Program; as in the paper the LUT constraint is kept
//!   linear by default (LUT variation is small) while the BRAM constraint is
//!   nonlinear, and both variants of both constraints are available for the
//!   approximation study of Figures 5 and 7.

use std::collections::BTreeMap;

use binlp::{ConstraintOp, Expr, Problem, VarId};
use serde::{Deserialize, Serialize};

use crate::measure::CostTable;
use crate::params::{groups, ParameterSpace};

/// Objective weights (the paper's `w₁` and `w₂`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// Weight of the application-runtime cost (`w₁`).
    pub runtime: f64,
    /// Weight of the chip-resource cost (`w₂`).
    pub resources: f64,
}

impl Weights {
    /// The paper's application-performance optimisation: `w₁=100, w₂=1`.
    pub fn runtime_optimized() -> Weights {
        Weights { runtime: 100.0, resources: 1.0 }
    }

    /// The paper's chip-resource optimisation: `w₁=1, w₂=100`.
    pub fn resource_optimized() -> Weights {
        Weights { runtime: 1.0, resources: 100.0 }
    }

    /// Runtime-only optimisation (`w₁=100, w₂=0`), used in the Section 5
    /// dcache validation study.
    pub fn runtime_only() -> Weights {
        Weights { runtime: 100.0, resources: 0.0 }
    }

    /// The scalar objective `w₁·Δruntime% + w₂·resource%` these weights
    /// induce — the same linear form as the Section 4.1 BINLP objective,
    /// evaluated on a *whole candidate* (measured or bounded runtime delta,
    /// combined %LUT + %BRAM) instead of per-variable coefficients.  The
    /// search funnel ranks, prunes and tie-breaks with exactly this value.
    pub fn objective(&self, runtime_delta_pct: f64, resource_pct: f64) -> f64 {
        self.runtime * runtime_delta_pct + self.resources * resource_pct
    }
}

/// Whether a resource constraint (and the matching cost prediction) uses the
/// linear or the bilinear (nonlinear) cache model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintForm {
    /// `Σ costᵢ·xᵢ ≤ headroom`.
    Linear,
    /// Cache terms expanded as `(ways multiplier) × (Σ way-size costs)`.
    #[default]
    Nonlinear,
}

/// Formulation options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FormulationOptions {
    /// Form of the LUT constraint (the paper keeps it linear).
    pub lut_constraint: ConstraintForm,
    /// Form of the BRAM constraint (the paper keeps it nonlinear).
    pub bram_constraint: ConstraintForm,
}

impl Default for FormulationOptions {
    fn default() -> Self {
        FormulationOptions {
            lut_constraint: ConstraintForm::Linear,
            bram_constraint: ConstraintForm::Nonlinear,
        }
    }
}

/// A formulated problem plus the mapping between solver variables and the
/// paper's variable indices.
#[derive(Clone, Debug)]
pub struct Formulation {
    /// The BINLP problem ready to be solved.
    pub problem: Problem,
    /// Solver variable id → paper index (1-based).
    pub to_paper_index: Vec<usize>,
    /// Paper index → solver variable id.
    pub to_solver_var: BTreeMap<usize, VarId>,
}

impl Formulation {
    /// Translate a solver assignment into the selected paper indices.
    pub fn selected_indices(&self, assignment: &[bool]) -> Vec<usize> {
        assignment
            .iter()
            .enumerate()
            .filter_map(|(v, &on)| if on { Some(self.to_paper_index[v]) } else { None })
            .collect()
    }
}

fn group_vars(
    map: &BTreeMap<usize, VarId>,
    range: std::ops::RangeInclusive<usize>,
) -> Vec<VarId> {
    range.filter_map(|i| map.get(&i).copied()).collect()
}

/// Cache-capacity multiplier `(1 + x_a + 2·x_b + 3·x_c)` over the "number of
/// sets" variables of a cache (identity when none of them is selected).
fn ways_multiplier(map: &BTreeMap<usize, VarId>, range: std::ops::RangeInclusive<usize>) -> Expr {
    let mut expr = Expr::constant(1.0);
    for (k, index) in range.enumerate() {
        if let Some(&var) = map.get(&index) {
            expr = expr.add(&Expr::term((k + 1) as f64, var));
        }
    }
    expr
}

/// Build the resource expression (LUT or BRAM) in the requested form.
///
/// `cost_of` maps a paper index to its per-variable resource delta
/// (λᵢ or βᵢ, in percent of the device).
fn resource_expr(
    map: &BTreeMap<usize, VarId>,
    cost_of: &dyn Fn(usize) -> f64,
    form: ConstraintForm,
) -> Expr {
    let linear_sum = |indices: &mut dyn Iterator<Item = usize>| {
        Expr::linear(indices.filter_map(|i| map.get(&i).map(|&v| (cost_of(i), v))))
    };
    match form {
        ConstraintForm::Linear => linear_sum(&mut (1..=52usize)),
        ConstraintForm::Nonlinear => {
            // (1 + x1 + 2x2 + 3x3) * Σ_{4..8} cᵢxᵢ   — icache ways × way size
            let icache = ways_multiplier(map, groups::ICACHE_WAYS)
                .multiply(&linear_sum(&mut groups::ICACHE_WAY_KB.clone()));
            // (1 + x12 + 2x13 + 3x14) * Σ_{15..19} cᵢxᵢ — dcache ways × way size
            let dcache = ways_multiplier(map, groups::DCACHE_WAYS)
                .multiply(&linear_sum(&mut groups::DCACHE_WAY_KB.clone()));
            // the remaining indices enter linearly, exactly as in Section 4.2
            let rest = linear_sum(
                &mut (1..=3usize)
                    .chain(9..=14)
                    .chain(20..=52),
            );
            icache.add(&dcache).add(&rest)
        }
    }
}

/// Blend per-workload cost tables into one table for multi-workload
/// co-optimization (campaign engine).
///
/// `mix` pairs each workload's cost table with its (already normalised)
/// share of the objective.  The blended runtime cost of a variable is the
/// share-weighted sum of the per-workload ρᵢ — i.e. the objective `Σ_w ω_w ·
/// C_w(x)/C_w(base)` linearised exactly like the paper's single-application
/// objective — while the resource costs λᵢ/βᵢ are workload-independent
/// (synthesis depends only on the configuration) and blend to themselves.
/// Formulating the blended table through [`formulate`] therefore reuses the
/// whole BINLP path unchanged, and a degenerate mix (weight 1.0 on one
/// workload) reproduces that workload's per-application formulation — and
/// hence its optimum — bit-for-bit.
///
/// All tables must cover the same variable space; panics otherwise (that is
/// a caller bug, not a data condition).
pub fn blend_cost_tables(mix: &[(f64, &CostTable)]) -> CostTable {
    assert!(!mix.is_empty(), "cannot blend an empty set of cost tables");
    let (_, first) = mix[0];
    for (_, t) in mix {
        assert_eq!(t.len(), first.len(), "cost tables cover different spaces");
    }

    let blend = |f: &dyn Fn(&CostTable) -> f64| -> f64 {
        mix.iter().map(|(w, t)| w * f(t)).sum()
    };

    let base = crate::measure::BaseCosts {
        cycles: blend(&|t| t.base.cycles as f64).round() as u64,
        seconds: blend(&|t| t.base.seconds),
        // resource figures depend only on the (shared) base configuration
        luts: first.base.luts,
        bram_blocks: first.base.bram_blocks,
        lut_pct: first.base.lut_pct,
        bram_pct: first.base.bram_pct,
        headroom_lut_pct: first.base.headroom_lut_pct,
        headroom_bram_pct: first.base.headroom_bram_pct,
    };

    let costs = (0..first.len())
        .map(|slot| {
            let proto = &first.costs[slot];
            for (_, t) in mix {
                assert_eq!(t.costs[slot].index, proto.index, "cost tables disagree on variable order");
            }
            let at = |f: &dyn Fn(&crate::measure::VariableCost) -> f64| -> f64 {
                mix.iter().map(|(w, t)| w * f(&t.costs[slot])).sum()
            };
            crate::measure::VariableCost {
                index: proto.index,
                name: proto.name.clone(),
                cycles: at(&|c| c.cycles as f64).round() as u64,
                seconds: at(&|c| c.seconds),
                rho: at(&|c| c.rho),
                lambda: at(&|c| c.lambda),
                beta: at(&|c| c.beta),
                lut_pct: at(&|c| c.lut_pct),
                bram_pct: at(&|c| c.bram_pct),
            }
        })
        .collect();

    let workload = mix
        .iter()
        .map(|(w, t)| format!("{}:{w:.3}", t.workload))
        .collect::<Vec<_>>()
        .join("+");
    CostTable { workload, base, costs }
}

/// Formulate the multi-workload co-optimization problem: blend the
/// per-workload tables with their mix shares and run the standard
/// single-application formulation over the blended costs.
pub fn formulate_mixed(
    space: &ParameterSpace,
    mix: &[(f64, &CostTable)],
    weights: Weights,
    options: FormulationOptions,
) -> (Formulation, CostTable) {
    let blended = blend_cost_tables(mix);
    let formulation = formulate(space, &blended, weights, options);
    (formulation, blended)
}

/// Formulate the customisation problem for a measured cost table.
pub fn formulate(
    space: &ParameterSpace,
    table: &CostTable,
    weights: Weights,
    options: FormulationOptions,
) -> Formulation {
    let mut problem = Problem::new();
    let mut to_paper_index = Vec::with_capacity(space.len());
    let mut to_solver_var = BTreeMap::new();
    for var in space.variables() {
        let id = problem.add_var(format!("x{} ({})", var.index, var.name));
        to_paper_index.push(var.index);
        to_solver_var.insert(var.index, id);
    }

    let cost = |index: usize, f: &dyn Fn(&crate::measure::VariableCost) -> f64| -> f64 {
        table.by_index(index).map(f).unwrap_or(0.0)
    };
    let rho = |i: usize| cost(i, &|c| c.rho);
    let lambda = |i: usize| cost(i, &|c| c.lambda);
    let beta = |i: usize| cost(i, &|c| c.beta);

    // ---- objective (Section 4.1) ------------------------------------------
    let objective = Expr::linear(space.variables().iter().map(|v| {
        let coefficient =
            weights.runtime * rho(v.index) + weights.resources * (lambda(v.index) + beta(v.index));
        (coefficient, to_solver_var[&v.index])
    }));
    problem.set_objective(objective);

    // ---- parameter validity constraints (Section 4.2) ---------------------
    let one_hot_groups: [(&str, std::ops::RangeInclusive<usize>); 8] = [
        ("icache nsets", groups::ICACHE_WAYS),
        ("icache setsize", groups::ICACHE_WAY_KB),
        ("icache replacement policy", groups::ICACHE_REPLACEMENT),
        ("dcache number of sets", groups::DCACHE_WAYS),
        ("dcache setsize", groups::DCACHE_WAY_KB),
        ("dcache replacement policy", groups::DCACHE_REPLACEMENT),
        ("IU nwindows", groups::REG_WINDOWS),
        ("different hardware multipliers", groups::MULTIPLIERS),
    ];
    for (name, range) in one_hot_groups {
        let vars = group_vars(&to_solver_var, range);
        if vars.len() > 1 {
            problem.at_most_one(name, vars);
        }
    }

    // ---- LEON structural constraints ---------------------------------------
    // icache LRR (x10) only with 2 sets (x1):  x10 - x1 <= 0
    if let (Some(&lrr), Some(&two_way)) = (to_solver_var.get(&10), to_solver_var.get(&1)) {
        problem.implies("icache LRR requires 2 sets", lrr, two_way);
    }
    // icache LRU (x11) only with multi-way:  sum(x1..x3) - x11 >= 0
    if let Some(&lru) = to_solver_var.get(&11) {
        let multi = group_vars(&to_solver_var, groups::ICACHE_WAYS);
        if !multi.is_empty() {
            let expr = Expr::sum_of(multi).add(&Expr::term(-1.0, lru));
            problem.add_constraint("icache LRU requires multi-way", expr, ConstraintOp::Ge, 0.0);
        }
    }
    // dcache LRR (x21) only with 2 sets (x12)
    if let (Some(&lrr), Some(&two_way)) = (to_solver_var.get(&21), to_solver_var.get(&12)) {
        problem.implies("dcache LRR requires 2 sets", lrr, two_way);
    }
    // dcache LRU (x22) only with multi-way
    if let Some(&lru) = to_solver_var.get(&22) {
        let multi = group_vars(&to_solver_var, groups::DCACHE_WAYS);
        if !multi.is_empty() {
            let expr = Expr::sum_of(multi).add(&Expr::term(-1.0, lru));
            problem.add_constraint("dcache LRU requires multi-way", expr, ConstraintOp::Ge, 0.0);
        }
    }

    // ---- FPGA resource constraints ------------------------------------------
    let lut_expr = resource_expr(&to_solver_var, &lambda, options.lut_constraint);
    problem.add_constraint("LUT headroom", lut_expr, ConstraintOp::Le, table.base.headroom_lut_pct);
    let bram_expr = resource_expr(&to_solver_var, &beta, options.bram_constraint);
    problem.add_constraint("BRAM headroom", bram_expr, ConstraintOp::Le, table.base.headroom_bram_pct);

    Formulation { problem, to_paper_index, to_solver_var }
}

/// Predicted costs of a selection, evaluated with the same cost expressions
/// the optimiser used (these are the "cost approximations by the optimizer"
/// rows of the paper's Figures 5 and 7).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted runtime in seconds.
    pub runtime_seconds: f64,
    /// Predicted runtime change relative to the base, in percent
    /// (negative = faster).
    pub runtime_delta_pct: f64,
    /// Predicted absolute %LUT with the *linear* cost model.
    pub lut_pct_linear: f64,
    /// Predicted absolute %LUT with the *nonlinear* cost model.
    pub lut_pct_nonlinear: f64,
    /// Predicted absolute %BRAM with the *nonlinear* cost model.
    pub bram_pct_nonlinear: f64,
    /// Predicted absolute %BRAM with the *linear* cost model.
    pub bram_pct_linear: f64,
}

/// Evaluate the optimiser's cost approximations for a set of selected paper
/// indices.
pub fn predict(
    space: &ParameterSpace,
    table: &CostTable,
    selected: &[usize],
) -> Prediction {
    // build a throw-away formulation-like mapping so the resource expressions
    // can be reused for the prediction
    let mut map = BTreeMap::new();
    let mut assignment = Vec::new();
    for (slot, var) in space.variables().iter().enumerate() {
        map.insert(var.index, slot);
        assignment.push(selected.contains(&var.index));
    }
    let lambda = |i: usize| table.by_index(i).map(|c| c.lambda).unwrap_or(0.0);
    let beta = |i: usize| table.by_index(i).map(|c| c.beta).unwrap_or(0.0);

    let rho_sum: f64 = selected
        .iter()
        .filter_map(|i| table.by_index(*i).map(|c| c.rho))
        .sum();
    let runtime_seconds = table.base.seconds * (1.0 + rho_sum / 100.0);

    let eval = |cost_of: &dyn Fn(usize) -> f64, form: ConstraintForm| -> f64 {
        resource_expr(&map, cost_of, form).eval(&assignment)
    };

    Prediction {
        runtime_seconds,
        runtime_delta_pct: rho_sum,
        lut_pct_linear: table.base.lut_pct + eval(&lambda, ConstraintForm::Linear),
        lut_pct_nonlinear: table.base.lut_pct + eval(&lambda, ConstraintForm::Nonlinear),
        bram_pct_nonlinear: table.base.bram_pct + eval(&beta, ConstraintForm::Nonlinear),
        bram_pct_linear: table.base.bram_pct + eval(&beta, ConstraintForm::Linear),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure_cost_table, MeasurementOptions};
    use fpga_model::SynthesisModel;
    use leon_sim::LeonConfig;
    use workloads::{Arith, Scale};

    fn tiny_table(space: &ParameterSpace) -> CostTable {
        let w = Arith::scaled(Scale::Tiny);
        measure_cost_table(
            space,
            &w,
            &LeonConfig::base(),
            &SynthesisModel::default(),
            &MeasurementOptions { max_cycles: 100_000_000, threads: 2 },
        )
        .unwrap()
    }

    #[test]
    fn full_space_formulation_has_the_papers_constraint_structure() {
        let space = ParameterSpace::paper();
        let table = tiny_table(&space);
        let f = formulate(&space, &table, Weights::runtime_optimized(), FormulationOptions::default());
        assert_eq!(f.problem.num_vars(), 52);
        // 8 one-hot groups + 4 structural constraints + 2 resource constraints
        assert_eq!(f.problem.constraints().len(), 14);
        // the default BRAM constraint is nonlinear, the LUT constraint linear
        let bram = f.problem.constraints().iter().find(|c| c.name == "BRAM headroom").unwrap();
        assert!(!bram.expr.is_linear());
        let lut = f.problem.constraints().iter().find(|c| c.name == "LUT headroom").unwrap();
        assert!(lut.expr.is_linear());
    }

    #[test]
    fn structural_constraints_forbid_invalid_replacement_selections() {
        let space = ParameterSpace::paper();
        let table = tiny_table(&space);
        let f = formulate(&space, &table, Weights::runtime_optimized(), FormulationOptions::default());
        // select dcache LRR (x21) without 2 ways (x12): infeasible
        let mut assignment = vec![false; 52];
        assignment[f.to_solver_var[&21]] = true;
        assert!(!f.problem.is_feasible(&assignment));
        // adding x12 makes it feasible
        assignment[f.to_solver_var[&12]] = true;
        assert!(f.problem.is_feasible(&assignment));
        // selecting two way-size values violates the one-hot constraint
        let mut assignment = vec![false; 52];
        assignment[f.to_solver_var[&15]] = true;
        assignment[f.to_solver_var[&16]] = true;
        assert!(!f.problem.is_feasible(&assignment));
    }

    #[test]
    fn resource_constraint_rejects_oversized_cache_combinations() {
        let space = ParameterSpace::paper();
        let table = tiny_table(&space);
        let f = formulate(&space, &table, Weights::runtime_only(), FormulationOptions::default());
        // 4-way (x14) 32 KB-per-way (x19) dcache = 128 KB: far beyond the
        // BRAM head-room, the bilinear constraint must reject it
        let mut assignment = vec![false; 52];
        assignment[f.to_solver_var[&14]] = true;
        assignment[f.to_solver_var[&19]] = true;
        assert!(!f.problem.is_feasible(&assignment));
        // a 1x32 KB dcache fits
        let mut assignment = vec![false; 52];
        assignment[f.to_solver_var[&19]] = true;
        assert!(f.problem.is_feasible(&assignment));
    }

    #[test]
    fn dcache_subspace_formulation_is_smaller() {
        let space = ParameterSpace::dcache_geometry();
        let table = tiny_table(&space);
        let f = formulate(&space, &table, Weights::runtime_only(), FormulationOptions::default());
        assert_eq!(f.problem.num_vars(), 8);
        assert!(f.problem.constraints().len() >= 3);
    }

    #[test]
    fn prediction_is_additive_in_rho() {
        let space = ParameterSpace::dcache_geometry();
        let table = tiny_table(&space);
        let p = predict(&space, &table, &[12, 18]);
        let expected = table.base.seconds
            * (1.0 + (table.by_index(12).unwrap().rho + table.by_index(18).unwrap().rho) / 100.0);
        assert!((p.runtime_seconds - expected).abs() < 1e-12);
        // Arith: dcache changes have no runtime effect
        assert!(p.runtime_delta_pct.abs() < 1e-9);
        // the nonlinear BRAM prediction for 2 ways × 16 KB exceeds the linear
        // one (the bilinear term doubles the way-size cost)
        assert!(p.bram_pct_nonlinear > p.bram_pct_linear - 1e-12);
    }

    #[test]
    fn weights_match_the_paper() {
        assert_eq!(Weights::runtime_optimized(), Weights { runtime: 100.0, resources: 1.0 });
        assert_eq!(Weights::resource_optimized(), Weights { runtime: 1.0, resources: 100.0 });
        assert_eq!(Weights::runtime_only(), Weights { runtime: 100.0, resources: 0.0 });
    }

    #[test]
    fn objective_is_the_weighted_linear_form() {
        let w = Weights::runtime_optimized();
        assert_eq!(w.objective(-8.0, 22.5), 100.0 * -8.0 + 22.5);
        assert_eq!(Weights::runtime_only().objective(-8.0, 1e9), -800.0);
        assert_eq!(Weights::resource_optimized().objective(0.0, 3.0), 300.0);
    }
}
