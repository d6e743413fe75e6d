//! Campaign-engine contracts:
//!
//! * **determinism** — every campaign/table/sweep result is *byte-identical*
//!   (compared as `serde_json` strings) for `threads = 1` vs `threads = N`,
//!   covering the parallel sweep, the parallel cost table, and the full
//!   multi-workload co-optimization pipeline;
//! * **degenerate weights** — co-optimization with the whole mix weight on a
//!   single workload reproduces that workload's per-application optimum
//!   exactly, anchoring the multi-workload objective to the paper's
//!   Figures 5/7 pipeline;
//! * **weight algebra** (proptest, extending the 64-case geometry-proptest
//!   style of `tests/replay_equivalence.rs`) — `blend_cost_tables` over
//!   random non-uniform weights is order-invariant, scale-invariant under
//!   normalization (bit-for-bit for power-of-two scalings), and a
//!   degenerate weight vector reproduces the per-app table bit-for-bit.

use std::sync::OnceLock;

use liquid_autoreconf::apps::{benchmark_suite, Scale};
use liquid_autoreconf::sim::LeonConfig;
use liquid_autoreconf::tuner::{
    blend_cost_tables, dcache_exhaustive_traced, measure_cost_table, AutoReconfigurator, Campaign,
    CostTable, MeasurementOptions, ParameterSpace, Weights,
};
use liquid_autoreconf::fpga::SynthesisModel;
use proptest::prelude::*;

const MAX_CYCLES: u64 = 400_000_000;

fn measurement(threads: usize) -> MeasurementOptions {
    MeasurementOptions { max_cycles: MAX_CYCLES, threads }
}

fn campaign(threads: usize, space: ParameterSpace) -> Campaign {
    Campaign::new()
        .with_space(space)
        .with_weights(Weights::runtime_optimized())
        .with_measurement(measurement(threads))
}

#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let suite = benchmark_suite(Scale::Tiny);
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    for w in &suite {
        let (_, trace) =
            liquid_autoreconf::apps::capture_verified(w.as_ref(), &base, MAX_CYCLES).unwrap();
        let serial = dcache_exhaustive_traced(&trace, &base, &model, MAX_CYCLES, 1).unwrap();
        let parallel = dcache_exhaustive_traced(&trace, &base, &model, MAX_CYCLES, 4).unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "{}: parallel sweep must serialise byte-identically",
            w.name()
        );
    }
}

#[test]
fn cost_table_is_byte_identical_across_thread_counts() {
    let suite = benchmark_suite(Scale::Tiny);
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let space = ParameterSpace::paper();
    let w = suite[0].as_ref(); // BLASTN exercises every cost component
    let serial = measure_cost_table(&space, w, &base, &model, &measurement(1)).unwrap();
    let parallel = measure_cost_table(&space, w, &base, &model, &measurement(4)).unwrap();
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "parallel cost table must serialise byte-identically"
    );
}

#[test]
fn whole_campaign_is_byte_identical_across_thread_counts() {
    let suite = benchmark_suite(Scale::Tiny);
    let mix = Campaign::equal_mix(suite.len());
    let serial = campaign(1, ParameterSpace::dcache_geometry()).run(&suite, &mix).unwrap();
    let parallel = campaign(4, ParameterSpace::dcache_geometry()).run(&suite, &mix).unwrap();
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "the campaign result (tables + sweeps + per-app + co-optimization) \
         must serialise byte-identically for threads=1 vs threads=N"
    );
}

/// One measured cost table per suite workload (the dcache sub-space keeps
/// the measurement cheap), shared by every property-test case.
fn measured_tables() -> &'static Vec<CostTable> {
    static TABLES: OnceLock<Vec<CostTable>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let base = LeonConfig::base();
        let model = SynthesisModel::default();
        let space = ParameterSpace::dcache_geometry();
        benchmark_suite(Scale::Tiny)
            .iter()
            .map(|w| measure_cost_table(&space, w.as_ref(), &base, &model, &measurement(2)).unwrap())
            .collect()
    })
}

/// splitmix64 over a seed: the deterministic draw source for weights and
/// permutations (mirrors `config_from_seed` in `tests/replay_equivalence.rs`).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random strictly-positive, non-uniform, normalised weight vector.
fn weights_from_seed(state: &mut u64, n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|_| (splitmix(state) % 997 + 1) as f64 / 997.0).collect();
    let total: f64 = raw.iter().sum();
    raw.iter().map(|w| w / total).collect()
}

/// Field-wise near-equality of two blended tables (used where float
/// summation order legitimately differs by an ulp).
fn assert_tables_close(a: &CostTable, b: &CostTable, what: &str) {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()));
    assert!(close(a.base.seconds, b.base.seconds), "{what}: base seconds");
    assert!(a.base.cycles.abs_diff(b.base.cycles) <= 1, "{what}: base cycles");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.costs.iter().zip(&b.costs) {
        assert_eq!(x.index, y.index);
        assert!(x.cycles.abs_diff(y.cycles) <= 1, "{what}: x{} cycles", x.index);
        for (fx, fy, name) in [
            (x.rho, y.rho, "rho"),
            (x.lambda, y.lambda, "lambda"),
            (x.beta, y.beta, "beta"),
            (x.seconds, y.seconds, "seconds"),
            (x.lut_pct, y.lut_pct, "lut_pct"),
            (x.bram_pct, y.bram_pct, "bram_pct"),
        ] {
            assert!(close(fx, fy), "{what}: x{} {name}: {fx} vs {fy}", x.index);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Order-invariance: blending a permutation of the (share, table) pairs
    /// yields the same blended costs (up to float-summation order — the
    /// per-field tolerance is one part in 10⁹).
    #[test]
    fn blend_is_order_invariant(seed in any::<u64>()) {
        let tables = measured_tables();
        let mut state = seed;
        let shares = weights_from_seed(&mut state, tables.len());
        let mut mix: Vec<(f64, &CostTable)> =
            shares.iter().copied().zip(tables.iter()).collect();
        let reference = blend_cost_tables(&mix);

        // a seed-derived Fisher–Yates shuffle of the pair list
        for i in (1..mix.len()).rev() {
            mix.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let shuffled = blend_cost_tables(&mix);
        assert_tables_close(&shuffled, &reference, "permuted mix");
    }

    /// Scale-invariance under normalization: scaling every raw weight by a
    /// common positive factor and re-normalising reproduces the blend — and
    /// for power-of-two factors (where normalization is exact in binary
    /// floating point) it reproduces it bit-for-bit.
    #[test]
    fn blend_is_scale_invariant_under_normalization(seed in any::<u64>()) {
        let tables = measured_tables();
        let mut state = seed;
        let raw: Vec<f64> =
            (0..tables.len()).map(|_| (splitmix(&mut state) % 997 + 1) as f64).collect();
        let total: f64 = raw.iter().sum();
        let shares: Vec<f64> = raw.iter().map(|w| w / total).collect();
        let mix: Vec<(f64, &CostTable)> = shares.iter().copied().zip(tables.iter()).collect();
        let reference = blend_cost_tables(&mix);

        // power-of-two scaling: exact normalization, bit-identical blend
        let pow2 = [0.125, 0.25, 2.0, 64.0][(splitmix(&mut state) % 4) as usize];
        let scaled_total: f64 = raw.iter().map(|w| w * pow2).sum::<f64>();
        let scaled: Vec<f64> = raw.iter().map(|w| w * pow2 / scaled_total).collect();
        let mix2: Vec<(f64, &CostTable)> = scaled.iter().copied().zip(tables.iter()).collect();
        let exact = blend_cost_tables(&mix2);
        prop_assert_eq!(
            serde_json::to_string(&exact).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "power-of-two rescaling must be bit-identical"
        );

        // arbitrary positive scaling: equal within float tolerance
        let factor = (splitmix(&mut state) % 9_000 + 1_000) as f64 / 100.0; // 10.00..100.00
        let scaled_total: f64 = raw.iter().map(|w| w * factor).sum::<f64>();
        let scaled: Vec<f64> = raw.iter().map(|w| w * factor / scaled_total).collect();
        let mix3: Vec<(f64, &CostTable)> = scaled.iter().copied().zip(tables.iter()).collect();
        assert_tables_close(&blend_cost_tables(&mix3), &reference, "rescaled mix");
    }

    /// A degenerate weight vector (all mass on one workload) reproduces that
    /// workload's per-application cost table bit-for-bit.
    #[test]
    fn degenerate_blend_reproduces_the_per_app_table(seed in any::<u64>()) {
        let tables = measured_tables();
        let k = (seed % tables.len() as u64) as usize;
        let mut shares = vec![0.0; tables.len()];
        shares[k] = 1.0;
        let mix: Vec<(f64, &CostTable)> = shares.iter().copied().zip(tables.iter()).collect();
        let blended = blend_cost_tables(&mix);
        prop_assert_eq!(&blended.base, &tables[k].base, "base costs must be reproduced exactly");
        prop_assert_eq!(&blended.costs, &tables[k].costs, "variable costs must be bit-identical");
    }
}

#[test]
fn degenerate_mix_reproduces_each_per_application_optimum() {
    let suite = benchmark_suite(Scale::Tiny);
    let space = ParameterSpace::paper();
    let engine = campaign(2, space.clone());
    let traces = engine.capture(&suite).unwrap();
    let tables = engine.cost_tables(&suite, &traces).unwrap();

    let tool = AutoReconfigurator::new()
        .with_space(space)
        .with_weights(Weights::runtime_optimized())
        .with_measurement(measurement(2));

    for (k, w) in suite.iter().enumerate() {
        // all of the mix weight on workload k
        let mut mix = vec![0.0; suite.len()];
        mix[k] = 1.0;
        let co = engine.co_optimize(&traces, &tables, &mix).unwrap();
        let entry = &traces.entries[k];
        let per_app =
            tool.optimize_with_table_traced(&entry.name, tables[k].clone(), &entry.trace).unwrap();

        assert_eq!(
            co.selected, per_app.selected,
            "{}: degenerate mix must select the per-application optimum",
            w.name()
        );
        assert_eq!(
            co.recommended, per_app.recommended,
            "{}: degenerate mix must decode to the same configuration",
            w.name()
        );
        assert_eq!(co.per_workload[k].cycles, per_app.validation.cycles);
        // the simulator is the oracle: the co validation replay must equal a
        // full verified run of the recommendation
        let run = liquid_autoreconf::apps::run_verified(w.as_ref(), &co.recommended, MAX_CYCLES)
            .unwrap();
        assert_eq!(
            co.per_workload[k].cycles,
            run.stats.cycles,
            "{}: replay validation must equal full simulation",
            w.name()
        );
        assert_eq!(co.per_workload[k].weight, 1.0);
        assert!(co.per_workload.iter().enumerate().all(|(i, r)| i == k || r.weight == 0.0));
    }
}
