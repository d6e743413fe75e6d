//! Cross-crate integration tests: the full measure → formulate → solve →
//! validate pipeline on every benchmark, at test scale.

use liquid_autoreconf::prelude::*;
use liquid_autoreconf::tuner::{MeasurementOptions, ParameterSpace};

fn fast() -> MeasurementOptions {
    MeasurementOptions { max_cycles: 400_000_000, threads: 0 }
}

#[test]
fn full_space_runtime_tuning_works_for_every_benchmark() {
    let tool = AutoReconfigurator::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(fast());
    for workload in liquid_autoreconf::apps::benchmark_suite(Scale::Tiny) {
        let outcome = tool.optimize(workload.as_ref()).expect("optimisation succeeds");
        // the recommendation is structurally valid and fits the device
        assert!(outcome.recommended.validate().is_ok(), "{}", outcome.workload);
        assert!(outcome.validation.fits, "{}", outcome.workload);
        // the 52-variable cost table was fully measured
        assert_eq!(outcome.cost_table.len(), 52, "{}", outcome.workload);
        // runtime-weighted tuning must never slow the application down
        assert!(
            outcome.validation.cycles <= outcome.cost_table.base.cycles,
            "{} got slower: {} -> {}",
            outcome.workload,
            outcome.cost_table.base.cycles,
            outcome.validation.cycles
        );
        // the solver proved optimality of its model
        assert!(outcome.solver.proven_optimal, "{}", outcome.workload);
    }
}

#[test]
fn memory_bound_benchmarks_gain_more_than_register_bound_ones() {
    // The paper's headline observation: the customisation is
    // application-specific.  BLASTN and DRR (memory + multiply heavy) must
    // gain more from runtime tuning than Arith gains from dcache-only tuning.
    let full = AutoReconfigurator::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(fast());
    let blastn = full.optimize(&Blastn::scaled(Scale::Tiny)).unwrap();
    let drr = full.optimize(&Drr::scaled(Scale::Tiny)).unwrap();

    let dcache_only = AutoReconfigurator::new()
        .with_space(ParameterSpace::dcache_geometry())
        .with_weights(Weights::runtime_only())
        .with_measurement(fast());
    let arith = dcache_only.optimize(&Arith::scaled(Scale::Tiny)).unwrap();

    assert!(blastn.runtime_gain_pct() > 0.5, "BLASTN gain {:.2}%", blastn.runtime_gain_pct());
    assert!(drr.runtime_gain_pct() > 0.5, "DRR gain {:.2}%", drr.runtime_gain_pct());
    assert!(arith.runtime_gain_pct().abs() < 0.01, "Arith dcache gain {:.4}%", arith.runtime_gain_pct());
    assert!(blastn.runtime_gain_pct() > arith.runtime_gain_pct());
    assert!(drr.runtime_gain_pct() > arith.runtime_gain_pct());
}

#[test]
fn recommended_configurations_are_application_specific() {
    // Different applications should end up with different recommended cores
    // (the paper's Figures 5 and 7 show per-application columns differing).
    let tool = AutoReconfigurator::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(fast());
    let blastn = tool.optimize(&Blastn::scaled(Scale::Tiny)).unwrap();
    let arith = tool.optimize(&Arith::scaled(Scale::Tiny)).unwrap();
    assert_ne!(
        blastn.recommended, arith.recommended,
        "a memory-intensive and a register-only application should not get the same core"
    );
    // Arith needs the divider; BLASTN does not
    assert_eq!(arith.recommended.iu.divider, liquid_autoreconf::sim::Divider::Radix2);
    assert_eq!(blastn.recommended.iu.divider, liquid_autoreconf::sim::Divider::None);
}

#[test]
fn runtime_and_resource_weightings_trade_off_in_opposite_directions() {
    let workload = Blastn::scaled(Scale::Tiny);
    let runtime = AutoReconfigurator::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(fast())
        .optimize(&workload)
        .unwrap();
    let resources = AutoReconfigurator::new()
        .with_weights(Weights::resource_optimized())
        .with_measurement(fast())
        .optimize(&workload)
        .unwrap();
    // resource-weighted tuning uses no more LUTs/BRAM than runtime-weighted
    assert!(resources.validation.lut_pct <= runtime.validation.lut_pct);
    assert!(resources.validation.bram_pct <= runtime.validation.bram_pct);
    // and is no faster
    assert!(resources.validation.cycles >= runtime.validation.cycles);
    // resource-weighted tuning actually saves resources relative to base
    assert!((resources.validation.bram_pct as f64) < resources.cost_table.base.bram_pct);
    assert!((resources.validation.lut_pct as f64) < resources.cost_table.base.lut_pct);
}

#[test]
fn workload_results_are_identical_across_all_recommended_cores() {
    // functional correctness: whatever core the optimiser recommends, the
    // application must still compute the same answers
    let workload = Frag::scaled(Scale::Tiny);
    for weights in [Weights::runtime_optimized(), Weights::resource_optimized()] {
        let outcome = AutoReconfigurator::new()
            .with_weights(weights)
            .with_measurement(fast())
            .optimize(&workload)
            .unwrap();
        // the pipeline verifies the golden outputs once, on the base core it
        // captures from, and retimes the recommendation by replay; build and
        // run the recommended core to check that it still computes them
        let run = run_verified(&workload, &outcome.recommended, 400_000_000).unwrap();
        assert_eq!(run.report(1), workload.expected_reports()[0].1.into());
    }
}
