//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * linear vs nonlinear resource constraints (the paper keeps LUTs linear
//!   "since variation in LUTs utilization is very minimal" and analyses the
//!   effect in its Section 6 — here both the solve cost and the resulting
//!   recommendation quality can be compared);
//! * parameter-independence error: the additive runtime prediction versus the
//!   measured runtime of the combined configuration;
//! * serial vs parallel cost measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use autoreconf::{
    AutoReconfigurator, ConstraintForm, FormulationOptions, MeasurementOptions, ParameterSpace,
    Weights,
};
use bench::{bench_scale, MAX_CYCLES};
use workloads::{Blastn, Drr};

fn constraint_form_ablation(c: &mut Criterion) {
    let workload = Blastn::scaled(bench_scale());
    let mut group = c.benchmark_group("ablations/constraint_form");
    group.sample_size(10).measurement_time(Duration::from_secs(15));
    for (name, lut, bram) in [
        ("paper_default_lut_linear_bram_nonlinear", ConstraintForm::Linear, ConstraintForm::Nonlinear),
        ("all_linear", ConstraintForm::Linear, ConstraintForm::Linear),
        ("all_nonlinear", ConstraintForm::Nonlinear, ConstraintForm::Nonlinear),
    ] {
        let tool = AutoReconfigurator::new()
            .with_weights(Weights::runtime_optimized())
            .with_formulation(FormulationOptions { lut_constraint: lut, bram_constraint: bram })
            .with_measurement(MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0, use_replay: true });
        group.bench_function(name, |b| {
            b.iter(|| tool.optimize(&workload).unwrap().validation.cycles)
        });
    }
    group.finish();

    // report the recommendation quality of each form once
    for (name, lut, bram) in [
        ("lut linear / bram nonlinear (paper)", ConstraintForm::Linear, ConstraintForm::Nonlinear),
        ("all linear", ConstraintForm::Linear, ConstraintForm::Linear),
        ("all nonlinear", ConstraintForm::Nonlinear, ConstraintForm::Nonlinear),
    ] {
        let tool = AutoReconfigurator::new()
            .with_weights(Weights::runtime_optimized())
            .with_formulation(FormulationOptions { lut_constraint: lut, bram_constraint: bram })
            .with_measurement(MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0, use_replay: true });
        let o = tool.optimize(&workload).unwrap();
        println!(
            "[ablation] {:<36} gain {:>6.2}%  BRAM {:>2}%  fits {}",
            name,
            o.runtime_gain_pct(),
            o.validation.bram_pct,
            o.validation.fits
        );
    }
}

fn independence_error_ablation(c: &mut Criterion) {
    // how large is the parameter-independence approximation error?  The
    // benchmark times the extra validation run needed to quantify it; the
    // error itself is printed once below.
    let workload = Drr::scaled(bench_scale());
    let tool = AutoReconfigurator::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0, use_replay: true });

    let mut group = c.benchmark_group("ablations/independence_error");
    group.sample_size(10).measurement_time(Duration::from_secs(15));
    group.bench_function("predict_then_validate_drr", |b| {
        b.iter(|| {
            let o = tool.optimize(&workload).unwrap();
            (o.prediction.runtime_seconds, o.validation.seconds)
        })
    });
    group.finish();

    let o = tool.optimize(&workload).unwrap();
    let error_pct = (o.prediction.runtime_seconds - o.validation.seconds) * 100.0
        / o.validation.seconds;
    println!(
        "[ablation] DRR additive prediction {:.4}s vs measured {:.4}s ({:+.2}% — the paper reports 0–19.75% overestimation)",
        o.prediction.runtime_seconds, o.validation.seconds, error_pct
    );
}

fn measurement_parallelism_ablation(c: &mut Criterion) {
    let workload = Blastn::scaled(bench_scale());
    let space = ParameterSpace::dcache_geometry();
    let mut group = c.benchmark_group("ablations/measurement_threads");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for threads in [1usize, 2, 0] {
        let label = if threads == 0 { "all_cores".to_string() } else { format!("{threads}_thread") };
        let tool = AutoReconfigurator::new()
            .with_space(space.clone())
            .with_weights(Weights::runtime_only())
            .with_measurement(MeasurementOptions { max_cycles: MAX_CYCLES, threads, use_replay: true });
        group.bench_function(label, |b| b.iter(|| tool.optimize(&workload).unwrap().selected.len()));
    }
    group.finish();
}

criterion_group!(
    benches,
    constraint_form_ablation,
    independence_error_ablation,
    measurement_parallelism_ablation
);
criterion_main!(benches);
