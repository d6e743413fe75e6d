//! Figure 6 — the one-at-a-time measurement phase for BLASTN.
//!
//! The paper's Figure 6 lists the measured runtime / %LUT / %BRAM of each
//! perturbation that ends up in BLASTN's runtime-optimised configuration.
//! The benchmark measures the cost of producing that table: the 52
//! perturbation builds + runs (the dominant cost of the whole approach, which
//! the paper parallelises over FPGA builds) and, separately, the serial
//! versus parallel measurement sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use autoreconf::{measure_cost_table, MeasurementOptions, ParameterSpace};
use bench::{bench_scale, MAX_CYCLES};
use fpga_model::SynthesisModel;
use leon_sim::LeonConfig;
use workloads::Blastn;

fn fig6_perturbation_costs(c: &mut Criterion) {
    let workload = Blastn::scaled(bench_scale());
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let space = ParameterSpace::paper();

    let mut group = c.benchmark_group("fig6_perturbation_costs");
    group.sample_size(10).measurement_time(Duration::from_secs(15));
    group.bench_function("measure_52_perturbations_parallel", |b| {
        let options = MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0 };
        b.iter(|| measure_cost_table(&space, &workload, &base, &model, &options).unwrap().len())
    });
    group.bench_function("measure_52_perturbations_single_thread", |b| {
        let options = MeasurementOptions { max_cycles: MAX_CYCLES, threads: 1 };
        b.iter(|| measure_cost_table(&space, &workload, &base, &model, &options).unwrap().len())
    });
    group.finish();

    // print the per-perturbation cost table once (the rows of Figure 6 are
    // the subset selected by the Figure 5 optimisation)
    let options = MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0 };
    let table = measure_cost_table(&space, &workload, &base, &model, &options).unwrap();
    println!("[fig6] BLASTN base: {} cycles, {:.1}% LUT, {:.1}% BRAM", table.base.cycles, table.base.lut_pct, table.base.bram_pct);
    for cost in table.costs.iter().filter(|c| c.rho.abs() > 0.01 || c.lambda.abs() > 0.4 || c.beta.abs() > 0.4) {
        println!(
            "[fig6] x{:<2} {:<26} rho {:>7.3}%  lambda {:>6.2}%  beta {:>6.2}%",
            cost.index, cost.name, cost.rho, cost.lambda, cost.beta
        );
    }
}

criterion_group!(benches, fig6_perturbation_costs);
criterion_main!(benches);
