//! Figure 2 — exhaustive dcache (sets × set size) sweep for BLASTN.
//!
//! The benchmark body is exactly the experiment kernel: simulate BLASTN on
//! every feasible dcache geometry and pick the runtime optimum.  Running it
//! under Criterion both regenerates the table (printed once at the end) and
//! tracks the cost of the exhaustive approach that the paper argues does not
//! scale.  The `_no_replay` row times `workloads::run_verified` over the
//! fitting geometries the sweep retimes (the list is built in bench code,
//! `support`), since the library itself measures only by replay.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use autoreconf::{best_runtime_row, dcache_exhaustive};
use bench::{bench_scale, MAX_CYCLES};
use fpga_model::SynthesisModel;
use leon_sim::LeonConfig;
use workloads::Blastn;

mod support;

fn fig2_exhaustive_sweep(c: &mut Criterion) {
    let workload = Blastn::scaled(bench_scale());
    let base = LeonConfig::base();
    let model = SynthesisModel::default();

    let configs = support::sweep_configs(&base, &model);

    let mut group = c.benchmark_group("fig2_dcache_exhaustive");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    group.bench_function("blastn_full_sweep_28_configs", |b| {
        b.iter(|| {
            let rows = dcache_exhaustive(&workload, &base, &model, MAX_CYCLES, 1).unwrap();
            *best_runtime_row(&rows).unwrap()
        })
    });
    group.bench_function("blastn_full_sweep_28_configs_no_replay", |b| {
        b.iter(|| support::simulate_all(&workload, &configs, MAX_CYCLES, 1))
    });
    group.bench_function("blastn_single_config_base", |b| {
        b.iter(|| workloads::run_verified(&workload, &base, MAX_CYCLES).unwrap().stats.cycles)
    });
    group.finish();

    // Regenerate and print the table once so `cargo bench` output contains
    // the reproduced figure.
    let rows = dcache_exhaustive(&workload, &base, &model, MAX_CYCLES, 1).unwrap();
    let best = best_runtime_row(&rows).unwrap();
    println!("\n[fig2] BLASTN dcache sweep ({} feasible rows):", rows.iter().filter(|r| r.fits).count());
    for r in rows.iter().filter(|r| r.fits) {
        println!(
            "[fig2] {}x{:>2} KB  {:>12} cycles  LUT {:>2}%  BRAM {:>2}%",
            r.ways, r.way_kb, r.cycles, r.lut_pct, r.bram_pct
        );
    }
    println!(
        "[fig2] optimal: {}x{} KB ({} cycles)",
        best.ways, best.way_kb, best.cycles
    );
}

criterion_group!(benches, fig2_exhaustive_sweep);
criterion_main!(benches);
