//! Trace-replay speedup benchmarks (see DESIGN.md §"Trace-driven replay").
//!
//! Three groups, each emitting a `BENCH_*.json` artifact:
//!
//! * `replay` — per-workload cost of one full simulation vs. one trace
//!   capture vs. one replay retiming (the per-measurement primitive);
//! * `cost_table` — the full 52-variable measurement phase by replay vs. by
//!   full simulation (the paper's Section 3 bottleneck; target ≥5×);
//! * `fig2` — the exhaustive d-cache sweep with replay vs. full simulation
//!   (the paper's Figure 2 full factorial; target ≥10×).  The given-trace
//!   row walks a fresh clone of the trace per iteration, clone timed: a
//!   trace remembers the classes it has walked.
//!
//! The library measures only by replay, so each `full_sim_*` baseline row
//! times `workloads::run_verified` over exactly the configurations its
//! replay row retimes — for the table the base, each distinct enabler
//! reference and each perturbation (`table_configs`), for the sweep the
//! fitting geometries (`support::sweep_configs`) — with the lists built in
//! bench code.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use autoreconf::{dcache_exhaustive, dcache_exhaustive_traced, measure_cost_table, ParameterSpace};
use bench::{bench_scale, MAX_CYCLES};
use fpga_model::SynthesisModel;
use leon_sim::LeonConfig;
use workloads::{benchmark_suite, Blastn};

mod support;

/// The configurations a cost table over `space` times: the base, then each
/// distinct enabler reference and perturbation, in variable order.
fn table_configs(space: &ParameterSpace, base: &LeonConfig) -> Vec<LeonConfig> {
    let mut configs = vec![*base];
    for var in space.variables() {
        let mut reference = *base;
        if let Some(enabler) = &var.enabler {
            enabler.apply(&mut reference);
        }
        let mut perturbed = reference;
        var.change.apply(&mut perturbed);
        for config in [reference, perturbed] {
            if !configs.contains(&config) {
                configs.push(config);
            }
        }
    }
    configs
}

fn replay_primitive(c: &mut Criterion) {
    let base = LeonConfig::base();
    let mut group = c.benchmark_group("replay");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for workload in benchmark_suite(bench_scale()) {
        let program = workload.build();
        let (_, trace) = leon_sim::capture(&base, &program, MAX_CYCLES).unwrap();
        group.bench_with_input(
            BenchmarkId::new("full_simulation", workload.name()),
            &program,
            |b, p| b.iter(|| leon_sim::simulate(&base, p, MAX_CYCLES).unwrap().stats.cycles),
        );
        group.bench_with_input(
            BenchmarkId::new("capture", workload.name()),
            &program,
            |b, p| b.iter(|| leon_sim::capture(&base, p, MAX_CYCLES).unwrap().0.stats.cycles),
        );
        group.bench_with_input(
            BenchmarkId::new("replay", workload.name()),
            &trace,
            |b, t| b.iter(|| leon_sim::replay(t, &base, MAX_CYCLES).unwrap().cycles),
        );
    }
    group.finish();
}

fn cost_table_speedup(c: &mut Criterion) {
    let workload = Blastn::scaled(bench_scale());
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let space = ParameterSpace::paper();

    let options = bench::measurement();
    let configs = table_configs(&space, &base);

    let mut group = c.benchmark_group("cost_table");
    group.sample_size(10).measurement_time(Duration::from_secs(20));
    group.bench_function("replay_52_variables", |b| {
        b.iter(|| measure_cost_table(&space, &workload, &base, &model, &options).unwrap().len())
    });
    group.bench_function("full_sim_52_variables", |b| {
        b.iter(|| support::simulate_all(&workload, &configs, MAX_CYCLES, options.threads))
    });
    group.finish();
}

fn fig2_sweep_speedup(c: &mut Criterion) {
    let workload = Blastn::scaled(bench_scale());
    let base = LeonConfig::base();
    let model = SynthesisModel::default();

    let (_, trace) = workloads::capture_verified(&workload, &base, MAX_CYCLES).unwrap();
    let configs = support::sweep_configs(&base, &model);

    // single worker on both sides: this artifact isolates the replay-engine
    // speedup over full simulation; thread-level scaling is tracked
    // separately in BENCH_campaign.json
    let mut group = c.benchmark_group("fig2");
    group.sample_size(10).measurement_time(Duration::from_secs(20));
    group.bench_function("replay_sweep_28_configs_incl_capture", |b| {
        b.iter(|| dcache_exhaustive(&workload, &base, &model, MAX_CYCLES, 1).unwrap().len())
    });
    group.bench_function("replay_sweep_28_configs_given_trace", |b| {
        b.iter(|| {
            dcache_exhaustive_traced(&trace.clone(), &base, &model, MAX_CYCLES, 1).unwrap().len()
        })
    });
    group.bench_function("full_sim_sweep_28_configs", |b| {
        b.iter(|| support::simulate_all(&workload, &configs, MAX_CYCLES, 1))
    });
    group.finish();
}

criterion_group!(benches, replay_primitive, cost_table_speedup, fig2_sweep_speedup);
criterion_main!(benches);
