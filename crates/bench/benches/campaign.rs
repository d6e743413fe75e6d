//! Campaign-engine parallel-speedup benchmarks (DESIGN.md §6).
//!
//! One group, emitting `BENCH_campaign.json`: every measurement is run at
//! `threads = 1` and `threads = 4`, so the artifact directly exposes the
//! worker-pool speedup of
//!
//! * the Figure 2 exhaustive d-cache sweep (28 replay retimings of one
//!   shared trace), and
//! * the full multi-workload campaign (trace-set capture, four cost tables,
//!   four sweeps, four per-application pipelines, one co-optimization).
//!
//! The `threads = 1` and `threads = N` results are byte-identical — that is
//! asserted by `tests/campaign_engine.rs`, not here — so the only thing the
//! thread count may change is wall-clock time.  The ≥2× target at 4 threads
//! holds on a ≥4-core host (the CI runners); on a single-core container the
//! two configurations measure alike.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use autoreconf::{dcache_exhaustive_traced, Campaign, MeasurementOptions, Weights};
use bench::{campaign_scale, MAX_CYCLES};
use fpga_model::SynthesisModel;
use leon_sim::LeonConfig;
use workloads::{benchmark_suite, Blastn};

const THREAD_SETTINGS: [usize; 2] = [1, 4];

fn campaign_parallel_speedup(c: &mut Criterion) {
    let scale = campaign_scale();
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let suite = benchmark_suite(scale);

    let mut group = c.benchmark_group("campaign");
    group.sample_size(10).measurement_time(Duration::from_secs(25));

    // Figure 2 exhaustive sweep: 28 retimings of one already-captured trace.
    let blastn = Blastn::scaled(scale);
    let (_, trace) = workloads::capture_verified(&blastn, &base, MAX_CYCLES).unwrap();
    for threads in THREAD_SETTINGS {
        group.bench_function(format!("fig2_sweep_threads_{threads}"), |b| {
            b.iter(|| {
                dcache_exhaustive_traced(&trace, &base, &model, MAX_CYCLES, threads)
                    .unwrap()
                    .len()
            })
        });
    }

    // The whole multi-workload campaign over the paper's 52-variable space.
    for threads in THREAD_SETTINGS {
        let engine = Campaign::new().with_weights(Weights::runtime_optimized()).with_measurement(
            MeasurementOptions { max_cycles: MAX_CYCLES, threads, use_replay: true },
        );
        group.bench_function(format!("multi_workload_campaign_threads_{threads}"), |b| {
            b.iter(|| {
                engine
                    .run(&suite, &Campaign::equal_mix(suite.len()))
                    .unwrap()
                    .co
                    .selected
                    .len()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, campaign_parallel_speedup);
criterion_main!(benches);
