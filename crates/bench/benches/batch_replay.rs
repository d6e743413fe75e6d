//! Batched-replay benchmarks (DESIGN.md §9).
//!
//! One group, emitting `BENCH_batch_replay.json`, timing the one-pass
//! batched replay engine (one walk per behavior class, the op stream decoded
//! once and fanned out to every class) on the paper's two central sweeps, at
//! `Scale::Small` *and* `Scale::Medium` (override with `BENCH_SCALE`, e.g.
//! `BENCH_SCALE=large` on a machine with headroom):
//!
//! * `fig2_sweep_batched` — the exhaustive d-cache sweep given a captured
//!   trace (28 geometries, 18 walked classes → a single memory-stream pass);
//! * `cost_table_batched` — the full 52-variable measurement phase
//!   (`measure_cost_table_traced`).
//!
//! Both run at `threads = 1`: this artifact isolates the one-pass walk;
//! thread-level scaling is tracked in `BENCH_campaign.json`.  A trace
//! remembers the classes it has walked, so every iteration walks a fresh
//! clone of the captured trace (a cold copy) and the clone is timed with
//! it.  Before anything is timed, `prepare` pins the
//! `leon_sim::trace_walks_performed` budget the numbers rely on (one fused
//! memory pass for the sweep, at most one pass per stream for the table),
//! each on a cold copy.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use std::time::Duration;

use autoreconf::{
    dcache_exhaustive_traced, measure_cost_table_traced, MeasurementOptions, ParameterSpace,
};
use bench::MAX_CYCLES;
use fpga_model::SynthesisModel;
use leon_sim::{trace_walks_performed, LeonConfig, Trace};
use workloads::{Blastn, Scale, Workload};

fn options() -> MeasurementOptions {
    MeasurementOptions { max_cycles: MAX_CYCLES, threads: 1 }
}

struct Prepared {
    scale: Scale,
    workload: Blastn,
    trace: Trace,
}

/// Capture the scale's trace once and pin the walk-budget contracts before
/// any timing.
fn prepare(scale: Scale) -> Prepared {
    let workload = Blastn::scaled(scale);
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let space = ParameterSpace::paper();
    let (_, trace) = workloads::capture_verified(&workload, &base, MAX_CYCLES).unwrap();

    // Figure 2 sweep: a single memory-stream pass
    let before = trace_walks_performed();
    dcache_exhaustive_traced(&trace.clone(), &base, &model, MAX_CYCLES, 1).unwrap();
    let sweep_walks = trace_walks_performed() - before;
    assert_eq!(sweep_walks, 1, "batched sweep must fuse into one memory-stream pass");

    // 52-variable cost table: at most one pass per trace stream
    let before = trace_walks_performed();
    let name = workload.name();
    measure_cost_table_traced(&space, name, &base, &model, &options(), &trace.clone()).unwrap();
    let table_walks = trace_walks_performed() - before;
    assert!(table_walks <= 2, "batched table must walk each stream at most once");
    eprintln!(
        "batch_replay bench: contracts verified at scale {:?} (sweep walks {}, table walks {})",
        scale, sweep_walks, table_walks
    );
    Prepared { scale, workload, trace }
}

fn register(group: &mut BenchmarkGroup, prepared: &Prepared) {
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let space = ParameterSpace::paper();
    let scale = prepared.scale.name();
    let trace = &prepared.trace;
    let name = prepared.workload.name();

    // each iteration walks (and times) a cold copy: the original remembers
    // every class its first walk visited
    group.bench_function(format!("fig2_sweep_batched/{scale}"), |b| {
        b.iter(|| {
            dcache_exhaustive_traced(&trace.clone(), &base, &model, MAX_CYCLES, 1).unwrap().len()
        })
    });
    group.bench_function(format!("cost_table_batched/{scale}"), |b| {
        b.iter(|| {
            measure_cost_table_traced(&space, name, &base, &model, &options(), &trace.clone())
                .unwrap()
                .len()
        })
    });
}

fn batch_replay(c: &mut Criterion) {
    let scales = match std::env::var("BENCH_SCALE") {
        Ok(v) => vec![Scale::parse(&v).unwrap_or_else(|e| panic!("BENCH_SCALE: {e}"))],
        Err(_) => vec![Scale::Small, Scale::Medium],
    };
    let prepared: Vec<Prepared> = scales.into_iter().map(prepare).collect();

    let mut group = c.benchmark_group("batch_replay");
    group.sample_size(10).measurement_time(Duration::from_secs(20));
    for p in &prepared {
        register(&mut group, p);
    }
    group.finish();
}

criterion_group!(benches, batch_replay);
criterion_main!(benches);
