//! Segmented intra-trace replay scaling benchmarks (DESIGN.md §10).
//!
//! One group, emitting `BENCH_segments.json`, comparing the monolithic
//! fused walk (`leon_sim::replay_batch`) against the class-span ×
//! trace-segment worker pool (`autoreconf::replay_batch_indexed`) at 1, 2
//! and 4 workers, on a Figure 2-style d-cache geometry sweep over a
//! captured BLASTN trace at `Scale::Small` *and* `Scale::Medium` (override
//! with `BENCH_SCALE`).
//!
//! Segment-level scheduling only pays off with real cores: on a single-CPU
//! host the 2/4-worker rows measure scheduling overhead, not speedup —
//! record the numbers either way, they are the honest baseline.
//!
//! Before anything is timed, `prepare` pins the contract the numbers rely
//! on: every pool size bit-identical to the monolithic walk.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use std::time::Duration;

use autoreconf::replay_batch_indexed;
use bench::MAX_CYCLES;
use leon_sim::{replay_batch, CacheConfig, LeonConfig, Trace};
use workloads::{Blastn, Scale};

/// The Figure 2 axes as a replay batch: every valid d-cache geometry
/// (ways × way size) against the capturing configuration.
fn sweep_configs(base: &LeonConfig) -> Vec<LeonConfig> {
    let mut configs = Vec::new();
    for ways in [1u8, 2, 4] {
        for way_kb in CacheConfig::VALID_WAY_KB {
            let mut c = *base;
            c.dcache.ways = ways;
            c.dcache.way_kb = way_kb;
            if c.validate().is_ok() {
                configs.push(c);
            }
        }
    }
    configs
}

struct Prepared {
    scale: Scale,
    trace: Trace,
    configs: Vec<LeonConfig>,
}

/// Capture the scale's trace once and pin the equivalence contract before
/// any timing.
fn prepare(scale: Scale) -> Prepared {
    let workload = Blastn::scaled(scale);
    let base = LeonConfig::base();
    let (_, trace) = workloads::capture_verified(&workload, &base, MAX_CYCLES).unwrap();
    let configs = sweep_configs(&base);

    let mono = replay_batch(&trace, &configs, MAX_CYCLES);
    for threads in [1usize, 2, 4] {
        assert_eq!(
            replay_batch_indexed(&trace, &configs, MAX_CYCLES, threads),
            mono,
            "segmented pool at threads={threads} must match the monolithic walk"
        );
    }
    eprintln!(
        "segments: contracts verified at scale {:?} ({} memory items, {} segments, {} configs)",
        scale,
        trace.memory_items().len(),
        trace.memory_segment_count(),
        configs.len()
    );
    Prepared { scale, trace, configs }
}

fn register(group: &mut BenchmarkGroup, prepared: &Prepared) {
    let scale = prepared.scale.name();
    let trace = &prepared.trace;
    let configs = &prepared.configs;

    group.bench_function(format!("monolithic/{scale}"), |b| {
        b.iter(|| replay_batch(trace, configs, MAX_CYCLES).len())
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("segmented_{threads}w/{scale}"), |b| {
            b.iter(|| replay_batch_indexed(trace, configs, MAX_CYCLES, threads).len())
        });
    }
}

fn segments(c: &mut Criterion) {
    let scales = match std::env::var("BENCH_SCALE") {
        Ok(v) => vec![Scale::parse(&v).unwrap_or_else(|e| panic!("BENCH_SCALE: {e}"))],
        Err(_) => vec![Scale::Small, Scale::Medium],
    };
    let prepared: Vec<Prepared> = scales.into_iter().map(prepare).collect();

    let mut group = c.benchmark_group("segments");
    group.sample_size(10).measurement_time(Duration::from_secs(20));
    for p in &prepared {
        register(&mut group, p);
    }
    group.finish();
}

criterion_group!(benches, segments);
criterion_main!(benches);
