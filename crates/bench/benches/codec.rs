//! Trace codec benchmarks (DESIGN.md §10): what storing and re-reading a
//! trace costs next to capturing it again.
//!
//! One group, emitting `BENCH_codec.json`, with three rows per workload of
//! the benchmark suite at [`bench::campaign_scale`] (`Scale::Small` unless
//! `BENCH_SCALE` says otherwise):
//!
//! * `capture/<workload>` — one verified guest run with tracing on
//!   (`workloads::capture_verified`), the work a stored trace saves;
//! * `encode/<workload>` — `Trace::to_bytes` (format version 6): the
//!   header with the event counts, the fetch runs and folded memory items
//!   at 8 bytes each, and the XXH64 trailer;
//! * `decode/<workload>` — `Trace::from_bytes`: the trailer check, the
//!   header, one bulk read per stream, and one validation pass of the
//!   streams against the counts.  Nothing is derived.
//!
//! ROADMAP item 3 targets encode + decode ≤ 25% of capture per workload.
//! Before anything is timed, `prepare` asserts that every trace
//! round-trips exactly.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use bench::{campaign_scale, MAX_CYCLES};
use leon_sim::{LeonConfig, Trace};
use workloads::{benchmark_suite, capture_verified, Workload};

struct Prepared {
    workload: Box<dyn Workload + Send + Sync>,
    trace: Trace,
    bytes: Vec<u8>,
}

/// Capture each workload once and pin the round-trip contract.
fn prepare(workload: Box<dyn Workload + Send + Sync>) -> Prepared {
    let (_, trace) = capture_verified(workload.as_ref(), &LeonConfig::base(), MAX_CYCLES).unwrap();
    let bytes = trace.to_bytes();
    assert_eq!(
        Trace::from_bytes(&bytes).unwrap(),
        trace,
        "{}: decode(encode(t)) must equal t",
        workload.name()
    );
    eprintln!(
        "codec: {} round-trips ({} fetch runs, {} memory items, {} bytes, {:.2} per instruction)",
        workload.name(),
        trace.fetch_runs().len(),
        trace.memory_items().len(),
        bytes.len(),
        bytes.len() as f64 / trace.instructions() as f64
    );
    Prepared { workload, trace, bytes }
}

fn codec(c: &mut Criterion) {
    let prepared: Vec<Prepared> =
        benchmark_suite(campaign_scale()).into_iter().map(prepare).collect();
    let base = LeonConfig::base();

    let mut group = c.benchmark_group("codec");
    group.sample_size(15).measurement_time(Duration::from_secs(10));
    for p in &prepared {
        let name = p.workload.name().to_lowercase();
        group.bench_function(format!("capture/{name}"), |b| {
            b.iter(|| {
                capture_verified(p.workload.as_ref(), &base, MAX_CYCLES).unwrap().1.instructions()
            })
        });
        group.bench_function(format!("encode/{name}"), |b| b.iter(|| p.trace.to_bytes().len()));
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| Trace::from_bytes(&p.bytes).unwrap().instructions())
        });
    }
    group.finish();
}

criterion_group!(benches, codec);
criterion_main!(benches);
