//! Trace codec benchmarks (DESIGN.md §10): what storing and re-reading a
//! trace costs next to capturing it again.
//!
//! One group, emitting `BENCH_codec.json`, with three rows per workload of
//! the benchmark suite at [`bench::campaign_scale`] (`Scale::Small` unless
//! `BENCH_SCALE` says otherwise):
//!
//! * `capture/<workload>` — one verified guest run with tracing on
//!   (`workloads::capture_verified`), the work a stored trace saves;
//! * `encode/<workload>` — `Trace::to_bytes`: header, segment index,
//!   records and the XXH64 trailer;
//! * `decode/<workload>` — `Trace::from_bytes`: the trailer check, header
//!   and index, the records, and the derived summary, folded stream and
//!   segment table.
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
        "codec: {} round-trips ({} records, {} segments, {} bytes)",
        workload.name(),
        trace.len(),
        trace.segment_count(),
        bytes.len()
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
            b.iter(|| capture_verified(p.workload.as_ref(), &base, MAX_CYCLES).unwrap().1.len())
        });
        group.bench_function(format!("encode/{name}"), |b| b.iter(|| p.trace.to_bytes().len()));
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| Trace::from_bytes(&p.bytes).unwrap().len())
        });
    }
    group.finish();
}

criterion_group!(benches, codec);
criterion_main!(benches);
