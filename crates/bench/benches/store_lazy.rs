//! Lazy-materialization speedup benchmarks (DESIGN.md §8).
//!
//! One group, emitting `BENCH_store_lazy.json`, comparing the same
//! multi-workload campaign (paper's 52-variable space, non-uniform mix) in
//! four modes at `Scale::Small` *and* `Scale::Medium`:
//!
//! * `no_store/<scale>` — every artifact recomputed (the PR-2 baseline);
//! * `cold/<scale>` — store attached but empty each iteration (measures
//!   fingerprinting + persisting overhead);
//! * `warm_eager/<scale>` — the PR-3 warm path: every artifact, traces
//!   included, loaded and decoded from disk up front
//!   ([`autoreconf::CampaignSession::materialize_all`]);
//! * `warm_lazy/<scale>` — the lazy path: the co-optimization entry hits,
//!   the result is assembled from the small JSON artifacts, and **zero
//!   trace payload bytes** are read (counter-asserted below).
//!
//! The warm-lazy ≪ warm-eager gap is the trace load cost — at `Medium`
//! tens of megabytes per run: the file read, one XXH64 pass for the store
//! envelope, one for the trace trailer, and the record decode with the
//! derived summary and folded stream — which is exactly what lazy artifact
//! handles exist to avoid.  Cold-vs-warm byte-identity and the
//! zero-read/zero-guest counters are asserted per scale before anything is
//! timed.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use std::path::PathBuf;
use std::time::Duration;

use autoreconf::{ArtifactStore, Campaign, MeasurementOptions, Weights};
use bench::MAX_CYCLES;
use workloads::{
    benchmark_suite, guest_instructions_executed, trace_payload_bytes_read, Scale, Workload,
};

const MIX: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

fn engine(store: Option<ArtifactStore>) -> Campaign {
    let mut c = Campaign::new().with_weights(Weights::runtime_optimized()).with_measurement(
        MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0 },
    );
    if let Some(s) = store {
        c = c.with_store(s);
    }
    c
}

/// Populate a per-scale store and pin the contracts the numbers rely on:
/// byte-identity, zero guest execution, zero trace reads on the lazy path.
fn prepare(scale: Scale) -> (Vec<Box<dyn Workload + Send + Sync>>, PathBuf) {
    let suite = benchmark_suite(scale);
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-bench-lazy-{}-{}",
        std::process::id(),
        scale.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = engine(Some(ArtifactStore::open(&dir).unwrap())).run(&suite, &MIX).unwrap();
    let guests = guest_instructions_executed();
    let trace_bytes = trace_payload_bytes_read();
    let warm = engine(Some(ArtifactStore::open(&dir).unwrap())).run(&suite, &MIX).unwrap();
    assert_eq!(
        guest_instructions_executed(),
        guests,
        "warm campaign must execute zero guest instructions"
    );
    assert_eq!(
        trace_payload_bytes_read(),
        trace_bytes,
        "warm-lazy campaign with a co hit must read zero trace payload bytes"
    );
    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "cold and warm campaign results must be byte-identical"
    );
    eprintln!(
        "store_lazy: byte-identity + zero-trace-read contracts verified at scale {:?}",
        scale
    );
    (suite, dir)
}

fn register(
    group: &mut BenchmarkGroup,
    scale: Scale,
    suite: &[Box<dyn Workload + Send + Sync>],
    dir: &PathBuf,
) {
    group.bench_function(format!("no_store/{}", scale.name()), |b| {
        b.iter(|| engine(None).run(suite, &MIX).unwrap().co.selected.len())
    });

    group.bench_function(format!("cold/{}", scale.name()), |b| {
        b.iter(|| {
            let cold_dir = dir.with_extension("cold");
            let _ = std::fs::remove_dir_all(&cold_dir);
            let store = ArtifactStore::open(&cold_dir).unwrap();
            engine(Some(store)).run(suite, &MIX).unwrap().co.selected.len()
        })
    });

    group.bench_function(format!("warm_eager/{}", scale.name()), |b| {
        b.iter(|| {
            // the PR-3 semantics: decode every artifact (traces included)
            let store = ArtifactStore::open(dir).unwrap();
            let session = engine(Some(store)).session(suite).unwrap();
            session.materialize_all().unwrap();
            session.into_result(&MIX).unwrap().co.selected.len()
        })
    });

    group.bench_function(format!("warm_lazy/{}", scale.name()), |b| {
        b.iter(|| {
            let store = ArtifactStore::open(dir).unwrap();
            engine(Some(store)).run(suite, &MIX).unwrap().co.selected.len()
        })
    });
}

fn store_lazy(c: &mut Criterion) {
    // BENCH_SCALE (if set) wins; the default covers Small and Medium — the
    // scale where lazy materialization pays ~0.4 s per warm run
    let scales = match std::env::var("BENCH_SCALE") {
        Ok(v) => vec![Scale::parse(&v).unwrap_or_else(|e| panic!("BENCH_SCALE: {e}"))],
        Err(_) => vec![Scale::Small, Scale::Medium],
    };
    let prepared: Vec<_> = scales.iter().map(|&scale| (scale, prepare(scale))).collect();

    let mut group = c.benchmark_group("store_lazy");
    group.sample_size(10).measurement_time(Duration::from_secs(25));
    for (scale, (suite, dir)) in &prepared {
        register(&mut group, *scale, suite, dir);
    }
    group.finish();

    for (_, (_, dir)) in &prepared {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(dir.with_extension("cold"));
    }
}

criterion_group!(benches, store_lazy);
criterion_main!(benches);
