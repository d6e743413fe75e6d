//! Incremental-store speedup benchmarks (DESIGN.md §7).
//!
//! One group, emitting `BENCH_store.json`, comparing the same multi-workload
//! campaign (paper's 52-variable space, non-uniform mix) in four modes:
//!
//! * `campaign_no_store` — the PR-2 baseline: every artifact recomputed;
//! * `campaign_cold_store` — store attached but empty each iteration
//!   (measures the overhead of fingerprinting + persisting);
//! * `campaign_warm_store` — every trace, cost table, sweep and per-app
//!   optimum served from disk; the run executes **zero guest instructions**
//!   and replays only to validate the final co-optimization;
//! * `update_workload_and_reoptimize_warm` — the incremental path: build a
//!   warm session, swap one workload of the mix, re-derive only its
//!   artifacts (warm after the first iteration) and re-run blend + BINLP.
//!
//! Cold-vs-warm results are asserted byte-identical before the group runs;
//! the JSON artifact then quantifies the warm ≪ cold wall-time claim.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use autoreconf::{ArtifactStore, Campaign, MeasurementOptions, Weights};
use bench::{campaign_scale, MAX_CYCLES};
use leon_isa::Program;
use workloads::{benchmark_suite, guest_instructions_executed, Arith, Workload};

const MIX: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

/// `Arith` under a different name: a content-distinct stand-in for "one
/// workload of the mix changed" in the incremental-update benchmark.
struct RetaggedArith(Arith);

impl Workload for RetaggedArith {
    fn name(&self) -> &str {
        "Arith-v2"
    }
    fn description(&self) -> &str {
        self.0.description()
    }
    fn build(&self) -> Program {
        self.0.build()
    }
    fn expected_reports(&self) -> Vec<(u16, u32)> {
        self.0.expected_reports()
    }
}

fn engine(store: Option<ArtifactStore>) -> Campaign {
    let mut c = Campaign::new().with_weights(Weights::runtime_optimized()).with_measurement(
        MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0, use_replay: true },
    );
    if let Some(s) = store {
        c = c.with_store(s);
    }
    c
}

fn store_reuse(c: &mut Criterion) {
    let scale = campaign_scale();
    let suite = benchmark_suite(scale);
    let dir = std::env::temp_dir().join(format!("autoreconf-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // populate the store once and pin the cold-vs-warm equivalence the
    // benchmark numbers rely on
    let cold = engine(Some(ArtifactStore::open(&dir).unwrap())).run(&suite, &MIX).unwrap();
    let guests_before_warm = guest_instructions_executed();
    let warm = engine(Some(ArtifactStore::open(&dir).unwrap())).run(&suite, &MIX).unwrap();
    assert_eq!(
        guest_instructions_executed(),
        guests_before_warm,
        "warm campaign must execute zero guest instructions"
    );
    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "cold and warm campaign results must be byte-identical"
    );
    eprintln!("store_reuse: cold-vs-warm byte-identity verified at scale {:?}", scale);

    let mut group = c.benchmark_group("store");
    group.sample_size(10).measurement_time(Duration::from_secs(25));

    group.bench_function("campaign_no_store", |b| {
        b.iter(|| engine(None).run(&suite, &MIX).unwrap().co.selected.len())
    });

    group.bench_function("campaign_cold_store", |b| {
        b.iter(|| {
            let cold_dir = dir.with_extension("cold");
            let _ = std::fs::remove_dir_all(&cold_dir);
            let store = ArtifactStore::open(&cold_dir).unwrap();
            engine(Some(store)).run(&suite, &MIX).unwrap().co.selected.len()
        })
    });

    group.bench_function("campaign_warm_store", |b| {
        b.iter(|| {
            let store = ArtifactStore::open(&dir).unwrap();
            engine(Some(store)).run(&suite, &MIX).unwrap().co.selected.len()
        })
    });

    group.bench_function("update_workload_and_reoptimize_warm", |b| {
        b.iter(|| {
            let store = ArtifactStore::open(&dir).unwrap();
            let mut session = engine(Some(store)).session(&suite).unwrap();
            session.update_workload(3, &RetaggedArith(Arith::scaled(scale))).unwrap();
            session.result(&MIX).unwrap().co.selected.len()
        })
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(dir.with_extension("cold"));
}

criterion_group!(benches, store_reuse);
criterion_main!(benches);
