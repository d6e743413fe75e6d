//! Parity matrix of the pruned design-space search (DESIGN.md §13).
//!
//! The funnel's one non-negotiable promise is that pruning is invisible in
//! the answer: [`SearchMode::Pruned`] crowns the **byte-identical** optimum
//! [`SearchMode::Exhaustive`] does, for every workload, every thread count,
//! and any subspace/weighting thrown at it.  The budget half of the
//! contract (how little the funnel walks) lives in `tests/search_budget.rs`;
//! this file pins:
//!
//! * **deterministic parity** — pruned ≡ exhaustive best on all four
//!   workloads, and the full pruned outcome is byte-identical between a
//!   single-threaded and a 4-thread engine over independent stores;
//! * **randomised parity** (proptest) — random subspaces of the Figure 2
//!   grid × random non-negative weights × random workload, threads 1 vs 4,
//!   plus a prune-soundness spot-check: candidates the funnel never walked
//!   are re-measured the slow way and must not beat the crowned optimum;
//! * **store round-trip** — a warm re-search is served from disk
//!   byte-identically with zero guest instructions, zero trace walks and no
//!   funnel-counter ticks, and `store doctor` validates the `search`
//!   artifact kind (well-formed outcomes counted, a checksum-valid but
//!   malformed payload flagged and repaired away).
//!
//! Process-wide counters are read under one shared lock (the
//! `tests/batch_walk_budget.rs` pattern).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use liquid_autoreconf::apps::{benchmark_suite, guest_instructions_executed, Scale};
use liquid_autoreconf::fpga::SynthesisModel;
use liquid_autoreconf::sim::{replay, trace_walks_performed, LeonConfig};
use liquid_autoreconf::tuner::{
    candidates_walk_validated, ArtifactStore, Campaign, FingerprintBuilder, MeasurementOptions,
    ParameterSpace, SearchMode, SearchSpace, Weights,
};
use proptest::prelude::*;

const MAX_CYCLES: u64 = 400_000_000;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-search-parity-{}-{}-{tag}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(threads: usize, weights: Weights, store: Option<ArtifactStore>) -> Campaign {
    let mut c = Campaign::new()
        .with_space(ParameterSpace::dcache_geometry())
        .with_weights(weights)
        .with_measurement(MeasurementOptions { max_cycles: MAX_CYCLES, threads });
    if let Some(s) = store {
        c = c.with_store(s);
    }
    c
}

fn json(value: &impl serde::Serialize) -> String {
    serde_json::to_string(value).expect("serialise outcome")
}

#[test]
fn pruned_equals_exhaustive_and_is_thread_count_invariant() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let sspace = SearchSpace::figure2();

    // independent engines over independent stores — nothing shared but the
    // deterministic inputs
    let mut per_threads: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 4] {
        let dir = scratch_dir(&format!("t{threads}"));
        let engine =
            engine(threads, Weights::runtime_optimized(), Some(ArtifactStore::open(&dir).unwrap()));
        let session = engine.session(&suite).unwrap();
        let mut outcomes = Vec::new();
        for index in 0..suite.len() {
            let pruned = session.search(index, &sspace, SearchMode::Pruned).unwrap();
            let exhaustive = session.search(index, &sspace, SearchMode::Exhaustive).unwrap();
            assert_eq!(
                json(&pruned.best),
                json(&exhaustive.best),
                "{} (threads {threads}): pruned must crown the byte-identical optimum",
                pruned.workload
            );
            assert!(
                pruned.candidates_walk_validated < exhaustive.candidates_walk_validated,
                "{}: pruning must actually skip walks",
                pruned.workload
            );
            outcomes.push(json(&pruned));
        }
        per_threads.push(outcomes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    for (index, (t1, t4)) in per_threads[0].iter().zip(&per_threads[1]).enumerate() {
        assert_eq!(
            t1, t4,
            "workload #{index}: the full pruned outcome (counters, validated set, best) \
             must not depend on the engine's thread count"
        );
    }
}

#[test]
fn warm_research_is_served_from_disk_with_zero_compute() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("warm");
    let sspace = SearchSpace::figure2();

    let cold: Vec<String> = {
        let store = ArtifactStore::open(&dir).unwrap();
        let session =
            engine(1, Weights::runtime_optimized(), Some(store.clone())).session(&suite).unwrap();
        let cold = (0..suite.len())
            .map(|i| json(&session.search(i, &sspace, SearchMode::Pruned).unwrap()))
            .collect();
        let counters = session.counters();
        assert_eq!(counters.searches_solved, suite.len(), "cold run solves every search");
        assert_eq!(counters.search_store_hits, 0);
        assert_eq!(store.entries(Some("search")).len(), suite.len());
        cold
    };

    // a fresh engine on the same store: every search must come off disk —
    // no guest execution, no trace walks, no funnel ticks, no new entries
    let store = ArtifactStore::open(&dir).unwrap();
    let session =
        engine(1, Weights::runtime_optimized(), Some(store.clone())).session(&suite).unwrap();
    let g0 = guest_instructions_executed();
    let w0 = trace_walks_performed();
    let v0 = candidates_walk_validated();
    let warm: Vec<String> = (0..suite.len())
        .map(|i| json(&session.search(i, &sspace, SearchMode::Pruned).unwrap()))
        .collect();
    assert_eq!(warm, cold, "warm re-search must be byte-identical to the cold run");
    assert_eq!(guest_instructions_executed() - g0, 0, "warm re-search executes nothing");
    assert_eq!(trace_walks_performed() - w0, 0, "warm re-search walks no trace");
    assert_eq!(candidates_walk_validated() - v0, 0, "funnel counters only tick cold");
    let counters = session.counters();
    assert_eq!(counters.searches_solved, 0);
    assert_eq!(counters.search_store_hits, suite.len());
    assert_eq!(
        store.entries(Some("search")).len(),
        suite.len(),
        "a warm re-search adds no entries"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_doctor_validates_and_repairs_the_search_kind() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("doctor");
    let store = ArtifactStore::open(&dir).unwrap();
    {
        let session =
            engine(1, Weights::runtime_optimized(), Some(store.clone())).session(&suite).unwrap();
        session.search(0, &SearchSpace::figure2(), SearchMode::Pruned).unwrap();
    }

    let report = store.doctor(false).unwrap();
    assert!(report.is_clean(), "a freshly written search entry is clean:\n{}", report.render());
    assert_eq!(report.search_entries, 1, "the well-formed outcome is counted");
    assert_eq!(report.search_payload_errors, 0);

    // a valid envelope around a payload that is *not* a SearchOutcome: the
    // checksum vouches for the bytes, so only the doctor's typed search
    // pass can catch it
    let key = FingerprintBuilder::new().str("malformed-search-entry").finish();
    store.save("search", key, b"{\"not\":\"a search outcome\"}").unwrap();
    let report = store.doctor(false).unwrap();
    assert!(!report.is_clean(), "a malformed search payload must fail the doctor");
    assert_eq!(report.search_entries, 1);
    assert_eq!(report.search_payload_errors, 1);

    // repair deletes the malformed entry and leaves the good one behind
    let repaired = store.doctor(true).unwrap();
    assert!(repaired.repaired);
    let report = store.doctor(false).unwrap();
    assert!(report.is_clean(), "after repair:\n{}", report.render());
    assert_eq!(report.search_entries, 1, "the well-formed outcome survives repair");
    assert_eq!(report.search_payload_errors, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// splitmix64 — the repo's standard seeded generator for derived test inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random subspace × random weights × random workload: pruned ≡
    /// exhaustive bit-for-bit, thread counts 1 and 4 agree on the whole
    /// outcome, and no pruned candidate measures better than the optimum.
    #[test]
    fn pruned_search_matches_exhaustive(seed in any::<u64>()) {
        let _g = lock();
        let mut state = seed;
        let full = SearchSpace::figure2();

        // a random non-empty subset of the Figure 2 grid, in a random order
        // (subset() canonicalises, so order must not matter either)
        let keep: Vec<usize> =
            (0..full.len()).filter(|_| splitmix(&mut state) % 3 != 0).collect();
        let sub = if keep.is_empty() {
            full.subset(&[splitmix(&mut state) as usize % full.len()], "sub")
        } else {
            full.subset(&keep, "sub")
        };

        // non-negative weights spanning runtime-heavy to resource-heavy
        let weights = Weights {
            runtime: (splitmix(&mut state) % 2000) as f64 / 10.0,
            resources: (splitmix(&mut state) % 80) as f64 / 10.0,
        };
        let suite = benchmark_suite(Scale::Tiny);
        let workload = (splitmix(&mut state) as usize) % suite.len();

        let dir1 = scratch_dir("prop-t1");
        let dir4 = scratch_dir("prop-t4");
        let e1 = engine(1, weights, Some(ArtifactStore::open(&dir1).unwrap()));
        let e4 = engine(4, weights, Some(ArtifactStore::open(&dir4).unwrap()));
        let s1 = e1.session(&suite).unwrap();
        let s4 = e4.session(&suite).unwrap();

        let pruned = s1.search(workload, &sub, SearchMode::Pruned).unwrap();
        let exhaustive = s1.search(workload, &sub, SearchMode::Exhaustive).unwrap();
        prop_assert_eq!(
            json(&pruned.best),
            json(&exhaustive.best),
            "w={:?} workload={} |sub|={}: pruned must match exhaustive",
            weights, workload, sub.len()
        );
        let pruned4 = s4.search(workload, &sub, SearchMode::Pruned).unwrap();
        prop_assert_eq!(
            json(&pruned),
            json(&pruned4),
            "the full outcome must be thread-count invariant"
        );

        // prune-soundness spot-check: re-measure (the slow way) a few
        // feasible candidates the funnel never walked — pruning one that
        // beats the crowned optimum would be a soundness bug, not a tuning
        // matter
        if let Some(best) = &pruned.best {
            let base = LeonConfig::base();
            let model = SynthesisModel::default();
            let device = model.device();
            let entry = s1.trace(workload).unwrap();
            let walked: BTreeSet<usize> = pruned.validated.iter().copied().collect();
            let mut checked = 0;
            for (pos, selected) in sub.candidates.iter().enumerate() {
                if checked == 3 {
                    break;
                }
                if walked.contains(&pos) {
                    continue;
                }
                let config = sub.space.apply(&base, selected);
                let report = model.synthesize(&config);
                if !(report.fits && config.validate().is_ok()) {
                    continue;
                }
                let stats = replay(&entry.trace, &config, MAX_CYCLES).unwrap();
                let delta = (stats.cycles as f64 - entry.base_cycles as f64) * 100.0
                    / entry.base_cycles as f64;
                let resource = report.luts as f64 * 100.0 / device.luts as f64
                    + report.bram_blocks as f64 * 100.0 / device.bram_blocks as f64;
                let objective = weights.objective(delta, resource);
                prop_assert!(
                    objective >= best.objective - 1e-9,
                    "pruned candidate #{} measures {} — better than the optimum {}",
                    pos, objective, best.objective
                );
                checked += 1;
            }
        }

        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir4);
    }
}
