//! Funnel budget contract of the pruned design-space search (DESIGN.md §13).
//!
//! The search module's reason to exist is that finding the optimum of a
//! candidate space must no longer walk every candidate.  These tests pin
//! that with the three process-wide funnel counters
//! (`candidates_enumerated` / `candidates_pruned_closed_form` /
//! `candidates_walk_validated`) and the replay engine's
//! `trace_walks_performed`:
//!
//! * on the paper's 28-geometry Figure 2 space, the pruned funnel
//!   walk-validates **fewer than half** the candidates (< 14 of 28) for every
//!   workload, the accounting identity
//!   `enumerated = pruned_closed_form + walk_validated` holds per search, and
//!   the trace-walk budget stays within the batched-replay class bound;
//! * on the 24 192-candidate expanded space, **at least 90 % of the
//!   candidates are never walked**;
//! * pruned and exhaustive modes return the byte-identical optimum (the
//!   full parity matrix lives in `tests/search_parity.rs`).
//!
//! The counters are process-global, so every test takes one shared lock
//! around its delta measurements (the `tests/batch_walk_budget.rs` pattern).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use liquid_autoreconf::apps::{benchmark_suite, Scale};
use liquid_autoreconf::sim::trace_walks_performed;
use liquid_autoreconf::tuner::{
    candidates_enumerated, candidates_pruned_closed_form, candidates_walk_validated,
    ArtifactStore, Campaign, MeasurementOptions, ParameterSpace, SearchMode, SearchSpace,
    Weights,
};

const MAX_CYCLES: u64 = 400_000_000;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-search-budget-{}-{}-{tag}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(threads: usize, store: Option<ArtifactStore>) -> Campaign {
    let mut c = Campaign::new()
        .with_space(ParameterSpace::dcache_geometry())
        .with_weights(Weights::runtime_optimized())
        .with_measurement(MeasurementOptions {
            max_cycles: MAX_CYCLES,
            threads,
            use_replay: true,
        });
    if let Some(s) = store {
        c = c.with_store(s);
    }
    c
}

#[test]
fn figure2_pruned_walks_fewer_than_half_the_candidates() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("fig2");
    let engine = engine(1, Some(ArtifactStore::open(&dir).unwrap()));
    let session = engine.session(&suite).unwrap();
    let sspace = SearchSpace::figure2();
    assert_eq!(sspace.len(), 28);

    for index in 0..suite.len() {
        let name = suite[index].name();

        // the exhaustive baseline first: it warms the trace + cost table, so
        // the pruned deltas below are attributable to the funnel alone
        let e0 = candidates_enumerated();
        let p0 = candidates_pruned_closed_form();
        let v0 = candidates_walk_validated();
        let exhaustive = session.search(index, &sspace, SearchMode::Exhaustive).unwrap();
        assert_eq!(candidates_enumerated() - e0, 28, "{name}: exhaustive enumerates all");
        assert_eq!(
            candidates_walk_validated() - v0,
            (28 - exhaustive.candidates_infeasible) as u64,
            "{name}: exhaustive walk-validates every feasible candidate"
        );
        assert_eq!(
            (candidates_pruned_closed_form() - p0) as usize,
            exhaustive.candidates_infeasible,
            "{name}: exhaustive prunes exactly the infeasible candidates"
        );

        // the pruned funnel: same optimum, fewer than half the walks
        let e0 = candidates_enumerated();
        let p0 = candidates_pruned_closed_form();
        let v0 = candidates_walk_validated();
        let w0 = trace_walks_performed();
        let pruned = session.search(index, &sspace, SearchMode::Pruned).unwrap();
        let enumerated = candidates_enumerated() - e0;
        let pruned_cf = candidates_pruned_closed_form() - p0;
        let validated = candidates_walk_validated() - v0;
        let walks = trace_walks_performed() - w0;
        println!(
            "figure2 {name}: enumerated {enumerated}, pruned {pruned_cf}, validated \
             {validated}, rounds {}, frontier {}, walks {walks}",
            pruned.validation_rounds, pruned.frontier_size
        );

        assert_eq!(enumerated, 28, "{name}: the funnel enumerates the whole space");
        assert_eq!(
            enumerated,
            pruned_cf + validated,
            "{name}: every candidate is either pruned closed-form or walk-validated"
        );
        assert_eq!(validated as usize, pruned.candidates_walk_validated);
        assert_eq!(pruned_cf as usize, pruned.candidates_pruned_closed_form);
        assert!(
            validated < 14,
            "{name}: pruned mode must walk-validate fewer than half of 28, got {validated}"
        );
        assert!(
            pruned.frontier_size <= pruned.candidates_walk_validated,
            "{name}: everything the Pareto frontier seeds gets validated"
        );

        // walk budget: the batched engine pays at most one walk per validated
        // candidate per stream — far below one-walk-per-candidate — and the
        // figure-2 space touches only the memory stream
        assert!(
            walks <= validated,
            "{name}: batched validation must not walk more than once per validated \
             candidate ({walks} > {validated})"
        );

        // both modes crown the byte-identical optimum
        assert_eq!(
            serde_json::to_string(&pruned.best).unwrap(),
            serde_json::to_string(&exhaustive.best).unwrap(),
            "{name}: pruned and exhaustive must agree on the optimum"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expanded_space_prunes_at_least_ninety_percent_without_walking() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("expanded");
    let engine = engine(0, Some(ArtifactStore::open(&dir).unwrap()));
    let session = engine.session(&suite).unwrap();
    let sspace = SearchSpace::expanded();
    assert_eq!(sspace.len(), 24_192);

    // BLASTN: the memory-bound workload where cache geometry matters most
    let index = 0;
    let e0 = candidates_enumerated();
    let p0 = candidates_pruned_closed_form();
    let v0 = candidates_walk_validated();
    let outcome = session.search(index, &sspace, SearchMode::Pruned).unwrap();
    let enumerated = candidates_enumerated() - e0;
    let pruned_cf = candidates_pruned_closed_form() - p0;
    let validated = candidates_walk_validated() - v0;
    println!(
        "expanded {}: enumerated {enumerated}, pruned {pruned_cf}, validated {validated}, \
         infeasible {}, rounds {}, frontier {}",
        outcome.workload, outcome.candidates_infeasible, outcome.validation_rounds,
        outcome.frontier_size
    );

    assert_eq!(enumerated, 24_192);
    assert_eq!(enumerated, pruned_cf + validated);
    assert!(
        validated <= 2_419,
        "expanded space must prune at least 90% closed-form, walk-validated {validated}"
    );
    let best = outcome.best.expect("the base configuration always fits");
    assert!(best.recommended.validate().is_ok());

    let _ = std::fs::remove_dir_all(&dir);
}
