//! Population-engine contracts (DESIGN.md §12):
//!
//! * **coverage** — every tenant of a 64-mix population is assigned a
//!   frontier configuration whose predicted regret is within the requested
//!   tolerance, the frontier partitions the tenants, and every frontier
//!   configuration fits the device;
//! * **batched = brute force** — the batched population path produces, for
//!   every tenant, byte-for-byte the same `CoOutcome` as a naive one-mix-at-
//!   a-time `co_optimize` loop, at `threads = 1` and `threads = 4`, and the
//!   two thread counts produce byte-identical `PopulationOutcome`s from
//!   *independent* stores (same-bytes, not same-cache);
//! * **scalar-multiple dedup** (property-tested) — `k·mix` for power-of-two
//!   `k` (including huge and tiny factors) canonicalises to bit-identical
//!   shares, lands on the same store entry (one cold compute,
//!   counter-asserted via guest instructions and `co` entry counts) and
//!   returns byte-identical outcomes; a population of scalar multiples
//!   collapses onto one unique mix.
//!
//! Counter-asserting tests share one process-wide lock so every
//! guest-instruction delta stays attributable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use liquid_autoreconf::apps::{benchmark_suite, guest_instructions_executed, Scale};
use liquid_autoreconf::sim::trace_walks_performed;
use liquid_autoreconf::tuner::{
    canonical_shares, random_mixes, ArtifactStore, Campaign, MeasurementOptions, MixProfile,
    ParameterSpace, PopulationOutcome, Weights,
};
use proptest::prelude::*;

const MAX_CYCLES: u64 = 400_000_000;
const TOLERANCE_PCT: f64 = 5.0;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-population-{}-{}-{tag}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fast test engine: tiny suite, restricted d-cache space (the same
/// configuration the incremental-store tests pin their counters on).
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

fn population_json(outcome: &PopulationOutcome) -> String {
    serde_json::to_string(outcome).unwrap()
}

#[test]
fn frontier_covers_every_tenant_within_tolerance() {
    let suite = benchmark_suite(Scale::Tiny);
    let mixes = random_mixes(64, suite.len(), 7);
    let engine = engine(0, None);
    let session = engine.session(&suite).unwrap();
    let outcome = session.population(&mixes, TOLERANCE_PCT).unwrap();

    assert_eq!(outcome.tenants.len(), 64);
    assert_eq!(outcome.tolerance_pct, TOLERANCE_PCT);
    assert!(!outcome.frontier.is_empty());
    assert!(outcome.unique.len() <= 64);
    assert!(outcome.frontier.len() <= outcome.candidates);

    // every tenant is served within tolerance by a fitting configuration
    for (t, tenant) in outcome.tenants.iter().enumerate() {
        assert!(
            tenant.regret_pct <= TOLERANCE_PCT,
            "tenant {t} ({}) regret {}% exceeds the tolerance",
            tenant.name,
            tenant.regret_pct
        );
        // regret may be slightly negative: the assigned configuration can
        // beat the tenant's own BINLP optimum on pure predicted runtime,
        // because the solver's objective is not runtime alone
        assert!(tenant.regret_pct.is_finite());
        let point = &outcome.frontier[tenant.frontier_index];
        assert!(point.fits, "tenant {t} is assigned a configuration that does not fit");
        assert!(point.tenants.contains(&t));
        assert!(tenant.unique_index < outcome.unique.len());
    }

    // the frontier's tenant lists partition the population
    let mut seen = vec![false; outcome.tenants.len()];
    for point in &outcome.frontier {
        assert!(point.max_regret_pct <= TOLERANCE_PCT);
        for &t in &point.tenants {
            assert!(!seen[t], "tenant {t} served by two frontier configurations");
            seen[t] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "every tenant must be served by the frontier");

    // scalar multiples from the integer weight grid actually collapsed
    assert!(
        outcome.unique.len() < outcome.tenants.len(),
        "a 64-mix grid population must contain scalar-multiple duplicates"
    );
    assert!(outcome.render().contains("frontier"));
}

#[test]
fn batched_population_matches_brute_force_per_mix_loop_at_1_and_4_threads() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let mixes = random_mixes(64, suite.len(), 11);

    // threads = 1 and threads = 4 solve the same population over
    // *independent* stores: byte-identity must come from determinism, not
    // from one run reading the other's cache
    let dir1 = scratch_dir("threads1");
    let dir4 = scratch_dir("threads4");
    let engine1 = engine(1, Some(ArtifactStore::open(&dir1).unwrap()));
    let engine4 = engine(4, Some(ArtifactStore::open(&dir4).unwrap()));
    let session1 = engine1.session(&suite).unwrap();
    let session4 = engine4.session(&suite).unwrap();
    let outcome1 = session1.population(&mixes, TOLERANCE_PCT).unwrap();
    let outcome4 = session4.population(&mixes, TOLERANCE_PCT).unwrap();
    assert_eq!(
        population_json(&outcome1),
        population_json(&outcome4),
        "population solves must be byte-identical at threads = 1 and threads = 4"
    );

    // brute force: a naive per-mix co_optimize loop over the warm store
    // must land on byte-for-byte the tenant's unique outcome — and read
    // everything from the store (zero guest instructions, zero trace walks)
    let guests_before = guest_instructions_executed();
    let walks_before = trace_walks_performed();
    for (t, mix) in mixes.iter().enumerate() {
        let brute = session4.co_optimize(&mix.weights).unwrap();
        let unique = &outcome4.unique[outcome4.tenants[t].unique_index];
        assert_eq!(
            serde_json::to_string(&brute).unwrap(),
            serde_json::to_string(unique).unwrap(),
            "tenant {t} ({}): brute-force co_optimize diverged from the batched path",
            mix.name
        );
    }
    assert_eq!(
        guest_instructions_executed(),
        guests_before,
        "the brute-force loop over a warm store must execute zero guest instructions"
    );
    assert_eq!(
        trace_walks_performed(),
        walks_before,
        "the brute-force loop over a warm store must perform zero trace walks"
    );

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn scalar_multiples_share_one_store_entry_and_one_cold_compute() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("scalar");
    let engine = engine(2, Some(ArtifactStore::open(&dir).unwrap()));
    let session = engine.session(&suite).unwrap();

    let base = [3.0, 1.0, 0.0, 2.0];
    let reference = serde_json::to_string(&session.co_optimize(&base).unwrap()).unwrap();
    let store = engine.store().unwrap();
    assert_eq!(store.entries(Some("co")).len(), 1, "exactly one cold compute");

    // power-of-two factors rescale exactly under IEEE-754 normalisation —
    // including huge (2^500) and tiny (2^-500) ones
    let guests_before = guest_instructions_executed();
    for k in [0.5, 2.0, 65536.0, 2.0f64.powi(500), 2.0f64.powi(-500)] {
        let scaled: Vec<f64> = base.iter().map(|w| w * k).collect();
        let outcome = serde_json::to_string(&session.co_optimize(&scaled).unwrap()).unwrap();
        assert_eq!(outcome, reference, "k = {k} must be byte-identical to the base mix");
    }
    assert_eq!(
        store.entries(Some("co")).len(),
        1,
        "every scalar multiple must land on the single existing store entry"
    );
    assert_eq!(
        guest_instructions_executed(),
        guests_before,
        "scalar-multiple re-asks must not recompute anything"
    );

    // and a population of scalar multiples collapses onto one unique mix
    let profiles: Vec<MixProfile> = [1.0, 4.0, 2.0f64.powi(120)]
        .iter()
        .enumerate()
        .map(|(i, &k)| MixProfile {
            name: format!("tenant-{i}"),
            weights: base.iter().map(|w| w * k).collect(),
        })
        .collect();
    let outcome = session.population(&profiles, TOLERANCE_PCT).unwrap();
    assert_eq!(outcome.unique.len(), 1, "scalar multiples must dedup to one unique mix");
    assert_eq!(outcome.frontier.len(), 1);
    assert_eq!(store.entries(Some("co")).len(), 1, "the population reused the same entry");
    assert!(outcome.tenants.iter().all(|t| t.regret_pct == 0.0));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded power-of-two exponent in `[-60, 60]`, plus the extremes the
/// explicit test above pins (`±500`).
fn pow2_from(seed: u64) -> f64 {
    let e = (seed % 121) as i32 - 60;
    2.0f64.powi(e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `canonical_shares(k·mix)` is bit-identical to `canonical_shares(mix)`
    /// for any power-of-two `k` — the pure-function core of the store-entry
    /// dedup the tests above counter-assert.
    #[test]
    fn canonical_shares_are_invariant_under_power_of_two_scaling(seed in any::<u64>()) {
        let mut state = seed;
        let mut split = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mix: Vec<f64> = loop {
            let w: Vec<f64> = (0..4).map(|_| (split() % 9) as f64).collect();
            if w.iter().any(|&x| x > 0.0) {
                break w;
            }
        };
        let k = pow2_from(split());
        let scaled: Vec<f64> = mix.iter().map(|w| w * k).collect();
        let bits = |shares: &[f64]| shares.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let a = canonical_shares(&mix).unwrap();
        let b = canonical_shares(&scaled).unwrap();
        prop_assert_eq!(
            bits(&a),
            bits(&b),
            "k = {} must rescale exactly under normalisation", k
        );
    }
}
