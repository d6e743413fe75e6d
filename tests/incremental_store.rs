//! Incremental campaign-store contracts:
//!
//! * **round-trip equivalence** — a campaign served from a warm store is
//!   byte-identical (compared as `serde_json` strings) to a cold run and to
//!   a store-less run, for a mixed co-optimization and for every degenerate
//!   per-workload mix, at `threads = 1` and `threads = 4`;
//! * **laziness** — a warm run whose co-optimization entry hits reads zero
//!   trace payload bytes and executes zero guest instructions (both
//!   counter-asserted), pinning the `Scale::Medium` warm-run win;
//! * **corruption/eviction safety** — truncated or bit-flipped entries, and
//!   entries in a retired envelope version, are detected (checksum/version
//!   validation), recomputed, and the final results still match the cold
//!   run;
//! * **invalidation precision** — updating one workload of a 4-workload mix
//!   re-captures exactly one trace and re-measures exactly one cost table;
//!   the other three are served from the store; an update is all or
//!   nothing, and what the session derives afterwards is named after the
//!   replacement;
//! * **store lifecycle invariants** (property-tested) — after `gc(budget)`
//!   the store fits the budget or only pinned entries remain, eviction
//!   strictly follows the access stamps, and the manifest matches the
//!   directory under random insert/load/corrupt/pin/gc sequences, with
//!   `doctor --repair` restoring a clean store.
//!
//! The campaign tests share one process-wide lock: the guest-instruction and
//! trace-byte assertions read process-global counters, and serialising the
//! campaign runs keeps every delta attributable.  The store property tests
//! use their own scratch directories and need no lock.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use liquid_autoreconf::apps::{
    benchmark_suite, guest_instructions_executed, trace_payload_bytes_read, Arith, Drr, Scale,
    Workload,
};
use liquid_autoreconf::isa::Program;
use liquid_autoreconf::sim::SimError;
use liquid_autoreconf::tuner::{
    ArtifactStore, Campaign, CampaignResult, CostTable, Fingerprint, FingerprintBuilder,
    MeasurementOptions, OptimizeError, ParameterSpace, SearchMode, SearchSpace, Weights,
};

const MAX_CYCLES: u64 = 400_000_000;
const MIX: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-incremental-{}-{}-{tag}",
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
        .with_measurement(MeasurementOptions { max_cycles: MAX_CYCLES, threads });
    if let Some(s) = store {
        c = c.with_store(s);
    }
    c
}

fn json(result: &CampaignResult) -> String {
    serde_json::to_string(result).unwrap()
}

#[test]
fn warm_store_runs_are_byte_identical_to_cold_and_storeless_runs() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let reference = json(&engine(1, None).run(&suite, &MIX).unwrap());

    let dir = scratch_dir("roundtrip");
    let store = ArtifactStore::open(&dir).unwrap();

    let cold = json(&engine(1, Some(store.clone())).run(&suite, &MIX).unwrap());
    assert_eq!(cold, reference, "a cold store run must not perturb the result");
    assert!(store.stats().writes >= 16, "cold run must persist 4 artifact kinds x 4 workloads");

    let warm1 = json(&engine(1, Some(store.clone())).run(&suite, &MIX).unwrap());
    let warm4 = json(&engine(4, Some(store.clone())).run(&suite, &MIX).unwrap());
    assert_eq!(warm1, reference, "warm (threads=1) must be byte-identical to cold");
    assert_eq!(warm4, reference, "warm (threads=4) must be byte-identical to cold");
    assert_eq!(store.stats().corrupt, 0);

    // a different cycle budget is a different measurement contract: its
    // artifacts must not be served from this store (budget-exhausting runs
    // error/truncate, so cross-budget reuse could diverge from a cold run)
    let other_budget = Campaign::new()
        .with_space(ParameterSpace::dcache_geometry())
        .with_weights(Weights::runtime_optimized())
        .with_measurement(MeasurementOptions { max_cycles: MAX_CYCLES * 2, threads: 2 })
        .with_store(store.clone());
    let session = other_budget.session(&suite).unwrap();
    session.materialize_all().unwrap();
    let c = session.counters();
    assert_eq!(c.trace_store_hits, 0, "a changed budget must miss every stored artifact");
    assert_eq!(c.trace_captures, 4);
    drop(session);

    // every degenerate per-workload mix, warm vs. store-less
    let warm_session = engine(2, Some(store.clone())).session(&suite).unwrap();
    let plain_session = engine(2, None).session(&suite).unwrap();
    for k in 0..suite.len() {
        let mut mix = vec![0.0; suite.len()];
        mix[k] = 1.0;
        assert_eq!(
            json(&warm_session.result(&mix).unwrap()),
            json(&plain_session.result(&mix).unwrap()),
            "degenerate mix on workload {k} must match without a store"
        );
    }
    assert_eq!(
        warm_session.counters().trace_captures,
        0,
        "the warm session must never capture, even across four degenerate co solves"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_co_hit_reads_zero_trace_payload_bytes_and_executes_no_guest_code() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("lazy");
    let store = ArtifactStore::open(&dir).unwrap();

    // cold: populates every artifact including the co outcome for MIX
    let cold = json(&engine(2, Some(store.clone())).run(&suite, &MIX).unwrap());

    // warm run with a co hit: the whole CampaignResult is assembled from the
    // co entry plus the small JSON artifacts — ZERO trace payload bytes and
    // ZERO guest instructions (this is the ~0.4 s Scale::Medium win; the
    // store_lazy benchmark quantifies it, this test pins the mechanism)
    let warm_store = ArtifactStore::open(&dir).unwrap();
    let guests_before = guest_instructions_executed();
    let trace_bytes_before = trace_payload_bytes_read();
    let warm = json(&engine(2, Some(warm_store.clone())).run(&suite, &MIX).unwrap());
    assert_eq!(
        trace_payload_bytes_read() - trace_bytes_before,
        0,
        "a warm co-hit campaign must read zero trace payload bytes"
    );
    assert_eq!(
        guest_instructions_executed() - guests_before,
        0,
        "a warm co-hit campaign must execute zero guest instructions"
    );
    assert_eq!(warm, cold, "the lazy warm result is still byte-identical");
    let s = warm_store.stats();
    assert!(s.hits >= 13, "tables/sweeps/optima/co must still be served from the store: {s:?}");
    assert_eq!(s.corrupt, 0);

    // sanity check that the counter actually measures trace reads: an eager
    // session (PR-3 semantics) on the same store DOES read trace payloads,
    // still without executing guest code
    let eager = engine(2, Some(ArtifactStore::open(&dir).unwrap())).session(&suite).unwrap();
    eager.materialize_all().unwrap();
    assert!(
        trace_payload_bytes_read() > trace_bytes_before,
        "an eager warm session must read the stored trace payloads"
    );
    assert_eq!(guest_instructions_executed(), guests_before);
    assert_eq!(eager.counters().trace_store_hits, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_are_detected_and_recomputed() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("corruption");
    let store = ArtifactStore::open(&dir).unwrap();

    let cold = json(&engine(2, Some(store.clone())).run(&suite, &MIX).unwrap());

    // truncate a stored trace mid-payload
    let trace_file = store.entries(Some("trace"))[0].clone();
    let bytes = std::fs::read(&trace_file).unwrap();
    std::fs::write(&trace_file, &bytes[..bytes.len() / 3]).unwrap();

    // flip one bit inside a stored cost table's payload
    let table_file = store.entries(Some("table"))[1].clone();
    let mut bytes = std::fs::read(&table_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&table_file, &bytes).unwrap();

    // replace a sweep entry with garbage that is not even an envelope
    let sweep_file = store.entries(Some("sweep"))[2].clone();
    std::fs::write(&sweep_file, b"not an artifact at all").unwrap();

    // and re-frame an intact optimum entry in the retired version-1
    // envelope.  Non-trace keys do not mix in the envelope version, so
    // such an entry sits at the very path a lookup opens.
    reframe_in_v1_envelope(&store.entries(Some("optimum"))[3]);

    // an eager session dereferences every artifact, so all four damaged
    // entries are hit, detected, recomputed and re-persisted
    let warm_store = ArtifactStore::open(&dir).unwrap();
    let session = engine(2, Some(warm_store.clone())).session(&suite).unwrap();
    session.materialize_all().unwrap();
    let healed = json(&session.result(&MIX).unwrap());
    assert_eq!(healed, cold, "recomputed-after-corruption must equal the cold run");

    let stats = warm_store.stats();
    assert_eq!(stats.corrupt, 4, "all four damaged entries must be detected");
    let c = session.counters();
    assert_eq!(
        (c.trace_captures, c.table_measurements, c.sweeps_computed, c.optimizations_solved),
        (1, 1, 1, 1),
        "exactly the damaged artifacts are recomputed"
    );
    assert_eq!(
        (c.trace_store_hits, c.table_store_hits, c.sweep_store_hits),
        (3, 3, 3),
        "the undamaged artifacts are served from the store"
    );
    drop(session);

    // the recompute healed the store: a fresh eager session is fully warm
    let again = engine(2, Some(ArtifactStore::open(&dir).unwrap())).session(&suite).unwrap();
    again.materialize_all().unwrap();
    assert_eq!(again.counters().trace_captures, 0);
    assert_eq!(json(&again.result(&MIX).unwrap()), cold);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-frame an entry file in the retired version-1 envelope: version 1 and
/// the FNV-1a of the (intact) payload, byte for byte what earlier releases
/// wrote.
fn reframe_in_v1_envelope(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let checksum = liquid_autoreconf::sim::fnv1a64(&bytes[40..]);
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    bytes[32..40].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn retired_envelope_entries_are_absent_corrupt_and_repairable() {
    let dir = scratch_dir("retired-envelope");
    let store = ArtifactStore::open(&dir).unwrap();
    let key = FingerprintBuilder::new().str("v1").finish();
    store.save("table", key, b"an artifact from an earlier release").unwrap();
    let path = store.entries(Some("table"))[0].clone();
    reframe_in_v1_envelope(&path);

    assert!(store.peek("table", key).is_none());
    assert!(!store.contains("table", key));
    assert_eq!(store.load("table", key), None);
    assert_eq!(store.stats().corrupt, 1);
    assert_eq!(store.doctor(false).unwrap().corrupt_entries, 1);
    assert!(store.doctor(true).unwrap().repaired);
    assert!(!path.exists(), "repair deletes the retired entry");
    assert!(store.doctor(false).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_misses_load_the_stored_trace_and_execute_no_guest_code() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("sweep-miss");
    let store = ArtifactStore::open(&dir).unwrap();
    let cold = engine(2, Some(store.clone())).run(&suite, &MIX).unwrap();

    // every sweep entry goes; the stored traces stay
    let sweep_files = store.entries(Some("sweep"));
    assert_eq!(sweep_files.len(), suite.len());
    for file in sweep_files {
        std::fs::remove_file(file).unwrap();
    }

    // a fresh session recomputes each sweep from its stored trace, which it
    // loads exactly like any other artifact: a store hit, no capture
    let guests_before = guest_instructions_executed();
    let warm_store = ArtifactStore::open(&dir).unwrap();
    let session = engine(2, Some(warm_store.clone())).session(&suite).unwrap();
    for (i, expected) in cold.sweeps.iter().enumerate() {
        assert_eq!(session.sweep(i).unwrap(), expected, "sweep of workload {i}");
    }
    assert_eq!(
        guest_instructions_executed(),
        guests_before,
        "a sweep miss over stored traces must execute zero guest instructions"
    );
    let c = session.counters();
    assert_eq!((c.sweeps_computed, c.sweep_store_hits), (4, 0));
    assert_eq!((c.trace_store_hits, c.trace_captures), (4, 0));
    drop(session);

    let report = warm_store.doctor(false).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Arith` under a different registered name: same guest program, different
/// content fingerprint — the cheapest possible "this workload changed"
/// stand-in for the invalidation-precision test.
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

#[test]
fn update_workload_invalidates_exactly_one_entry() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("invalidation");
    let store = ArtifactStore::open(&dir).unwrap();

    // cold session (fully materialised) populates the store
    let cold_session = engine(2, Some(store.clone())).session(&suite).unwrap();
    cold_session.materialize_all().unwrap();
    let c = cold_session.counters();
    assert_eq!((c.trace_captures, c.table_measurements), (4, 4));
    assert_eq!((c.trace_store_hits, c.table_store_hits), (0, 0));
    drop(cold_session);

    // warm eager session: everything from the store
    let mut session = engine(2, Some(store.clone())).session(&suite).unwrap();
    session.materialize_all().unwrap();
    let c = session.counters();
    assert_eq!((c.trace_captures, c.table_measurements, c.sweeps_computed, c.optimizations_solved), (0, 0, 0, 0));
    assert_eq!((c.trace_store_hits, c.table_store_hits, c.sweep_store_hits, c.optimum_store_hits), (4, 4, 4, 4));

    // update one member of the mix: exactly one trace re-captured, one cost
    // table re-measured; the other three entries are not even re-read
    let replacement = RetaggedArith(Arith::scaled(Scale::Tiny));
    session.update_workload(3, &replacement).unwrap();
    let c = session.counters();
    assert_eq!(
        (c.trace_captures, c.table_measurements, c.sweeps_computed, c.optimizations_solved),
        (1, 1, 1, 1),
        "exactly one of each artifact is re-derived"
    );
    assert_eq!(
        (c.trace_store_hits, c.table_store_hits, c.sweep_store_hits, c.optimum_store_hits),
        (4, 4, 4, 4),
        "the unchanged workloads' artifacts are untouched"
    );
    assert_eq!(session.names()[3], "Arith-v2");

    // the updated session equals a from-scratch (store-less) session over
    // the updated suite, byte for byte
    let mut updated_suite = benchmark_suite(Scale::Tiny);
    updated_suite[3] = Box::new(RetaggedArith(Arith::scaled(Scale::Tiny)));
    let fresh = engine(2, None).session(&updated_suite).unwrap();
    assert_eq!(
        json(&session.result(&MIX).unwrap()),
        json(&fresh.result(&MIX).unwrap()),
        "incremental update must equal a from-scratch derivation"
    );

    // a second update back to the original workload is a pure store hit
    let original = benchmark_suite(Scale::Tiny).remove(3);
    session.update_workload(3, original.as_ref()).unwrap();
    let c = session.counters();
    assert_eq!(c.trace_captures, 1, "reverting must hit the store, not recapture");
    assert_eq!(c.trace_store_hits, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tables_measured_after_update_workload_are_named_after_the_replacement() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("renamed");
    let store = ArtifactStore::open(&dir).unwrap();

    // slot 3 opened as Arith, then replaced by DRR; the Figure 2 search
    // space differs from the session's, so the search measures a second
    // table for the slot
    let mut session = engine(2, Some(store.clone())).session(&suite).unwrap();
    session.update_workload(3, &Drr::scaled(Scale::Tiny)).unwrap();
    session.search(3, &SearchSpace::figure2(), SearchMode::Pruned).unwrap();
    drop(session);

    let names: Vec<String> = store
        .manifest()
        .entries
        .iter()
        .filter(|e| e.kind == "table")
        .map(|e| {
            let table: CostTable = store.load_json("table", Fingerprint(e.fingerprint)).unwrap();
            table.workload
        })
        .collect();
    assert_eq!(names.len(), 2, "the session's table and the search space's: {names:?}");
    assert!(
        names.iter().all(|n| n == "DRR"),
        "every table keyed by DRR's fingerprint must be named DRR: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_update_workload_leaves_the_slot_unchanged() {
    let _g = lock();
    // Small Arith's base run takes 2,820,071 cycles and fits; its slowest
    // perturbation (4,920,071) does not, so its cost table fails after its
    // trace was captured.  Every Tiny configuration (at most 300,123) fits.
    let campaign = Campaign::new()
        .with_measurement(MeasurementOptions { max_cycles: 2_820_071 + 1_000, threads: 2 });
    let suite = benchmark_suite(Scale::Tiny);
    let mut session = campaign.session(&suite).unwrap();
    let err = session.update_workload(3, &Arith::scaled(Scale::Small)).unwrap_err();
    assert!(
        matches!(err, OptimizeError::Simulation(SimError::CycleLimitExceeded { .. })),
        "{err:?}"
    );
    assert_eq!(session.counters().trace_captures, 1, "the replacement's trace was captured");

    // the slot still holds the Tiny Arith it was opened with
    let fresh = campaign.session(&suite).unwrap();
    assert_eq!(
        json(&session.result(&MIX).unwrap()),
        json(&fresh.result(&MIX).unwrap()),
        "a failed update must leave the session as it was"
    );
}

#[test]
fn warm_runs_execute_zero_guest_instructions() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("zeroguest");
    let store = ArtifactStore::open(&dir).unwrap();

    // cold: populates the store (and obviously executes guest code)
    let before_cold = guest_instructions_executed();
    let cold = json(&engine(2, Some(store.clone())).run(&suite, &MIX).unwrap());
    assert!(
        guest_instructions_executed() > before_cold,
        "the cold run must execute guest instructions"
    );

    // warm: the whole campaign — including its per-workload pipelines and
    // the final co-optimization — must run without a single guest
    // instruction; validation is trace replay, artifacts come from disk
    let before_warm = guest_instructions_executed();
    let warm = json(&engine(2, Some(store.clone())).run(&suite, &MIX).unwrap());
    assert_eq!(
        guest_instructions_executed(),
        before_warm,
        "a warm-store campaign run must execute zero guest instructions"
    );
    assert_eq!(warm, cold);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sessions_pin_their_entries_against_gc() {
    let _g = lock();
    let suite = benchmark_suite(Scale::Tiny);
    let dir = scratch_dir("pinned");
    let store = ArtifactStore::open(&dir).unwrap();
    let campaign = engine(2, Some(store.clone()));
    let cold = json(&campaign.run(&suite, &MIX).unwrap());

    // with a session open, a zero-budget GC may evict nothing the session
    // pinned: a follow-up co-optimization still runs fully warm
    let session = campaign.session(&suite).unwrap();
    let co_warm = session.co_optimize(&MIX).unwrap(); // pins the co entry too
    let report = store.gc(0).unwrap();
    assert!(report.pinned_retained >= 17, "4 kinds x 4 workloads + co stay pinned: {report:?}");
    session.materialize_all().unwrap();
    let c = session.counters();
    assert_eq!(
        (c.trace_captures, c.table_measurements, c.sweeps_computed, c.optimizations_solved),
        (0, 0, 0, 0),
        "every pinned artifact survived the zero-budget GC"
    );
    assert_eq!(
        serde_json::to_string(&co_warm).unwrap(),
        serde_json::to_string(&session.co_optimize(&MIX).unwrap()).unwrap()
    );
    drop(session);

    // once the session closes, the same GC empties the store...
    let report = store.gc(0).unwrap();
    assert_eq!(report.bytes_after, 0, "{report:?}");
    assert!(store.entries(None).is_empty());

    // ...and the next run recomputes from scratch, byte-identically
    let recomputed = json(&campaign.run(&suite, &MIX).unwrap());
    assert_eq!(recomputed, cold);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Store lifecycle property tests (random insert/load/corrupt/pin/gc)
// ---------------------------------------------------------------------------

mod store_properties {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const KINDS: [&str; 5] = ["trace", "table", "sweep", "optimum", "co"];

    /// One random store operation.  Slots index into the set of entries the
    /// sequence has inserted so far (modulo its size), so every operation is
    /// valid regardless of order.
    #[derive(Clone, Debug)]
    enum Op {
        Insert { kind: usize, seed: u64, size: usize },
        Load { slot: usize },
        Corrupt { slot: usize },
        Pin { slot: usize },
        Unpin { slot: usize },
        Gc { budget: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..KINDS.len(), 0u64..10, 0usize..160)
                .prop_map(|(kind, seed, size)| Op::Insert { kind, seed, size }),
            (0usize..64).prop_map(|slot| Op::Load { slot }),
            (0usize..64).prop_map(|slot| Op::Corrupt { slot }),
            (0usize..64).prop_map(|slot| Op::Pin { slot }),
            (0usize..64).prop_map(|slot| Op::Unpin { slot }),
            (0u64..1200).prop_map(|budget| Op::Gc { budget }),
        ]
    }

    /// (kind, fingerprint) set parsed back from the directory's entry files.
    fn directory_ids(store: &ArtifactStore) -> BTreeSet<(String, u64)> {
        store
            .entries(None)
            .iter()
            .filter_map(|p| {
                let name = p.file_name()?.to_str()?.strip_suffix(".art")?;
                let (kind, hex) = name.rsplit_once('-')?;
                Some((kind.to_string(), u64::from_str_radix(hex, 16).ok()?))
            })
            .collect()
    }

    /// Total size of the store's entry files.
    fn entry_file_bytes(store: &ArtifactStore) -> u64 {
        store.entries(None).iter().map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)).sum()
    }

    /// Apply `ops` to a fresh scratch store, checking the GC invariants at
    /// every `Gc` step; returns the pin table for the end-state checks.
    fn run_ops(store: &ArtifactStore, ops: &[Op]) -> BTreeMap<(String, u64), usize> {
        let mut inserted: Vec<(String, Fingerprint)> = Vec::new();
        let mut pins: BTreeMap<(String, u64), usize> = BTreeMap::new();
        let pick = |inserted: &[(String, Fingerprint)], slot: usize| {
            if inserted.is_empty() { None } else { Some(inserted[slot % inserted.len()].clone()) }
        };
        for op in ops {
            match op {
                Op::Insert { kind, seed, size } => {
                    let kind = KINDS[*kind];
                    let key = FingerprintBuilder::new().str(kind).u64(*seed).finish();
                    let payload = vec![(*seed as u8) ^ 0x5a; *size];
                    store.save(kind, key, &payload).unwrap();
                    if !inserted.iter().any(|(k, f)| k == kind && *f == key) {
                        inserted.push((kind.to_string(), key));
                    }
                }
                Op::Load { slot } => {
                    if let Some((kind, key)) = pick(&inserted, *slot) {
                        // may be None after corruption/eviction; both fine
                        let _ = store.load(&kind, key);
                    }
                }
                Op::Corrupt { slot } => {
                    if let Some((kind, key)) = pick(&inserted, *slot) {
                        let path = store.dir().join(format!("{kind}-{key}.art"));
                        if let Ok(mut bytes) = std::fs::read(&path) {
                            if let Some(last) = bytes.last_mut() {
                                *last ^= 0x80;
                            } else {
                                bytes.push(0);
                            }
                            std::fs::write(&path, &bytes).unwrap();
                        }
                    }
                }
                Op::Pin { slot } => {
                    if let Some((kind, key)) = pick(&inserted, *slot) {
                        store.pin(&kind, key);
                        *pins.entry((kind, key.0)).or_insert(0) += 1;
                    }
                }
                Op::Unpin { slot } => {
                    if let Some((kind, key)) = pick(&inserted, *slot) {
                        store.unpin(&kind, key);
                        let id = (kind, key.0);
                        if let Some(n) = pins.get_mut(&id) {
                            *n -= 1;
                            if *n == 0 {
                                pins.remove(&id);
                            }
                        }
                    }
                }
                Op::Gc { budget } => {
                    check_gc(store, *budget, &pins);
                }
            }
        }
        pins
    }

    /// Run one GC pass and assert every invariant the ISSUE pins:
    /// budget-or-pinned, LRU eviction order, manifest ↔ directory agreement.
    fn check_gc(store: &ArtifactStore, budget: u64, pins: &BTreeMap<(String, u64), usize>) {
        let stamps: BTreeMap<(String, u64), u64> = store
            .manifest()
            .entries
            .iter()
            .map(|e| ((e.kind.clone(), e.fingerprint), e.last_access))
            .collect();
        let before = directory_ids(store);

        let report = store.gc(budget).unwrap();
        let after = directory_ids(store);

        // the headline invariant: within budget, or only pinned entries left
        let total = entry_file_bytes(store);
        assert_eq!(total, report.bytes_after, "report must describe the directory");
        if total > budget {
            assert!(
                after.iter().all(|id| pins.contains_key(id)),
                "over budget, every survivor must be pinned: {report:?}"
            );
        }

        // pinned entries are never evicted
        for id in pins.keys() {
            if before.contains(id) {
                assert!(after.contains(id), "pinned entry {id:?} was evicted");
            }
        }

        // eviction strictly follows the access stamps: every evicted
        // (unpinned) entry is no younger than every surviving unpinned one
        let evicted: Vec<_> = before.difference(&after).collect();
        let max_evicted = evicted.iter().filter_map(|id| stamps.get(*id)).max();
        let min_survivor = after
            .iter()
            .filter(|id| !pins.contains_key(*id))
            .filter_map(|id| stamps.get(id))
            .min();
        if let (Some(max_evicted), Some(min_survivor)) = (max_evicted, min_survivor) {
            assert!(
                max_evicted < min_survivor,
                "LRU order violated: evicted stamp {max_evicted} >= survivor stamp {min_survivor}"
            );
        }

        // the manifest tracks the directory exactly (GC reconciles)
        let manifest_ids: BTreeSet<(String, u64)> =
            store.manifest().entries.iter().map(|e| (e.kind.clone(), e.fingerprint)).collect();
        assert_eq!(manifest_ids, after, "manifest must match the directory after gc");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn gc_and_manifest_invariants_hold_under_random_op_sequences(
            ops in vec(op_strategy(), 1..48),
            final_budget in 0u64..900,
        ) {
            let dir = scratch_dir("prop");
            let store = ArtifactStore::open(&dir).unwrap();
            let pins = run_ops(&store, &ops);

            // final GC must land the store within budget (or pinned-only)
            check_gc(&store, final_budget, &pins);

            // manifest ↔ directory stays consistent through everything,
            // and a repairing doctor leaves a clean store behind
            let report = store.doctor(true).unwrap();
            let clean = store.doctor(false).unwrap();
            prop_assert!(clean.is_clean(), "after repair: {clean:?} (repair pass: {report:?})");
            let manifest_ids: BTreeSet<(String, u64)> = store
                .manifest()
                .entries
                .iter()
                .map(|e| (e.kind.clone(), e.fingerprint))
                .collect();
            prop_assert_eq!(manifest_ids, directory_ids(&store));
            let _ = std::fs::remove_dir_all(store.dir());
        }

        #[test]
        fn unpinned_stores_always_fit_the_budget_after_gc(
            sizes in vec(0usize..200, 1..24),
            budget in 0u64..2000,
        ) {
            let dir = scratch_dir("prop-budget");
            let store = ArtifactStore::open(&dir).unwrap();
            for (i, size) in sizes.iter().enumerate() {
                let key = FingerprintBuilder::new().u64(i as u64).finish();
                store.save(KINDS[i % KINDS.len()], key, &vec![0u8; *size]).unwrap();
            }
            let report = store.gc(budget).unwrap();
            prop_assert!(report.within_budget(), "no pins -> must always fit: {report:?}");
            prop_assert!(entry_file_bytes(&store) <= budget);
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }
}
