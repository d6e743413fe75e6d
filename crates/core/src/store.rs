//! On-disk, content-addressed artifact store for campaign measurements.
//!
//! The paper's flow — capture a trace, measure a per-variable cost table,
//! solve the BINLP — is deterministic: every artifact is a pure function of
//! the workload content, the base configuration, the parameter space, the
//! synthesis model and the objective.  [`ArtifactStore`] exploits that by
//! persisting the expensive artifacts keyed by a stable [`Fingerprint`] of
//! exactly those inputs, so a campaign over a workload mix becomes
//! *incrementally updatable*: change one workload and only its artifacts are
//! recomputed; everything else is served from disk, byte-identical to a
//! fresh computation (see `tests/incremental_store.rs`).
//!
//! # Safety model
//!
//! The store can only ever make a campaign *faster*, never *wrong*:
//!
//! * **Content addressing** — the fingerprint covers every input an artifact
//!   depends on (workload program bytes, base geometry, space, model,
//!   weights, format versions).  A changed input is a different key, i.e. a
//!   miss, i.e. a recompute.  Nothing is ever invalidated in place.
//! * **Corruption-safe loads** — every entry carries a magic, the store
//!   format version, its kind, its own fingerprint and an XXH64 checksum of
//!   the payload.  Truncation, bit rot, renamed files (across
//!   keys *or* kinds), version skew or a half-written entry all fail
//!   validation, count as a miss (recorded in [`StoreStats::corrupt`]), and
//!   fall back to recompute.
//! * **Atomic writes** — entries are written to a temporary file in the
//!   store directory and `rename`d into place, so a crash mid-write leaves
//!   either the old entry or no entry, never a torn one.  Concurrent writers
//!   of the same key race benignly: both produce identical bytes.
//! * **Cold-compute dedup** — concurrent processes that all miss the same
//!   key race to [`ArtifactStore::try_claim`] a *lease* file beside the
//!   entry; exactly one acquires it and computes, the rest block on the
//!   winner's atomically published result
//!   ([`ArtifactStore::await_entry_or_lease_deadline`]) instead of
//!   recomputing.
//!   Leases are renewed by a heartbeat while the winner computes and expire
//!   (and are taken over) when the holder crashes, so the protocol adds
//!   liveness without ever risking wrongness: even a duplicated compute in
//!   the crash-recovery path saves byte-identical bytes.
//!
//! # Store lifecycle (manifest, GC, doctor, pack)
//!
//! Alongside the entries the store maintains a [`Manifest`] index file
//! (`manifest.json`, written atomically like every entry): one record per
//! entry carrying the kind, the fingerprint, the payload size, the payload
//! checksum and a logical last-access stamp.  The manifest is *advisory* —
//! artifact correctness always comes from full envelope + checksum
//! validation at load time — but it is what makes the lifecycle operations
//! cheap:
//!
//! * [`ArtifactStore::peek`] answers "is a valid-looking entry present?"
//!   from the 40-byte envelope and the file size alone — the payload is
//!   never read, which is what keeps presence checks O(1) even for
//!   multi-megabyte trace entries;
//! * [`ArtifactStore::gc`] evicts least-recently-accessed entries until the
//!   store fits a byte budget, never touching entries pinned by an open
//!   [`crate::campaign::CampaignSession`];
//! * [`ArtifactStore::doctor`] verifies (and optionally repairs) the
//!   manifest ↔ directory correspondence and every entry's integrity;
//! * [`ArtifactStore::pack_to`] / [`ArtifactStore::unpack_from`] serialise
//!   the whole store into one portable, platform-independent file — the
//!   format is little-endian and content-addressed, so a store packed on
//!   one machine warms a campaign on another.
//!
//! The store directory is wired up either explicitly
//! ([`crate::campaign::Campaign::with_store`], the `campaign` CLI target's
//! `--store <dir>` flag) or through the `AUTORECONF_STORE` environment
//! variable ([`ArtifactStore::from_env`]); the GC budget comes from
//! `campaign --gc-budget` or `AUTORECONF_STORE_BUDGET`.

use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

/// Version of the store's entry envelope (header + checksum framing).
///
/// Bump on any change to the envelope layout or its checksum; old entries
/// then fail validation, count as corrupt misses and are transparently
/// recomputed (and overwritten in place: keys do not mix in this version).
/// Payload formats carry their own versions on top of this (e.g.
/// [`leon_sim::TRACE_FORMAT_VERSION`]).  Version 2 checksums the payload
/// with [`leon_sim::xxh64`]; version 1 used FNV-1a.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Version of the *measurement results* encoded into every fingerprint.
///
/// Bump whenever the semantics of measurement change — a cycle-model fix, a
/// new cost-table field, a different sweep grid — so that every persisted
/// artifact from before the change misses and is recomputed.
pub const RESULTS_VERSION: u32 = 1;

/// Version of the [`Manifest`] index schema.
pub const MANIFEST_VERSION: u32 = 1;

/// Version of the portable pack format written by [`ArtifactStore::pack_to`].
pub const PACK_FORMAT_VERSION: u32 = 1;

const ENTRY_MAGIC: [u8; 4] = *b"ARST";
const PACK_MAGIC: [u8; 4] = *b"ARPK";
const ENVELOPE_LEN: usize = 40;
const MANIFEST_FILE: &str = "manifest.json";

/// Version of the lease-file body written by [`ArtifactStore::try_claim`].
pub const LEASE_VERSION: u32 = 1;

/// Default time-to-live of a compute claim before other processes may assume
/// the holder crashed and take the claim over.  Holders of long computations
/// keep a live claim fresh with [`Lease::start_heartbeat`] (renewal is
/// automatic well inside this window), so the default only bounds how long a
/// *crashed* holder can stall its waiters.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(10);

/// Default grace window under which `doctor --repair` leaves `.tmp-*` files
/// alone: a file this young may be an in-flight atomic write (`write` done,
/// `rename` pending) of a live process in another OS process, and deleting
/// it would destroy that save mid-flight.  Older ones are debris from an
/// interrupted writer and are safe to remove.
pub const DEFAULT_TMP_GRACE: Duration = Duration::from_secs(60);

/// Initial poll interval of [`ArtifactStore::await_entry_or_lease_deadline`];
/// the wait backs off exponentially from here up to [`LEASE_POLL_MAX`].
const LEASE_POLL: Duration = Duration::from_millis(5);

/// Backoff cap of [`ArtifactStore::await_entry_or_lease_deadline`]: waiters
/// never sleep longer than this between looks, so a published entry is
/// noticed within ~100 ms even after a long wait.
const LEASE_POLL_MAX: Duration = Duration::from_millis(100);

/// Default overall deadline of [`ArtifactStore::await_entry_or_lease_deadline`]
/// — the one every claim waiter uses: how long a waiter tolerates a *live,
/// renewing* lease whose holder never publishes (a wedged winner) before
/// surfacing [`LeaseWaitTimeout`].
/// Generous — the longest legitimate cold compute (a `Scale::Large`
/// capture) finishes well inside it — because expiry takeover already
/// covers the *crashed*-holder case within one TTL.
pub const DEFAULT_LEASE_WAIT: Duration = Duration::from_secs(300);

/// The claim TTL in effect: [`DEFAULT_LEASE_TTL`] unless overridden by the
/// `AUTORECONF_LEASE_TTL_MS` environment variable (cached on first use).
/// The override exists for crash-recovery tests, which need expiry
/// takeover of a killed holder in milliseconds, not 10 s; binaries
/// validate the variable loudly at startup via [`lease_ttl_env`].
pub fn lease_ttl() -> Duration {
    static TTL: OnceLock<Duration> = OnceLock::new();
    *TTL.get_or_init(|| lease_ttl_env().unwrap_or(None).unwrap_or(DEFAULT_LEASE_TTL))
}

/// Parse `AUTORECONF_LEASE_TTL_MS` strictly: `Ok(None)` when unset or
/// blank, `Ok(Some(ttl))` for a positive integer, `Err` otherwise (so
/// binaries can exit loudly instead of silently running with the default
/// TTL — a typo must not turn a 500 ms crash-test TTL into 10 s).
pub fn lease_ttl_env() -> Result<Option<Duration>, String> {
    let Ok(raw) = std::env::var("AUTORECONF_LEASE_TTL_MS") else { return Ok(None) };
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(None);
    }
    match raw.parse::<u64>() {
        Ok(ms) if ms > 0 => Ok(Some(Duration::from_millis(ms))),
        _ => Err(format!(
            "invalid AUTORECONF_LEASE_TTL_MS `{raw}` (expected a positive integer of milliseconds)"
        )),
    }
}

/// Typed failure of [`ArtifactStore::await_entry_or_lease_deadline`]: the
/// deadline elapsed while a *live* lease still guarded the entry — the
/// holder keeps heartbeating but never publishes.  Distinct from the
/// crashed-holder case (which expiry takeover resolves within one TTL)
/// and surfaced as an error rather than hanging the waiter forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaseWaitTimeout {
    /// Entry kind being waited for.
    pub kind: String,
    /// Entry fingerprint being waited for.
    pub key: Fingerprint,
    /// How long the waiter waited before giving up.
    pub waited: Duration,
    /// PID of the lease holder observed at the deadline.
    pub holder_pid: u32,
}

impl std::fmt::Display for LeaseWaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "timed out after {:.1}s waiting for {}-{}: pid {} holds a live lease but never \
             published the entry",
            self.waited.as_secs_f64(),
            self.kind,
            self.key,
            self.holder_pid
        )
    }
}

impl std::error::Error for LeaseWaitTimeout {}

impl From<LeaseWaitTimeout> for leon_sim::SimError {
    fn from(timeout: LeaseWaitTimeout) -> Self {
        leon_sim::SimError::ArtifactWaitTimeout(timeout.to_string())
    }
}

impl From<LeaseWaitTimeout> for crate::optimizer::OptimizeError {
    fn from(timeout: LeaseWaitTimeout) -> Self {
        crate::optimizer::OptimizeError::Simulation(timeout.into())
    }
}

/// Milliseconds since the Unix epoch (the clock lease expiry is measured
/// in — wall time, comparable across processes on one machine).
fn unix_now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// A stable 64-bit content fingerprint identifying one store entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a hasher used to build [`Fingerprint`]s.
///
/// FNV-1a is stable across platforms, Rust versions and process runs —
/// unlike `std::hash` — which is what makes it suitable for on-disk keys.
#[derive(Clone, Debug)]
pub struct FingerprintBuilder {
    hash: u64,
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        FingerprintBuilder::new()
    }
}

impl FingerprintBuilder {
    /// Start a fresh fingerprint.
    pub fn new() -> FingerprintBuilder {
        FingerprintBuilder { hash: leon_sim::FNV1A64_OFFSET }
    }

    /// Mix raw bytes into the fingerprint (with a terminator byte, so
    /// adjacent fields cannot alias by concatenation).
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        self.hash = leon_sim::fnv1a64_extend(self.hash, bytes);
        self.hash = leon_sim::fnv1a64_extend(self.hash, &[0xff]);
        self
    }

    /// Mix a string field.
    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// Mix a `u64` field.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mix a value through its `Debug` rendering.
    ///
    /// `Debug` output is deterministic and changes whenever a field is
    /// added, removed or altered — exactly the sensitivity a content key
    /// wants: structural drift invalidates, identical values collide.
    pub fn debug<T: std::fmt::Debug>(self, value: &T) -> Self {
        self.bytes(format!("{value:?}").as_bytes())
    }

    /// Finish the fingerprint.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.hash)
    }
}

// ---------------------------------------------------------------------------
// Lazy artifact handles
// ---------------------------------------------------------------------------

/// A lazily materialised artifact: either already decoded (ready) or a
/// pending slot that materialises at most once, on first dereference.
///
/// This is the handle [`crate::campaign::CampaignSession`] threads through
/// the campaign pipeline: a session starts with every per-workload artifact
/// pending, and only the artifacts a result's dependency chain actually
/// dereferences get loaded or computed.  A warm run whose co-optimization
/// entry hits therefore reads *zero* trace payload bytes — the dominant
/// warm-run cost at `Scale::Medium` and above.
///
/// Materialisation is thread-safe (double-checked through an internal lock)
/// and fallible: [`LazyArtifact::get_or_try_materialize`] runs its closure at
/// most once per handle, and a failed materialisation leaves the handle
/// pending so a later caller can retry.
#[derive(Debug, Default)]
pub struct LazyArtifact<T> {
    cell: OnceLock<T>,
    init: Mutex<()>,
}

impl<T> LazyArtifact<T> {
    /// A pending handle: nothing loaded, nothing computed.
    pub fn pending() -> LazyArtifact<T> {
        LazyArtifact { cell: OnceLock::new(), init: Mutex::new(()) }
    }

    /// A handle that is already materialised.
    pub fn ready(value: T) -> LazyArtifact<T> {
        let cell = OnceLock::new();
        let _ = cell.set(value);
        LazyArtifact { cell, init: Mutex::new(()) }
    }

    /// The materialised value, if any (never triggers materialisation).
    pub fn get(&self) -> Option<&T> {
        self.cell.get()
    }

    /// Whether the artifact has been materialised.
    pub fn is_materialized(&self) -> bool {
        self.cell.get().is_some()
    }

    /// Consume the handle, returning the value if it was materialised.
    pub fn into_inner(self) -> Option<T> {
        self.cell.into_inner()
    }

    /// Return the materialised value, materialising it with `f` first if
    /// needed.  `f` runs at most once per handle even under concurrent
    /// callers; if it fails, the handle stays pending and the error is
    /// returned.
    pub fn get_or_try_materialize<E>(
        &self,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<&T, E> {
        if let Some(v) = self.cell.get() {
            return Ok(v);
        }
        let _guard = self.init.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = self.cell.get() {
            return Ok(v);
        }
        let value = f()?;
        let _ = self.cell.set(value);
        Ok(self.cell.get().expect("value was just set"))
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Hit/miss/corruption accounting of one store handle (shared by clones).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk.
    pub hits: usize,
    /// Lookups that found no entry.
    pub misses: usize,
    /// Lookups that found an entry but rejected it (bad magic/version/
    /// fingerprint/length/checksum).  Counted *in addition to* a miss.
    pub corrupt: usize,
    /// Entries written.
    pub writes: usize,
    /// Payload bytes read from disk by successful loads.  Envelope-only
    /// presence checks ([`ArtifactStore::peek`]) never move this counter —
    /// it is the session-visible cost a lazy warm run avoids.
    pub payload_bytes_read: u64,
    /// Entries evicted by [`ArtifactStore::gc`].
    pub evictions: usize,
}

#[derive(Debug, Default)]
struct StatsCells {
    hits: AtomicUsize,
    misses: AtomicUsize,
    corrupt: AtomicUsize,
    writes: AtomicUsize,
    payload_bytes_read: AtomicU64,
    evictions: AtomicUsize,
    tmp_counter: AtomicU64,
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One record of the store [`Manifest`]: the envelope metadata of one entry
/// plus its logical last-access stamp.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Entry kind (`trace`, `table`, `sweep`, `optimum`, `co`, …).
    pub kind: String,
    /// The entry's content fingerprint.
    pub fingerprint: u64,
    /// Payload size in bytes (the entry file is 40 bytes larger).
    pub payload_len: u64,
    /// XXH64 checksum of the payload (mirrors the envelope field).
    pub checksum: u64,
    /// Logical access stamp: the manifest clock value of the most recent
    /// save or load of this entry.  Larger = more recently used.
    pub last_access: u64,
}

/// The store's index file (`manifest.json`), written atomically alongside
/// the entries it describes.
///
/// The manifest is *advisory*: loads always re-validate the entry envelope
/// and payload checksum, so a stale or missing manifest can never produce a
/// wrong artifact — it is rebuilt from the entry envelopes on open (40
/// bytes per entry, no payload reads) and reconciled by
/// [`ArtifactStore::gc`] and [`ArtifactStore::doctor`].  What the manifest
/// *is* authoritative for is the logical access clock that orders GC
/// eviction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// The logical access clock: one tick per save or load.
    pub clock: u64,
    /// One record per entry, sorted by (kind, fingerprint).
    pub entries: Vec<ManifestEntry>,
}

#[derive(Debug, Default)]
struct ManifestState {
    clock: u64,
    entries: HashMap<(String, u64), ManifestEntry>,
}

impl ManifestState {
    fn to_manifest(&self) -> Manifest {
        let mut entries: Vec<ManifestEntry> = self.entries.values().cloned().collect();
        entries.sort_by(|a, b| (&a.kind, a.fingerprint).cmp(&(&b.kind, b.fingerprint)));
        Manifest { version: MANIFEST_VERSION, clock: self.clock, entries }
    }

    fn from_manifest(manifest: Manifest) -> ManifestState {
        let mut state = ManifestState { clock: manifest.clock, entries: HashMap::new() };
        for e in manifest.entries {
            state.entries.insert((e.kind.clone(), e.fingerprint), e);
        }
        state
    }
}

#[derive(Debug)]
struct Shared {
    stats: StatsCells,
    manifest: Mutex<ManifestState>,
    /// In-memory manifest changes not yet persisted to `manifest.json`.
    /// Access stamps batch here so loads stay read-only on disk; flushed by
    /// the lifecycle passes and when a handle drops.
    manifest_dirty: std::sync::atomic::AtomicBool,
    /// Refcounted pins: entries an open session depends on.  GC never
    /// evicts a pinned entry.
    pins: Mutex<HashMap<(String, u64), usize>>,
    /// Unique identity of this handle family (all clones share it): names
    /// the on-disk `.pin-<owner>` markers that make pins visible to GC
    /// passes in *other* processes.
    pin_owner: u64,
    /// Whether the pin-marker renewal thread has been spawned (lazily, on
    /// the first pin).
    pin_heartbeat_spawned: std::sync::atomic::AtomicBool,
    /// Grace window (ms) under which doctor treats `.tmp-*` files as
    /// in-flight writes rather than debris (see [`DEFAULT_TMP_GRACE`]).
    tmp_grace_ms: AtomicU64,
}

/// Process-wide sequence distinguishing separately opened handles of the
/// same process (they do not share pin tables, so they must not share pin
/// marker files either).
static PIN_OWNER_SEQ: AtomicU64 = AtomicU64::new(0);

impl Default for Shared {
    fn default() -> Shared {
        Shared {
            stats: StatsCells::default(),
            manifest: Mutex::new(ManifestState::default()),
            manifest_dirty: std::sync::atomic::AtomicBool::new(false),
            pins: Mutex::new(HashMap::new()),
            pin_owner: FingerprintBuilder::new()
                .u64(std::process::id() as u64)
                .u64(PIN_OWNER_SEQ.fetch_add(1, Ordering::Relaxed))
                .u64(unix_now_ms())
                .finish()
                .0,
            pin_heartbeat_spawned: std::sync::atomic::AtomicBool::new(false),
            tmp_grace_ms: AtomicU64::new(DEFAULT_TMP_GRACE.as_millis() as u64),
        }
    }
}

/// Envelope metadata returned by [`ArtifactStore::peek`] — everything known
/// about an entry without reading its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryMeta {
    /// Payload size in bytes.
    pub payload_len: u64,
    /// XXH64 checksum of the payload, as recorded in the envelope.
    pub checksum: u64,
}

/// What one [`ArtifactStore::gc`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// The byte budget the pass enforced.
    pub budget_bytes: u64,
    /// Entries present before the pass.
    pub entries_before: usize,
    /// Entries remaining after the pass.
    pub entries_after: usize,
    /// Store size (entry files, envelopes included) before the pass.
    pub bytes_before: u64,
    /// Store size after the pass.
    pub bytes_after: u64,
    /// Entries evicted.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Entries that survived only because a session pins them — via this
    /// process's in-memory pin table or a live `.pin-*` marker published by
    /// a session in another process.
    pub pinned_retained: usize,
    /// Entries that survived only because a live (unexpired) `.lease` file
    /// guards them: a sibling process claimed the key and may be publishing
    /// right now — evicting under it could destroy a just-published result.
    pub lease_retained: usize,
}

impl GcReport {
    /// Whether the store fits the budget (always true unless pinned or
    /// lease-guarded entries alone exceed it).
    pub fn within_budget(&self) -> bool {
        self.bytes_after <= self.budget_bytes
    }

    /// Human-readable one-paragraph summary.
    pub fn render(&self) -> String {
        format!(
            "gc: budget {} bytes: {} -> {} entries, {} -> {} bytes ({} evicted, {} bytes freed, {} pinned retained, {} lease-guarded retained)",
            self.budget_bytes,
            self.entries_before,
            self.entries_after,
            self.bytes_before,
            self.bytes_after,
            self.evicted,
            self.evicted_bytes,
            self.pinned_retained,
            self.lease_retained
        )
    }
}

/// What [`ArtifactStore::doctor`] found (and, with `repair`, fixed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DoctorReport {
    /// Entries whose envelope and payload checksum validate.
    pub entries_ok: usize,
    /// Total payload bytes across valid entries.
    pub payload_bytes: u64,
    /// Entry files that failed validation (deleted when repairing).
    pub corrupt_entries: usize,
    /// Valid entry files missing from the manifest (indexed when repairing).
    pub unindexed_files: usize,
    /// Manifest records without a backing file (dropped when repairing).
    pub stale_manifest_entries: usize,
    /// Manifest records whose size/checksum disagree with the entry
    /// envelope (re-synced when repairing).
    pub mismatched_manifest_entries: usize,
    /// Leftover temporary files from interrupted writes (deleted when
    /// repairing).  Only files older than the tmp grace window count here —
    /// see [`DoctorReport::inflight_tmp_files`].
    pub stray_tmp_files: usize,
    /// `.tmp-*` files younger than the grace window
    /// ([`ArtifactStore::set_tmp_grace`], default [`DEFAULT_TMP_GRACE`]):
    /// possibly an atomic save a live writer in another process has written
    /// but not yet renamed into place.  Never deleted, and not dirt — an
    /// in-flight write is healthy concurrency, not damage.
    pub inflight_tmp_files: usize,
    /// Lease files whose claim has expired — the holder crashed without
    /// releasing (deleted when repairing).  A *live* lease is counted in
    /// [`DoctorReport::active_leases`] instead and left untouched.
    pub expired_leases: usize,
    /// Lease files of claims still inside their TTL: another process is
    /// computing the entry right now.  Informational, never dirt.
    pub active_leases: usize,
    /// `.pin-*` markers whose TTL has elapsed — the pinning session's
    /// process crashed without unpinning (deleted when repairing).  A
    /// *live* marker is counted in [`DoctorReport::active_pins`] instead.
    pub expired_pins: usize,
    /// `.pin-*` markers still inside their TTL: a session in this or
    /// another process holds the entry pinned.  Informational, never dirt.
    pub active_pins: usize,
    /// Trace entries whose header, streams and trailing checksum all
    /// validate.
    pub trace_entries: usize,
    /// Trace entries whose envelope checksum passes but whose embedded
    /// trace fails validation — a foreign format version (such as version
    /// 5 of earlier releases, with a segment index per stream, or version
    /// 4, with one record per eventful instruction), stream lengths the
    /// payload does not hold, streams that disagree with the event counts,
    /// or a trailing-checksum mismatch (deleted when repairing).
    pub trace_payload_errors: usize,
    /// `search` entries whose payload deserialises as a search outcome.
    pub search_entries: usize,
    /// `search` entries whose envelope checksum passes but whose payload is
    /// not a well-formed search outcome (deleted when repairing).
    pub search_payload_errors: usize,
    /// Whether the pass repaired what it found.
    pub repaired: bool,
}

impl DoctorReport {
    /// True when the store needs no repair: every entry validates and the
    /// manifest matches the directory exactly.
    pub fn is_clean(&self) -> bool {
        self.corrupt_entries == 0
            && self.unindexed_files == 0
            && self.stale_manifest_entries == 0
            && self.mismatched_manifest_entries == 0
            && self.stray_tmp_files == 0
            && self.expired_leases == 0
            && self.expired_pins == 0
            && self.trace_payload_errors == 0
            && self.search_payload_errors == 0
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "doctor: {} valid entries ({} payload bytes)\n",
            self.entries_ok, self.payload_bytes
        );
        let issues = [
            (self.corrupt_entries, "corrupt entry file(s)"),
            (self.unindexed_files, "valid file(s) missing from the manifest"),
            (self.stale_manifest_entries, "manifest record(s) without a file"),
            (self.mismatched_manifest_entries, "manifest record(s) out of sync"),
            (self.stray_tmp_files, "stray temporary file(s)"),
            (self.expired_leases, "expired compute lease(s) (holder crashed)"),
            (self.expired_pins, "expired pin marker(s) (pinning session crashed)"),
            (self.trace_payload_errors, "trace entry(ies) that fail to decode"),
            (self.search_payload_errors, "search entry(ies) with a malformed outcome payload"),
        ];
        for (count, what) in issues {
            if count > 0 {
                out.push_str(&format!("  {count} {what}\n"));
            }
        }
        if self.inflight_tmp_files > 0 {
            out.push_str(&format!(
                "  {} in-flight temporary file(s) left alone (younger than the grace window)\n",
                self.inflight_tmp_files
            ));
        }
        if self.active_leases > 0 {
            out.push_str(&format!(
                "  {} live compute lease(s): another process is computing those entries\n",
                self.active_leases
            ));
        }
        if self.active_pins > 0 {
            out.push_str(&format!(
                "  {} live pin marker(s): open sessions hold those entries pinned\n",
                self.active_pins
            ));
        }
        if self.trace_entries > 0 {
            out.push_str(&format!("  traces: {} well-formed\n", self.trace_entries));
        }
        if self.search_entries > 0 {
            out.push_str(&format!("  searches: {} well-formed outcome(s)\n", self.search_entries));
        }
        if self.is_clean() {
            out.push_str("  store is clean\n");
        } else if self.repaired {
            out.push_str("  all issues repaired\n");
        } else {
            out.push_str("  run `store doctor --repair` to fix\n");
        }
        out
    }
}

/// What one [`ArtifactStore::pack_to`] / [`ArtifactStore::unpack_from`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Entries packed/unpacked.
    pub entries: usize,
    /// Total payload bytes moved.
    pub payload_bytes: u64,
    /// Entries skipped because they failed validation (pack only).
    pub skipped_corrupt: usize,
}

/// Per-kind usage summary row (see [`ArtifactStore::usage`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KindUsage {
    /// Entry kind.
    pub kind: String,
    /// Number of entries of this kind.
    pub entries: usize,
    /// Total file bytes (envelopes included) of this kind.
    pub file_bytes: u64,
}

// ---------------------------------------------------------------------------
// Claim / lease protocol
// ---------------------------------------------------------------------------

/// On-disk body of a lease file (JSON, published atomically — a lease file
/// that exists is always complete).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct LeaseBody {
    version: u32,
    owner_pid: u32,
    token: u64,
    expires_unix_ms: u64,
}

/// Snapshot of a lease observed on disk: who holds the claim and until when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseInfo {
    /// OS process id of the claim holder.
    pub owner_pid: u32,
    /// Wall-clock expiry (milliseconds since the Unix epoch).  A holder that
    /// stops renewing — i.e. crashed — is past this within one TTL.
    pub expires_unix_ms: u64,
}

impl LeaseInfo {
    /// Whether the claim's TTL has elapsed, making it eligible for takeover.
    pub fn is_expired(&self) -> bool {
        unix_now_ms() >= self.expires_unix_ms
    }
}

/// What [`ArtifactStore::try_claim`] got.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// The caller now holds the exclusive compute claim for the entry; it
    /// must compute + [`ArtifactStore::save`] the artifact and then drop (or
    /// [`Lease::release`]) the lease.
    Acquired(Lease),
    /// Another process holds a live claim: it is computing the entry right
    /// now.  Wait for its result
    /// ([`ArtifactStore::await_entry_or_lease_deadline`]) instead of
    /// recomputing.
    Busy(LeaseInfo),
}

/// The shareable core of a held lease — everything the renewal heartbeat
/// thread needs without owning the [`Lease`] itself.
#[derive(Debug)]
struct LeaseCore {
    dir: PathBuf,
    path: PathBuf,
    owner_pid: u32,
    token: u64,
    ttl_ms: u64,
    shared: Arc<Shared>,
}

impl LeaseCore {
    fn body(&self) -> LeaseBody {
        LeaseBody {
            version: LEASE_VERSION,
            owner_pid: self.owner_pid,
            token: self.token,
            expires_unix_ms: unix_now_ms() + self.ttl_ms,
        }
    }

    /// Push the expiry forward by one TTL: write a fresh body to a tmp
    /// sibling and `rename` it over the lease (atomic replace — we own the
    /// name, and readers only ever see a complete body).
    fn renew(&self) -> std::io::Result<()> {
        match crate::faults::check("lease.renew", &self.dir) {
            crate::faults::Fault::Skip => return Ok(()), // stalled heartbeat
            crate::faults::Fault::Error => return Err(crate::faults::injected_io("lease.renew")),
            _ => {}
        }
        let body = serde_json::to_string(&self.body())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = self.dir.join(format!(
            ".tmp-lease-{}-{}",
            self.owner_pid,
            self.shared.stats.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, body.as_bytes())?;
        let renamed = std::fs::rename(&tmp, &self.path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }

    /// Remove the lease file iff it is still ours and still live.  An
    /// already-expired lease is left for the takeover path to claim (by the
    /// time we notice the expiry, another process may already own the name —
    /// removing it here could destroy *their* claim).
    fn release(&self) {
        if crate::faults::check("lease.release", &self.dir) == crate::faults::Fault::Skip {
            return; // lost release: the corpse is left for expiry takeover
        }
        match read_lease_file(&self.path) {
            Some((body, _)) if body.token == self.token => {
                if unix_now_ms() < body.expires_unix_ms {
                    let _ = std::fs::remove_file(&self.path);
                }
            }
            _ => {} // gone, or no longer ours: nothing to release
        }
    }
}

/// Atomically publish (or renew) an on-disk pin marker: a [`LeaseBody`]
/// with a [`DEFAULT_LEASE_TTL`] expiry, written to a tmp sibling and
/// renamed into place so readers only ever see a complete body.
fn write_pin_marker(dir: &Path, shared: &Shared, path: &Path) -> std::io::Result<()> {
    let pid = std::process::id();
    let body = LeaseBody {
        version: LEASE_VERSION,
        owner_pid: pid,
        token: shared.pin_owner,
        expires_unix_ms: unix_now_ms() + lease_ttl().as_millis() as u64,
    };
    let text = serde_json::to_string(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let counter = shared.stats.tmp_counter.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".tmp-pin-{pid}-{counter}"));
    std::fs::write(&tmp, text.as_bytes())?;
    let renamed = std::fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// Whether `kind` can name store entries: non-empty ASCII alphanumerics and
/// `_`, so `<kind>-<16 hex>` parses back to the same entry and stays inside
/// the store directory.
fn valid_kind(kind: &str) -> bool {
    !kind.is_empty() && kind.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Parse the `<kind>-<16 hex>` stem shared by `.art`, `.lease` and
/// `.pin-*` file names back into an entry id.
fn parse_guard_stem(stem: &str) -> Option<(String, u64)> {
    let (kind, hex) = stem.rsplit_once('-')?;
    if kind.is_empty() || hex.len() != 16 {
        return None;
    }
    Some((kind.to_string(), u64::from_str_radix(hex, 16).ok()?))
}

/// Read and parse a lease file.  `None` when the file is missing; an
/// unparseable body maps to an already-expired [`LeaseInfo`] (our writers
/// publish complete bodies atomically, so garbage is foreign debris and
/// safe to take over).
fn read_lease_file(path: &Path) -> Option<(LeaseBody, LeaseInfo)> {
    let text = std::fs::read_to_string(path).ok()?;
    let body = serde_json::from_str::<LeaseBody>(&text).unwrap_or(LeaseBody {
        version: LEASE_VERSION,
        owner_pid: 0,
        token: 0,
        expires_unix_ms: 0,
    });
    Some((body, LeaseInfo { owner_pid: body.owner_pid, expires_unix_ms: body.expires_unix_ms }))
}

/// An exclusive compute claim on one store entry, acquired by
/// [`ArtifactStore::try_claim`].
///
/// The claim is a *lease*, not a lock: it expires after its TTL unless
/// renewed ([`Lease::renew`], or automatically via
/// [`Lease::start_heartbeat`]), so a crashed holder can never wedge the
/// other processes — one of them takes the claim over and computes.  Drop
/// (or [`Lease::release`]) removes the lease file, which is the signal
/// waiters poll for.
///
/// Takeover safety: expiry is judged by wall clock, so a holder that loses
/// its claim to takeover (it stalled past the TTL without renewing) may end
/// up computing concurrently with the usurper.  That costs one duplicate
/// compute in a *crash-recovery* path, never a wrong result — saves of the
/// same key are byte-identical and atomic.
#[derive(Debug)]
pub struct Lease {
    core: Arc<LeaseCore>,
    heartbeat: Option<(std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
}

impl Lease {
    /// The lease's claim token (unique per acquisition; diagnostic).
    pub fn token(&self) -> u64 {
        self.core.token
    }

    /// Push the expiry one TTL forward.
    pub fn renew(&self) -> std::io::Result<()> {
        self.core.renew()
    }

    /// Spawn a background thread renewing the lease every TTL/3 until the
    /// lease is dropped, so an arbitrarily long compute keeps its claim no
    /// matter how short the TTL.  Idempotent.
    pub fn start_heartbeat(&mut self) {
        if self.heartbeat.is_some() {
            return;
        }
        let core = self.core.clone();
        let interval = Duration::from_millis((core.ttl_ms / 3).max(1));
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            // a transient renew failure is retried on the next beat; the
            // worst case is losing the claim, which is the documented
            // duplicate-compute (never wrong-result) path
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                stopped.recv_timeout(interval)
            {
                let _ = core.renew();
            }
        });
        self.heartbeat = Some((stop, thread));
    }

    /// Release the claim now (dropping does the same).
    pub fn release(self) {}
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some((stop, thread)) = self.heartbeat.take() {
            drop(stop); // disconnects the channel: the heartbeat loop exits
            let _ = thread.join();
        }
        self.core.release();
    }
}

/// The content-addressed artifact store (see the module docs).
///
/// Cloning is cheap and clones share statistics, the manifest and the pin
/// table; the handle is `Sync`, so one store serves every worker of a
/// campaign concurrently.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    shared: Arc<Shared>,
}

impl Drop for ArtifactStore {
    /// Best-effort flush of batched manifest changes (quiet: the directory
    /// may legitimately be gone by now).  The first dropping handle
    /// persists; the flag keeps the rest no-ops unless new accesses landed.
    fn drop(&mut self) {
        self.flush_impl(true);
    }
}

/// Remove an entry file, treating "already gone" as success: a concurrent
/// GC or doctor (another handle or another process) may have unlinked it
/// first, which is exactly the outcome the caller wanted.
fn remove_entry_file(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

impl ArtifactStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    ///
    /// Loads the manifest if one is present and readable; otherwise rebuilds
    /// it from the entry envelopes (40 bytes per entry — payloads are never
    /// read on open).
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ArtifactStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let store =
            ArtifactStore { dir, shared: Arc::new(Shared::default()) };
        let state = store.load_or_rebuild_manifest();
        *store.shared.manifest.lock().unwrap_or_else(|e| e.into_inner()) = state;
        Ok(store)
    }

    /// Open the store named by the `AUTORECONF_STORE` environment variable,
    /// if it is set and usable.
    pub fn from_env() -> Option<ArtifactStore> {
        let dir = std::env::var("AUTORECONF_STORE").ok()?;
        let dir = dir.trim();
        if dir.is_empty() {
            return None;
        }
        match ArtifactStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("warning: AUTORECONF_STORE={dir} is unusable ({e}); running without a store");
                None
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the hit/miss/corruption counters of this handle (and all
    /// of its clones).
    pub fn stats(&self) -> StoreStats {
        let s = &self.shared.stats;
        StoreStats {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            corrupt: s.corrupt.load(Ordering::Relaxed),
            writes: s.writes.load(Ordering::Relaxed),
            payload_bytes_read: s.payload_bytes_read.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
        }
    }

    /// Paths of all entries currently in the store, optionally filtered by
    /// kind (`"trace"`, `"table"`, …).  Sorted for determinism.
    pub fn entries(&self, kind: Option<&str>) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.ends_with(".art")
                    && match kind {
                        Some(k) => name.starts_with(&format!("{k}-")),
                        None => true,
                    }
            })
            .collect();
        out.sort();
        out
    }

    /// Cheap change detector for an entry file — `(length, mtime)` from
    /// file metadata, no content reads.  `None` when the entry is absent.
    /// Used by the claim/lease path to decide whether a previously failed
    /// load is worth retrying under the claim.
    pub(crate) fn entry_file_stamp(
        &self,
        kind: &str,
        key: Fingerprint,
    ) -> Option<(u64, std::time::SystemTime)> {
        let meta = std::fs::metadata(self.entry_path(kind, key)).ok()?;
        Some((meta.len(), meta.modified().ok()?))
    }

    fn entry_path(&self, kind: &str, key: Fingerprint) -> PathBuf {
        debug_assert!(valid_kind(kind), "entry kinds are short alphanumeric tags");
        self.dir.join(format!("{kind}-{key}.art"))
    }

    /// Parse `<kind>-<16 hex>.art` back into `(kind, fingerprint)`.  A name
    /// whose kind no store entry can have (`a.b`, `x y`, `..`) is not an
    /// entry: passes skip it, and `doctor` counts it as corrupt.
    fn parse_entry_name(path: &Path) -> Option<(String, Fingerprint)> {
        let name = path.file_name()?.to_str()?;
        let (kind, fp) = parse_guard_stem(name.strip_suffix(".art")?)?;
        valid_kind(&kind).then_some((kind, Fingerprint(fp)))
    }

    // -- manifest -----------------------------------------------------------

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    /// Read `manifest.json`, falling back to an envelope scan of the
    /// directory when it is missing, unreadable or version-skewed.
    fn load_or_rebuild_manifest(&self) -> ManifestState {
        if let Ok(text) = std::fs::read_to_string(self.manifest_path()) {
            if let Ok(manifest) = serde_json::from_str::<Manifest>(&text) {
                if manifest.version == MANIFEST_VERSION {
                    return ManifestState::from_manifest(manifest);
                }
            }
        }
        self.rebuild_manifest_from_envelopes()
    }

    /// Index every entry file from its 40-byte envelope (no payload reads).
    /// Rebuilt entries get access stamp 0 — oldest, evicted first — since
    /// their true history is unknown.
    fn rebuild_manifest_from_envelopes(&self) -> ManifestState {
        let mut state = ManifestState::default();
        for path in self.entries(None) {
            let Some((kind, key)) = Self::parse_entry_name(&path) else { continue };
            if let Some(meta) = self.peek(&kind, key) {
                state.entries.insert(
                    (kind.clone(), key.0),
                    ManifestEntry {
                        kind,
                        fingerprint: key.0,
                        payload_len: meta.payload_len,
                        checksum: meta.checksum,
                        last_access: 0,
                    },
                );
            }
        }
        state
    }

    /// Atomically persist the manifest (tmp + rename, like every entry) and
    /// clear the dirty flag.  Failure is at most a warning, never an error:
    /// the manifest is advisory and is rebuilt from envelopes on the next
    /// open.  `quiet` suppresses the warning for best-effort paths (handle
    /// drop — the directory may already be gone).
    fn persist_manifest(&self, state: &ManifestState, quiet: bool) {
        self.shared.manifest_dirty.store(false, Ordering::Relaxed);
        let failed = |what: &str, detail: String| {
            // keep the batched state flushable: a transient failure must
            // not silently drop the stamps forever
            self.shared.manifest_dirty.store(true, Ordering::Relaxed);
            if !quiet {
                eprintln!("warning: could not {what} store manifest: {detail}");
            }
        };
        let body = match serde_json::to_string(&state.to_manifest()) {
            Ok(b) => b,
            Err(e) => return failed("serialise", e.to_string()),
        };
        let tmp = self.dir.join(format!(
            ".tmp-manifest-{}-{}",
            std::process::id(),
            self.shared.stats.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let result = std::fs::write(&tmp, body.as_bytes())
            .and_then(|_| std::fs::rename(&tmp, self.manifest_path()));
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            failed("persist", e.to_string());
        }
    }

    /// Record a save or load in the in-memory manifest: bump the clock and
    /// stamp the entry.  Deliberately does *not* touch the disk — loads stay
    /// reads — the batched state is persisted by [`ArtifactStore::flush`],
    /// the lifecycle passes, or the last handle's drop.
    fn note_access(&self, kind: &str, key: Fingerprint, payload_len: u64, checksum: u64) {
        let mut state = self.shared.manifest.lock().unwrap_or_else(|e| e.into_inner());
        state.clock += 1;
        let stamp = state.clock;
        state
            .entries
            .entry((kind.to_string(), key.0))
            .and_modify(|e| {
                e.payload_len = payload_len;
                e.checksum = checksum;
                e.last_access = stamp;
            })
            .or_insert_with(|| ManifestEntry {
                kind: kind.to_string(),
                fingerprint: key.0,
                payload_len,
                checksum,
                last_access: stamp,
            });
        self.shared.manifest_dirty.store(true, Ordering::Relaxed);
    }

    /// Persist any batched manifest changes (access stamps, new entries).
    /// A no-op when nothing changed since the last flush.
    pub fn flush(&self) {
        self.flush_impl(false);
    }

    fn flush_impl(&self, quiet: bool) {
        if self.shared.manifest_dirty.swap(false, Ordering::Relaxed) {
            let mut state = self.shared.manifest.lock().unwrap_or_else(|e| e.into_inner());
            // Merge-on-persist: another handle (possibly another process) on
            // the same directory may have persisted its own access stamps
            // since we loaded.  Overwriting blindly would be
            // last-writer-wins — the sibling's stamps and clock ticks would
            // vanish and GC's LRU order would rot — so adopt the disk state
            // first (max clock, newest stamp per entry) and persist the
            // union.  The lifecycle passes (gc, doctor) don't merge here:
            // they just reconciled against the directory and their state is
            // authoritative (merging back would resurrect records for files
            // they deleted).
            self.sync_with_disk_locked(&mut state);
            self.persist_manifest(&state, quiet);
        }
    }

    /// Snapshot of the current manifest (sorted, as persisted).
    pub fn manifest(&self) -> Manifest {
        self.shared.manifest.lock().unwrap_or_else(|e| e.into_inner()).to_manifest()
    }

    // -- pinning ------------------------------------------------------------

    /// Pin an entry: [`ArtifactStore::gc`] will not evict it until every pin
    /// is released.  The refcounted pin *table* is in-memory, shared by all
    /// clones of this handle but **not** across handles or processes.  To
    /// protect pinned entries from a GC pass in *another* process (e.g.
    /// `experiments store gc` beside a live `autoreconf-serve` daemon),
    /// each first pin also publishes an on-disk `.pin-<owner>` marker with
    /// a [`DEFAULT_LEASE_TTL`] expiry, renewed by a background heartbeat
    /// every TTL/3 while the pin is held — so foreign GC skips the entry
    /// while the pinning session lives, and a crashed session's markers
    /// expire instead of leaking protection forever.
    /// [`crate::campaign::CampaignSession`] pins every key it may
    /// dereference for its whole lifetime.
    pub fn pin(&self, kind: &str, key: Fingerprint) {
        let fresh = {
            let mut pins = self.shared.pins.lock().unwrap_or_else(|e| e.into_inner());
            let count = pins.entry((kind.to_string(), key.0)).or_insert(0);
            *count += 1;
            *count == 1
        };
        if fresh {
            let _ = write_pin_marker(&self.dir, &self.shared, &self.pin_marker_path(kind, key));
            self.ensure_pin_heartbeat();
        }
    }

    /// Release one pin of an entry (refcounted; no-op when not pinned).
    /// The last release removes the on-disk marker.
    pub fn unpin(&self, kind: &str, key: Fingerprint) {
        let released = {
            let mut pins = self.shared.pins.lock().unwrap_or_else(|e| e.into_inner());
            match pins.get_mut(&(kind.to_string(), key.0)) {
                Some(count) => {
                    *count -= 1;
                    if *count == 0 {
                        pins.remove(&(kind.to_string(), key.0));
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        };
        if released {
            let _ = std::fs::remove_file(self.pin_marker_path(kind, key));
        }
    }

    /// Path of this handle family's on-disk pin marker for `(kind, key)`.
    /// The owner suffix keeps separately opened handles (which do not share
    /// a pin table) from clobbering each other's markers.
    fn pin_marker_path(&self, kind: &str, key: Fingerprint) -> PathBuf {
        self.dir.join(format!("{kind}-{key}.pin-{:016x}", self.shared.pin_owner))
    }

    /// Lazily spawn the marker-renewal thread: every TTL/3 it rewrites a
    /// live marker for each currently pinned id, and it exits once every
    /// handle of this family is dropped (the `Weak` stops upgrading).
    fn ensure_pin_heartbeat(&self) {
        if self.shared.pin_heartbeat_spawned.swap(true, Ordering::SeqCst) {
            return;
        }
        let weak = Arc::downgrade(&self.shared);
        let dir = self.dir.clone();
        std::thread::spawn(move || {
            let interval = Duration::from_millis(((lease_ttl().as_millis() as u64) / 3).max(1));
            loop {
                std::thread::sleep(interval);
                let Some(shared) = weak.upgrade() else { return };
                let ids: Vec<(String, u64)> = {
                    let pins = shared.pins.lock().unwrap_or_else(|e| e.into_inner());
                    pins.keys().cloned().collect()
                };
                for (kind, fp) in ids {
                    let key = Fingerprint(fp);
                    let path = dir.join(format!("{kind}-{key}.pin-{:016x}", shared.pin_owner));
                    let _ = write_pin_marker(&dir, &shared, &path);
                }
            }
        });
    }

    /// Whether an entry currently holds at least one pin.
    pub fn is_pinned(&self, kind: &str, key: Fingerprint) -> bool {
        self.shared
            .pins
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(&(kind.to_string(), key.0))
    }

    /// Number of distinct pinned entries.
    pub fn pinned_count(&self) -> usize {
        self.shared.pins.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    // -- claim / lease ------------------------------------------------------

    /// Path of the lease file guarding `(kind, key)`'s cold compute — a
    /// sibling of the `.art` entry it protects.
    fn lease_path(&self, kind: &str, key: Fingerprint) -> PathBuf {
        self.dir.join(format!("{kind}-{key}.lease"))
    }

    /// The lease currently guarding `(kind, key)`, if any.
    pub fn lease_info(&self, kind: &str, key: Fingerprint) -> Option<LeaseInfo> {
        read_lease_file(&self.lease_path(kind, key)).map(|(_, info)| info)
    }

    /// Try to claim the exclusive right to compute `(kind, key)`.
    ///
    /// The claim is published by `hard_link`ing a fully written tmp file to
    /// the lease name: link creation is atomic and fails with
    /// `AlreadyExists` when any live claim holds the name, so exactly one of
    /// any number of concurrent claimants — across threads *and* OS
    /// processes — acquires, and a lease file that exists is always
    /// complete.  An expired lease (crashed holder) is taken over by
    /// `rename`ing the corpse aside — also atomic, so exactly one contender
    /// wins the takeover — and re-running the claim.
    ///
    /// Returns [`ClaimOutcome::Busy`] when another process holds a live
    /// claim; the caller should wait for its result
    /// ([`ArtifactStore::await_entry_or_lease_deadline`]) instead of computing.
    pub fn try_claim(
        &self,
        kind: &str,
        key: Fingerprint,
        ttl: Duration,
    ) -> std::io::Result<ClaimOutcome> {
        let path = self.lease_path(kind, key);
        let pid = std::process::id();
        let ttl_ms = (ttl.as_millis() as u64).max(1);
        loop {
            let counter = self.shared.stats.tmp_counter.fetch_add(1, Ordering::Relaxed);
            let core = LeaseCore {
                dir: self.dir.clone(),
                path: path.clone(),
                owner_pid: pid,
                // unique per acquisition attempt: distinguishes our claim
                // from any other process's (and our own earlier ones)
                token: FingerprintBuilder::new()
                    .u64(pid as u64)
                    .u64(counter)
                    .u64(unix_now_ms())
                    .finish()
                    .0,
                ttl_ms,
                shared: self.shared.clone(),
            };
            let body = serde_json::to_string(&core.body())
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            let tmp = self.dir.join(format!(".tmp-lease-{pid}-{counter}"));
            std::fs::write(&tmp, body.as_bytes())?;
            if crate::faults::check("lease.link", &self.dir) == crate::faults::Fault::Error {
                let _ = std::fs::remove_file(&tmp);
                return Err(crate::faults::injected_io("lease.link"));
            }
            let linked = std::fs::hard_link(&tmp, &path);
            let _ = std::fs::remove_file(&tmp);
            match linked {
                Ok(()) => {
                    return Ok(ClaimOutcome::Acquired(Lease {
                        core: Arc::new(core),
                        heartbeat: None,
                    }))
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match read_lease_file(&path) {
                        // released between our link attempt and the read:
                        // the name is free again
                        None => continue,
                        Some((_, info)) if !info.is_expired() => {
                            return Ok(ClaimOutcome::Busy(info))
                        }
                        Some(_) => {
                            // crashed holder: steal the corpse by renaming it
                            // to a unique name (one winner), then re-claim
                            let stale = self.dir.join(format!(".tmp-lease-stale-{pid}-{counter}"));
                            match std::fs::rename(&path, &stale) {
                                Ok(()) => {
                                    let _ = std::fs::remove_file(&stale);
                                }
                                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                                Err(e) => return Err(e),
                            }
                            continue;
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Block until either a valid-looking entry for `(kind, key)` is present
    /// (returns `Ok(true)`) or no live lease guards it (returns `Ok(false)`:
    /// the holder released without saving, crashed, or there never was one
    /// — the caller should retry [`ArtifactStore::try_claim`]).
    ///
    /// This is the loser's half of the dedup protocol: instead of
    /// recomputing a cold artifact a sibling process is already computing,
    /// wait for the winner's atomically published result.
    ///
    /// Polling backs off exponentially from [`LEASE_POLL`] (5 ms) to
    /// [`LEASE_POLL_MAX`] (100 ms) — a short compute is picked up nearly as
    /// fast as before, while a long wait no longer busy-spins at 200
    /// lease-file reads per second.  If the deadline elapses while a *live*
    /// lease still guards the entry — the holder keeps heartbeating but
    /// never publishes — the wait fails with [`LeaseWaitTimeout`] instead
    /// of hanging forever.  (A *crashed* holder is not this case: its lease
    /// expires within one TTL and the wait returns `Ok(false)` so the
    /// caller can claim and compute.)
    pub fn await_entry_or_lease_deadline(
        &self,
        kind: &str,
        key: Fingerprint,
        deadline: Duration,
    ) -> Result<bool, LeaseWaitTimeout> {
        let path = self.lease_path(kind, key);
        let start = std::time::Instant::now();
        let mut backoff = LEASE_POLL;
        loop {
            if self.contains(kind, key) {
                return Ok(true);
            }
            match read_lease_file(&path) {
                Some((_, info)) if !info.is_expired() => {
                    let waited = start.elapsed();
                    if waited >= deadline {
                        return Err(LeaseWaitTimeout {
                            kind: kind.to_string(),
                            key,
                            waited,
                            holder_pid: info.owner_pid,
                        });
                    }
                    std::thread::sleep(backoff.min(deadline - waited));
                    backoff = (backoff * 2).min(LEASE_POLL_MAX);
                }
                // no (live) lease: one final presence check closes the race
                // where the holder saved + released between our two looks
                _ => return Ok(self.contains(kind, key)),
            }
        }
    }

    /// Override the `.tmp-*` grace window used by [`ArtifactStore::doctor`]
    /// (default [`DEFAULT_TMP_GRACE`]).  `Duration::ZERO` makes every tmp
    /// file immediately collectable — useful in tests and for offline
    /// stores no live writer shares.
    pub fn set_tmp_grace(&self, grace: Duration) {
        self.shared.tmp_grace_ms.store(grace.as_millis() as u64, Ordering::Relaxed);
    }

    // -- save / load / peek -------------------------------------------------

    /// Store `payload` under `(kind, key)`, atomically.  The envelope and
    /// the payload go to the file as two writes; the payload is never
    /// copied.
    pub fn save(&self, kind: &str, key: Fingerprint, payload: &[u8]) -> std::io::Result<()> {
        use std::io::Write as _;

        let checksum = leon_sim::xxh64(payload);
        let mut envelope = [0u8; ENVELOPE_LEN];
        envelope[0..4].copy_from_slice(&ENTRY_MAGIC);
        envelope[4..8].copy_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        envelope[8..16].copy_from_slice(&leon_sim::fnv1a64(kind.as_bytes()).to_le_bytes());
        envelope[16..24].copy_from_slice(&key.0.to_le_bytes());
        envelope[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        envelope[32..40].copy_from_slice(&checksum.to_le_bytes());

        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{kind}-{key}",
            std::process::id(),
            self.shared.stats.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        // A torn write truncates envelope‖payload (before its last byte) and
        // then *publishes* it — modelling a crash after rename was queued
        // but before the data made it down.  The resulting entry must fail
        // validation on every future load/peek (corrupt-as-miss) and be
        // doctor-repairable.
        let len = match crate::faults::check("store.write", &self.dir) {
            crate::faults::Fault::Error => return Err(crate::faults::injected_io("store.write")),
            crate::faults::Fault::Torn(at) => {
                (at as usize).min((ENVELOPE_LEN + payload.len()).saturating_sub(1))
            }
            _ => ENVELOPE_LEN + payload.len(),
        };
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&envelope[..len.min(ENVELOPE_LEN)])?;
        file.write_all(&payload[..len.saturating_sub(ENVELOPE_LEN)])?;
        drop(file);
        if crate::faults::check("store.rename", &self.dir) == crate::faults::Fault::Error {
            let _ = std::fs::remove_file(&tmp);
            return Err(crate::faults::injected_io("store.rename"));
        }
        let result = std::fs::rename(&tmp, self.entry_path(kind, key));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result?;
        self.shared.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.note_access(kind, key, payload.len() as u64, checksum);
        Ok(())
    }

    /// Load the payload stored under `(kind, key)`.
    ///
    /// Returns `None` — never a wrong payload — when the entry is missing or
    /// fails any validation (magic, store version, fingerprint, length,
    /// checksum).  Damaged entries additionally tick [`StoreStats::corrupt`].
    /// A successful load stamps the entry's manifest access clock and adds
    /// the payload size to [`StoreStats::payload_bytes_read`].
    pub fn load(&self, kind: &str, key: Fingerprint) -> Option<Vec<u8>> {
        let path = self.entry_path(kind, key);
        if crate::faults::check("store.read", &self.dir) == crate::faults::Fault::Error {
            self.shared.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None; // an unreadable entry is a miss, injected or real
        }
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.shared.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::validate(bytes, kind, key) {
            Some((payload, checksum)) => {
                self.shared.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .stats
                    .payload_bytes_read
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                self.note_access(kind, key, payload.len() as u64, checksum);
                Some(payload)
            }
            None => {
                self.shared.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.shared.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Envelope-only presence check: read the entry's 40-byte envelope (and
    /// the file size) and report its metadata without ever touching the
    /// payload.
    ///
    /// Returns `None` when the entry is missing or its envelope is invalid
    /// (wrong magic/version/kind/fingerprint, or a file size that disagrees
    /// with the recorded payload length).  A `Some` is *presence*, not full
    /// integrity — the payload checksum is only verified by
    /// [`ArtifactStore::load`] — so callers use `peek` to decide whether an
    /// artifact is worth dereferencing, never to trust its content.
    pub fn peek(&self, kind: &str, key: Fingerprint) -> Option<EntryMeta> {
        let path = self.entry_path(kind, key);
        let mut file = std::fs::File::open(&path).ok()?;
        let file_len = file.metadata().ok()?.len();
        let mut envelope = [0u8; ENVELOPE_LEN];
        file.read_exact(&mut envelope).ok()?;
        let field = |at: usize| u64::from_le_bytes(envelope[at..at + 8].try_into().unwrap());
        if envelope[0..4] != ENTRY_MAGIC {
            return None;
        }
        if u32::from_le_bytes(envelope[4..8].try_into().unwrap()) != STORE_FORMAT_VERSION {
            return None;
        }
        if field(8) != leon_sim::fnv1a64(kind.as_bytes()) || field(16) != key.0 {
            return None;
        }
        let payload_len = field(24);
        if file_len != ENVELOPE_LEN as u64 + payload_len {
            return None;
        }
        Some(EntryMeta { payload_len, checksum: field(32) })
    }

    /// Whether a valid-looking entry for `(kind, key)` is present
    /// (envelope-only, see [`ArtifactStore::peek`]).
    pub fn contains(&self, kind: &str, key: Fingerprint) -> bool {
        self.peek(kind, key).is_some()
    }

    /// Reclassify the immediately preceding hit as a corrupt miss.
    ///
    /// For callers that decode a loaded payload themselves (the campaign's
    /// binary trace entries, [`ArtifactStore::load_json`]): the envelope
    /// validated — so [`ArtifactStore::load`] counted a hit — but the
    /// payload turned out undecodable and the artifact will be recomputed,
    /// which is what the stats should say.
    pub fn note_decode_failure(&self) {
        self.shared.stats.hits.fetch_sub(1, Ordering::Relaxed);
        self.shared.stats.corrupt.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Validate the envelope and strip it in place: the loaded payload
    /// reuses the `fs::read` allocation — one in-buffer shift of the
    /// payload instead of a second allocation + copy.  Returns the payload
    /// and its (verified) checksum.
    fn validate(mut bytes: Vec<u8>, kind: &str, key: Fingerprint) -> Option<(Vec<u8>, u64)> {
        if bytes.len() < ENVELOPE_LEN || bytes[0..4] != ENTRY_MAGIC {
            return None;
        }
        let field = |at: usize| -> u64 { u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) };
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != STORE_FORMAT_VERSION {
            return None;
        }
        if field(8) != leon_sim::fnv1a64(kind.as_bytes()) {
            return None; // an entry renamed across kinds
        }
        if field(16) != key.0 {
            return None; // a (renamed) entry for some other key
        }
        let payload = &bytes[ENVELOPE_LEN..];
        if field(24) != payload.len() as u64 {
            return None;
        }
        let checksum = field(32);
        if checksum != leon_sim::xxh64(payload) {
            return None;
        }
        bytes.drain(0..ENVELOPE_LEN);
        Some((bytes, checksum))
    }

    /// Whether the trace embedded in a stored `trace` payload validates
    /// (`store doctor`'s inner integrity pass): the 16-byte base-cost prefix
    /// must be present and the trace must pass every check a load makes
    /// ([`leon_sim::Trace::validate`]).
    fn stored_trace_is_valid(payload: &[u8]) -> bool {
        payload
            .get(crate::campaign::STORED_TRACE_PREFIX_LEN..)
            .is_some_and(|trace_bytes| leon_sim::Trace::validate(trace_bytes).is_ok())
    }

    /// Store a serde-serialisable value as a JSON payload under `(kind, key)`.
    ///
    /// The vendored `serde_json` round-trips every `f64` and `u64`
    /// bit-exactly, so a value loaded back compares (and re-serialises)
    /// identically to the freshly computed one.
    pub fn save_json<T: serde::Serialize>(
        &self,
        kind: &str,
        key: Fingerprint,
        value: &T,
    ) -> std::io::Result<()> {
        let body = serde_json::to_string(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.save(kind, key, body.as_bytes())
    }

    /// Load a JSON payload stored by [`ArtifactStore::save_json`].  Returns
    /// `None` on a missing/corrupt entry or an undecodable payload (e.g. the
    /// payload schema changed without a version bump — counted as a corrupt
    /// miss, not a hit).
    pub fn load_json<T: serde::Deserialize>(&self, kind: &str, key: Fingerprint) -> Option<T> {
        let payload = self.load(kind, key)?;
        let decoded = std::str::from_utf8(&payload).ok().and_then(|t| serde_json::from_str(t).ok());
        if decoded.is_none() {
            self.note_decode_failure();
        }
        decoded
    }

    // -- lifecycle: gc / doctor / usage / pack ------------------------------

    /// Merge the persisted manifest into this handle's in-memory state.
    ///
    /// Two handles on the same directory each keep their own advisory state;
    /// whichever persists last wins on disk.  Before a lifecycle pass (GC,
    /// doctor) the handle adopts anything a sibling handle recorded — newest
    /// access stamp wins per entry — so stale in-memory views never
    /// misreport (or mis-evict) entries another handle wrote.
    fn sync_with_disk_locked(&self, state: &mut ManifestState) {
        let disk = self.load_or_rebuild_manifest();
        state.clock = state.clock.max(disk.clock);
        for (id, entry) in disk.entries {
            match state.entries.get_mut(&id) {
                Some(existing) => {
                    if entry.last_access > existing.last_access {
                        *existing = entry;
                    }
                }
                None => {
                    state.entries.insert(id, entry);
                }
            }
        }
    }

    /// Reconcile the manifest with the directory: returns, for each entry
    /// file that parses, its key, its actual file size and its (possibly
    /// just-created) manifest record.  Stale manifest records are dropped.
    fn reconcile_locked(&self, state: &mut ManifestState) -> Vec<((String, u64), u64)> {
        let mut present: Vec<((String, u64), u64)> = Vec::new();
        let mut seen: HashMap<(String, u64), ()> = HashMap::new();
        for path in self.entries(None) {
            let Some((kind, key)) = Self::parse_entry_name(&path) else { continue };
            let Ok(meta) = std::fs::metadata(&path) else { continue };
            let id = (kind.clone(), key.0);
            if !state.entries.contains_key(&id) {
                if let Some(peeked) = self.peek(&kind, key) {
                    state.entries.insert(
                        id.clone(),
                        ManifestEntry {
                            kind,
                            fingerprint: key.0,
                            payload_len: peeked.payload_len,
                            checksum: peeked.checksum,
                            last_access: 0,
                        },
                    );
                } else {
                    // unreadable/foreign envelope: still occupies space, so
                    // report it (GC may evict it), but don't index it
                    present.push((id.clone(), meta.len()));
                    seen.insert(id, ());
                    continue;
                }
            }
            present.push((id.clone(), meta.len()));
            seen.insert(id, ());
        }
        state.entries.retain(|id, _| seen.contains_key(id));
        present
    }

    /// Evict least-recently-accessed entries until the entry files fit
    /// `budget_bytes`, skipping entries pinned by open sessions — in this
    /// process (the in-memory pin table) or any other (a live `.pin-*`
    /// marker) — and entries guarded by a live `.lease` file (a sibling
    /// process's in-flight cold compute, whose just-published result must
    /// not be evicted before the lease is released).
    ///
    /// The invariant (property-tested in `tests/incremental_store.rs`):
    /// after `gc(b)` either the store's entry files total ≤ `b` bytes, or
    /// every remaining entry is pinned or lease-guarded.  Eviction order is
    /// strictly by ascending access stamp (ties broken by kind +
    /// fingerprint for determinism); the manifest is reconciled with the
    /// directory before and persisted after the pass.
    pub fn gc(&self, budget_bytes: u64) -> std::io::Result<GcReport> {
        let mut state = self.shared.manifest.lock().unwrap_or_else(|e| e.into_inner());
        self.sync_with_disk_locked(&mut state);
        let present = self.reconcile_locked(&mut state);

        let mut total: u64 = present.iter().map(|(_, len)| *len).sum();
        let entries_before = present.len();
        let bytes_before = total;

        // entries guarded on disk by live sibling-process state the
        // in-memory pin table cannot see: `.lease` (in-flight cold compute)
        // and `.pin-*` (another session's pins); expired guards are ignored
        let mut lease_guarded: HashSet<(String, u64)> = HashSet::new();
        let mut pin_guarded: HashSet<(String, u64)> = HashSet::new();
        for entry in std::fs::read_dir(&self.dir)?.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".tmp-") {
                continue;
            }
            let (stem, is_pin) = if let Some(stem) = name.strip_suffix(".lease") {
                (stem, false)
            } else if let Some((stem, _owner)) = name.rsplit_once(".pin-") {
                (stem, true)
            } else {
                continue;
            };
            let Some(id) = parse_guard_stem(stem) else { continue };
            if let Some((_, info)) = read_lease_file(&entry.path()) {
                if !info.is_expired() {
                    if is_pin {
                        pin_guarded.insert(id);
                    } else {
                        lease_guarded.insert(id);
                    }
                }
            }
        }

        // LRU order: unknown entries (not in the manifest) evict first with
        // stamp 0, then by ascending last_access
        let mut candidates: Vec<(u64, (String, u64), u64)> = present
            .iter()
            .map(|(id, len)| {
                let stamp = state.entries.get(id).map(|e| e.last_access).unwrap_or(0);
                (stamp, id.clone(), *len)
            })
            .collect();
        candidates.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));

        let pins = self.shared.pins.lock().unwrap_or_else(|e| e.into_inner());
        let mut evicted = 0usize;
        let mut evicted_bytes = 0u64;
        let mut pinned_retained = 0usize;
        let mut lease_retained = 0usize;
        for (_stamp, id, len) in candidates {
            if total <= budget_bytes {
                break;
            }
            if pins.contains_key(&id) || pin_guarded.contains(&id) {
                pinned_retained += 1;
                continue;
            }
            if lease_guarded.contains(&id) {
                lease_retained += 1;
                continue;
            }
            let (kind, fp) = (&id.0, Fingerprint(id.1));
            remove_entry_file(&self.entry_path(kind, fp))?;
            state.entries.remove(&id);
            total -= len;
            evicted += 1;
            evicted_bytes += len;
            self.shared.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(pins);

        self.persist_manifest(&state, false);
        Ok(GcReport {
            budget_bytes,
            entries_before,
            entries_after: entries_before - evicted,
            bytes_before,
            bytes_after: total,
            evicted,
            evicted_bytes,
            pinned_retained,
            lease_retained,
        })
    }

    /// Verify the store end to end: every entry's envelope *and payload
    /// checksum*, the manifest ↔ directory correspondence, and leftover
    /// temporary files.  An entry in an older envelope version (such as
    /// version 1's FNV-1a checksums) counts as corrupt.  Trace entries get
    /// a deeper pass — the embedded trace is validated exactly as a load
    /// decodes it (format version, stream lengths, streams against the
    /// event counts, trailing checksum), so a trace in a retired format
    /// counts as a trace payload error.  With `repair`, corrupt entries and
    /// stray files are deleted and the manifest is rebuilt to match the
    /// surviving entries (preserving access stamps where known); one
    /// `store doctor --repair` after an upgrade clears every retired entry.
    pub fn doctor(&self, repair: bool) -> std::io::Result<DoctorReport> {
        let mut state = self.shared.manifest.lock().unwrap_or_else(|e| e.into_inner());
        self.sync_with_disk_locked(&mut state);
        let mut report = DoctorReport { repaired: repair, ..DoctorReport::default() };
        let mut valid: HashMap<(String, u64), (u64, u64)> = HashMap::new(); // id -> (len, checksum)

        for path in self.entries(None) {
            let id = Self::parse_entry_name(&path);
            let ok = id.as_ref().and_then(|(kind, key)| {
                let bytes = std::fs::read(&path).ok()?;
                Self::validate(bytes, kind, *key)
            });
            match (id, ok) {
                (Some((kind, key)), Some((payload, checksum))) => {
                    // trace entries carry their own inner structure (format
                    // version, streams, trailing checksum) that the
                    // envelope checksum cannot vouch for — validate it
                    // here, where the payload is already in hand
                    let trace_ok = if kind == "trace" {
                        if Self::stored_trace_is_valid(&payload) {
                            report.trace_entries += 1;
                            true
                        } else {
                            report.trace_payload_errors += 1;
                            false
                        }
                    } else if kind == "search" {
                        // search outcomes are structured JSON the envelope
                        // checksum cannot vouch for — a payload that fails
                        // to deserialise would poison every warm re-search
                        if std::str::from_utf8(&payload)
                            .ok()
                            .and_then(|t| {
                                serde_json::from_str::<crate::search::SearchOutcome>(t).ok()
                            })
                            .is_some()
                        {
                            report.search_entries += 1;
                            true
                        } else {
                            report.search_payload_errors += 1;
                            false
                        }
                    } else {
                        true
                    };
                    if trace_ok {
                        report.entries_ok += 1;
                        report.payload_bytes += payload.len() as u64;
                        valid.insert((kind, key.0), (payload.len() as u64, checksum));
                    } else if repair {
                        remove_entry_file(&path)?;
                    } else {
                        // keep the manifest correspondence quiet — the
                        // defect is already counted above
                        valid.insert((kind, key.0), (payload.len() as u64, checksum));
                    }
                }
                _ => {
                    report.corrupt_entries += 1;
                    if repair {
                        remove_entry_file(&path)?;
                    }
                }
            }
        }

        // manifest ↔ directory correspondence
        for (id, entry) in &state.entries {
            match valid.get(id) {
                None => report.stale_manifest_entries += 1,
                Some(&(len, checksum)) => {
                    if entry.payload_len != len || entry.checksum != checksum {
                        report.mismatched_manifest_entries += 1;
                    }
                }
            }
        }
        for id in valid.keys() {
            if !state.entries.contains_key(id) {
                report.unindexed_files += 1;
            }
        }

        // stray temporaries from interrupted writes — age-gated: a .tmp-*
        // file younger than the grace window may be a live writer's
        // in-flight atomic save (written, not yet renamed) in another
        // process, and deleting it would destroy that save.  When the age
        // cannot be determined, err on the side of leaving the file alone.
        let grace = Duration::from_millis(self.shared.tmp_grace_ms.load(Ordering::Relaxed));
        for entry in std::fs::read_dir(&self.dir)?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(".tmp-") {
                let age = entry
                    .metadata()
                    .ok()
                    .and_then(|m| m.modified().ok())
                    .and_then(|mtime| SystemTime::now().duration_since(mtime).ok());
                match age {
                    Some(age) if age >= grace => {
                        report.stray_tmp_files += 1;
                        if repair {
                            remove_entry_file(&entry.path())?;
                        }
                    }
                    _ => report.inflight_tmp_files += 1,
                }
            } else if name.ends_with(".lease") {
                // leases expire rather than leak: a live one means a
                // sibling process is computing (healthy), an expired one is
                // a crashed holder's corpse (cleaned on repair)
                match read_lease_file(&entry.path()) {
                    Some((_, info)) if !info.is_expired() => report.active_leases += 1,
                    _ => {
                        report.expired_leases += 1;
                        if repair {
                            remove_entry_file(&entry.path())?;
                        }
                    }
                }
            } else if name.contains(".pin-") {
                // pin markers follow the same TTL discipline: a live one is
                // an open session's pin (healthy), an expired one means the
                // pinning process crashed without unpinning
                match read_lease_file(&entry.path()) {
                    Some((_, info)) if !info.is_expired() => report.active_pins += 1,
                    _ => {
                        report.expired_pins += 1;
                        if repair {
                            remove_entry_file(&entry.path())?;
                        }
                    }
                }
            }
        }

        if repair {
            // rebuild the manifest from the surviving valid entries,
            // keeping known access stamps
            let old = std::mem::take(&mut state.entries);
            for (id, (len, checksum)) in &valid {
                let last_access = old.get(id).map(|e| e.last_access).unwrap_or(0);
                state.entries.insert(
                    id.clone(),
                    ManifestEntry {
                        kind: id.0.clone(),
                        fingerprint: id.1,
                        payload_len: *len,
                        checksum: *checksum,
                        last_access,
                    },
                );
            }
            self.persist_manifest(&state, false);
        }
        Ok(report)
    }

    /// Per-kind entry counts and file sizes (sorted by kind).
    pub fn usage(&self) -> Vec<KindUsage> {
        let mut by_kind: HashMap<String, (usize, u64)> = HashMap::new();
        for path in self.entries(None) {
            let Some((kind, _)) = Self::parse_entry_name(&path) else { continue };
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let slot = by_kind.entry(kind).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += len;
        }
        let mut out: Vec<KindUsage> = by_kind
            .into_iter()
            .map(|(kind, (entries, file_bytes))| KindUsage { kind, entries, file_bytes })
            .collect();
        out.sort_by(|a, b| a.kind.cmp(&b.kind));
        out
    }

    /// Serialise every valid entry into one portable file.
    ///
    /// Wire format (all integers little-endian): magic `ARPK`,
    /// [`PACK_FORMAT_VERSION`], entry count, then per entry a
    /// length-prefixed kind string, the fingerprint, and the
    /// length-prefixed payload; a trailing FNV-1a checksum covers everything
    /// before it.  Entries are written in sorted (kind, fingerprint) order,
    /// so packing the same store twice produces identical bytes.  Corrupt
    /// entries are skipped (counted in [`PackStats::skipped_corrupt`]).
    ///
    /// Entries are *streamed* — one payload in memory at a time, hashed
    /// incrementally — into a temporary sibling of `out` that is renamed
    /// into place, so packing a multi-gigabyte store neither doubles its
    /// size in RAM nor leaves a torn file behind on interruption.
    pub fn pack_to(&self, out: &Path) -> std::io::Result<PackStats> {
        use std::io::Write as _;

        // pass 1: validate and order the entries (payloads are dropped)
        let mut stats = PackStats::default();
        let mut valid: Vec<(String, Fingerprint)> = Vec::new();
        for path in self.entries(None) {
            let Some((kind, key)) = Self::parse_entry_name(&path) else {
                stats.skipped_corrupt += 1;
                continue;
            };
            match std::fs::read(&path).ok().and_then(|b| Self::validate(b, &kind, key)) {
                Some(_) => valid.push((kind, key)),
                None => stats.skipped_corrupt += 1,
            }
        }
        valid.sort();

        // pass 2: stream into a tmp sibling of `out` (same filesystem, so
        // the final rename is atomic), hashing as we go
        let tmp = out.with_file_name(format!(
            ".tmp-pack-{}-{}",
            std::process::id(),
            self.shared.stats.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let mut write = || -> std::io::Result<PackStats> {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            let mut hash = leon_sim::FNV1A64_OFFSET;
            let mut emit = |file: &mut std::io::BufWriter<std::fs::File>,
                            bytes: &[u8]|
             -> std::io::Result<()> {
                hash = leon_sim::fnv1a64_extend(hash, bytes);
                file.write_all(bytes)
            };
            emit(&mut file, &PACK_MAGIC)?;
            emit(&mut file, &PACK_FORMAT_VERSION.to_le_bytes())?;
            emit(&mut file, &(valid.len() as u64).to_le_bytes())?;
            for (kind, key) in &valid {
                // an entry may vanish or rot between the passes; the count
                // is already written, so abort rather than mis-describe
                let (payload, _) = std::fs::read(self.entry_path(kind, *key))
                    .ok()
                    .and_then(|b| Self::validate(b, kind, *key))
                    .ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::Other,
                            format!("entry {kind}-{key} changed while packing; re-run"),
                        )
                    })?;
                emit(&mut file, &(kind.len() as u16).to_le_bytes())?;
                emit(&mut file, kind.as_bytes())?;
                emit(&mut file, &key.0.to_le_bytes())?;
                emit(&mut file, &(payload.len() as u64).to_le_bytes())?;
                emit(&mut file, &payload)?;
                stats.entries += 1;
                stats.payload_bytes += payload.len() as u64;
            }
            file.write_all(&hash.to_le_bytes())?;
            file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            Ok(stats)
        };
        match write() {
            Ok(stats) => {
                std::fs::rename(&tmp, out)?;
                Ok(stats)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Import every entry of a file written by [`ArtifactStore::pack_to`]
    /// into this store (overwriting same-key entries; each import is a
    /// normal atomic [`ArtifactStore::save`], so the manifest stays in
    /// sync).  Fails without importing anything when the pack's magic,
    /// version or checksum is wrong, and with `InvalidData` at the first
    /// entry whose kind no store entry can have: nothing is written for it
    /// or for any entry after it.
    ///
    /// Streams in two passes, mirroring [`ArtifactStore::pack_to`]: a
    /// chunked checksum pass over the whole file, then an entry-at-a-time
    /// import pass — peak memory is one payload, not the pack.
    pub fn unpack_from(&self, input: &Path) -> std::io::Result<PackStats> {
        use std::io::Read as _;
        let invalid = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);

        let total_len = std::fs::metadata(input)?.len();
        if total_len < (4 + 4 + 8 + 8) as u64 {
            return Err(invalid("pack file shorter than its fixed header"));
        }
        let body_len = total_len - 8;

        // pass 1: chunked checksum over everything before the trailer
        let mut file = std::io::BufReader::new(std::fs::File::open(input)?);
        let mut hash = leon_sim::FNV1A64_OFFSET;
        let mut remaining = body_len;
        let mut chunk = vec![0u8; 64 << 10];
        while remaining > 0 {
            let want = chunk.len().min(remaining as usize);
            let got = file.read(&mut chunk[..want])?;
            if got == 0 {
                return Err(invalid("pack file truncated mid-body"));
            }
            hash = leon_sim::fnv1a64_extend(hash, &chunk[..got]);
            remaining -= got as u64;
        }
        let mut trailer = [0u8; 8];
        file.read_exact(&mut trailer)?;
        if u64::from_le_bytes(trailer) != hash {
            return Err(invalid("pack checksum mismatch"));
        }

        // pass 2: import entry by entry
        let mut file = std::io::BufReader::new(std::fs::File::open(input)?);
        let mut pos: u64 = 0;
        let mut take = |file: &mut std::io::BufReader<std::fs::File>,
                        n: u64|
         -> std::io::Result<Vec<u8>> {
            if pos.checked_add(n).filter(|&e| e <= body_len).is_none() {
                return Err(invalid("truncated pack entry"));
            }
            let mut buf = vec![0u8; n as usize];
            file.read_exact(&mut buf)?;
            pos += n;
            Ok(buf)
        };
        let header = take(&mut file, 16)?;
        if header[0..4] != PACK_MAGIC {
            return Err(invalid("not a store pack (bad magic)"));
        }
        if u32::from_le_bytes(header[4..8].try_into().unwrap()) != PACK_FORMAT_VERSION {
            return Err(invalid("unsupported pack format version"));
        }
        let count = u64::from_le_bytes(header[8..16].try_into().unwrap());

        let mut stats = PackStats::default();
        for entry in 0..count {
            let kind_len =
                u16::from_le_bytes(take(&mut file, 2)?.try_into().unwrap()) as u64;
            let kind = String::from_utf8(take(&mut file, kind_len)?)
                .map_err(|_| invalid("pack entry kind is not UTF-8"))?;
            let key =
                Fingerprint(u64::from_le_bytes(take(&mut file, 8)?.try_into().unwrap()));
            if !valid_kind(&kind) {
                return Err(invalid(&format!(
                    "pack entry {entry} ({kind:?}, {key}) has a kind no store entry can have"
                )));
            }
            let payload_len = u64::from_le_bytes(take(&mut file, 8)?.try_into().unwrap());
            let payload = take(&mut file, payload_len)?;
            self.save(&kind, key, &payload)?;
            stats.entries += 1;
            stats.payload_bytes += payload_len;
        }
        if pos != body_len {
            return Err(invalid("trailing bytes after the last pack entry"));
        }
        self.flush();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!(
            "autoreconf-store-unit-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(&dir).unwrap()
    }

    #[test]
    fn save_and_load_round_trip() {
        let store = scratch_store("roundtrip");
        let key = FingerprintBuilder::new().str("hello").u64(7).finish();
        assert_eq!(store.load("trace", key), None);
        store.save("trace", key, b"payload bytes").unwrap();
        assert_eq!(store.load("trace", key).as_deref(), Some(&b"payload bytes"[..]));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt, s.writes), (1, 1, 0, 1));
        assert_eq!(s.payload_bytes_read, b"payload bytes".len() as u64);
        // overwriting is atomic and idempotent
        store.save("trace", key, b"payload bytes").unwrap();
        assert_eq!(store.entries(Some("trace")).len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn kinds_and_keys_are_disjoint() {
        let store = scratch_store("kinds");
        let k1 = FingerprintBuilder::new().str("a").finish();
        let k2 = FingerprintBuilder::new().str("b").finish();
        assert_ne!(k1, k2);
        store.save("trace", k1, b"t").unwrap();
        store.save("table", k1, b"c").unwrap();
        assert_eq!(store.load("trace", k1).as_deref(), Some(&b"t"[..]));
        assert_eq!(store.load("table", k1).as_deref(), Some(&b"c"[..]));
        assert_eq!(store.load("trace", k2), None);
        assert_eq!(store.entries(None).len(), 2);
        assert_eq!(store.entries(Some("table")).len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entries_are_rejected_not_returned() {
        let store = scratch_store("corrupt");
        let key = FingerprintBuilder::new().str("x").finish();
        store.save("table", key, b"the artifact payload").unwrap();
        let path = store.entries(Some("table"))[0].clone();

        // bit flip in the payload
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load("table", key), None);

        // truncation
        store.save("table", key, b"the artifact payload").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.load("table", key), None);

        // an entry renamed onto the wrong key
        let other = FingerprintBuilder::new().str("y").finish();
        store.save("table", key, b"the artifact payload").unwrap();
        std::fs::rename(&path, store.dir().join(format!("table-{other}.art"))).unwrap();
        assert_eq!(store.load("table", other), None);

        // an entry renamed across kinds under the same key
        store.save("table", key, b"the artifact payload").unwrap();
        std::fs::rename(&path, store.dir().join(format!("trace-{key}.art"))).unwrap();
        assert_eq!(store.load("trace", key), None);

        assert_eq!(store.stats().corrupt, 4);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn every_bit_flip_of_a_store_entry_is_a_corrupt_miss() {
        // envelope fields and payload alike: one flipped bit anywhere in the
        // file must make the entry a corrupt miss, never a wrong payload
        let store = scratch_store("bit-flips");
        let key = FingerprintBuilder::new().str("flip").finish();
        store.save("table", key, b"a small artifact payload").unwrap();
        let path = store.entries(Some("table"))[0].clone();
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        for bit in 0..good.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bad).unwrap();
            let corrupt_before = store.stats().corrupt;
            assert_eq!(store.load("table", key), None, "bit {bit} must not load");
            assert_eq!(store.stats().corrupt, corrupt_before + 1, "bit {bit} must count");
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        std::fs::write(&path, &good).unwrap();
        assert_eq!(store.load("table", key).as_deref(), Some(&b"a small artifact payload"[..]));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn json_payloads_round_trip() {
        let store = scratch_store("json");
        let key = FingerprintBuilder::new().str("json").finish();
        let value = vec![0.1f64, 1.0 / 3.0, 123456.789];
        store.save_json("sweep", key, &value).unwrap();
        let back: Vec<f64> = store.load_json("sweep", key).unwrap();
        assert_eq!(back, value, "f64 payloads must round-trip bit-exactly");
        // schema drift: the payload is valid bytes but not the asked-for type
        let wrong: Option<Vec<String>> = store.load_json("sweep", key);
        assert!(wrong.is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fingerprints_separate_fields() {
        // "ab" + "c" must not collide with "a" + "bc"
        let k1 = FingerprintBuilder::new().str("ab").str("c").finish();
        let k2 = FingerprintBuilder::new().str("a").str("bc").finish();
        assert_ne!(k1, k2);
        // debug-based keys see structural values
        let k3 = FingerprintBuilder::new().debug(&(1u8, 2u32)).finish();
        let k4 = FingerprintBuilder::new().debug(&(1u8, 3u32)).finish();
        assert_ne!(k3, k4);
    }

    #[test]
    fn from_env_requires_the_variable() {
        if std::env::var("AUTORECONF_STORE").is_err() {
            assert!(ArtifactStore::from_env().is_none());
        }
    }

    #[test]
    fn peek_validates_the_envelope_without_reading_the_payload() {
        let store = scratch_store("peek");
        let key = FingerprintBuilder::new().str("peeked").finish();
        assert_eq!(store.peek("table", key), None);
        store.save("table", key, b"0123456789").unwrap();

        let meta = store.peek("table", key).expect("entry is present");
        assert_eq!(meta.payload_len, 10);
        assert_eq!(meta.checksum, leon_sim::xxh64(b"0123456789"));
        assert!(store.contains("table", key));
        // wrong kind, wrong key: envelope mismatch
        assert_eq!(store.peek("trace", key), None);
        assert_eq!(store.peek("table", FingerprintBuilder::new().str("no").finish()), None);
        // a truncated file fails the size cross-check
        let path = store.entries(Some("table"))[0].clone();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(store.peek("table", key), None);
        // and none of the above read any payload bytes
        assert_eq!(store.stats().payload_bytes_read, 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn manifest_tracks_saves_loads_and_survives_reopen() {
        let store = scratch_store("manifest");
        let k1 = FingerprintBuilder::new().str("m1").finish();
        let k2 = FingerprintBuilder::new().str("m2").finish();
        store.save("table", k1, b"first").unwrap();
        store.save("sweep", k2, b"second!").unwrap();
        let manifest = store.manifest();
        assert_eq!(manifest.version, MANIFEST_VERSION);
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.clock, 2);

        // loading bumps the accessed entry past the other one
        store.load("table", k1).unwrap();
        let manifest = store.manifest();
        let stamp = |kind: &str| {
            manifest.entries.iter().find(|e| e.kind == kind).unwrap().last_access
        };
        assert!(stamp("table") > stamp("sweep"));

        // access stamps batch in memory until a flush; a reopened handle
        // then sees the persisted manifest (same stamps)
        store.flush();
        let reopened = ArtifactStore::open(store.dir()).unwrap();
        assert_eq!(reopened.manifest(), manifest);

        // deleting the manifest file rebuilds the index from envelopes
        std::fs::remove_file(store.dir().join(MANIFEST_FILE)).unwrap();
        let rebuilt = ArtifactStore::open(store.dir()).unwrap();
        let rebuilt_manifest = rebuilt.manifest();
        assert_eq!(rebuilt_manifest.entries.len(), 2);
        assert!(rebuilt_manifest.entries.iter().all(|e| e.last_access == 0));
        assert_eq!(rebuilt.stats().payload_bytes_read, 0, "rebuild reads envelopes only");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_evicts_least_recently_used_first_and_respects_pins() {
        let store = scratch_store("gc");
        let keys: Vec<Fingerprint> =
            (0..4).map(|i| FingerprintBuilder::new().str("gc").u64(i).finish()).collect();
        for &k in &keys {
            store.save("table", k, &[0u8; 60]).unwrap(); // 100 bytes per file
        }
        // access order now 0 < 1 < 2 < 3; touch 0 so 1 becomes the LRU
        store.load("table", keys[0]).unwrap();
        // pin entry 1 (the LRU): GC must skip it
        store.pin("table", keys[1]);

        let report = store.gc(250).unwrap();
        assert_eq!(report.bytes_before, 400);
        assert!(report.bytes_after <= 250, "{report:?}");
        assert_eq!(report.pinned_retained, 1);
        // evicted: 2 then 3 (oldest unpinned); survivors: 0 (touched), 1 (pinned)
        assert!(store.contains("table", keys[0]));
        assert!(store.contains("table", keys[1]));
        assert!(!store.contains("table", keys[2]));
        assert!(!store.contains("table", keys[3]));
        assert_eq!(store.stats().evictions, 2);

        // unpinning lets a tighter pass take entry 1 too
        store.unpin("table", keys[1]);
        let report = store.gc(100).unwrap();
        assert!(report.within_budget());
        assert!(store.contains("table", keys[0]), "the most recently used entry survives");
        assert_eq!(store.entries(None).len(), 1);

        // a budget pinned entries alone exceed: nothing evictable remains
        store.pin("table", keys[0]);
        let report = store.gc(0).unwrap();
        assert_eq!(report.pinned_retained, 1);
        assert_eq!(report.entries_after, 1, "only pinned entries may remain over budget");
        assert!(!report.within_budget());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn doctor_detects_and_repairs_damage() {
        let store = scratch_store("doctor");
        let k1 = FingerprintBuilder::new().str("d1").finish();
        let k2 = FingerprintBuilder::new().str("d2").finish();
        let k3 = FingerprintBuilder::new().str("d3").finish();
        store.save("table", k1, b"healthy").unwrap();
        store.save("sweep", k2, b"will be corrupted").unwrap();
        store.save("optimum", k3, b"will go stale").unwrap();
        assert!(store.doctor(false).unwrap().is_clean());

        // corrupt one payload, delete one file behind the manifest's back,
        // and drop a stray temporary
        let path = store.dir().join(format!("sweep-{k2}.art"));
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        std::fs::remove_file(store.dir().join(format!("optimum-{k3}.art"))).unwrap();
        std::fs::write(store.dir().join(".tmp-1234-99-stray"), b"torn").unwrap();

        let report = store.doctor(false).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.entries_ok, 1);
        assert_eq!(report.corrupt_entries, 1);
        // the corrupted sweep still has a (now mismatching or stale)
        // manifest record, and the deleted optimum is stale
        assert_eq!(report.stale_manifest_entries, 2);
        // the tmp file was written microseconds ago: under the default
        // grace window it is a possible in-flight save, not debris
        assert_eq!(report.stray_tmp_files, 0);
        assert_eq!(report.inflight_tmp_files, 1);
        assert!(report.render().contains("corrupt"));
        assert!(report.render().contains("in-flight"));

        let repaired = store.doctor(true).unwrap();
        assert!(repaired.repaired);
        let after = store.doctor(false).unwrap();
        assert!(after.is_clean(), "{after:?}");
        assert_eq!(after.entries_ok, 1);
        assert_eq!(store.manifest().entries.len(), 1);
        // repair under the grace window must NOT have touched the young tmp
        assert!(store.dir().join(".tmp-1234-99-stray").exists());

        // with the grace window collapsed the same file is collectable
        store.set_tmp_grace(Duration::ZERO);
        let report = store.doctor(false).unwrap();
        assert!(!report.is_clean());
        assert_eq!((report.stray_tmp_files, report.inflight_tmp_files), (1, 0));
        assert!(store.doctor(true).unwrap().repaired);
        assert!(!store.dir().join(".tmp-1234-99-stray").exists());
        assert!(store.doctor(false).unwrap().is_clean());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn claim_is_exclusive_across_handles_and_released_on_drop() {
        let store = scratch_store("claim");
        let sibling = ArtifactStore::open(store.dir()).unwrap();
        let key = FingerprintBuilder::new().str("claimed").finish();
        let ttl = Duration::from_secs(60);

        let lease = match store.try_claim("table", key, ttl).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("first claim must acquire, got {other:?}"),
        };
        // a second claimant — even through a separately opened handle —
        // sees the live claim, with the holder identified
        match sibling.try_claim("table", key, ttl).unwrap() {
            ClaimOutcome::Busy(info) => {
                assert_eq!(info.owner_pid, std::process::id());
                assert!(!info.is_expired());
            }
            other => panic!("second claim must be busy, got {other:?}"),
        }
        assert!(store.lease_info("table", key).is_some());
        // other keys and kinds are unaffected
        let other_key = FingerprintBuilder::new().str("other").finish();
        assert!(matches!(
            sibling.try_claim("table", other_key, ttl).unwrap(),
            ClaimOutcome::Acquired(_)
        ));
        assert!(matches!(
            sibling.try_claim("trace", key, ttl).unwrap(),
            ClaimOutcome::Acquired(_)
        ));

        drop(lease);
        assert!(store.lease_info("table", key).is_none());
        match sibling.try_claim("table", key, ttl).unwrap() {
            ClaimOutcome::Acquired(lease) => lease.release(),
            other => panic!("released claim must be re-acquirable, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn expired_claims_are_taken_over_and_heartbeats_prevent_that() {
        let store = scratch_store("claim-expiry");
        let key = FingerprintBuilder::new().str("expiring").finish();

        // a claim whose holder never renews (simulating a crash: leak it so
        // release never runs) expires and is taken over
        let dead = match store.try_claim("table", key, Duration::from_millis(30)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("got {other:?}"),
        };
        std::mem::forget(dead);
        std::thread::sleep(Duration::from_millis(60));
        assert!(store.lease_info("table", key).unwrap().is_expired());
        let usurper = match store.try_claim("table", key, Duration::from_secs(60)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("expired claim must be stolen, got {other:?}"),
        };
        assert!(!store.lease_info("table", key).unwrap().is_expired());
        drop(usurper);

        // a heartbeat keeps a short-TTL claim alive arbitrarily long
        let mut held = match store.try_claim("table", key, Duration::from_millis(40)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("got {other:?}"),
        };
        held.start_heartbeat();
        std::thread::sleep(Duration::from_millis(200));
        match store.try_claim("table", key, Duration::from_millis(40)).unwrap() {
            ClaimOutcome::Busy(info) => assert!(!info.is_expired()),
            other => panic!("heartbeat must keep the claim live, got {other:?}"),
        }
        drop(held);
        assert!(store.lease_info("table", key).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn waiters_block_on_the_winner_and_see_its_result() {
        let store = scratch_store("claim-wait");
        let key = FingerprintBuilder::new().str("awaited").finish();

        // no lease, no entry: nothing to wait for
        assert!(!store.await_entry_or_lease_deadline("table", key, DEFAULT_LEASE_WAIT).unwrap());

        // winner computes and saves under a live claim; the waiter blocks
        // and then loads the winner's bytes
        let winner_store = store.clone();
        let lease = match store.try_claim("table", key, Duration::from_secs(60)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("got {other:?}"),
        };
        let winner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            winner_store.save("table", key, b"computed once").unwrap();
            lease.release();
        });
        assert!(store.await_entry_or_lease_deadline("table", key, DEFAULT_LEASE_WAIT).unwrap());
        assert_eq!(store.load("table", key).as_deref(), Some(&b"computed once"[..]));
        winner.join().unwrap();

        // a winner that releases *without* saving (failed compute) unblocks
        // the waiter with `false` so it can claim and compute itself
        let key2 = FingerprintBuilder::new().str("abandoned").finish();
        let loser_store = store.clone();
        let lease = match store.try_claim("table", key2, Duration::from_secs(60)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("got {other:?}"),
        };
        let quitter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            drop(lease);
        });
        assert!(!loser_store
            .await_entry_or_lease_deadline("table", key2, DEFAULT_LEASE_WAIT)
            .unwrap());
        quitter.join().unwrap();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_live_claim_that_outlasts_the_deadline_is_a_typed_timeout() {
        let store = scratch_store("claim-timeout");
        let key = FingerprintBuilder::new().str("wedged").finish();
        // a holder that keeps heartbeating but never publishes
        let mut held = match store.try_claim("table", key, Duration::from_secs(60)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("got {other:?}"),
        };
        held.start_heartbeat();
        let deadline = Duration::from_millis(50);
        let timeout = store.await_entry_or_lease_deadline("table", key, deadline).unwrap_err();
        assert_eq!((timeout.kind.as_str(), timeout.key), ("table", key));
        assert_eq!(timeout.holder_pid, std::process::id());
        assert!(timeout.waited >= deadline, "waited only {:?}", timeout.waited);
        drop(held);
        assert!(!store.await_entry_or_lease_deadline("table", key, deadline).unwrap());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn doctor_reports_live_leases_and_collects_expired_ones() {
        let store = scratch_store("claim-doctor");
        let live_key = FingerprintBuilder::new().str("live").finish();
        let dead_key = FingerprintBuilder::new().str("dead").finish();

        let live = match store.try_claim("table", live_key, Duration::from_secs(60)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("got {other:?}"),
        };
        let dead = match store.try_claim("table", dead_key, Duration::from_millis(1)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("got {other:?}"),
        };
        std::mem::forget(dead);
        std::thread::sleep(Duration::from_millis(20));

        let report = store.doctor(false).unwrap();
        assert_eq!((report.active_leases, report.expired_leases), (1, 1));
        assert!(!report.is_clean(), "an expired lease is a crashed holder's corpse");
        assert!(report.render().contains("live compute lease"));

        let repaired = store.doctor(true).unwrap();
        assert_eq!((repaired.active_leases, repaired.expired_leases), (1, 1));
        // repair removed only the corpse; the live claim survives
        assert!(store.lease_info("table", live_key).is_some());
        assert!(store.lease_info("table", dead_key).is_none());
        drop(live);
        assert!(store.doctor(false).unwrap().is_clean());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_skips_entries_guarded_by_live_leases_and_foreign_pins() {
        let store = scratch_store("gc-guards");
        let leased = FingerprintBuilder::new().str("leased").finish();
        let pinned = FingerprintBuilder::new().str("foreign-pin").finish();
        let loose = FingerprintBuilder::new().str("loose").finish();
        store.save("co", leased, b"in-flight result").unwrap();
        store.save("co", pinned, b"daemon-pinned").unwrap();
        store.save("co", loose, b"evictable").unwrap();

        // a sibling handle — its own pin table, exactly what a separate
        // *process* would have — pins one entry; the first handle's
        // in-memory table knows nothing about it, only the disk marker does
        let sibling = ArtifactStore::open(store.dir()).unwrap();
        sibling.pin("co", pinned);
        assert!(!store.is_pinned("co", pinned), "pin tables are per handle family");

        // and a live claim guards another (a sibling's in-flight compute)
        let lease = match sibling.try_claim("co", leased, Duration::from_secs(60)).unwrap() {
            ClaimOutcome::Acquired(l) => l,
            other => panic!("got {other:?}"),
        };

        let report = store.gc(0).unwrap();
        assert_eq!(report.pinned_retained, 1, "{report:?}");
        assert_eq!(report.lease_retained, 1, "{report:?}");
        assert!(store.contains("co", pinned), "a foreign pin must survive gc");
        assert!(store.contains("co", leased), "a lease-guarded entry must survive gc");
        assert!(!store.contains("co", loose), "unguarded entries still evict");
        assert!(report.render().contains("lease-guarded"));

        // releasing both guards makes the entries ordinary again
        lease.release();
        sibling.unpin("co", pinned);
        let report = store.gc(0).unwrap();
        assert!(report.within_budget(), "{report:?}");
        assert!(store.entries(None).is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn expired_pin_markers_do_not_guard_gc_and_doctor_collects_them() {
        let store = scratch_store("gc-expired-pin");
        let key = FingerprintBuilder::new().str("crashed-session").finish();
        store.save("co", key, b"was pinned by a crashed session").unwrap();
        // forge a long-expired marker — what a crashed session's pin looks
        // like after its heartbeat stops renewing the TTL
        let marker = store.dir().join(format!("co-{key}.pin-{:016x}", 0xdead_beef_u64));
        let body = LeaseBody {
            version: LEASE_VERSION,
            owner_pid: 1,
            token: 0xdead_beef,
            expires_unix_ms: 1,
        };
        std::fs::write(&marker, serde_json::to_string(&body).unwrap()).unwrap();

        let report = store.doctor(false).unwrap();
        assert_eq!((report.active_pins, report.expired_pins), (0, 1));
        assert!(!report.is_clean(), "an expired pin marker is dirt");
        assert!(report.render().contains("pin marker"));

        // the expired marker guards nothing: gc may evict the entry
        let report = store.gc(0).unwrap();
        assert_eq!((report.pinned_retained, report.lease_retained), (0, 0));
        assert!(!store.contains("co", key));

        assert!(store.doctor(true).unwrap().repaired);
        assert!(!marker.exists(), "repair removes the corpse marker");
        assert!(store.doctor(false).unwrap().is_clean());

        // a *live* pin in this very handle is reported as healthy
        let live = FingerprintBuilder::new().str("live-pin").finish();
        store.save("co", live, b"pinned here").unwrap();
        store.pin("co", live);
        let report = store.doctor(false).unwrap();
        assert_eq!((report.active_pins, report.expired_pins), (1, 0));
        assert!(report.is_clean(), "a live pin is healthy: {report:?}");
        store.unpin("co", live);
        assert_eq!(store.doctor(false).unwrap().active_pins, 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn manifest_merge_on_persist_keeps_both_handles_stamps() {
        let store = scratch_store("manifest-merge");
        let sibling = ArtifactStore::open(store.dir()).unwrap();
        let ka = FingerprintBuilder::new().str("from-a").finish();
        let kb = FingerprintBuilder::new().str("from-b").finish();

        // interleave: each handle saves its own entry, then A advances its
        // clock well past B's and flushes first
        store.save("table", ka, b"handle A's entry").unwrap();
        sibling.save("sweep", kb, b"handle B's entry").unwrap();
        for _ in 0..5 {
            store.load("table", ka).unwrap();
        }
        store.flush();
        // (A's flush may already index B's entry *file* via the envelope
        // rebuild — but only with a know-nothing stamp of 0; B's actual
        // access stamp exists solely in B's in-memory state.)
        let disk_after_a = ArtifactStore::open(store.dir()).unwrap().manifest();

        // B persists last.  Last-writer-wins would now wipe A's entry and
        // rewind the clock; merge-on-persist must keep both.
        sibling.flush();
        let merged = ArtifactStore::open(store.dir()).unwrap().manifest();
        assert_eq!(merged.entries.len(), 2, "{merged:?}");
        let stamp = |kind: &str| merged.entries.iter().find(|e| e.kind == kind).unwrap();
        assert_eq!(stamp("table").fingerprint, ka.0);
        assert_eq!(stamp("sweep").fingerprint, kb.0);
        assert_eq!(
            merged.clock,
            disk_after_a.clock,
            "B's lower clock must not rewind A's ticks"
        );
        assert!(
            stamp("table").last_access > stamp("sweep").last_access,
            "A's five loads keep its entry newest in LRU order: {merged:?}"
        );

        // and the merged view survives a doctor pass untouched
        assert!(store.doctor(false).unwrap().is_clean());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A real captured trace wrapped in the stored-entry framing (the
    /// 16-byte base-cost prefix of `campaign::encode_stored_trace`).
    fn stored_trace_payload(trace_bytes: &[u8]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16 + trace_bytes.len());
        payload.extend_from_slice(&42u64.to_le_bytes());
        payload.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        payload.extend_from_slice(trace_bytes);
        payload
    }

    #[test]
    fn doctor_validates_stored_traces() {
        use leon_isa::{Asm, Reg};
        let store = scratch_store("doctor-trace");
        let mut a = Asm::new("doctor-trace");
        a.set(Reg::L0, 64);
        a.set(Reg::L2, leon_isa::DEFAULT_MEMORY_SIZE / 2);
        a.label("loop");
        a.st(Reg::L0, Reg::L2, 0);
        a.ld(Reg::L3, Reg::L2, 0);
        a.add(Reg::L2, Reg::L2, 4);
        a.subcc(Reg::L0, Reg::L0, 1);
        a.bne("loop");
        a.halt();
        let program = a.assemble().unwrap();
        let (_, trace) =
            leon_sim::capture(&leon_sim::LeonConfig::base(), &program, 1_000_000).unwrap();
        let good = trace.to_bytes();

        let k_good = FingerprintBuilder::new().str("trace-good").finish();
        store.save("trace", k_good, &stored_trace_payload(&good)).unwrap();
        let report = store.doctor(false).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.trace_entries, 1);
        assert!(report.render().contains("traces: 1 well-formed"));

        // flip the last payload byte of the trace (just ahead of its
        // trailing checksum) and re-save: the store envelope is recomputed
        // over the damaged bytes and validates, so only the trace's own
        // trailer can catch it
        let mut bad = good.clone();
        let at = bad.len() - 9;
        bad[at] ^= 0xff;
        let k_bad = FingerprintBuilder::new().str("trace-bad").finish();
        store.save("trace", k_bad, &stored_trace_payload(&bad)).unwrap();
        // entries in a retired format version (the monolithic version 1,
        // version 2, which stored derived data, version 3, with its
        // per-segment FNV-1a checksums, version 4, one record per eventful
        // instruction, and version 5, with a segment index per stream, of
        // earlier releases) are no longer decodable, so they are damage too
        let retired: Vec<Fingerprint> = [1u32, 2, 3, 4, 5]
            .into_iter()
            .map(|version| {
                let mut retired = good.clone();
                retired[4..8].copy_from_slice(&version.to_le_bytes());
                let key =
                    FingerprintBuilder::new().str("trace-retired").u64(version as u64).finish();
                store.save("trace", key, &stored_trace_payload(&retired)).unwrap();
                key
            })
            .collect();
        let report = store.doctor(false).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.trace_payload_errors, 6);
        assert_eq!(report.corrupt_entries, 0, "the envelopes themselves are fine");
        assert!(report.render().contains("6 trace entry(ies) that fail to decode"));

        // repair deletes the damaged entries; the healthy one survives
        assert!(store.doctor(true).unwrap().repaired);
        let after = store.doctor(false).unwrap();
        assert!(after.is_clean(), "{after:?}");
        assert_eq!(after.trace_entries, 1);
        assert_eq!(store.load("trace", k_bad), None);
        for key in retired {
            assert_eq!(store.load("trace", key), None);
        }
        assert!(store.load("trace", k_good).is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn pack_and_unpack_round_trip_the_whole_store() {
        let store = scratch_store("pack-src");
        let k1 = FingerprintBuilder::new().str("p1").finish();
        let k2 = FingerprintBuilder::new().str("p2").finish();
        store.save("table", k1, b"table payload").unwrap();
        store.save("sweep", k2, b"sweep payload, longer").unwrap();

        let pack = store.dir().join("export.pack");
        let packed = store.pack_to(&pack).unwrap();
        assert_eq!(packed.entries, 2);
        assert_eq!(packed.skipped_corrupt, 0);

        // packing is deterministic
        let pack2 = store.dir().join("export2.pack");
        store.pack_to(&pack2).unwrap();
        assert_eq!(std::fs::read(&pack).unwrap(), std::fs::read(&pack2).unwrap());

        let dest = scratch_store("pack-dst");
        let unpacked = dest.unpack_from(&pack).unwrap();
        assert_eq!(unpacked.entries, 2);
        assert_eq!(dest.load("table", k1).as_deref(), Some(&b"table payload"[..]));
        assert_eq!(dest.load("sweep", k2).as_deref(), Some(&b"sweep payload, longer"[..]));
        assert!(dest.doctor(false).unwrap().is_clean());

        // a corrupt pack is rejected atomically
        let mut bad = std::fs::read(&pack).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x20;
        let bad_path = store.dir().join("bad.pack");
        std::fs::write(&bad_path, &bad).unwrap();
        let empty = scratch_store("pack-bad");
        assert!(empty.unpack_from(&bad_path).is_err());
        assert_eq!(empty.entries(None).len(), 0);

        // a corrupt source entry is skipped, not exported
        let path = store.dir().join(format!("table-{k1}.art"));
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let partial = store.pack_to(&pack).unwrap();
        assert_eq!((partial.entries, partial.skipped_corrupt), (1, 1));

        for s in [&store, &dest, &empty] {
            let _ = std::fs::remove_dir_all(s.dir());
        }
    }

    /// A pack file as [`ArtifactStore::pack_to`] writes it, of the given
    /// `(kind, key, payload)` entries, whatever their kinds.
    fn pack_of(entries: &[(&str, u64, &[u8])]) -> Vec<u8> {
        let mut bytes = PACK_MAGIC.to_vec();
        bytes.extend_from_slice(&PACK_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (kind, key, payload) in entries {
            bytes.extend_from_slice(&(kind.len() as u16).to_le_bytes());
            bytes.extend_from_slice(kind.as_bytes());
            bytes.extend_from_slice(&key.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(payload);
        }
        let checksum = leon_sim::fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn unpack_rejects_entry_kinds_the_store_cannot_name() {
        let store = scratch_store("pack-kinds");
        let pack = store.dir().with_extension("pack");
        for kind in ["a.b", "x-y", "", "../up"] {
            std::fs::write(&pack, pack_of(&[(kind, 7, b"hostile"), ("table", 8, b"fine")]))
                .unwrap();
            let err = store.unpack_from(&pack).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{kind:?}: {err}");
            assert!(err.to_string().contains("pack entry 0"), "{kind:?}: {err}");
            assert_eq!(store.entries(None).len(), 0, "{kind:?}: nothing is imported");
            let escaped = store.dir().join(format!("../up-{}.art", Fingerprint(7)));
            assert!(!escaped.exists(), "{kind:?}: nothing is written outside the store");
            assert!(store.doctor(false).unwrap().is_clean(), "{kind:?}");
        }
        // the same pack with a nameable kind imports both entries
        std::fs::write(&pack, pack_of(&[("sweep", 7, b"hostile"), ("table", 8, b"fine")])).unwrap();
        assert_eq!(store.unpack_from(&pack).unwrap().entries, 2);
        assert_eq!(store.load("table", Fingerprint(8)).as_deref(), Some(&b"fine"[..]));
        let _ = std::fs::remove_file(&pack);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn foreign_entry_names_are_not_entries() {
        // a `.art` file whose kind no store entry can have is skipped by
        // every pass, counted corrupt by `doctor` and deleted by its repair
        // — even when its envelope validates for that kind
        let donor = scratch_store("foreign-donor");
        donor.save("table", Fingerprint(0), b"foreign").unwrap();
        let bytes = std::fs::read(donor.entry_path("table", Fingerprint(0))).unwrap();
        for (i, kind) in ["a.b", "x y", ".."].into_iter().enumerate() {
            let dir = std::env::temp_dir()
                .join(format!("autoreconf-store-unit-{}-foreign-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut forged = bytes.clone();
            forged[8..16].copy_from_slice(&leon_sim::fnv1a64(kind.as_bytes()).to_le_bytes());
            std::fs::write(dir.join(format!("{kind}-{}.art", Fingerprint(0))), &forged).unwrap();

            let store = ArtifactStore::open(&dir).unwrap();
            assert!(store.usage().is_empty(), "{kind:?}");
            store.gc(0).unwrap();
            let pack = dir.with_extension("pack");
            assert_eq!(store.pack_to(&pack).unwrap().skipped_corrupt, 1, "{kind:?}");
            assert_eq!(store.doctor(true).unwrap().corrupt_entries, 1, "{kind:?}");
            drop(store);
            let reopened = ArtifactStore::open(&dir).unwrap();
            assert!(reopened.doctor(false).unwrap().is_clean(), "{kind:?}");
            assert!(reopened.entries(None).is_empty(), "{kind:?}");
            drop(reopened);
            let _ = std::fs::remove_file(&pack);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(donor.dir());
    }

    #[test]
    fn lazy_artifacts_materialize_once() {
        let lazy: LazyArtifact<u32> = LazyArtifact::pending();
        assert!(!lazy.is_materialized());
        assert_eq!(lazy.get(), None);
        let mut calls = 0;
        let v = lazy
            .get_or_try_materialize(|| -> Result<u32, ()> {
                calls += 1;
                Ok(42)
            })
            .unwrap();
        assert_eq!(*v, 42);
        // second dereference does not re-run the materializer
        let v = lazy.get_or_try_materialize(|| -> Result<u32, ()> { panic!("must not rerun") });
        assert_eq!(v, Ok(&42));
        assert_eq!(calls, 1);
        assert_eq!(lazy.into_inner(), Some(42));

        // a failed materialisation leaves the handle pending for a retry
        let lazy: LazyArtifact<u32> = LazyArtifact::pending();
        assert_eq!(lazy.get_or_try_materialize(|| Err::<u32, _>("boom")), Err("boom"));
        assert!(!lazy.is_materialized());
        assert_eq!(lazy.get_or_try_materialize(|| Ok::<u32, ()>(7)), Ok(&7));

        // ready handles never run a materializer
        let ready = LazyArtifact::ready(9u32);
        assert!(ready.is_materialized());
        assert_eq!(ready.get_or_try_materialize(|| Err::<u32, _>(())), Ok(&9));
    }

    #[test]
    fn usage_reports_per_kind_totals() {
        let store = scratch_store("usage");
        store.save("table", FingerprintBuilder::new().str("u1").finish(), &[0; 10]).unwrap();
        store.save("table", FingerprintBuilder::new().str("u2").finish(), &[0; 20]).unwrap();
        store.save("trace", FingerprintBuilder::new().str("u3").finish(), &[0; 30]).unwrap();
        let usage = store.usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].kind, "table");
        assert_eq!(usage[0].entries, 2);
        assert_eq!(usage[0].file_bytes, 40 + 10 + 40 + 20);
        assert_eq!(usage[1].kind, "trace");
        assert_eq!(usage[1].file_bytes, 70);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
