//! Trace capture and replay retiming.
//!
//! The measurement phase of the paper (Section 3) evaluates ~52 one-at-a-time
//! perturbations per application, and the Figure 2 study exhaustively sweeps
//! the d-cache geometry.  In an in-order, blocking LEON2 model, cache and
//! timing perturbations cannot change the instruction or memory-address
//! stream — only how many cycles each event costs.  So the stream only has to
//! be produced once: the first functional run records a compact execution
//! trace, and every perturbation is retimed over it — no decode, no ALU, no
//! architectural state.
//!
//! # What the trace holds
//!
//! * [`Trace::ops`] — one [`TraceOp`] per eventful instruction (loads,
//!   stores, branches, multiplies, window rotations, …), with runs of
//!   event-free sequential fetches inside one 16-byte block (the minimum
//!   line size, so "same cache line" holds under every valid geometry)
//!   run-length compressed into a single record;
//! * [`Trace::folded`] — the data-cache-relevant stream, folded from `ops`:
//!   load/store run leaders (an access strictly following a read of its own
//!   16-byte line folds into the leader, a guaranteed hit under every
//!   geometry) and `save`/`restore` markers with their (architecturally
//!   configuration-independent) stack pointers;
//! * [`Trace::segments`] — where each segment starts in both streams, so
//!   each segment walks on its own;
//! * [`Trace::summary`] — configuration-independent event *counts*;
//! * the capturing configuration and its cache statistics.
//!
//! Only the records, the segment boundaries, the capture results and one
//! trailing [`xxh64`] checksum are serialised ([`Trace::to_bytes`], format
//! version 4): `folded`, the per-segment folded offsets and `summary` are
//! pure functions of `ops`, so [`Trace::from_bytes`] derives them exactly as
//! capture does.
//!
//! # How replay retimes a configuration
//!
//! Total cycles decompose into `Σ events × cost(event, config)`, and only
//! cache hit/miss behaviour needs stateful re-simulation.  A batch of
//! configurations ([`ReplayBatch`]; [`replay`] is a batch of one) is
//! partitioned into *behavior classes*, and each tier costs:
//!
//! 1. **i-cache**: a configuration whose i-cache geometry equals the
//!    capturing one reuses its statistics verbatim; every other distinct
//!    i-cache geometry is one fetch class, and all fetch classes are
//!    re-simulated together in one walk of `ops` through lean tag-only
//!    cache models ([`crate::cache`]'s `TagCache`).
//! 2. **d-cache + window traps**: if both the d-cache geometry and the
//!    register-window count match, the captured statistics are reused;
//!    otherwise each distinct (geometry, window count) pair is one memory
//!    class, and all memory classes share one walk of `folded` — a
//!    resident-window automaton per window count re-derives overflow/
//!    underflow traps and expands each trap into its 16 spill/fill
//!    accesses.
//! 3. **everything else** (latency options, decode/jump/interlock, fast
//!    read/write, multiplier/divider, memory timing) is closed-form
//!    arithmetic over [`TraceSummary`] — O(1).
//!
//! A cost-table measurement of the paper's 52-variable space therefore runs
//! the full simulator once and then at most one walk per stream (one per
//! class span when the classes are spread over a worker pool); the 14
//! IU-only variables are O(1).
//!
//! Replay is bit-identical to full simulation — same final `cycles` and
//! cache statistics — which `tests/replay_equivalence.rs` asserts across the
//! benchmark suite × a grid of perturbations.  The `max_cycles` budget is a
//! bound on the run *total* in both engines: a run first pushed past the
//! budget by its very last instruction errors identically here and in
//! [`crate::Cpu::run`] (see `budget_boundary_is_identical_to_simulation`).
//!
//! Traces are plain data (`Send + Sync`): one captured trace is shared
//! read-only by every replay worker of a measurement campaign.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::{CacheStats, TagCache};
use crate::config::{CacheConfig, LeonConfig};
use crate::error::SimError;
use crate::profiler::Stats;

/// Process-wide count of trace-stream walks: one tick per span walker, i.e.
/// per pass over a trace's record or folded memory stream that
/// re-simulates a span of behavior classes at once ([`ReplayBatch`], which
/// [`replay`] runs as a one-configuration batch).  Closed-form retimes never
/// walk and never tick.
///
/// This is the replay engine's headline counter, next to
/// `workloads::guest_instructions_executed` and
/// `workloads::trace_payload_bytes_read`: a batched 52-variable cost-table
/// measurement must perform at most one walk per distinct behavior class —
/// and exactly one pass per stream when the classes are not partitioned
/// across workers — which `tests/batch_walk_budget.rs` asserts against
/// deltas of this counter.
static TRACE_WALKS: AtomicU64 = AtomicU64::new(0);

/// Total trace-stream walks performed so far by this process.  Monotonic;
/// compare deltas rather than resetting, so concurrent measurements cannot
/// clobber each other.
pub fn trace_walks_performed() -> u64 {
    TRACE_WALKS.load(Ordering::Relaxed)
}

/// Record one pass over a trace stream.
fn record_trace_walk() {
    TRACE_WALKS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide count of trace *segments* walked: one tick per segment
/// processed by a segmented span walker ([`MemSpanWalker`] /
/// [`FetchSpanWalker`]), whichever engine drives it.  A full span walk over
/// a trace with S segments ticks this S times (and [`TRACE_WALKS`] once), so
/// the segment-level budget of a batched measurement is
/// `classes × segments`, and a fused Figure 2 memory pass is exactly
/// `segments` — `tests/batch_walk_budget.rs` asserts both against deltas of
/// this counter.
static TRACE_SEGMENTS: AtomicU64 = AtomicU64::new(0);

/// Total trace segments walked so far by this process.  Monotonic; compare
/// deltas, as with [`trace_walks_performed`].
pub fn trace_segments_walked() -> u64 {
    TRACE_SEGMENTS.load(Ordering::Relaxed)
}

/// Record one segment processed by a span walker.
fn record_segment_walk() {
    TRACE_SEGMENTS.fetch_add(1, Ordering::Relaxed);
}

/// Flag bits of one [`TraceOp`].  A bit records that the *event occurred* in
/// the instruction stream; whether and how many cycles it costs is decided at
/// replay time from the configuration under evaluation.  A record with no
/// flag bits is a compressed run of `aux` event-free sequential fetches.
pub mod flags {
    /// The instruction uses a slow-decode format (`sethi`/`save`/`restore`/
    /// `jmpl`); costs one extra cycle unless fast decode is enabled.
    pub const SLOW_DECODE: u16 = 1 << 0;
    /// The instruction consumes the destination of the immediately preceding
    /// load (load-use interlock); costs `load_delay` cycles.
    pub const LOAD_USE: u16 = 1 << 1;
    /// A conditional branch immediately following an icc-setting instruction;
    /// costs one cycle when the ICC-hold interlock is configured.
    pub const ICC_BRANCH: u16 = 1 << 2;
    /// Hardware multiply.
    pub const MUL: u16 = 1 << 3;
    /// Hardware divide.
    pub const DIV: u16 = 1 << 4;
    /// Memory load; `aux` holds the effective address.
    pub const LOAD: u16 = 1 << 5;
    /// Memory store; `aux` holds the effective address.
    pub const STORE: u16 = 1 << 6;
    /// Conditional branch.
    pub const BRANCH: u16 = 1 << 7;
    /// The branch was taken (fetch refill cycle).
    pub const TAKEN: u16 = 1 << 8;
    /// Call or indirect jump (`call`/`jmpl` address-generation cycles).
    pub const CALL: u16 = 1 << 9;
    /// Register-window rotation forward (`save`); `aux` holds the
    /// (architectural, configuration-independent) post-save stack pointer a
    /// spill would write through.
    pub const SAVE: u16 = 1 << 10;
    /// Register-window rotation backward (`restore`); `aux` holds the
    /// post-restore stack pointer a fill would read through.
    pub const RESTORE: u16 = 1 << 11;
}

/// One trace record: a single eventful instruction, or a compressed run of
/// event-free sequential fetches when `flags == 0`.
///
/// 12 bytes per record: the fetch address (for the i-cache), an event
/// bitmask, and one auxiliary word (load/store effective address, save/
/// restore stack pointer, or the run length of a compressed fetch run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Program counter of the (first) fetch.
    pub pc: u32,
    /// Event bits from [`flags`]; `0` marks a compressed fetch run.
    pub flags: u16,
    /// Effective address (loads/stores), trap stack pointer (save/restore),
    /// or run length in instructions (compressed fetch runs).
    pub aux: u32,
}

impl TraceOp {
    /// A single event-free fetch (a run of length 1).
    pub fn fetch(pc: u32) -> TraceOp {
        TraceOp { pc, flags: 0, aux: 1 }
    }
}

/// Configuration-independent event counts of a captured run: everything the
/// cycle model charges for, minus the cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Dynamic instructions.
    pub instructions: u64,
    /// Instructions with a slow-decode format.
    pub slow_decode: u64,
    /// Load-use interlock occurrences.
    pub load_use: u64,
    /// Branches immediately following an icc-setting instruction.
    pub icc_branch: u64,
    /// Hardware multiplies.
    pub mul_ops: u64,
    /// Hardware divides.
    pub div_ops: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Taken conditional branches.
    pub taken_branches: u64,
    /// Calls and indirect jumps.
    pub calls: u64,
    /// `save` rotations.
    pub saves: u64,
    /// `restore` rotations.
    pub restores: u64,
}

/// Target number of records per trace segment (the "fixed-size-ish" cut):
/// large enough that per-segment scheduling and index overhead is noise,
/// small enough that a large trace yields dozens of independently walkable
/// units for intra-trace parallelism.
pub const SEGMENT_TARGET_OPS: usize = 1 << 16;

/// Marker flag of a folded-stream item (bit 63): the item is a
/// `save`/`restore` window rotation, not a load/store run leader.
const FOLD_MARKER_BIT: u64 = 1 << 63;

/// On a marker item: set for `restore`, clear for `save`.  The low 32 bits
/// hold the (configuration-independent) trap stack pointer either way.
const FOLD_RESTORE_BIT: u64 = 1 << 32;

/// Where one segment of a [`Trace`] starts in each stream, so a span walker
/// can walk it without touching its predecessors.  Deliberately
/// cache-independent: cache tag and window-automaton state chain through
/// the span walkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// First record of this segment in [`Trace::ops`].
    pub ops_start: usize,
    /// First item of this segment in [`Trace::folded`].
    pub folded_start: usize,
}

/// Build the segment table and the folded memory stream for a record stream
/// cut at `boundaries` (record indices; first must be 0, strictly
/// increasing, all within the stream).
///
/// The folded stream is the pre-computation of the batched walk's
/// guaranteed-hit elision: an access that strictly-consecutively follows a
/// **read** of its own 16-byte line folds into the leader's run count (a
/// write never establishes presence, so write leaders carry no run).  Folds
/// split at every `save`/`restore` marker — whether the marker traps depends
/// on the replayed window count, so folding across it would be unsound —
/// and at every segment boundary, so each segment's items stand alone; the
/// walk re-folds across non-trapping markers at run time, recovering the
/// monolithic elision exactly.
fn derive_segments(ops: &[TraceOp], boundaries: &[usize]) -> (Vec<SegmentMeta>, Vec<u64>) {
    let mut segments = Vec::with_capacity(boundaries.len());
    let mut folded: Vec<u64> = Vec::new();
    let fold_push = |folded: &mut Vec<u64>, run_line: &mut Option<u32>, addr: u32, write: bool| {
        if *run_line == Some(addr >> 4) {
            *folded.last_mut().expect("a run leader precedes every extension") +=
                1 << TagCache::MEM_RUN_SHIFT;
        } else {
            folded.push(addr as u64 | if write { TagCache::WRITE_BIT } else { 0 });
            *run_line = (!write).then(|| addr >> 4);
        }
    };

    for (index, &start) in boundaries.iter().enumerate() {
        let end = boundaries.get(index + 1).copied().unwrap_or(ops.len());
        segments.push(SegmentMeta { ops_start: start, folded_start: folded.len() });
        // a fold never crosses a segment boundary, so `folded_start` always
        // aligns with `ops_start`
        let mut run_line: Option<u32> = None;
        for op in &ops[start..end] {
            if op.flags == 0 {
                continue;
            }
            if op.flags & flags::LOAD != 0 {
                fold_push(&mut folded, &mut run_line, op.aux, false);
            }
            if op.flags & flags::STORE != 0 {
                fold_push(&mut folded, &mut run_line, op.aux, true);
            }
            if op.flags & flags::SAVE != 0 {
                folded.push(FOLD_MARKER_BIT | op.aux as u64);
                run_line = None;
            }
            if op.flags & flags::RESTORE != 0 {
                folded.push(FOLD_MARKER_BIT | FOLD_RESTORE_BIT | op.aux as u64);
                run_line = None;
            }
        }
    }
    (segments, folded)
}

/// A captured execution trace: the full timing-relevant event stream of one
/// program run, independent of every Figure 1 parameter (including the
/// register-window count — window traps are re-derived at replay time).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Per-instruction records with fetch-run compression, in execution order.
    pub ops: Vec<TraceOp>,
    /// The folded data-cache/window event stream, in execution order: one
    /// item per load/store run leader or `save`/`restore` marker (see
    /// [`derive_segments`]), segment-aligned.  The memory walkers consume it
    /// directly, so the guaranteed-hit elision is derived once per capture
    /// or decode, not per walk.
    pub folded: Vec<u64>,
    /// Segment starts, in segment order ([`SegmentMeta`]); every trace with
    /// records has at least one segment.
    pub segments: Vec<SegmentMeta>,
    /// Configuration-independent event counts (derived from `ops`).
    pub summary: TraceSummary,
    /// The configuration the trace was captured on.
    pub captured: LeonConfig,
    /// I-cache statistics of the capturing run (reused verbatim when the
    /// replayed i-cache geometry matches).
    pub base_icache: CacheStats,
    /// D-cache statistics of the capturing run (include window-trap traffic).
    pub base_dcache: CacheStats,
    /// Window overflow traps of the capturing run.
    pub base_overflows: u64,
    /// Window underflow traps of the capturing run.
    pub base_underflows: u64,
}

impl Trace {
    /// Number of records (compressed runs count once).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Dynamic instruction count of the captured run.
    pub fn instructions(&self) -> u64 {
        self.summary.instructions
    }

    /// Approximate in-memory footprint of the trace buffers, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<TraceOp>()
            + self.folded.len() * std::mem::size_of::<u64>()
            + self.segments.len() * std::mem::size_of::<SegmentMeta>()
    }

    /// Number of segments (0 only for an empty trace).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Record range of segment `seg` in [`Trace::ops`].
    fn ops_range(&self, seg: usize) -> Range<usize> {
        let start = self.segments[seg].ops_start;
        let end = self.segments.get(seg + 1).map_or(self.ops.len(), |s| s.ops_start);
        start..end
    }

    /// Item range of segment `seg` in [`Trace::folded`].
    fn folded_range(&self, seg: usize) -> Range<usize> {
        let start = self.segments[seg].folded_start;
        let end = self.segments.get(seg + 1).map_or(self.folded.len(), |s| s.folded_start);
        start..end
    }

    /// `true` when `boundaries` is a valid segmentation of `records` records:
    /// empty for an empty trace, otherwise starting at 0, strictly
    /// increasing, and within the stream.
    fn valid_boundaries(records: usize, boundaries: &[usize]) -> bool {
        if records == 0 {
            return boundaries.is_empty();
        }
        boundaries.first() == Some(&0)
            && boundaries.windows(2).all(|w| w[0] < w[1])
            && boundaries.iter().all(|&b| b < records)
    }

    /// The default segmentation: a cut every [`SEGMENT_TARGET_OPS`] records.
    fn default_boundaries(records: usize) -> Vec<usize> {
        (0..records).step_by(SEGMENT_TARGET_OPS).collect()
    }

    /// Re-cut the trace at the given record boundaries (first must be 0,
    /// strictly increasing, all `< ops.len()`; empty only for an empty
    /// trace), rebuilding the segment table and the folded stream.  Replay
    /// results are independent of the segmentation — the segmented-replay
    /// proptest exercises exactly this API.
    ///
    /// # Panics
    ///
    /// Panics when `boundaries` is not a valid segmentation.
    pub fn resegment_at(&mut self, boundaries: &[usize]) {
        assert!(
            Trace::valid_boundaries(self.ops.len(), boundaries),
            "segment boundaries must start at 0, increase strictly and stay in-range"
        );
        let (segments, folded) = derive_segments(&self.ops, boundaries);
        self.segments = segments;
        self.folded = folded;
    }

    /// Count a raw record stream's events into its [`TraceSummary`].
    ///
    /// The summary is a pure function of `ops`, so it is never stored:
    /// capture and decode both derive it here, which makes an internally
    /// inconsistent (ops vs. summary) trace unrepresentable.
    ///
    /// A program has few distinct event combinations, so one pass counts
    /// records per `flags` word into a histogram of the 12 event bits, and
    /// the per-event bit tests then run once per distinct word instead of
    /// once per record.
    fn derive_summary(ops: &[TraceOp]) -> TraceSummary {
        const EVENT_MASK: usize = (1 << 12) - 1;
        let mut histogram = [0u64; EVENT_MASK + 1];
        let mut summary = TraceSummary::default();
        for op in ops {
            // bucket 0 collects the fetch runs, whose bit tests are all zero
            summary.instructions += if op.flags == 0 { op.aux as u64 } else { 1 };
            histogram[op.flags as usize & EVENT_MASK] += 1;
        }
        for (word, &count) in histogram.iter().enumerate().filter(|(_, &count)| count != 0) {
            let events = |bit: u16| if word as u16 & bit != 0 { count } else { 0 };
            summary.slow_decode += events(flags::SLOW_DECODE);
            summary.load_use += events(flags::LOAD_USE);
            summary.icc_branch += events(flags::ICC_BRANCH);
            summary.mul_ops += events(flags::MUL);
            summary.div_ops += events(flags::DIV);
            summary.branches += events(flags::BRANCH);
            summary.taken_branches += events(flags::TAKEN);
            summary.calls += events(flags::CALL);
            summary.loads += events(flags::LOAD);
            summary.stores += events(flags::STORE);
            summary.saves += events(flags::SAVE);
            summary.restores += events(flags::RESTORE);
        }
        summary
    }

    /// Build the derived data (summary, segments, folded stream) from a raw
    /// record stream and the capturing run's results.
    fn assemble(ops: Vec<TraceOp>, captured: &LeonConfig, stats: &Stats) -> Trace {
        let summary = Trace::derive_summary(&ops);
        debug_assert_eq!(summary.instructions, stats.instructions);
        debug_assert_eq!(summary.loads, stats.loads);
        debug_assert_eq!(summary.stores, stats.stores);
        debug_assert_eq!(summary.branches, stats.branches);
        let (segments, folded) = derive_segments(&ops, &Trace::default_boundaries(ops.len()));
        Trace {
            ops,
            folded,
            segments,
            summary,
            captured: *captured,
            base_icache: stats.icache,
            base_dcache: stats.dcache,
            base_overflows: stats.window_overflows,
            base_underflows: stats.window_underflows,
        }
    }
}

// ---------------------------------------------------------------------------
// Versioned binary serialization
// ---------------------------------------------------------------------------

/// Version number of the binary trace format produced by [`Trace::to_bytes`].
///
/// Bump this whenever the record layout, the captured-configuration encoding
/// or the semantics of any serialised field change: persisted traces carry
/// the version they were written with, and [`Trace::from_bytes`] refuses to
/// decode any other version, so stale artifacts fall back to recapture
/// instead of silently mis-replaying.  Version 4 stores the records, each
/// segment's first record and one trailing [`xxh64`] checksum, nothing
/// derivable.  Earlier releases' versions are stale: the monolithic version
/// 1, version 2 (which also stored the summary, the folded stream and
/// per-segment checkpoints) and version 3 (FNV-1a checksums per segment and
/// over the whole trace).
pub const TRACE_FORMAT_VERSION: u32 = 4;

/// Magic bytes opening every serialised trace.
const TRACE_MAGIC: [u8; 4] = *b"LTRC";

/// Error decoding a serialised trace (wrong magic/version, checksum
/// mismatch, truncation, or a malformed field).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCodecError(String);

impl TraceCodecError {
    fn new(message: impl Into<String>) -> TraceCodecError {
        TraceCodecError(message.into())
    }
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace decode error: {}", self.0)
    }
}

impl std::error::Error for TraceCodecError {}

/// The FNV-1a offset basis: the initial state of [`fnv1a64`].
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue a 64-bit FNV-1a hash from `hash` over `bytes` (for incremental
/// multi-field hashing; start from [`FNV1A64_OFFSET`]).
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// 64-bit FNV-1a over a byte stream: the hash for keys (content
/// fingerprints, kind tags) and for data hashed piecewise as it streams.
/// Stored payloads are checksummed with [`xxh64`] instead, which is an
/// order of magnitude faster on bulk data.  Not a cryptographic guarantee.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

const XXH_PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME64_2)).rotate_left(31).wrapping_mul(XXH_PRIME64_1)
}

fn xxh64_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh64_round(0, acc)).wrapping_mul(XXH_PRIME64_1).wrapping_add(XXH_PRIME64_4)
}

/// XXH64 (seed 0) over a byte slice: the checksum of every stored payload —
/// the trace format's trailer and the artifact store's envelope.  Four
/// independent 64-bit lanes over 32-byte stripes run several times faster
/// than byte-at-a-time [`fnv1a64`], and every input bit reaches every
/// output bit, so two flips of one bit position in different words do not
/// cancel.  Not a cryptographic guarantee.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().unwrap());
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [
            XXH_PRIME64_1.wrapping_add(XXH_PRIME64_2),
            XXH_PRIME64_2,
            0,
            XXH_PRIME64_1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, at) in lanes.iter_mut().zip([0, 8, 16, 24]) {
                *lane = xxh64_round(*lane, word(&stripe[at..]));
            }
        }
        let [a, b, c, d] = lanes;
        let hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.into_iter().fold(hash, xxh64_merge)
    } else {
        XXH_PRIME64_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        hash ^= xxh64_round(0, word(tail));
        hash = hash.rotate_left(27).wrapping_mul(XXH_PRIME64_1).wrapping_add(XXH_PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        hash ^= (u32::from_le_bytes(tail[..4].try_into().unwrap()) as u64)
            .wrapping_mul(XXH_PRIME64_1);
        hash = hash.rotate_left(23).wrapping_mul(XXH_PRIME64_2).wrapping_add(XXH_PRIME64_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash ^= (byte as u64).wrapping_mul(XXH_PRIME64_5);
        hash = hash.rotate_left(11).wrapping_mul(XXH_PRIME64_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXH_PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXH_PRIME64_3);
    hash ^ (hash >> 32)
}

struct ByteWriter<'a>(&'a mut Vec<u8>);

impl ByteWriter<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceCodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| TraceCodecError::new("unexpected end of input"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, TraceCodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, TraceCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, TraceCodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bool(&mut self) -> Result<bool, TraceCodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(TraceCodecError::new(format!("invalid bool byte {other}"))),
        }
    }
}

fn encode_cache_config(w: &mut ByteWriter, c: &CacheConfig) {
    w.u8(c.ways);
    w.u32(c.way_kb);
    w.u8(c.line_words);
    w.u8(match c.replacement {
        crate::config::ReplacementPolicy::Random => 0,
        crate::config::ReplacementPolicy::Lrr => 1,
        crate::config::ReplacementPolicy::Lru => 2,
    });
}

fn decode_cache_config(r: &mut ByteReader) -> Result<CacheConfig, TraceCodecError> {
    Ok(CacheConfig {
        ways: r.u8()?,
        way_kb: r.u32()?,
        line_words: r.u8()?,
        replacement: match r.u8()? {
            0 => crate::config::ReplacementPolicy::Random,
            1 => crate::config::ReplacementPolicy::Lrr,
            2 => crate::config::ReplacementPolicy::Lru,
            other => {
                return Err(TraceCodecError::new(format!("invalid replacement tag {other}")))
            }
        },
    })
}

fn encode_config(w: &mut ByteWriter, c: &LeonConfig) {
    encode_cache_config(w, &c.icache);
    encode_cache_config(w, &c.dcache);
    w.u8(c.dcache_fast_read as u8);
    w.u8(c.dcache_fast_write as u8);
    w.u8(c.iu.fast_jump as u8);
    w.u8(c.iu.icc_hold as u8);
    w.u8(c.iu.fast_decode as u8);
    w.u8(c.iu.load_delay);
    w.u8(c.iu.reg_windows);
    w.u8(match c.iu.divider {
        crate::config::Divider::Radix2 => 0,
        crate::config::Divider::None => 1,
    });
    let mul = crate::config::Multiplier::ALL
        .iter()
        .position(|&m| m == c.iu.multiplier)
        .expect("every multiplier variant is listed in Multiplier::ALL");
    w.u8(mul as u8);
    w.u8(c.synthesis.infer_mult_div as u8);
    w.u32(c.memory.read_first);
    w.u32(c.memory.read_burst);
    w.u32(c.memory.write);
    w.u32(c.clock_mhz);
}

fn decode_config(r: &mut ByteReader) -> Result<LeonConfig, TraceCodecError> {
    let icache = decode_cache_config(r)?;
    let dcache = decode_cache_config(r)?;
    let dcache_fast_read = r.bool()?;
    let dcache_fast_write = r.bool()?;
    let fast_jump = r.bool()?;
    let icc_hold = r.bool()?;
    let fast_decode = r.bool()?;
    let load_delay = r.u8()?;
    let reg_windows = r.u8()?;
    let divider = match r.u8()? {
        0 => crate::config::Divider::Radix2,
        1 => crate::config::Divider::None,
        other => return Err(TraceCodecError::new(format!("invalid divider tag {other}"))),
    };
    let mul_tag = r.u8()? as usize;
    let multiplier = *crate::config::Multiplier::ALL
        .get(mul_tag)
        .ok_or_else(|| TraceCodecError::new(format!("invalid multiplier tag {mul_tag}")))?;
    let infer_mult_div = r.bool()?;
    let memory = crate::config::MemoryTiming {
        read_first: r.u32()?,
        read_burst: r.u32()?,
        write: r.u32()?,
    };
    let clock_mhz = r.u32()?;
    Ok(LeonConfig {
        icache,
        dcache,
        dcache_fast_read,
        dcache_fast_write,
        iu: crate::config::IuConfig {
            fast_jump,
            icc_hold,
            fast_decode,
            load_delay,
            reg_windows,
            divider,
            multiplier,
        },
        synthesis: crate::config::SynthesisConfig { infer_mult_div },
        memory,
        clock_mhz,
    })
}

fn encode_cache_stats(w: &mut ByteWriter, s: &CacheStats) {
    w.u64(s.read_hits);
    w.u64(s.read_misses);
    w.u64(s.write_hits);
    w.u64(s.write_misses);
}

fn decode_cache_stats(r: &mut ByteReader) -> Result<CacheStats, TraceCodecError> {
    Ok(CacheStats {
        read_hits: r.u64()?,
        read_misses: r.u64()?,
        write_hits: r.u64()?,
        write_misses: r.u64()?,
    })
}

/// Serialised size of one [`TraceOp`] record: `pc` (4 bytes), `flags` (2)
/// and `aux` (4), little-endian.
const RECORD_LEN: usize = 10;

/// Serialised size of one segment-index entry: the segment's first record.
const SEGMENT_INFO_LEN: usize = 8;

/// Serialised size of the fixed header: magic, version, capturing
/// configuration (40 bytes), base cache statistics and window-trap counts
/// (80), record count and segment count (12).
const HEADER_LEN: usize = 140;

/// Serialised size of the trailing checksum.
const TRAILER_LEN: usize = 8;

/// The header of a serialised trace, decodable without touching the record
/// payload (see [`Trace::peek_header`]): the capture results, the record
/// count and the segment index.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// The configuration the trace was captured on.
    pub captured: LeonConfig,
    /// I-cache statistics of the capturing run.
    pub base_icache: CacheStats,
    /// D-cache statistics of the capturing run.
    pub base_dcache: CacheStats,
    /// Window overflow traps of the capturing run.
    pub base_overflows: u64,
    /// Window underflow traps of the capturing run.
    pub base_underflows: u64,
    /// Number of trace records in the (unread) record stream.
    pub records: u64,
    /// The segment index: each segment's first record, in segment order.
    /// Segment `i`'s bytes start `segments[i] × 10` bytes into the record
    /// region.
    pub segments: Vec<u64>,
}

/// Parse a serialised trace header (fixed fields, record count and segment
/// index) from `r`, leaving `r` at the first record byte.  Structural
/// validation of the index is the caller's job (via
/// [`validate_segment_index`]).
fn parse_header(r: &mut ByteReader) -> Result<TraceHeader, TraceCodecError> {
    if r.take(4)? != TRACE_MAGIC {
        return Err(TraceCodecError::new("bad magic (not a serialised trace)"));
    }
    let version = r.u32()?;
    if version != TRACE_FORMAT_VERSION {
        return Err(TraceCodecError::new(format!(
            "unsupported trace format version {version} (expected {TRACE_FORMAT_VERSION})"
        )));
    }
    let captured = decode_config(r)?;
    captured
        .validate()
        .map_err(|e| TraceCodecError::new(format!("invalid captured configuration: {e}")))?;
    let base_icache = decode_cache_stats(r)?;
    let base_dcache = decode_cache_stats(r)?;
    let base_overflows = r.u64()?;
    let base_underflows = r.u64()?;
    let records = r.u64()?;
    let count = r.u32()? as usize;
    let mut segments = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        segments.push(r.u64()?);
    }
    Ok(TraceHeader {
        captured,
        base_icache,
        base_dcache,
        base_overflows,
        base_underflows,
        records,
        segments,
    })
}

/// Structurally validate a parsed header's segment index — the first
/// segment starts at record 0 and the starts increase strictly within the
/// record count — and return the byte length of the record region.  The
/// arithmetic is checked: a hostile record count is a typed error, not an
/// overflow.
fn validate_segment_index(header: &TraceHeader) -> Result<u64, TraceCodecError> {
    let segs = &header.segments;
    let payload = header.records.checked_mul(RECORD_LEN as u64).ok_or_else(|| {
        TraceCodecError::new(format!("record count {} overflows the payload", header.records))
    })?;
    if header.records == 0 {
        if !segs.is_empty() {
            return Err(TraceCodecError::new("an empty trace must have an empty segment index"));
        }
        return Ok(0);
    }
    if segs.first() != Some(&0) {
        return Err(TraceCodecError::new("segment index must start at record 0"));
    }
    for (i, &ops_start) in segs.iter().enumerate() {
        let ops_end = segs.get(i + 1).copied().unwrap_or(header.records);
        if ops_end <= ops_start || ops_end > header.records {
            return Err(TraceCodecError::new(format!(
                "segment {i}: record offsets are not strictly increasing"
            )));
        }
    }
    Ok(payload)
}

/// Parse the header of a serialised trace and check its segment index
/// against the input length.  Returns the header and the record region;
/// reads neither the records nor the trailing checksum.
fn parse_layout(bytes: &[u8]) -> Result<(TraceHeader, &[u8]), TraceCodecError> {
    if bytes.len() < TRACE_MAGIC.len() + 4 + TRAILER_LEN {
        return Err(TraceCodecError::new("input shorter than the fixed header"));
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let mut r = ByteReader { bytes: body, pos: 0 };
    let header = parse_header(&mut r)?;
    let payload = validate_segment_index(&header)?;
    let records = &body[r.pos..];
    if payload != records.len() as u64 {
        return Err(TraceCodecError::new(format!(
            "record count {} does not match the remaining payload",
            header.records
        )));
    }
    Ok((header, records))
}

/// Check a serialised trace's trailing [`xxh64`] against everything before
/// it.  This one pass is the format's only integrity check: it covers the
/// header, the segment index and every record.
fn verify_trailer(bytes: &[u8]) -> Result<(), TraceCodecError> {
    if bytes.len() < TRACE_MAGIC.len() + 4 + TRAILER_LEN {
        return Err(TraceCodecError::new("input shorter than the fixed header"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - TRAILER_LEN);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    let actual = xxh64(body);
    if stored != actual {
        return Err(TraceCodecError::new(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(())
}

impl Trace {
    /// Serialise the trace into the versioned binary format (version 4).
    ///
    /// Layout (all integers little-endian): a 140-byte header — the magic
    /// `LTRC`, the [`TRACE_FORMAT_VERSION`], the capturing configuration,
    /// the capturing run's cache statistics and window-trap counts, the
    /// record count and the segment count — then the segment index (each
    /// segment's first record, 8 bytes apiece), the records at 10 bytes
    /// apiece, and a trailing [`xxh64`] over everything before it.  Nothing
    /// derivable from the records is stored: the summary, the folded stream
    /// and the folded offsets are rebuilt on decode.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the [`Trace::to_bytes`] encoding to `out`, so a caller that
    /// frames the trace (the artifact store's base-cost prefix) builds the
    /// whole payload in one buffer.  The trailing checksum covers only the
    /// appended bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let index_len = self.segments.len() * SEGMENT_INFO_LEN;
        let records_len = self.ops.len() * RECORD_LEN;
        out.reserve(HEADER_LEN + index_len + records_len + TRAILER_LEN);
        let mut w = ByteWriter(out);
        w.0.extend_from_slice(&TRACE_MAGIC);
        w.u32(TRACE_FORMAT_VERSION);
        encode_config(&mut w, &self.captured);
        encode_cache_stats(&mut w, &self.base_icache);
        encode_cache_stats(&mut w, &self.base_dcache);
        w.u64(self.base_overflows);
        w.u64(self.base_underflows);
        w.u64(self.ops.len() as u64);
        w.u32(self.segments.len() as u32);
        for meta in &self.segments {
            w.u64(meta.ops_start as u64);
        }
        debug_assert_eq!(out.len() - start, HEADER_LEN + index_len);
        let records_at = out.len();
        out.resize(records_at + records_len, 0);
        for (record, op) in out[records_at..].chunks_exact_mut(RECORD_LEN).zip(&self.ops) {
            record[..4].copy_from_slice(&op.pc.to_le_bytes());
            record[4..6].copy_from_slice(&op.flags.to_le_bytes());
            record[6..].copy_from_slice(&op.aux.to_le_bytes());
        }
        let checksum = xxh64(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Decode only the header of a serialised trace — O(header + index)
    /// regardless of how many records follow, because neither the record
    /// stream nor the trailing checksum is read.
    ///
    /// This is the *peek* half of the lazy-materialization contract: a store
    /// layer can check the format version, the capturing configuration and
    /// the record count of a multi-megabyte trace entry without paying the
    /// full decode (checksum + record decode + derived-stream rebuild).  It
    /// is **not** an integrity check — a bit flip in the record stream
    /// passes `peek_header` and is only caught by [`Trace::from_bytes`] — so
    /// callers must still decode fully before trusting the records.
    pub fn peek_header(bytes: &[u8]) -> Result<TraceHeader, TraceCodecError> {
        Ok(parse_layout(bytes)?.0)
    }

    /// Validate a serialised trace without decoding it: the header fields,
    /// the segment index (first record 0, strictly increasing starts, total
    /// length), then the trailing checksum over every byte.  Returns the
    /// parsed header.
    ///
    /// Cheaper than [`Trace::from_bytes`] (no record decode, no derived
    /// stream rebuild), which makes it the right integrity pass for
    /// `store doctor`.
    pub fn validate_segments(bytes: &[u8]) -> Result<TraceHeader, TraceCodecError> {
        let (header, _) = parse_layout(bytes)?;
        verify_trailer(bytes)?;
        Ok(header)
    }

    /// Decode a trace serialised by [`Trace::to_bytes`]: the trailing
    /// checksum, the header and index, then one pass over the record region.
    ///
    /// Fails — rather than ever producing a wrong trace — on a checksum
    /// mismatch, a bad magic, a different format version, a malformed
    /// segment index, truncated or trailing bytes, or any malformed field.
    /// The summary, the folded stream and the segment table are derived
    /// from the records exactly as capture derives them, so on success the
    /// decoded trace is exactly the one serialised.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceCodecError> {
        verify_trailer(bytes)?;
        let (header, records) = parse_layout(bytes)?;
        let ops: Vec<TraceOp> = records
            .chunks_exact(RECORD_LEN)
            .map(|r| TraceOp {
                pc: u32::from_le_bytes([r[0], r[1], r[2], r[3]]),
                flags: u16::from_le_bytes([r[4], r[5]]),
                aux: u32::from_le_bytes([r[6], r[7], r[8], r[9]]),
            })
            .collect();
        // `validate_segment_index` bounded every start by the record count
        let boundaries: Vec<usize> = header.segments.iter().map(|&s| s as usize).collect();
        let (segments, folded) = derive_segments(&ops, &boundaries);
        Ok(Trace {
            summary: Trace::derive_summary(&ops),
            ops,
            folded,
            segments,
            captured: header.captured,
            base_icache: header.base_icache,
            base_dcache: header.base_dcache,
            base_overflows: header.base_overflows,
            base_underflows: header.base_underflows,
        })
    }
}

/// Closed-form cycle reconstruction behind every replay result (mirrors
/// `Cpu::step`'s charges): given a
/// configuration's cache behaviour and window-trap counts, rebuild the exact
/// [`Stats`] a full run would produce, enforcing the cycle budget as a bound
/// on the run total.
fn reconstruct_stats(
    s: &TraceSummary,
    config: &LeonConfig,
    icache: CacheStats,
    dcache: CacheStats,
    window_overflows: u64,
    window_underflows: u64,
    max_cycles: u64,
) -> Result<Stats, SimError> {
    let m = &config.memory;
    let icache_fill = (m.read_first + (config.icache.line_words as u32 - 1) * m.read_burst) as u64;
    let dcache_fill = (m.read_first + (config.dcache.line_words as u32 - 1) * m.read_burst) as u64;
    let dread_hit: u64 = if config.dcache_fast_read { 0 } else { 1 };
    let dwrite_hit: u64 = if config.dcache_fast_write { 0 } else { 1 };

    let load_use_stalls = s.load_use * config.iu.load_delay as u64;
    let icc_hold_stalls = if config.iu.icc_hold { s.icc_branch } else { 0 };
    let traps = window_overflows + window_underflows;
    let cycles = s.instructions
        + icache.read_misses * icache_fill
        + if config.iu.fast_decode { 0 } else { s.slow_decode }
        + load_use_stalls
        + icc_hold_stalls
        + s.mul_ops * (config.iu.multiplier.latency() - 1) as u64
        + s.div_ops * (config.iu.divider.latency() - 1) as u64
        + s.taken_branches
        + s.calls * if config.iu.fast_jump { 1 } else { 2 }
        + dcache.read_hits * dread_hit
        + dcache.read_misses * (dread_hit + dcache_fill)
        + dcache.write_hits * dwrite_hit
        + dcache.write_misses * (dwrite_hit + 1)
        + traps * (crate::cpu::WINDOW_TRAP_OVERHEAD + crate::cpu::WINDOW_TRAP_REGS as u64);

    if cycles > max_cycles {
        return Err(SimError::CycleLimitExceeded { limit: max_cycles });
    }

    Ok(Stats {
        cycles,
        instructions: s.instructions,
        icache,
        dcache,
        loads: s.loads,
        stores: s.stores,
        branches: s.branches,
        taken_branches: s.taken_branches,
        calls: s.calls,
        mul_ops: s.mul_ops,
        div_ops: s.div_ops,
        window_overflows,
        window_underflows,
        icc_hold_stalls,
        load_use_stalls,
    })
}

/// Retime a captured trace under `config`, producing the exact [`Stats`] a
/// full simulation of the same program on `config` would produce — in a
/// fraction of the time, because only the caches (and only the *changed*
/// caches) are re-simulated while every other cost is closed-form.
///
/// A one-configuration [`replay_batch`]: at most one walk per trace stream
/// (none when both cache geometries and the window count match the
/// capturing configuration), and the same errors — `InvalidConfig` for a
/// structurally invalid configuration, `CycleLimitExceeded` past the budget.
pub fn replay(trace: &Trace, config: &LeonConfig, max_cycles: u64) -> Result<Stats, SimError> {
    replay_batch(trace, std::slice::from_ref(config), max_cycles)
        .pop()
        .expect("a one-configuration batch has one result")
}

// ---------------------------------------------------------------------------
// Batched replay: retime every configuration of a sweep in one trace walk
// ---------------------------------------------------------------------------

/// Behaviour class of the memory walk: a distinct (d-cache geometry,
/// register-window count) pair.  Every other Figure 1 knob is a pure
/// closed-form retime, so two configurations in the same class share one
/// memory walk bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct MemClass {
    dcache: CacheConfig,
    reg_windows: u8,
}

/// Entries per resolved-access block of the batched walkers: 4096 × 8 bytes
/// = 32 KB, so a block plus the tags one class touches while streaming
/// through it stay cache-resident.
const WALK_BLOCK: usize = 4096;

/// Accesses one window trap expands into (16 spills or fills).
const TRAP_ACCESSES: usize = crate::cpu::WINDOW_TRAP_REGS as usize;

/// Resident-window automaton shared by every memory class with one window
/// count: trap decisions depend only on the count, so the automaton (and
/// its trap totals) runs once per distinct count and its expansions are
/// applied to each member class's cache.
struct WindowGroup {
    nwindows: u32,
    resident: u32,
    overflows: u64,
    underflows: u64,
    members: Vec<usize>,
}

/// Per-configuration disposition within a [`ReplayBatch`].
#[derive(Clone, Debug)]
enum Disposition {
    /// Failed validation; [`crate::simulate`] fails with exactly this error.
    Invalid(SimError),
    /// Valid: which walk classes (if any) this configuration's cache
    /// statistics come from.  `None` means the captured geometry matches and
    /// the capturing run's statistics are reused verbatim.
    Valid { mem_class: Option<usize>, fetch_class: Option<usize> },
}

/// A planned batch replay: every configuration of a sweep partitioned into
/// *behavior classes*, so that one pass over each trace stream retimes the
/// whole batch.
///
/// The paper's central experiments — the 52-variable cost table and the
/// exhaustive d-cache sweep — evaluate many configurations against one fixed
/// program behaviour.  This plan walks each stream **once**, updating one
/// lean cache model per distinct class simultaneously ([`crate::cache`]'s
/// `TagCache`), and reconstructs every configuration's [`Stats`] closed-form
/// from its class's walk results — bit-identical to full simulation and to
/// any other partition of the same configurations into batches (pinned by
/// `tests/replay_equivalence.rs`).
///
/// The classes of each stream are exposed as an indexable axis
/// ([`ReplayBatch::walk_mem_span`] / [`ReplayBatch::walk_fetch_span`]) so a
/// worker pool can partition *classes* — not configurations — across
/// threads; results are independent of the partitioning, so any thread
/// count produces byte-identical output.  [`replay_batch`] is the serial
/// convenience wrapper: one fused pass per stream.
pub struct ReplayBatch<'a> {
    trace: &'a Trace,
    max_cycles: u64,
    configs: Vec<LeonConfig>,
    dispositions: Vec<Disposition>,
    mem_classes: Vec<MemClass>,
    fetch_classes: Vec<CacheConfig>,
}

impl<'a> ReplayBatch<'a> {
    /// Plan a batch: validate every configuration and partition the batch
    /// into distinct behavior classes (first-appearance order, so the plan
    /// is deterministic for a given configuration sequence).  Performs no
    /// walks.
    pub fn new(trace: &'a Trace, configs: &[LeonConfig], max_cycles: u64) -> ReplayBatch<'a> {
        let captured = &trace.captured;
        let mut mem_classes = Vec::new();
        let mut fetch_classes = Vec::new();
        let mut mem_index: HashMap<MemClass, usize> = HashMap::new();
        let mut fetch_index: HashMap<CacheConfig, usize> = HashMap::new();
        let dispositions = configs
            .iter()
            .map(|config| {
                if let Err(e) = config.validate() {
                    return Disposition::Invalid(SimError::InvalidConfig(e.to_string()));
                }
                let mem_class = if config.dcache == captured.dcache
                    && config.iu.reg_windows == captured.iu.reg_windows
                {
                    None
                } else {
                    let key =
                        MemClass { dcache: config.dcache, reg_windows: config.iu.reg_windows };
                    Some(*mem_index.entry(key).or_insert_with(|| {
                        mem_classes.push(key);
                        mem_classes.len() - 1
                    }))
                };
                let fetch_class = if config.icache == captured.icache {
                    None
                } else {
                    Some(*fetch_index.entry(config.icache).or_insert_with(|| {
                        fetch_classes.push(config.icache);
                        fetch_classes.len() - 1
                    }))
                };
                Disposition::Valid { mem_class, fetch_class }
            })
            .collect();
        ReplayBatch {
            trace,
            max_cycles,
            configs: configs.to_vec(),
            dispositions,
            mem_classes,
            fetch_classes,
        }
    }

    /// Number of configurations in the batch.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Number of distinct memory-walk behavior classes.
    pub fn mem_class_count(&self) -> usize {
        self.mem_classes.len()
    }

    /// Number of distinct fetch-walk behavior classes.
    pub fn fetch_class_count(&self) -> usize {
        self.fetch_classes.len()
    }

    /// Total distinct behavior classes (the batch's walk budget: no caller
    /// partitioning can make the engine perform more walks than this).
    pub fn class_count(&self) -> usize {
        self.mem_classes.len() + self.fetch_classes.len()
    }

    /// Number of segments of the underlying trace — the second axis of the
    /// class × segment work partition.
    pub fn segment_count(&self) -> usize {
        self.trace.segment_count()
    }

    /// Walk the memory stream **once**, re-simulating every memory class in
    /// `span` simultaneously: each class's lean d-cache model sees exactly
    /// the access sequence a full simulation would have produced, and one
    /// resident-window automaton per distinct window count re-derives the
    /// traps shared by every class with that count.  Returns each class's
    /// `(dcache stats, overflows, underflows)` in span order.
    ///
    /// Implemented as the segmented walker driven over every segment in
    /// order plus the deterministic partial reduction — the fused serial
    /// walk and any segment-parallel schedule produce byte-identical
    /// results by construction.
    pub fn walk_mem_span(&self, span: Range<usize>) -> Vec<(CacheStats, u64, u64)> {
        if span.is_empty() {
            return Vec::new();
        }
        let mut walker = self.mem_span_walker(span.clone());
        let partials: Vec<MemSegmentPartial> =
            (0..walker.segment_count()).map(|seg| walker.walk_segment(seg)).collect();
        self.reduce_mem_partials(span, &partials)
    }

    /// Build the stateful segmented walker for the memory classes in `span`:
    /// call [`MemSpanWalker::walk_segment`] for every segment in order and
    /// feed the partials to [`ReplayBatch::reduce_mem_partials`].  Counts as
    /// one trace walk (the segment counter ticks per segment).
    ///
    /// # Panics
    ///
    /// Panics when `span` is empty — empty spans have nothing to walk.
    pub fn mem_span_walker(&self, span: Range<usize>) -> MemSpanWalker<'a> {
        let classes = &self.mem_classes[span];
        assert!(!classes.is_empty(), "a span walker needs at least one class");
        record_trace_walk();
        MemSpanWalker::new(self.trace, classes)
    }

    /// Deterministically merge per-segment memory partials (one per segment,
    /// in segment order, each with one delta per class of `span`) into the
    /// final span results — bit-identical to the monolithic walk: the walk
    /// counters are associative sums over segments, and every derived
    /// statistic is a closed form over those sums.
    pub fn reduce_mem_partials(
        &self,
        span: Range<usize>,
        partials: &[MemSegmentPartial],
    ) -> Vec<(CacheStats, u64, u64)> {
        let mut totals = vec![MemClassDelta::default(); span.len()];
        for partial in partials {
            assert_eq!(partial.classes.len(), span.len(), "one delta per class in every partial");
            for (total, delta) in totals.iter_mut().zip(&partial.classes) {
                total.read_misses += delta.read_misses;
                total.write_misses += delta.write_misses;
                total.overflows += delta.overflows;
                total.underflows += delta.underflows;
            }
        }
        // hit counts are derived, not maintained: every class saw exactly
        // loads + 16·underflows reads and stores + 16·overflows writes
        let summary = &self.trace.summary;
        let trap_regs = crate::cpu::WINDOW_TRAP_REGS as u64;
        totals
            .iter()
            .map(|t| {
                let reads = summary.loads + t.underflows * trap_regs;
                let writes = summary.stores + t.overflows * trap_regs;
                debug_assert!(t.read_misses <= reads && t.write_misses <= writes);
                let stats = CacheStats {
                    read_hits: reads - t.read_misses,
                    read_misses: t.read_misses,
                    write_hits: writes - t.write_misses,
                    write_misses: t.write_misses,
                };
                (stats, t.overflows, t.underflows)
            })
            .collect()
    }

    /// Walk the fetch stream **once**, re-simulating every fetch class in
    /// `span` simultaneously.  Returns each class's i-cache statistics in
    /// span order.  Like [`ReplayBatch::walk_mem_span`], this drives the
    /// segmented walker over every segment in order and reduces.
    pub fn walk_fetch_span(&self, span: Range<usize>) -> Vec<CacheStats> {
        if span.is_empty() {
            return Vec::new();
        }
        let mut walker = self.fetch_span_walker(span.clone());
        let partials: Vec<FetchSegmentPartial> =
            (0..walker.segment_count()).map(|seg| walker.walk_segment(seg)).collect();
        self.reduce_fetch_partials(span, &partials)
    }

    /// Build the stateful segmented walker for the fetch classes in `span`
    /// (see [`ReplayBatch::mem_span_walker`]).
    ///
    /// # Panics
    ///
    /// Panics when `span` is empty.
    pub fn fetch_span_walker(&self, span: Range<usize>) -> FetchSpanWalker<'a> {
        let classes = &self.fetch_classes[span];
        assert!(!classes.is_empty(), "a span walker needs at least one class");
        record_trace_walk();
        FetchSpanWalker {
            trace: self.trace,
            caches: classes.iter().map(|&config| TagCache::new(config)).collect(),
            block: Vec::with_capacity(WALK_BLOCK),
            next_segment: 0,
        }
    }

    /// Deterministically merge per-segment fetch partials into the final
    /// span results (see [`ReplayBatch::reduce_mem_partials`]).
    pub fn reduce_fetch_partials(
        &self,
        span: Range<usize>,
        partials: &[FetchSegmentPartial],
    ) -> Vec<CacheStats> {
        let mut totals = vec![0u64; span.len()];
        for partial in partials {
            assert_eq!(partial.classes.len(), span.len(), "one delta per class in every partial");
            for (total, delta) in totals.iter_mut().zip(&partial.classes) {
                *total += delta;
            }
        }
        // every class fetched exactly one read per dynamic instruction
        let fetches = self.trace.summary.instructions;
        totals
            .iter()
            .map(|&misses| {
                debug_assert!(misses <= fetches);
                CacheStats {
                    read_hits: fetches - misses,
                    read_misses: misses,
                    write_hits: 0,
                    write_misses: 0,
                }
            })
            .collect()
    }

    /// Reconstruct every configuration's [`Stats`] closed-form from the walk
    /// results (`mem` and `fetch` are the per-class results, concatenated in
    /// class order).  Element `i` equals `replay(trace, &configs[i],
    /// max_cycles)` exactly, including errors.
    pub fn finish(
        &self,
        mem: &[(CacheStats, u64, u64)],
        fetch: &[CacheStats],
    ) -> Vec<Result<Stats, SimError>> {
        assert_eq!(mem.len(), self.mem_classes.len(), "one walk result per memory class");
        assert_eq!(fetch.len(), self.fetch_classes.len(), "one walk result per fetch class");
        let trace = self.trace;
        self.dispositions
            .iter()
            .zip(&self.configs)
            .map(|(disposition, config)| match disposition {
                Disposition::Invalid(error) => Err(error.clone()),
                Disposition::Valid { mem_class, fetch_class } => {
                    let icache = match fetch_class {
                        Some(class) => fetch[*class],
                        None => trace.base_icache,
                    };
                    let (dcache, overflows, underflows) = match mem_class {
                        Some(class) => mem[*class],
                        None => (trace.base_dcache, trace.base_overflows, trace.base_underflows),
                    };
                    reconstruct_stats(
                        &trace.summary,
                        config,
                        icache,
                        dcache,
                        overflows,
                        underflows,
                        self.max_cycles,
                    )
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Segmented span walkers: per-segment partials + deterministic reduction
// ---------------------------------------------------------------------------

/// Counter deltas one memory class accumulated over one segment.  The
/// deltas — not the tag state — are what the segments contribute
/// associatively: summing them in segment order reproduces the monolithic
/// walk's final counters exactly, because the tag state itself chains
/// sequentially through the walker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemClassDelta {
    /// Read misses charged to the class in this segment.
    pub read_misses: u64,
    /// Write misses charged to the class in this segment.
    pub write_misses: u64,
    /// Window overflow traps of the class's window group in this segment.
    pub overflows: u64,
    /// Window underflow traps of the class's window group in this segment.
    pub underflows: u64,
}

/// Partial result of one memory segment: one delta per class, in span order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSegmentPartial {
    /// Per-class counter deltas.
    pub classes: Vec<MemClassDelta>,
}

/// Partial result of one fetch segment: per-class read-miss deltas, in span
/// order (fetch walks never write, so one counter suffices).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FetchSegmentPartial {
    /// Per-class read-miss deltas.
    pub classes: Vec<u64>,
}

/// Stateful segmented walker over the memory classes of one span: walk the
/// segments strictly in order, collect the per-segment partials, reduce.
/// The walker owns the chained tag-cache and window-automaton state, so it
/// can be parked (e.g. in a scheduler slot between class × segment work
/// units) and resumed on the next segment by any thread.
pub struct MemSpanWalker<'a> {
    trace: &'a Trace,
    caches: Vec<TagCache>,
    groups: Vec<WindowGroup>,
    /// `group_of[class]` indexes `groups`.
    group_of: Vec<usize>,
    block: Vec<u64>,
    next_segment: usize,
}

impl<'a> MemSpanWalker<'a> {
    fn new(trace: &'a Trace, classes: &[MemClass]) -> MemSpanWalker<'a> {
        let caches: Vec<TagCache> =
            classes.iter().map(|class| TagCache::new(class.dcache)).collect();
        // one automaton per distinct window count; members index `caches`
        let mut groups: Vec<WindowGroup> = Vec::new();
        let mut group_of = vec![0usize; classes.len()];
        for (i, class) in classes.iter().enumerate() {
            let nwindows = class.reg_windows as u32;
            match groups.iter_mut().position(|g| g.nwindows == nwindows) {
                Some(index) => {
                    groups[index].members.push(i);
                    group_of[i] = index;
                }
                None => {
                    groups.push(WindowGroup {
                        nwindows,
                        resident: 1,
                        overflows: 0,
                        underflows: 0,
                        members: vec![i],
                    });
                    group_of[i] = groups.len() - 1;
                }
            }
        }
        MemSpanWalker {
            trace,
            caches,
            groups,
            group_of,
            block: Vec::with_capacity(WALK_BLOCK + 2 * TRAP_ACCESSES),
            next_segment: 0,
        }
    }

    /// Segments of the underlying trace (the number of `walk_segment` calls
    /// a full span walk makes).
    pub fn segment_count(&self) -> usize {
        self.trace.segment_count()
    }

    /// Walk segment `seg` (must be `0, 1, 2, …` in order) and return its
    /// per-class counter deltas — the tag and automaton state chains across
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics when segments are walked out of order.
    pub fn walk_segment(&mut self, seg: usize) -> MemSegmentPartial {
        assert_eq!(seg, self.next_segment, "segments must be walked in order");
        self.next_segment += 1;
        record_segment_walk();
        let trace = self.trace;
        let folded = &trace.folded[trace.folded_range(seg)];

        let miss_before: Vec<(u64, u64)> =
            self.caches.iter().map(|cache| cache.miss_counts()).collect();
        let trap_before: Vec<(u64, u64)> =
            self.groups.iter().map(|g| (g.overflows, g.underflows)).collect();

        if self.groups.len() == 1 {
            self.walk_folded_blocked(folded);
        } else {
            self.walk_folded_interleaved(folded);
        }

        let classes = self
            .caches
            .iter()
            .enumerate()
            .map(|(i, cache)| {
                let (read_misses, write_misses) = cache.miss_counts();
                let group = &self.groups[self.group_of[i]];
                let (overflows_before, underflows_before) = trap_before[self.group_of[i]];
                MemClassDelta {
                    read_misses: read_misses - miss_before[i].0,
                    write_misses: write_misses - miss_before[i].1,
                    overflows: group.overflows - overflows_before,
                    underflows: group.underflows - underflows_before,
                }
            })
            .collect();
        MemSegmentPartial { classes }
    }

    /// Single-window-count path: the segment's pre-folded items stream into
    /// [`WALK_BLOCK`]-entry buffers that fan out class by class (cache
    /// blocking, as before — the folded-item encoding *is* the block-entry
    /// encoding, so a leader whose line is not already established is pushed
    /// verbatim).  Walk-time folding re-merges items across non-trapping
    /// markers and block starts, recovering the monolithic elision exactly:
    /// every re-merged access is a guaranteed hit whose only state effect
    /// (LRU clock/stamp) is identical either way, and flush/boundary
    /// `run_line` resets are stats-invisible for the same reason.
    fn walk_folded_blocked(&mut self, folded: &[u64]) {
        const RUN_ONE: u64 = 1 << TagCache::MEM_RUN_SHIFT;
        let group = &mut self.groups[0];
        let caches = &mut self.caches;
        let block = &mut self.block;
        // 16-byte line established as present by the last entry's read run
        // (None after a write leader — a write never establishes presence)
        let mut run_line: Option<u32> = None;

        let flush = |block: &mut Vec<u64>, run_line: &mut Option<u32>, caches: &mut [TagCache]| {
            for cache in caches.iter_mut() {
                cache.run_mem_block(block);
            }
            block.clear();
            *run_line = None; // never extend an entry across a flush
        };

        let push = |block: &mut Vec<u64>, run_line: &mut Option<u32>, addr: u32, write: bool| {
            if *run_line == Some(addr >> 4) {
                *block.last_mut().expect("a run leader precedes every extension") += RUN_ONE;
            } else {
                block.push(addr as u64 | if write { TagCache::WRITE_BIT } else { 0 });
                *run_line = (!write).then(|| addr >> 4);
            }
        };

        for &item in folded {
            if item & FOLD_MARKER_BIT != 0 {
                let sp = item as u32;
                if item & FOLD_RESTORE_BIT != 0 {
                    if group.resident <= 1 {
                        group.underflows += 1;
                        for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                            push(block, &mut run_line, sp.wrapping_sub(4 + i * 4), false);
                        }
                    } else {
                        group.resident -= 1;
                    }
                } else if group.resident >= group.nwindows - 1 {
                    group.overflows += 1;
                    for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                        push(block, &mut run_line, sp.wrapping_sub(4 + i * 4), true);
                    }
                } else {
                    group.resident += 1;
                }
            } else {
                let addr = item as u32;
                let write = item & TagCache::WRITE_BIT != 0;
                if run_line == Some(addr >> 4) {
                    // the stored leader and its whole run are guaranteed hits
                    // here: merge all of them into the established entry
                    let run = item >> TagCache::MEM_RUN_SHIFT;
                    *block.last_mut().expect("a run leader precedes every extension") +=
                        (1 + run) * RUN_ONE;
                } else {
                    block.push(item);
                    run_line = (!write).then(|| addr >> 4);
                }
            }
            if block.len() >= WALK_BLOCK {
                flush(block, &mut run_line, caches);
            }
        }
        flush(block, &mut run_line, caches);
    }

    /// Mixed-window-count path: fan every folded item out to all classes as
    /// it is decoded (each group's trap expansions interleave at its own
    /// positions, so a shared resolved buffer does not exist).  A read
    /// leader's elided followers surface as `read_run` extras — guaranteed
    /// hits whose LRU clock/stamp effects match the per-access walk.
    fn walk_folded_interleaved(&mut self, folded: &[u64]) {
        for &item in folded {
            if item & FOLD_MARKER_BIT != 0 {
                let sp = item as u32;
                let restore = item & FOLD_RESTORE_BIT != 0;
                for group in self.groups.iter_mut() {
                    if restore {
                        if group.resident <= 1 {
                            group.underflows += 1;
                            for &member in &group.members {
                                let cache = &mut self.caches[member];
                                for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                                    cache.read(sp.wrapping_sub(4 + i * 4));
                                }
                            }
                        } else {
                            group.resident -= 1;
                        }
                    } else if group.resident >= group.nwindows - 1 {
                        group.overflows += 1;
                        for &member in &group.members {
                            let cache = &mut self.caches[member];
                            for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                                cache.write(sp.wrapping_sub(4 + i * 4));
                            }
                        }
                    } else {
                        group.resident += 1;
                    }
                }
            } else {
                let addr = item as u32;
                if item & TagCache::WRITE_BIT != 0 {
                    debug_assert_eq!(item >> TagCache::MEM_RUN_SHIFT, 0, "write leaders carry no run");
                    for cache in self.caches.iter_mut() {
                        cache.write(addr);
                    }
                } else {
                    let run = item >> TagCache::MEM_RUN_SHIFT;
                    for cache in self.caches.iter_mut() {
                        cache.read_run(addr, run);
                    }
                }
            }
        }
    }
}

/// Stateful segmented walker over the fetch classes of one span (see
/// [`MemSpanWalker`]).
pub struct FetchSpanWalker<'a> {
    trace: &'a Trace,
    caches: Vec<TagCache>,
    block: Vec<u64>,
    next_segment: usize,
}

impl FetchSpanWalker<'_> {
    /// Segments of the underlying trace.
    pub fn segment_count(&self) -> usize {
        self.trace.segment_count()
    }

    /// Walk segment `seg` (must be `0, 1, 2, …` in order) and return its
    /// per-class read-miss deltas.
    ///
    /// # Panics
    ///
    /// Panics when segments are walked out of order.
    pub fn walk_segment(&mut self, seg: usize) -> FetchSegmentPartial {
        assert_eq!(seg, self.next_segment, "segments must be walked in order");
        self.next_segment += 1;
        record_segment_walk();
        let trace = self.trace;
        self.walk_ops(&trace.ops[trace.ops_range(seg)])
    }

    /// Walk one segment's records through every class, returning per-class
    /// read-miss deltas (the fetch counterpart of
    /// [`MemSpanWalker::walk_folded_blocked`]).
    fn walk_ops(&mut self, ops: &[TraceOp]) -> FetchSegmentPartial {
        let before: Vec<u64> = self.caches.iter().map(|cache| cache.miss_counts().0).collect();

        // Consecutive records inside one 16-byte block — the captured
        // fetch-run invariant guarantees a compressed run never crosses one
        // — merge into the previous entry's run: after the leading fetch
        // the line is present in every class, so the followers are
        // guaranteed hits (probed by nobody, clock-accounted under LRU).
        const RUN_ONE: u64 = 1 << TagCache::MEM_RUN_SHIFT;
        let caches = &mut self.caches;
        let block = &mut self.block;
        let mut run_line: Option<u32> = None;
        let flush = |block: &mut Vec<u64>, run_line: &mut Option<u32>, caches: &mut [TagCache]| {
            for cache in caches.iter_mut() {
                cache.run_mem_block(block);
            }
            block.clear();
            *run_line = None;
        };
        for op in ops {
            let fetches = if op.flags == 0 { op.aux as u64 } else { 1 };
            if run_line == Some(op.pc >> 4) {
                *block.last_mut().expect("a run leader precedes every extension") +=
                    fetches * RUN_ONE;
            } else {
                block.push(op.pc as u64 | (fetches - 1) * RUN_ONE);
                run_line = Some(op.pc >> 4);
                if block.len() >= WALK_BLOCK {
                    flush(block, &mut run_line, caches);
                }
            }
        }
        flush(block, &mut run_line, caches);

        let classes = self
            .caches
            .iter()
            .zip(&before)
            .map(|(cache, &misses_before)| cache.miss_counts().0 - misses_before)
            .collect();
        FetchSegmentPartial { classes }
    }
}

/// Retime every configuration of a batch against one captured trace in a
/// single pass per trace stream.
///
/// Element `i` of the result equals `replay(trace, &configs[i], max_cycles)`
/// bit-for-bit (including `InvalidConfig` and `CycleLimitExceeded` errors),
/// but a batch of N configurations performs at most **two** trace walks —
/// one over the memory stream for all distinct (d-cache geometry, window
/// count) classes, one over the record stream for all distinct i-cache
/// geometries — where N one-configuration replays perform up to 2N.
/// Callers with a worker pool should partition the classes instead (see
/// [`ReplayBatch`]).
pub fn replay_batch(
    trace: &Trace,
    configs: &[LeonConfig],
    max_cycles: u64,
) -> Vec<Result<Stats, SimError>> {
    let plan = ReplayBatch::new(trace, configs, max_cycles);
    let mem = plan.walk_mem_span(0..plan.mem_class_count());
    let fetch = plan.walk_fetch_span(0..plan.fetch_class_count());
    plan.finish(&mem, &fetch)
}

/// Run `program` on `config` once, capturing both the full [`crate::RunResult`]
/// and the execution trace for later replays.
pub fn capture(
    config: &LeonConfig,
    program: &leon_isa::Program,
    max_cycles: u64,
) -> Result<(crate::RunResult, Trace), SimError> {
    let mut cpu = crate::Cpu::new(*config, program)?;
    cpu.enable_trace();
    let result = cpu.run(max_cycles)?;
    let ops = cpu.take_trace().expect("trace was enabled before the run");
    let trace = Trace::assemble(ops, config, &result.stats);
    Ok((result, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Multiplier, ReplacementPolicy};
    use leon_isa::{Asm, Reg};

    fn demo_program() -> leon_isa::Program {
        let mut a = Asm::new("trace-demo");
        a.set(Reg::L0, 64);
        a.set(Reg::L1, 0);
        a.set(Reg::L2, leon_isa::DEFAULT_MEMORY_SIZE / 2);
        a.label("loop");
        a.st(Reg::L1, Reg::L2, 0);
        a.ld(Reg::L3, Reg::L2, 0);
        a.add(Reg::L1, Reg::L3, 1);
        a.smul(Reg::L4, Reg::L1, 3);
        a.add(Reg::L2, Reg::L2, 4);
        a.subcc(Reg::L0, Reg::L0, 1);
        a.bne("loop");
        a.halt();
        a.assemble().unwrap()
    }

    /// A recursive program that overflows and underflows the window file.
    fn recursing_program() -> leon_isa::Program {
        let mut a = Asm::new("recurse");
        a.set(Reg::O0, 12);
        a.call("func");
        a.halt();
        a.label("func");
        a.save(Reg::SP, Reg::SP, -96);
        a.cmp(Reg::I0, 0);
        a.be("leaf");
        a.add(Reg::O0, Reg::I0, -1_i32);
        a.call("func");
        a.label("leaf");
        a.ret_restore();
        a.assemble().unwrap()
    }

    #[test]
    fn capture_matches_plain_simulation() {
        let config = LeonConfig::base();
        for program in [demo_program(), recursing_program()] {
            let plain = crate::simulate(&config, &program, 1_000_000).unwrap();
            let (run, trace) = capture(&config, &program, 1_000_000).unwrap();
            assert_eq!(run.stats, plain.stats, "tracing must not perturb the run");
            assert_eq!(trace.instructions(), plain.stats.instructions);
            assert!(
                trace.len() as u64 <= plain.stats.instructions,
                "fetch runs must compress, not expand"
            );
        }
    }

    #[test]
    fn replay_reproduces_capture_config_exactly() {
        let config = LeonConfig::base();
        for program in [demo_program(), recursing_program()] {
            let (run, trace) = capture(&config, &program, 1_000_000).unwrap();
            let stats = replay(&trace, &config, 1_000_000).unwrap();
            assert_eq!(stats, run.stats);
        }
    }

    #[test]
    fn replay_retimes_cache_and_latency_perturbations_exactly() {
        let base = LeonConfig::base();
        let program = demo_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();

        let mut perturbations = Vec::new();
        let mut c = base;
        c.dcache.way_kb = 1;
        perturbations.push(c);
        let mut c = base;
        c.dcache.ways = 2;
        c.dcache.replacement = ReplacementPolicy::Lru;
        perturbations.push(c);
        let mut c = base;
        c.icache.line_words = 4;
        perturbations.push(c);
        let mut c = base;
        c.icache.way_kb = 1;
        c.icache.ways = 2;
        c.icache.replacement = ReplacementPolicy::Lrr;
        perturbations.push(c);
        let mut c = base;
        c.iu.multiplier = Multiplier::M32x32;
        perturbations.push(c);
        let mut c = base;
        c.dcache_fast_read = true;
        c.dcache_fast_write = true;
        perturbations.push(c);
        let mut c = base;
        c.iu.load_delay = 2;
        c.iu.fast_decode = false;
        c.iu.fast_jump = false;
        c.iu.icc_hold = false;
        perturbations.push(c);

        for config in perturbations {
            let full = crate::simulate(&config, &program, 1_000_000).unwrap();
            let replayed = replay(&trace, &config, 1_000_000).unwrap();
            assert_eq!(replayed, full.stats, "replay must be bit-identical for {config:?}");
        }
    }

    #[test]
    fn replay_retimes_register_window_changes_exactly() {
        // the recursion depth (12) straddles every window count here, so the
        // trap pattern genuinely differs between configurations
        let base = LeonConfig::base();
        let program = recursing_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
        for windows in [2u8, 4, 8, 16, 32] {
            let mut config = base;
            config.iu.reg_windows = windows;
            let full = crate::simulate(&config, &program, 1_000_000).unwrap();
            let replayed = replay(&trace, &config, 1_000_000).unwrap();
            assert_eq!(
                replayed, full.stats,
                "replay must re-derive window traps for {windows} windows"
            );
            if windows == 2 {
                assert!(replayed.window_overflows > 0, "2 windows must trap on recursion");
            }
        }
    }

    #[test]
    fn replay_respects_the_cycle_budget() {
        let base = LeonConfig::base();
        let program = demo_program();
        let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
        let limit = run.stats.cycles / 2;
        let full = crate::simulate(&base, &program, limit).unwrap_err();
        let replayed = replay(&trace, &base, limit).unwrap_err();
        assert_eq!(full, replayed);
        assert!(matches!(replayed, SimError::CycleLimitExceeded { .. }));
    }

    #[test]
    fn budget_boundary_is_identical_to_simulation() {
        // Regression test for the one semantic divergence the first trace
        // engine shipped with: a budget first exceeded by the *final*
        // instruction used to finish under full simulation but error under
        // replay.  Both must now treat the budget as a bound on the total.
        let base = LeonConfig::base();
        for program in [demo_program(), recursing_program()] {
            let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
            let total = run.stats.cycles;

            // budget == total: both engines finish, bit-identically
            let full = crate::simulate(&base, &program, total).unwrap();
            let replayed = replay(&trace, &base, total).unwrap();
            assert_eq!(replayed, full.stats);

            // budget == total - 1 (exhausted on the final instruction):
            // both engines must fail with the same error
            let full = crate::simulate(&base, &program, total - 1).unwrap_err();
            let replayed = replay(&trace, &base, total - 1).unwrap_err();
            assert_eq!(full, SimError::CycleLimitExceeded { limit: total - 1 });
            assert_eq!(replayed, full);
        }
    }

    #[test]
    fn replay_batch_matches_elementwise_replay_on_a_mixed_batch() {
        let base = LeonConfig::base();
        for program in [demo_program(), recursing_program()] {
            let (_, trace) = capture(&base, &program, 1_000_000).unwrap();

            let mut configs = Vec::new();
            configs.push(base); // the captured configuration itself
            let mut c = base;
            c.dcache.way_kb = 1;
            configs.push(c);
            configs.push(c); // duplicate: same behavior class, same result
            let mut c = base;
            c.dcache.ways = 2;
            c.dcache.replacement = ReplacementPolicy::Lru;
            c.iu.reg_windows = 2;
            configs.push(c);
            let mut c = base;
            c.icache.way_kb = 1;
            c.icache.ways = 2;
            c.icache.replacement = ReplacementPolicy::Lrr;
            configs.push(c);
            let mut c = base;
            c.iu.multiplier = Multiplier::M32x32;
            c.dcache_fast_read = true;
            configs.push(c); // pure closed-form retime, no class at all
            let mut c = base;
            c.dcache.way_kb = 3; // structurally invalid
            configs.push(c);

            let batched = replay_batch(&trace, &configs, 1_000_000);
            let elementwise: Vec<_> =
                configs.iter().map(|c| replay(&trace, c, 1_000_000)).collect();
            assert_eq!(batched, elementwise, "batch must equal element-wise replay exactly");
            assert!(matches!(batched[6], Err(SimError::InvalidConfig(_))));
        }
    }

    #[test]
    fn replay_batch_enforces_the_cycle_budget_for_each_configuration() {
        let base = LeonConfig::base();
        let program = demo_program();
        let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
        let mut slow = base;
        slow.iu.fast_decode = false;
        slow.iu.fast_jump = false;
        // budget exactly the base total: the base fits, the slowed config
        // must exceed it — with the same error replay produces
        let results = replay_batch(&trace, &[base, slow], run.stats.cycles);
        assert_eq!(results[0].as_ref().unwrap().cycles, run.stats.cycles);
        assert_eq!(
            results[1],
            Err(SimError::CycleLimitExceeded { limit: run.stats.cycles })
        );
        assert_eq!(results[1], replay(&trace, &slow, run.stats.cycles));
    }

    #[test]
    fn batch_plan_deduplicates_behavior_classes_and_walks_once_per_span() {
        let base = LeonConfig::base();
        let program = recursing_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();

        let mut dcache_small = base;
        dcache_small.dcache.way_kb = 1;
        let mut windows_low = base;
        windows_low.iu.reg_windows = 2;
        let mut icache_small = base;
        icache_small.icache.way_kb = 1;
        let mut closed_form = base;
        closed_form.iu.multiplier = Multiplier::M32x32;
        let configs =
            [base, dcache_small, dcache_small, windows_low, icache_small, closed_form, base];

        let plan = ReplayBatch::new(&trace, &configs, 1_000_000);
        assert_eq!(plan.len(), 7);
        // duplicates and base-geometry configs never create classes
        assert_eq!(plan.mem_class_count(), 2, "dcache_small (deduped) + windows_low");
        assert_eq!(plan.fetch_class_count(), 1, "icache_small");
        assert_eq!(plan.class_count(), 3);

        // a span walk is exactly one counted pass over the stream
        let before = trace_walks_performed();
        let mem = plan.walk_mem_span(0..plan.mem_class_count());
        assert_eq!(trace_walks_performed() - before, 1);
        let fetch = plan.walk_fetch_span(0..plan.fetch_class_count());
        assert_eq!(trace_walks_performed() - before, 2);
        // empty spans are free
        assert!(plan.walk_mem_span(0..0).is_empty());
        assert_eq!(trace_walks_performed() - before, 2);

        // split spans produce the same per-class results as the fused pass
        let first = plan.walk_mem_span(0..1);
        let second = plan.walk_mem_span(1..2);
        assert_eq!(mem, [first, second].concat());

        let finished = plan.finish(&mem, &fetch);
        for (result, config) in finished.iter().zip(&configs) {
            assert_eq!(result.as_ref().unwrap(), &replay(&trace, config, 1_000_000).unwrap());
        }
    }

    #[test]
    fn traces_are_shared_across_measurement_workers() {
        // the campaign engine fans replays of one trace out over a worker
        // pool; the trace type must stay plain shareable data
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
        assert_send_sync::<TraceOp>();
    }

    #[test]
    fn compressed_runs_never_cross_a_16_byte_block() {
        let base = LeonConfig::base();
        let program = demo_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
        for op in &trace.ops {
            if op.flags == 0 {
                assert!(op.aux >= 1 && op.aux <= 4);
                let last_pc = op.pc + 4 * (op.aux - 1);
                assert_eq!(op.pc >> 4, last_pc >> 4, "run crosses a minimum-size line");
            }
        }
    }

    #[test]
    fn binary_codec_round_trips_exactly() {
        let mut config = LeonConfig::base();
        // a non-default capture configuration exercises every encoded field
        config.icache.ways = 2;
        config.icache.replacement = ReplacementPolicy::Lru;
        config.iu.multiplier = Multiplier::M32x32;
        config.dcache_fast_read = true;
        for program in [demo_program(), recursing_program()] {
            let (_, trace) = capture(&config, &program, 1_000_000).unwrap();
            let bytes = trace.to_bytes();
            let decoded = Trace::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, trace, "decode(encode(t)) must equal t exactly");
            // appending after a caller's framing writes the same bytes
            let mut framed = b"prefix".to_vec();
            trace.encode_into(&mut framed);
            assert_eq!(framed[6..], bytes[..]);
            // and the decoded trace replays bit-identically to the original
            let base = LeonConfig::base();
            assert_eq!(
                replay(&decoded, &base, 1_000_000).unwrap(),
                replay(&trace, &base, 1_000_000).unwrap()
            );
        }
    }

    #[test]
    fn peek_header_reads_only_the_fixed_header() {
        let mut config = LeonConfig::base();
        config.icache.ways = 2;
        config.icache.replacement = ReplacementPolicy::Lru;
        let (run, trace) = capture(&config, &recursing_program(), 1_000_000).unwrap();
        let bytes = trace.to_bytes();

        let header = Trace::peek_header(&bytes).unwrap();
        assert_eq!(header.captured, config);
        assert_eq!(header.base_icache, run.stats.icache);
        assert_eq!(header.base_dcache, run.stats.dcache);
        assert_eq!(header.base_overflows, run.stats.window_overflows);
        assert_eq!(header.records, trace.ops.len() as u64);

        // a record-stream bit flip passes the peek (no integrity claim) but
        // still fails the full decode
        let mut flipped = bytes.clone();
        let pos = flipped.len() - 20;
        flipped[pos] ^= 0x40;
        assert!(Trace::peek_header(&flipped).is_ok());
        assert!(Trace::from_bytes(&flipped).is_err());

        // header damage is caught by the peek itself
        assert!(Trace::peek_header(&bytes[..10]).is_err());
        let mut versioned = bytes.clone();
        versioned[4..8].copy_from_slice(&(TRACE_FORMAT_VERSION + 7).to_le_bytes());
        let err = Trace::peek_header(&versioned).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 10);
        assert!(Trace::peek_header(&truncated).is_err(), "record count must mismatch");
    }

    #[test]
    fn binary_codec_rejects_damage() {
        let (_, trace) = capture(&LeonConfig::base(), &demo_program(), 1_000_000).unwrap();
        let good = trace.to_bytes();
        assert!(Trace::from_bytes(&good).is_ok());

        // truncation (both mid-record and mid-header)
        assert!(Trace::from_bytes(&good[..good.len() - 1]).is_err());
        assert!(Trace::from_bytes(&good[..10]).is_err());
        assert!(Trace::from_bytes(&[]).is_err());

        // a different format version — newer, or the retired version 3
        // (FNV-1a per segment), version 2 (stored derived data) or
        // monolithic version 1 — must be rejected even with a valid
        // checksum over the altered body, by every decoder
        for version in [TRACE_FORMAT_VERSION + 1, 3, 2, 1] {
            let mut versioned = good.clone();
            versioned[4..8].copy_from_slice(&version.to_le_bytes());
            let versioned = rechecksummed(versioned);
            let err = Trace::from_bytes(&versioned).unwrap_err();
            assert!(err.to_string().contains("version"), "got: {err}");
            let err = Trace::peek_header(&versioned).unwrap_err();
            assert!(err.to_string().contains("version"), "got: {err}");
            let err = Trace::validate_segments(&versioned).unwrap_err();
            assert!(err.to_string().contains("version"), "got: {err}");
        }

        // trailing garbage is rejected (record count no longer matches)
        let mut padded = good[..good.len() - 8].to_vec();
        padded.extend_from_slice(&[0u8; 10]);
        let checksum = xxh64(&padded);
        padded.extend_from_slice(&checksum.to_le_bytes());
        assert!(Trace::from_bytes(&padded).is_err());

        // a hostile segment index or record count — claimed offsets near
        // u64::MAX, an overflowing payload size — is a typed error from
        // every decoder, never an overflow panic
        let mut segmented = trace.clone();
        segmented.resegment_at(&[0, 1, trace.len() / 2]);
        let good = segmented.to_bytes();
        assert_eq!(Trace::from_bytes(&good).unwrap(), segmented);
        let index_at = good.len() - 8 - trace.len() * RECORD_LEN - 3 * SEGMENT_INFO_LEN;
        let records_at = index_at - 12;
        assert_eq!(good[records_at..records_at + 8], (trace.len() as u64).to_le_bytes());
        for (at, value) in [
            (index_at + SEGMENT_INFO_LEN, u64::MAX - 1),
            (index_at + 2 * SEGMENT_INFO_LEN, u64::MAX),
            (index_at, u64::MAX / 2),
            (records_at, 1 << 60),
            (records_at, u64::MAX),
        ] {
            let mut hostile = good.clone();
            hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let hostile = rechecksummed(hostile);
            assert!(Trace::from_bytes(&hostile).is_err(), "{value:#x} at byte {at}");
            assert!(Trace::peek_header(&hostile).is_err(), "{value:#x} at byte {at}");
            assert!(Trace::validate_segments(&hostile).is_err(), "{value:#x} at byte {at}");
        }
    }

    /// Re-seal `bytes` with a valid trailing checksum, so only the
    /// structural checks can reject what was altered.
    fn rechecksummed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - TRAILER_LEN;
        let checksum = xxh64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn every_bit_flip_of_an_encoded_trace_is_rejected() {
        // the trailer is the only integrity layer, so it alone must catch a
        // flip anywhere: header, segment index, records or the trailer
        let (_, trace) = capture(&LeonConfig::base(), &recursing_program(), 1_000_000).unwrap();
        let good = trace.to_bytes();
        assert!(Trace::validate_segments(&good).is_ok());
        let mut bad = good.clone();
        for bit in 0..good.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Trace::from_bytes(&bad).is_err(), "from_bytes missed bit {bit}");
            assert!(Trace::validate_segments(&bad).is_err(), "validate_segments missed bit {bit}");
            bad[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn xxh64_matches_the_published_answers() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
    }

    #[test]
    fn xxh64_detects_every_single_bit_flip_of_short_inputs() {
        // every length up to three stripes, so each tail path is exercised
        for len in 0..=96usize {
            let mut bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let clean = xxh64(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(xxh64(&bytes), clean, "length {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn summary_and_folded_stream_are_consistent() {
        let base = LeonConfig::base();
        let program = recursing_program();
        let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
        let s = &trace.summary;
        assert_eq!(s.instructions, run.stats.instructions);
        assert_eq!(s.loads, run.stats.loads);
        assert_eq!(s.stores, run.stats.stores);
        assert_eq!(s.branches, run.stats.branches);
        assert_eq!(s.taken_branches, run.stats.taken_branches);
        assert_eq!(s.calls, run.stats.calls);
        // every rotation is one folded marker; loads and stores fold into
        // at most one leader each
        let markers = trace.folded.iter().filter(|&&item| item & FOLD_MARKER_BIT != 0).count();
        assert_eq!(markers as u64, s.saves + s.restores);
        assert!((trace.folded.len() - markers) as u64 <= s.loads + s.stores);
        assert!(s.saves > 0 && s.restores > 0, "recursion must rotate windows");
    }

    /// A small mixed batch: base geometry, a d-cache + window variant, an
    /// i-cache variant, and a pure closed-form variant.
    fn mixed_batch(base: &LeonConfig) -> Vec<LeonConfig> {
        let mut dcache_small = *base;
        dcache_small.dcache.way_kb = 1;
        dcache_small.iu.reg_windows = 2;
        let mut icache_small = *base;
        icache_small.icache.way_kb = 1;
        let mut closed_form = *base;
        closed_form.iu.multiplier = Multiplier::M32x32;
        vec![*base, dcache_small, icache_small, closed_form]
    }

    #[test]
    fn resegmented_traces_replay_and_round_trip_identically() {
        let base = LeonConfig::base();
        let configs = mixed_batch(&base);
        for program in [demo_program(), recursing_program()] {
            let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
            let expected = replay_batch(&trace, &configs, 1_000_000);

            // deliberately odd boundaries: 1-record segments up front, cuts
            // mid-stream — results and the codec round-trip must not care
            let n = trace.ops.len();
            let mut boundaries: Vec<usize> = vec![0, 1, 2, n / 3, n / 2, n - 1];
            boundaries.sort_unstable();
            boundaries.dedup();
            boundaries.retain(|&b| b < n);
            let mut resegmented = trace.clone();
            resegmented.resegment_at(&boundaries);
            assert!(resegmented.segment_count() >= 4);

            assert_eq!(replay_batch(&resegmented, &configs, 1_000_000), expected);
            let decoded = Trace::from_bytes(&resegmented.to_bytes()).unwrap();
            assert_eq!(decoded, resegmented, "the codec must preserve the segmentation");
        }
    }

    #[test]
    fn segment_walkers_tick_the_segment_counter() {
        let base = LeonConfig::base();
        let (_, mut trace) = capture(&base, &recursing_program(), 1_000_000).unwrap();
        let step = (trace.ops.len() / 4).max(1);
        let boundaries: Vec<usize> = (0..trace.ops.len()).step_by(step).collect();
        trace.resegment_at(&boundaries);
        let segments = trace.segment_count() as u64;
        assert!(segments >= 3);

        let configs = mixed_batch(&base);
        let plan = ReplayBatch::new(&trace, &configs, 1_000_000);
        let walks_before = trace_walks_performed();
        let segs_before = trace_segments_walked();
        let mem = plan.walk_mem_span(0..plan.mem_class_count());
        let fetch = plan.walk_fetch_span(0..plan.fetch_class_count());
        assert_eq!(trace_walks_performed() - walks_before, 2);
        assert_eq!(trace_segments_walked() - segs_before, 2 * segments);

        // per-segment partials reduce to exactly the fused span results
        let mut walker = plan.mem_span_walker(0..plan.mem_class_count());
        let partials: Vec<MemSegmentPartial> =
            (0..walker.segment_count()).map(|seg| walker.walk_segment(seg)).collect();
        assert_eq!(plan.reduce_mem_partials(0..plan.mem_class_count(), &partials), mem);
        let mut walker = plan.fetch_span_walker(0..plan.fetch_class_count());
        let partials: Vec<FetchSegmentPartial> =
            (0..walker.segment_count()).map(|seg| walker.walk_segment(seg)).collect();
        assert_eq!(plan.reduce_fetch_partials(0..plan.fetch_class_count(), &partials), fetch);

        // a one-configuration `replay` is a batch too: a config changing
        // both caches walks each stream once, segment by segment
        let mut both = base;
        both.dcache.way_kb = 1;
        both.icache.way_kb = 1;
        let walks_before = trace_walks_performed();
        let segs_before = trace_segments_walked();
        replay(&trace, &both, 1_000_000).unwrap();
        assert_eq!(trace_walks_performed() - walks_before, 2);
        assert_eq!(trace_segments_walked() - segs_before, 2 * segments);
    }
}
