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
//! Replay reads three things from a run, and the trace holds exactly those:
//!
//! * the **fetch stream** ([`Trace::fetch_runs`]) — one entry per maximal
//!   run of sequential fetches: its first pc and its instruction count.  A
//!   run ends only where the next pc is not the previous pc + 4;
//! * the **folded memory stream** ([`Trace::memory_items`]) — load/store run
//!   leaders (an access strictly following a read of its own 16-byte line
//!   folds into the leader's run count: the minimum line size, so a
//!   guaranteed hit under every geometry) and `save`/`restore` markers with
//!   their (architecturally configuration-independent) stack pointers;
//! * [`Trace::summary`] — the configuration-independent event *counts*;
//!
//! plus the capturing configuration and its cache statistics.  A
//! [`Recorder`] builds all of it while the run retires instructions: it
//! appends a fetch run only where the pc stops being sequential, a memory
//! item only on a load, store, `save` or `restore` (folding the stream once,
//! at capture), and counts event words.  A walk reads a stream whole, from
//! its first entry to its last.
//!
//! [`Trace::to_bytes`] (format version 6) stores exactly these, 8 bytes per
//! run and per memory item, under one trailing [`xxh64`] checksum;
//! [`Trace::from_bytes`] derives nothing, and rejects counts that disagree
//! with the streams and any entry replay could not walk.
//!
//! # How replay retimes a configuration
//!
//! Total cycles decompose into `Σ events × cost(event, config)`, and only
//! cache hit/miss behaviour needs stateful re-simulation.  A batch of
//! configurations ([`ReplayBatch`]; [`replay`] is a batch of one) is
//! partitioned into *behavior classes*, and each tier costs:
//!
//! 1. **i-cache**: a configuration whose i-cache geometry equals the
//!    capturing one reuses its statistics verbatim.  A geometry in which
//!    the fetch stream cannot conflict (every fetched line owns its set, see
//!    [`LineFootprint`]) is finished in closed form.  Every other distinct
//!    i-cache geometry is one fetch class, and all fetch classes are
//!    re-simulated together in one walk of the fetch runs, each split at
//!    16-byte blocks, through lean tag-only cache models
//!    ([`crate::cache`]'s `TagCache`).
//! 2. **d-cache + window traps**: a window count of at least the maximum
//!    nesting depth + 2 never traps ([`MemFacts`]), so all such counts
//!    behave alike.  If the d-cache geometry matches and the window
//!    count matches (or both it and the captured one are trap-free), the
//!    captured statistics are reused; a trap-free count with a d-cache in
//!    which the loads and stores cannot conflict is finished in closed
//!    form; otherwise each distinct (geometry, window count) pair is one
//!    memory class, and all memory classes share one walk of the folded
//!    stream — a resident-window automaton per window count re-derives
//!    overflow/underflow traps and expands each trap into its 16
//!    spill/fill accesses.
//! 3. **everything else** (latency options, decode/jump/interlock, fast
//!    read/write, multiplier/divider, memory timing) is closed-form
//!    arithmetic over [`TraceSummary`] — O(1).
//!
//! A cost-table measurement of the paper's 52-variable space therefore runs
//! the full simulator once and then at most one walk per stream (one per
//! class span when the classes are spread over a worker pool), and none for
//! a stream whose every class is finished in closed form; the 14 IU-only
//! variables are O(1).  A trace remembers each class it has walked, so a
//! later batch or `replay` on the same `Trace` value finishes that class
//! from the remembered statistics instead of walking it again.
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
use std::hash::Hash;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::cache::{CacheStats, TagCache};
use crate::config::{CacheConfig, LeonConfig};
use crate::error::SimError;
use crate::profiler::Stats;

/// Process-wide count of trace-stream walks: one tick per span walker, i.e.
/// per pass over a trace's fetch or folded memory stream that re-simulates
/// a span of behavior classes at once ([`ReplayBatch`], which [`replay`]
/// runs as a one-configuration batch).  Closed-form retimes never walk and
/// never tick, and neither does a class whose walk the same [`Trace`] value
/// remembers.
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
/// clobber each other.  A delta counts stream passes, not replays: a replay
/// of a class already walked on the same [`Trace`] value adds nothing, so
/// measure a walk count on a fresh trace or a clone (which remembers no
/// walk).
pub fn trace_walks_performed() -> u64 {
    TRACE_WALKS.load(Ordering::Relaxed)
}

/// Record one pass over a trace stream.
fn record_trace_walk() {
    TRACE_WALKS.fetch_add(1, Ordering::Relaxed);
}

/// Total trace segments walked so far by this process: every stream is one
/// segment, so this is [`trace_walks_performed`].  Kept because the
/// end-to-end benchmark reports it as `walk.segments`; it can go with that
/// metric.
pub fn trace_segments_walked() -> u64 {
    trace_walks_performed()
}

/// Event bits of one retired instruction, as [`crate::Cpu`] hands them to
/// the [`Recorder`].  A bit records that the *event occurred* in the
/// instruction stream; whether and how many cycles it costs is decided at
/// replay time from the configuration under evaluation.
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
    /// Memory load; the address is the effective address.
    pub const LOAD: u16 = 1 << 5;
    /// Memory store; the address is the effective address.
    pub const STORE: u16 = 1 << 6;
    /// Conditional branch.
    pub const BRANCH: u16 = 1 << 7;
    /// The branch was taken (fetch refill cycle).
    pub const TAKEN: u16 = 1 << 8;
    /// Call or indirect jump (`call`/`jmpl` address-generation cycles).
    pub const CALL: u16 = 1 << 9;
    /// Register-window rotation forward (`save`); the address is the
    /// (architectural, configuration-independent) post-save stack pointer a
    /// spill would write through.
    pub const SAVE: u16 = 1 << 10;
    /// Register-window rotation backward (`restore`); the address is the
    /// post-restore stack pointer a fill would read through.
    pub const RESTORE: u16 = 1 << 11;
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

impl TraceSummary {
    /// The counts in declaration order (the serialised order).
    fn counts(&self) -> [u64; 13] {
        [
            self.instructions,
            self.slow_decode,
            self.load_use,
            self.icc_branch,
            self.mul_ops,
            self.div_ops,
            self.loads,
            self.stores,
            self.branches,
            self.taken_branches,
            self.calls,
            self.saves,
            self.restores,
        ]
    }
}

/// Marker flag of a folded-stream item (bit 63): the item is a
/// `save`/`restore` window rotation, not a load/store run leader.
const FOLD_MARKER_BIT: u64 = 1 << 63;

/// On a marker item: set for `restore`, clear for `save`.  The low 32 bits
/// hold the (configuration-independent) trap stack pointer either way.
const FOLD_RESTORE_BIT: u64 = 1 << 32;

/// One access folded into a run leader (or one fetch merged into a walk
/// entry), in the run field above [`TagCache::MEM_RUN_SHIFT`].
const RUN_ONE: u64 = 1 << TagCache::MEM_RUN_SHIFT;

/// The largest run an item or walk entry carries: the run field ends below
/// the marker bit.  A longer run starts a new leader, which every cache
/// then hits, so no result depends on where that happens.
const MAX_RUN: u64 = (FOLD_MARKER_BIT >> TagCache::MEM_RUN_SHIFT) - 1;

/// A fetch run's encoding: the first pc in the low 32 bits, the count in
/// the high 32.
fn run_entry(pc: u32, count: u32) -> u64 {
    u64::from(pc) | u64::from(count) << 32
}

/// The inverse of [`run_entry`].
fn run_parts(entry: u64) -> (u32, u32) {
    (entry as u32, (entry >> 32) as u32)
}

/// One maximal run of sequential fetches ([`Trace::fetch_runs`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchRun {
    /// Program counter of the run's first fetch.
    pub pc: u32,
    /// Instructions in the run, at `pc`, `pc + 4`, …; at least 1.
    pub count: u32,
}

/// One item of the folded memory stream ([`Trace::memory_items`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemItem {
    /// A load at `addr` and the `run` accesses (loads or stores) that
    /// followed it strictly consecutively within its 16-byte line.
    Read {
        /// Effective address.
        addr: u32,
        /// Accesses folded into the leader.
        run: u32,
    },
    /// A store that no read leader absorbed.
    Write {
        /// Effective address.
        addr: u32,
    },
    /// A `save` and the stack pointer a spill would write through.
    Save {
        /// Post-save stack pointer.
        sp: u32,
    },
    /// A `restore` and the stack pointer a fill would read through.
    Restore {
        /// Post-restore stack pointer.
        sp: u32,
    },
}

impl MemItem {
    /// Decode one folded item.
    fn of(item: u64) -> MemItem {
        let addr = item as u32;
        if item & FOLD_MARKER_BIT != 0 {
            if item & FOLD_RESTORE_BIT != 0 {
                MemItem::Restore { sp: addr }
            } else {
                MemItem::Save { sp: addr }
            }
        } else if item & TagCache::WRITE_BIT != 0 {
            MemItem::Write { addr }
        } else {
            MemItem::Read { addr, run: (item >> TagCache::MEM_RUN_SHIFT) as u32 }
        }
    }
}

/// A captured execution trace: the full timing-relevant event stream of one
/// program run, independent of every Figure 1 parameter (including the
/// register-window count — window traps are re-derived at replay time).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The fetch runs in execution order, each [`run_entry`]-encoded.
    fetch: Vec<u64>,
    /// The folded data-cache/window event stream, in execution order: one
    /// item per load/store run leader or `save`/`restore` marker.  The
    /// memory walkers consume it directly, so the guaranteed-hit elision is
    /// done once, at capture, not per walk.
    folded: Vec<u64>,
    /// Configuration-independent event counts; they agree with the streams
    /// (see [`check_streams`]).
    summary: TraceSummary,
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
    /// The closed-form facts, derived on first use (see [`LazyFacts`]).
    facts: LazyFacts,
}

/// The closed-form facts of a [`Trace`], each derived at most once, by the
/// first replay plan that needs it — never by capture or decode — and the
/// walk results remembered so far ([`Walked`]).  All are pure functions of
/// the streams, so they take no part in equality and are never serialised.
#[derive(Debug, Default)]
struct LazyFacts {
    mem: OnceLock<MemFacts>,
    fetch: OnceLock<StreamFootprint>,
    walked: Mutex<Walked>,
}

/// A clone keeps the derived facts but remembers no walk: it is a cold copy,
/// whose plans walk every class again.
impl Clone for LazyFacts {
    fn clone(&self) -> LazyFacts {
        LazyFacts { mem: self.mem.clone(), fetch: self.fetch.clone(), walked: Mutex::default() }
    }
}

/// The statistics each behavior class's walk produced on one trace, keyed
/// exactly as [`ReplayBatch::new`] interns the class (so every trap-free
/// window count of a d-cache geometry shares one entry).
/// [`ReplayBatch::finish`] records them and [`ReplayBatch::new`] finishes a
/// class it finds here without a walk.  Configurations are validated before
/// interning, so this holds at most one entry per valid class: 112 cache
/// geometries × 31 window counts memory entries and 112 fetch entries,
/// about 0.3 MB.
#[derive(Debug, Default)]
struct Walked {
    mem: HashMap<MemClass, (CacheStats, u64, u64)>,
    fetch: HashMap<CacheConfig, CacheStats>,
}

impl PartialEq for LazyFacts {
    fn eq(&self, _: &LazyFacts) -> bool {
        true
    }
}

impl Trace {
    /// The fetch stream: one entry per maximal run of sequential fetches,
    /// in execution order.
    pub fn fetch_runs(&self) -> impl ExactSizeIterator<Item = FetchRun> + '_ {
        self.fetch.iter().map(|&entry| {
            let (pc, count) = run_parts(entry);
            FetchRun { pc, count }
        })
    }

    /// The folded memory stream, in execution order.
    pub fn memory_items(&self) -> impl ExactSizeIterator<Item = MemItem> + '_ {
        self.folded.iter().map(|&item| MemItem::of(item))
    }

    /// Dynamic instruction count of the captured run.
    pub fn instructions(&self) -> u64 {
        self.summary.instructions
    }

    /// The configuration-independent event counts of the captured run.
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// In-memory footprint of the two streams, in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.fetch.len() + self.folded.len()) * std::mem::size_of::<u64>()
    }

    /// The memory stream's closed-form facts: the maximum window nesting
    /// depth and the footprint of the loads and stores.  Derived from the
    /// folded stream on the first call and cached.
    pub fn mem_facts(&self) -> &MemFacts {
        self.facts.mem.get_or_init(|| MemFacts::derive(&self.folded))
    }

    /// The fetch stream's footprint, derived by one pass over the fetch
    /// runs on the first call and cached.
    pub fn fetch_footprint(&self) -> &StreamFootprint {
        let fetches =
            || self.fetch.iter().flat_map(|&entry| run_lines(entry)).map(|pc| (pc, false));
        self.facts.fetch.get_or_init(|| StreamFootprint::derive(fetches()))
    }
}

/// One address in each 16-byte line a fetch run reads, in order: its first
/// pc, then the start of each later line.  Stops one line past 64 KB —
/// beyond that the run alone makes the footprint too wide to count.
fn run_lines(entry: u64) -> impl Iterator<Item = u32> {
    let (pc, count) = run_parts(entry);
    let last = u64::from(pc) + 4 * (u64::from(count) - 1);
    let later = ((last >> 4) - u64::from(pc >> 4)).min(u64::from(FOOTPRINT_LINES)) as u32;
    std::iter::once(pc).chain((1..=later).map(move |line| ((pc >> 4) + line) << 4))
}

/// Distinct event words: every combination of the 12 [`flags`] bits.
const EVENT_WORDS: usize = 1 << 12;

/// The events that produce a folded memory item.
const MEMORY_EVENTS: u16 = flags::LOAD | flags::STORE | flags::SAVE | flags::RESTORE;

/// Builds a [`Trace`] while a run retires instructions: [`crate::Cpu`]
/// hands it each instruction's pc, event bits and address
/// ([`Recorder::record`]).  It appends a fetch run only where the pc stops
/// being sequential, appends a memory item only on a load, store, `save` or
/// `restore` — a same-line follower of a read folds into the read's run —
/// and counts event words, so the trace needs no pass of its own at the
/// end.
#[derive(Clone, Debug)]
pub struct Recorder {
    fetch: Vec<u64>,
    folded: Vec<u64>,
    /// First pc and length of the open fetch run (length 0 before the
    /// first instruction).
    run_pc: u32,
    run_count: u32,
    /// The pc that extends the open run: its last pc + 4, widened so that
    /// no run continues past `u32::MAX`.
    next_pc: u64,
    /// The 16-byte line the last read leader established: accesses to it
    /// fold into the leader until another line or a marker intervenes (a
    /// write establishes no line — the caches are no-write-allocate).
    run_line: Option<u32>,
    /// Retired instructions per event word.
    events: Box<[u64; EVENT_WORDS]>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder {
            fetch: Vec::new(),
            folded: Vec::new(),
            run_pc: 0,
            run_count: 0,
            next_pc: u64::MAX,
            run_line: None,
            events: Box::new([0; EVENT_WORDS]),
        }
    }

    /// Record one retired instruction: its pc, its [`flags`] event bits and
    /// the address its event carries (a load's or store's effective
    /// address, the stack pointer after a `save` or `restore`; ignored for
    /// other instructions).
    #[inline]
    pub fn record(&mut self, pc: u32, events: u16, addr: u32) {
        self.events[usize::from(events) & (EVENT_WORDS - 1)] += 1;
        if u64::from(pc) == self.next_pc {
            self.run_count += 1;
        } else {
            self.close_run();
            self.run_pc = pc;
            self.run_count = 1;
        }
        self.next_pc = u64::from(pc) + 4;
        if events & MEMORY_EVENTS != 0 {
            self.memory(events, addr);
        }
    }

    fn close_run(&mut self) {
        if self.run_count > 0 {
            self.fetch.push(run_entry(self.run_pc, self.run_count));
        }
    }

    fn memory(&mut self, events: u16, addr: u32) {
        if events & flags::LOAD != 0 {
            self.access(addr, false);
        }
        if events & flags::STORE != 0 {
            self.access(addr, true);
        }
        if events & flags::SAVE != 0 {
            self.marker(addr, 0);
        }
        if events & flags::RESTORE != 0 {
            self.marker(addr, FOLD_RESTORE_BIT);
        }
    }

    /// Fold a same-line follower into the read leader's run, or append a
    /// new leader.  Folds stop at every marker — whether it traps depends
    /// on the replayed window count — and the walk re-folds across the
    /// markers that do not trap.
    fn access(&mut self, addr: u32, write: bool) {
        let line = addr >> 4;
        if self.run_line == Some(line) {
            let leader = self.folded.last_mut().expect("a read leader established the line");
            if *leader >> TagCache::MEM_RUN_SHIFT < MAX_RUN {
                *leader += RUN_ONE;
                return;
            }
        }
        self.folded.push(u64::from(addr) | if write { TagCache::WRITE_BIT } else { 0 });
        self.run_line = (!write).then_some(line);
    }

    fn marker(&mut self, sp: u32, restore: u64) {
        self.folded.push(FOLD_MARKER_BIT | restore | u64::from(sp));
        self.run_line = None;
    }

    /// The recorded trace, captured on `captured` by a run with statistics
    /// `stats` (whose cache statistics and window traps replay reuses when
    /// a configuration matches the capturing one).
    pub fn finish(mut self, captured: &LeonConfig, stats: &Stats) -> Trace {
        self.close_run();
        Trace {
            fetch: self.fetch,
            folded: self.folded,
            summary: summarize(&self.events),
            captured: *captured,
            base_icache: stats.icache,
            base_dcache: stats.dcache,
            base_overflows: stats.window_overflows,
            base_underflows: stats.window_underflows,
            facts: LazyFacts::default(),
        }
    }
}

/// Count the recorded event words into a [`TraceSummary`]: a program has
/// few distinct event combinations, so the per-event bit tests run once
/// per word that occurred, not once per instruction.
fn summarize(events: &[u64; EVENT_WORDS]) -> TraceSummary {
    let mut summary = TraceSummary::default();
    for (word, &count) in events.iter().enumerate().filter(|(_, &count)| count != 0) {
        let events = |bit: u16| if word as u16 & bit != 0 { count } else { 0 };
        summary.instructions += count;
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

// ---------------------------------------------------------------------------
// Versioned binary serialization
// ---------------------------------------------------------------------------

/// Version number of the binary trace format produced by [`Trace::to_bytes`].
///
/// Bump this whenever the stream layout, the captured-configuration encoding
/// or the semantics of any serialised field change: persisted traces carry
/// the version they were written with, and [`Trace::from_bytes`] refuses to
/// decode any other version, so stale artifacts fall back to recapture
/// instead of silently mis-replaying.  Version 6 stores the fetch runs, the
/// folded memory stream, the event counts and one trailing [`xxh64`]
/// checksum.  Earlier releases' versions are stale: version 5 also stored a
/// segment index per stream, and versions 1–4 one record per eventful
/// instruction — the monolithic version 1, version 2 (which also stored
/// derived data and per-segment checkpoints), version 3 (FNV-1a checksums)
/// and version 4 (XXH64).
pub const TRACE_FORMAT_VERSION: u32 = 6;

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

/// Serialised size of one fetch run or folded memory item.
const ENTRY_LEN: usize = 8;

/// Serialised size of the header: magic, version, capturing configuration
/// (40 bytes), base cache statistics and window-trap counts (80), the 13
/// event counts (104) and the run and item counts (16).
const HEADER_LEN: usize = 248;

/// Serialised size of the trailing checksum.
const TRAILER_LEN: usize = 8;

/// The header of a serialised trace, decodable without touching the
/// streams (see [`Trace::peek_header`]): the capture results, the event
/// counts and the stream lengths.
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
    /// The event counts.
    pub summary: TraceSummary,
    /// Fetch runs in the (unread) fetch stream.
    pub runs: u64,
    /// Items in the (unread) folded memory stream.
    pub items: u64,
}

/// Parse a serialised trace header from `r`, leaving `r` at the first run.
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
    let summary = TraceSummary {
        instructions: r.u64()?,
        slow_decode: r.u64()?,
        load_use: r.u64()?,
        icc_branch: r.u64()?,
        mul_ops: r.u64()?,
        div_ops: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        branches: r.u64()?,
        taken_branches: r.u64()?,
        calls: r.u64()?,
        saves: r.u64()?,
        restores: r.u64()?,
    };
    let runs = r.u64()?;
    let items = r.u64()?;
    Ok(TraceHeader {
        captured,
        base_icache,
        base_dcache,
        base_overflows,
        base_underflows,
        summary,
        runs,
        items,
    })
}

/// Little-endian 8-byte words of `bytes` (whose length is a multiple of 8).
fn words(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|word| u64::from_le_bytes(word.try_into().expect("8-byte chunks")))
}

/// Parse the header of a serialised trace and check its stream lengths
/// against the input length.  Returns the header, the run region and the
/// item region; reads neither stream nor the trailing checksum.  The length
/// arithmetic is checked: a hostile count is a typed error, not an
/// overflow.
fn parse_layout(bytes: &[u8]) -> Result<(TraceHeader, &[u8], &[u8]), TraceCodecError> {
    if bytes.len() < TRACE_MAGIC.len() + 4 + TRAILER_LEN {
        return Err(TraceCodecError::new("input shorter than the fixed header"));
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let mut r = ByteReader { bytes: body, pos: 0 };
    let header = parse_header(&mut r)?;
    let payload = &body[r.pos..];
    let runs_len = header.runs.checked_mul(ENTRY_LEN as u64);
    let items_len = header.items.checked_mul(ENTRY_LEN as u64);
    match runs_len.zip(items_len).and_then(|(runs, items)| runs.checked_add(items)) {
        Some(len) if len == payload.len() as u64 => {}
        _ => {
            return Err(TraceCodecError::new(format!(
                "{} runs and {} items do not fill the {}-byte payload",
                header.runs,
                header.items,
                payload.len()
            )))
        }
    }
    let (runs, items) = payload.split_at(header.runs as usize * ENTRY_LEN);
    Ok((header, runs, items))
}

/// Check that the streams and the event counts agree, and that replay can
/// walk every entry: each fetch run holds at least one instruction and
/// ends at or below `u32::MAX`; a write leader carries no run and a marker
/// no bit besides its marker, restore and stack-pointer bits; the runs
/// hold exactly the instructions, the leaders and their runs exactly the
/// loads and stores (at least one load per read leader and one store per
/// write leader), the markers exactly the saves and restores; no count
/// exceeds the instructions and no more branches are taken than there are.
/// Everything replay derives — hits as accesses minus misses, the cycle
/// total — then stays in range.
fn check_streams(
    runs: impl Iterator<Item = u64>,
    items: impl Iterator<Item = u64>,
    s: &TraceSummary,
) -> Result<(), TraceCodecError> {
    let error = |message: String| Err(TraceCodecError::new(message));
    let overflow = || TraceCodecError::new("the streams' counts overflow");
    let mut instructions = 0u64;
    for (i, entry) in runs.enumerate() {
        let (pc, count) = run_parts(entry);
        if count == 0 {
            return error(format!("fetch run {i} is empty"));
        }
        if u64::from(pc) + 4 * (u64::from(count) - 1) > u64::from(u32::MAX) {
            return error(format!("fetch run {i} wraps past the top of the address space"));
        }
        instructions = instructions.checked_add(count.into()).ok_or_else(overflow)?;
    }
    let (mut reads, mut writes, mut saves, mut restores, mut accesses) = (0u64, 0, 0, 0, 0u64);
    for (i, item) in items.enumerate() {
        if item & FOLD_MARKER_BIT != 0 {
            if item & !(FOLD_MARKER_BIT | FOLD_RESTORE_BIT | u64::from(u32::MAX)) != 0 {
                return error(format!("memory item {i}: a marker with stray bits {item:#018x}"));
            }
            if item & FOLD_RESTORE_BIT != 0 {
                restores += 1;
            } else {
                saves += 1;
            }
        } else if item & TagCache::WRITE_BIT != 0 {
            if item >> TagCache::MEM_RUN_SHIFT != 0 {
                return error(format!("memory item {i}: a write leader with a run"));
            }
            writes += 1;
            accesses += 1;
        } else {
            reads += 1;
            accesses =
                accesses.checked_add(1 + (item >> TagCache::MEM_RUN_SHIFT)).ok_or_else(overflow)?;
        }
    }
    if s.instructions != instructions {
        return error(format!(
            "{} instructions, but the fetch runs hold {instructions}",
            s.instructions
        ));
    }
    if s.counts().iter().any(|&count| count > s.instructions) {
        return error(format!("an event count exceeds the {} instructions", s.instructions));
    }
    if s.taken_branches > s.branches {
        return error(format!(
            "{} taken branches, but only {} branches",
            s.taken_branches, s.branches
        ));
    }
    if s.loads.checked_add(s.stores) != Some(accesses) {
        return error(format!(
            "{} loads and {} stores, but the memory stream holds {accesses} accesses",
            s.loads, s.stores
        ));
    }
    if s.loads < reads || s.stores < writes {
        return error(format!(
            "{} loads and {} stores cannot lead {reads} read and {writes} write runs",
            s.loads, s.stores
        ));
    }
    if (s.saves, s.restores) != (saves, restores) {
        return error(format!(
            "{} saves and {} restores, but the memory stream marks {saves} and {restores}",
            s.saves, s.restores
        ));
    }
    Ok(())
}

/// Check a serialised trace's trailing [`xxh64`] against everything before
/// it.  This one pass is the format's only integrity check: it covers the
/// header and both streams.
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
    /// Serialise the trace into the versioned binary format (version 6).
    ///
    /// Layout (all integers little-endian): a 248-byte header — the magic
    /// `LTRC`, the [`TRACE_FORMAT_VERSION`], the capturing configuration,
    /// the capturing run's cache statistics and window-trap counts, the 13
    /// event counts of the [`TraceSummary`] and the run and item counts —
    /// then the fetch runs and the folded memory items at 8 bytes apiece,
    /// and a trailing [`xxh64`] over everything before it.
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
        let streams_len = (self.fetch.len() + self.folded.len()) * ENTRY_LEN;
        out.reserve(HEADER_LEN + streams_len + TRAILER_LEN);
        let mut w = ByteWriter(out);
        w.0.extend_from_slice(&TRACE_MAGIC);
        w.u32(TRACE_FORMAT_VERSION);
        encode_config(&mut w, &self.captured);
        encode_cache_stats(&mut w, &self.base_icache);
        encode_cache_stats(&mut w, &self.base_dcache);
        w.u64(self.base_overflows);
        w.u64(self.base_underflows);
        for count in self.summary.counts() {
            w.u64(count);
        }
        w.u64(self.fetch.len() as u64);
        w.u64(self.folded.len() as u64);
        debug_assert_eq!(out.len() - start, HEADER_LEN);
        for stream in [&self.fetch, &self.folded] {
            let at = out.len();
            out.resize(at + stream.len() * ENTRY_LEN, 0);
            for (bytes, entry) in out[at..].chunks_exact_mut(ENTRY_LEN).zip(stream) {
                bytes.copy_from_slice(&entry.to_le_bytes());
            }
        }
        let checksum = xxh64(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Decode only the header of a serialised trace — O(header) regardless
    /// of how long the streams are, because neither stream nor the trailing
    /// checksum is read.
    ///
    /// This is the *peek* half of the lazy-materialization contract: a store
    /// layer can check the format version, the capturing configuration and
    /// the stream lengths of a multi-megabyte trace entry without paying the
    /// full decode.  It is **not** an integrity check — a bit flip in a
    /// stream passes `peek_header` and is only caught by
    /// [`Trace::from_bytes`] — so callers must still decode fully before
    /// trusting the streams.
    pub fn peek_header(bytes: &[u8]) -> Result<TraceHeader, TraceCodecError> {
        Ok(parse_layout(bytes)?.0)
    }

    /// Validate a serialised trace without building it: the header fields,
    /// the stream lengths, every check [`Trace::from_bytes`] makes of the
    /// streams against the counts, and the trailing checksum over every
    /// byte.  Returns the parsed header.
    ///
    /// Allocates nothing for the streams, which makes it the right
    /// integrity pass for `store doctor`: it accepts exactly the inputs
    /// `from_bytes` accepts.
    pub fn validate(bytes: &[u8]) -> Result<TraceHeader, TraceCodecError> {
        let (header, runs, items) = parse_layout(bytes)?;
        check_streams(words(runs), words(items), &header.summary)?;
        verify_trailer(bytes)?;
        Ok(header)
    }

    /// Decode a trace serialised by [`Trace::to_bytes`]: the trailing
    /// checksum, the header, one bulk read per stream, and one validation
    /// pass of the streams against the event counts.
    ///
    /// Fails — rather than ever producing a trace replay could mis-handle —
    /// on a checksum mismatch, a bad magic, a different format version, a
    /// stream length the payload cannot hold, truncated or trailing bytes,
    /// counts that disagree with the streams, or any malformed field.
    /// Nothing is derived: on success the decoded trace is exactly the one
    /// serialised.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceCodecError> {
        verify_trailer(bytes)?;
        let (header, runs, items) = parse_layout(bytes)?;
        let fetch: Vec<u64> = words(runs).collect();
        let folded: Vec<u64> = words(items).collect();
        check_streams(fetch.iter().copied(), folded.iter().copied(), &header.summary)?;
        Ok(Trace {
            fetch,
            folded,
            summary: header.summary,
            captured: header.captured,
            base_icache: header.base_icache,
            base_dcache: header.base_dcache,
            base_overflows: header.base_overflows,
            base_underflows: header.base_underflows,
            facts: LazyFacts::default(),
        })
    }
}

/// Closed-form cycle reconstruction behind every replay result (mirrors
/// `Cpu::step`'s charges): given a
/// configuration's cache behaviour and window-trap counts, rebuild the exact
/// [`Stats`] a full run would produce, enforcing the cycle budget as a bound
/// on the run total.  The arithmetic is checked: a total beyond `u64` is
/// beyond every budget, so it fails like any run past the budget.
fn reconstruct_stats(
    s: &TraceSummary,
    config: &LeonConfig,
    icache: CacheStats,
    dcache: CacheStats,
    window_overflows: u64,
    window_underflows: u64,
    max_cycles: u64,
) -> Result<Stats, SimError> {
    let over = || SimError::CycleLimitExceeded { limit: max_cycles };
    let times = |count: u64, cost: u64| count.checked_mul(cost).ok_or_else(over);
    let m = &config.memory;
    let fill = |line_words: u8| {
        u64::from(m.read_first) + (u64::from(line_words) - 1) * u64::from(m.read_burst)
    };
    let dread_hit: u64 = if config.dcache_fast_read { 0 } else { 1 };
    let dwrite_hit: u64 = if config.dcache_fast_write { 0 } else { 1 };

    let load_use_stalls = times(s.load_use, config.iu.load_delay.into())?;
    let icc_hold_stalls = if config.iu.icc_hold { s.icc_branch } else { 0 };
    let traps = window_overflows.checked_add(window_underflows).ok_or_else(over)?;
    let trap_cost = crate::cpu::WINDOW_TRAP_OVERHEAD + u64::from(crate::cpu::WINDOW_TRAP_REGS);
    let terms = [
        s.instructions,
        times(icache.read_misses, fill(config.icache.line_words))?,
        if config.iu.fast_decode { 0 } else { s.slow_decode },
        load_use_stalls,
        icc_hold_stalls,
        times(s.mul_ops, (config.iu.multiplier.latency() - 1).into())?,
        times(s.div_ops, (config.iu.divider.latency() - 1).into())?,
        s.taken_branches,
        times(s.calls, if config.iu.fast_jump { 1 } else { 2 })?,
        times(dcache.read_hits, dread_hit)?,
        times(dcache.read_misses, dread_hit + fill(config.dcache.line_words))?,
        times(dcache.write_hits, dwrite_hit)?,
        times(dcache.write_misses, dwrite_hit + 1)?,
        times(traps, trap_cost)?,
    ];
    let cycles =
        terms.iter().try_fold(0u64, |sum, &term| sum.checked_add(term)).ok_or_else(over)?;
    if cycles > max_cycles {
        return Err(over());
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
/// A one-configuration [`replay_batch`]: at most one walk per trace stream,
/// and none for a stream whose statistics the capturing run, a closed form
/// or an earlier walk of the same class on this `Trace` value already gives
/// (see [`ReplayBatch`]); the same errors — `InvalidConfig` for a
/// structurally invalid configuration, `CycleLimitExceeded` past the
/// budget.  Repeated validation replays of one recommendation therefore
/// walk once per trace.
pub fn replay(trace: &Trace, config: &LeonConfig, max_cycles: u64) -> Result<Stats, SimError> {
    replay_batch(trace, std::slice::from_ref(config), max_cycles)
        .pop()
        .expect("a one-configuration batch has one result")
}

// ---------------------------------------------------------------------------
// Closed-form facts: line footprints and window depth
// ---------------------------------------------------------------------------

/// Lines of 16 bytes a footprint ring holds: 4096, the sets of the
/// largest way (64 KB of 16-byte lines), so no valid geometry has more.  A
/// stream whose lines span more than 64 KB can conflict under every
/// geometry and is walked.
const FOOTPRINT_LINES: u32 = 4096;

/// What one access stream touches at one line size, when all its lines fall
/// within 4096 consecutive 16-byte lines (64 KB, the largest way).
///
/// In a cache with at least [`LineFootprint::span`] sets per way, each of
/// those lines owns its set: nothing is ever evicted and the replacement
/// policy never runs (a miss always finds an invalid way first).  So for
/// any number of ways and any policy, the misses are exactly the counts
/// below and the hits are the accesses minus them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineFootprint {
    /// First and last touched line number (`address / line bytes`); `None`
    /// for a stream without accesses.
    pub lines: Option<(u32, u32)>,
    /// Lines read at least once: the first read of each line misses.
    pub read_misses: u64,
    /// Writes to a line no read has filled yet (the caches are
    /// no-write-allocate, so a write fills nothing).
    pub write_misses: u64,
}

impl LineFootprint {
    /// Consecutive lines from the first touched one to the last (0 when
    /// nothing was touched).
    pub fn span(&self) -> u32 {
        self.lines.map_or(0, |(first, last)| last - first + 1)
    }
}

/// One stream's footprint at both valid line sizes; `None` where the
/// stream's lines of that size span more than 64 KB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamFootprint {
    /// At 16-byte (4-word) lines.
    pub line16: Option<LineFootprint>,
    /// At 32-byte (8-word) lines.
    pub line32: Option<LineFootprint>,
}

impl StreamFootprint {
    /// Derive a stream's footprint from its accesses `(address, write)` in
    /// one pass.  Ring slots are taken before the stream's bounds are
    /// known: when its lines turn out to fit the rings, no two of them
    /// shared a slot and the counts are exact; otherwise they are dropped.
    fn derive(accesses: impl Iterator<Item = (u32, bool)>) -> StreamFootprint {
        let mut ring = FootprintRing::new();
        let (mut low, mut high) = (u32::MAX, 0);
        // a read of the line the previous read filled changes nothing
        let mut read_line = None;
        for (addr, write) in accesses {
            if write {
                ring.write(addr);
            } else if read_line != Some(addr >> 4) {
                read_line = Some(addr >> 4);
                ring.read(addr);
            } else {
                continue;
            }
            (low, high) = (low.min(addr), high.max(addr));
        }
        ring.finish((low <= high).then_some((low, high)))
    }

    /// `cache`'s statistics in closed form, when the stream cannot conflict
    /// in it: its lines at `cache`'s line size span at most one way's sets.
    /// `reads` and `writes` are the stream's access totals.
    fn closed_form(&self, cache: &CacheConfig, reads: u64, writes: u64) -> Option<CacheStats> {
        let footprint = if cache.line_words == 4 { self.line16 } else { self.line32 };
        let footprint = footprint.filter(|f| f.span() <= cache.lines_per_way())?;
        debug_assert!(footprint.read_misses <= reads && footprint.write_misses <= writes);
        Some(CacheStats {
            read_hits: reads - footprint.read_misses,
            read_misses: footprint.read_misses,
            write_hits: writes - footprint.write_misses,
            write_misses: footprint.write_misses,
        })
    }
}

/// The memory stream's closed-form facts ([`Trace::mem_facts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemFacts {
    /// Deepest window nesting (`save`s minus `restore`s) the run reaches.
    /// `None` when a `restore` happens at depth 0 — a real run fails there,
    /// so only a hostile decoded trace holds one — which disables the
    /// window shortcut.
    pub max_depth: Option<u64>,
    /// Footprint of the loads and stores (no window-trap traffic).
    pub data: StreamFootprint,
}

impl MemFacts {
    /// True when `windows` hardware windows never trap on this stream.  One
    /// window is reserved and the first is resident from the start, so a
    /// `save` at depth `d` overflows only when `d + 1 ≥ windows - 1`, and a
    /// `restore` underflows only at depth 0: a count of at least the
    /// maximum depth + 2 does neither.
    pub(crate) fn trap_free(&self, windows: u8) -> bool {
        self.max_depth.is_some_and(|depth| u64::from(windows) >= depth.saturating_add(2))
    }

    /// Derive the facts from the folded memory stream.  A read leader's
    /// folded followers are hits in every cache, so only leaders count.
    fn derive(folded: &[u64]) -> MemFacts {
        let (mut depth, mut max_depth, mut balanced) = (0u64, 0u64, true);
        for &item in folded.iter().filter(|&&item| item & FOLD_MARKER_BIT != 0) {
            if item & FOLD_RESTORE_BIT == 0 {
                depth += 1;
                max_depth = max_depth.max(depth);
            } else if depth == 0 {
                balanced = false;
            } else {
                depth -= 1;
            }
        }
        let data = StreamFootprint::derive(
            folded
                .iter()
                .filter(|&&item| item & FOLD_MARKER_BIT == 0)
                .map(|&item| (item as u32, item & TagCache::WRITE_BIT != 0)),
        );
        MemFacts { max_depth: balanced.then_some(max_depth), data }
    }
}

/// One bit per 16-byte line, set once a read fills the line; the halves of
/// a 32-byte line are adjacent bits of one word.  For a stream whose lines
/// span at most 64 KB, each line owns one slot of this fixed-size ring, so
/// a derivation never allocates, whatever addresses the stream holds.
struct FootprintRing {
    filled: [u64; FOOTPRINT_LINES as usize / 64],
    /// Write misses at 16- and 32-byte lines.
    write_misses: [u64; 2],
}

impl FootprintRing {
    fn new() -> FootprintRing {
        FootprintRing { filled: [0; FOOTPRINT_LINES as usize / 64], write_misses: [0; 2] }
    }

    /// The word and bit of `addr`'s 16-byte line.
    #[inline]
    fn slot(addr: u32) -> (usize, u32) {
        let line = (addr >> 4) % FOOTPRINT_LINES;
        ((line / 64) as usize, line % 64)
    }

    #[inline]
    fn read(&mut self, addr: u32) {
        let (word, bit) = FootprintRing::slot(addr);
        self.filled[word] |= 1 << bit;
    }

    #[inline]
    fn write(&mut self, addr: u32) {
        let (word, bit) = FootprintRing::slot(addr);
        let filled = self.filled[word];
        self.write_misses[0] += !filled >> bit & 1;
        self.write_misses[1] += (filled >> (bit & !1) & 0b11 == 0) as u64;
    }

    /// The footprints, given the stream's lowest and highest address: at
    /// each line size, exact when its lines span at most 64 KB (no two
    /// then share a slot), `None` otherwise.
    fn finish(&self, bounds: Option<(u32, u32)>) -> StreamFootprint {
        let footprint = |line_shift: u32, read_misses: u64, write_misses: u64| {
            let lines = bounds.map(|(low, high)| (low >> line_shift, high >> line_shift));
            let fits = lines.is_none_or(|(first, last)| last - first < (64 << 10) >> line_shift);
            fits.then_some(LineFootprint { lines, read_misses, write_misses })
        };
        // the first read of each line set its bit, or one of its halves'
        let lines16 = self.filled.iter().map(|word| word.count_ones() as u64).sum();
        let halves = |word: u64| (word | word >> 1) & 0x5555_5555_5555_5555;
        let lines32 = self.filled.iter().map(|&word| halves(word).count_ones() as u64).sum();
        StreamFootprint {
            line16: footprint(4, lines16, self.write_misses[0]),
            line32: footprint(5, lines32, self.write_misses[1]),
        }
    }
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

/// Where one stream's statistics come from for one configuration.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// The capturing run's statistics, reused verbatim.
    Captured,
    /// Known in closed form: the stream cannot conflict in the cache (and,
    /// for the memory stream, the window count cannot trap).
    Closed(CacheStats),
    /// Remembered from an earlier walk of the same class on this trace:
    /// the cache statistics, window overflows and underflows (no traps for
    /// the fetch stream).
    Remembered(CacheStats, u64, u64),
    /// The result of this walk class of the stream.
    Walked(usize),
}

/// Per-configuration disposition within a [`ReplayBatch`].
#[derive(Clone, Debug)]
enum Disposition {
    /// Fails before any walk — the configuration is invalid, or the run's
    /// instructions alone exceed the budget; [`crate::simulate`] fails with
    /// exactly this error.
    Failed(SimError),
    /// Valid: where this configuration's d-cache (with window traps) and
    /// i-cache statistics come from.
    Valid { mem: Source, fetch: Source },
}

/// The class index of `key`, appending it on first appearance.
fn intern<K: Copy + Eq + Hash>(
    key: K,
    classes: &mut Vec<K>,
    index: &mut HashMap<K, usize>,
) -> usize {
    *index.entry(key).or_insert_with(|| {
        classes.push(key);
        classes.len() - 1
    })
}

/// Each interned class's source: its remembered result where `remembered`
/// has one, else a walk.  Only the classes left to walk stay in `classes`,
/// renumbered in order.
fn recall<K: Copy>(classes: &mut Vec<K>, remembered: impl Fn(&K) -> Option<Source>) -> Vec<Source> {
    let mut left = Vec::new();
    let sources = classes
        .iter()
        .map(|class| {
            remembered(class).unwrap_or_else(|| {
                left.push(*class);
                Source::Walked(left.len() - 1)
            })
        })
        .collect();
    *classes = left;
    sources
}

/// A planned batch replay: every configuration of a sweep partitioned into
/// *behavior classes*, so that one pass over each trace stream retimes the
/// whole batch.
///
/// The paper's central experiments — the 52-variable cost table and the
/// exhaustive d-cache sweep — evaluate many configurations against one fixed
/// program behaviour.  Each configuration's cache statistics come from one
/// of four sources per stream: the capturing run (same geometry), a closed
/// form (a cache the stream cannot conflict in, see [`LineFootprint`], and
/// for the d-cache a window count of at least the maximum nesting depth +
/// 2, which cannot trap), a walk of the same class remembered on this
/// [`Trace`] value, or a walk class.  The plan walks each stream **once**
/// for all its classes left to walk, updating one lean cache model per
/// class simultaneously ([`crate::cache`]'s `TagCache`), and reconstructs
/// every configuration's [`Stats`] from its sources — bit-identical to full
/// simulation and to any other partition of the same configurations into
/// batches (pinned by `tests/replay_equivalence.rs`).
///
/// A walk's result is a pure function of the trace's streams and the
/// class, so [`ReplayBatch::finish`] remembers each walked class's result
/// on the trace, and every later plan over the same `Trace` value finishes
/// that class without a walk.  A clone or a freshly decoded trace
/// remembers nothing.
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
    /// Plan a batch: validate every configuration, finish what the captured
    /// run, a closed form or a remembered walk of the same class answers,
    /// and partition the rest into distinct behavior classes
    /// (first-appearance order, so the plan is deterministic for a given
    /// configuration sequence).  Performs no walks; derives the trace's
    /// closed-form facts for a stream on the first plan that needs them
    /// ([`Trace::mem_facts`], [`Trace::fetch_footprint`]).  Takes the
    /// trace's lock on remembered walks at most once, for the lookups
    /// alone.
    pub fn new(trace: &'a Trace, configs: &[LeonConfig], max_cycles: u64) -> ReplayBatch<'a> {
        let captured = &trace.captured;
        let summary = &trace.summary;
        let mut mem_classes = Vec::new();
        let mut fetch_classes = Vec::new();
        let mut mem_index: HashMap<MemClass, usize> = HashMap::new();
        let mut fetch_index: HashMap<CacheConfig, usize> = HashMap::new();
        let mut dispositions: Vec<Disposition> = configs
            .iter()
            .map(|config| {
                if let Err(e) = config.validate() {
                    return Disposition::Failed(SimError::InvalidConfig(e.to_string()));
                }
                // every instruction costs at least one cycle, so no walk
                // can bring such a run back within the budget
                if summary.instructions > max_cycles {
                    return Disposition::Failed(SimError::CycleLimitExceeded { limit: max_cycles });
                }
                let windows = config.iu.reg_windows;
                let mem = if config.dcache == captured.dcache && windows == captured.iu.reg_windows
                {
                    Source::Captured
                } else {
                    let facts = trace.mem_facts();
                    let trap_free = facts.trap_free(windows);
                    let closed =
                        facts.data.closed_form(&config.dcache, summary.loads, summary.stores);
                    if trap_free
                        && config.dcache == captured.dcache
                        && facts.trap_free(captured.iu.reg_windows)
                    {
                        Source::Captured
                    } else if let Some(stats) = closed.filter(|_| trap_free) {
                        Source::Closed(stats)
                    } else {
                        // every trap-free count walks as the smallest one
                        let reg_windows = match facts.max_depth {
                            Some(depth) if trap_free => u8::try_from(depth + 2)
                                .expect("a trap-free count is at most the configured count"),
                            _ => windows,
                        };
                        let key = MemClass { dcache: config.dcache, reg_windows };
                        Source::Walked(intern(key, &mut mem_classes, &mut mem_index))
                    }
                };
                let fetch = if config.icache == captured.icache {
                    Source::Captured
                } else if let Some(stats) =
                    trace.fetch_footprint().closed_form(&config.icache, summary.instructions, 0)
                {
                    Source::Closed(stats)
                } else {
                    Source::Walked(intern(config.icache, &mut fetch_classes, &mut fetch_index))
                };
                Disposition::Valid { mem, fetch }
            })
            .collect();
        if !mem_classes.is_empty() || !fetch_classes.is_empty() {
            let walked = trace.facts.walked.lock().unwrap_or_else(PoisonError::into_inner);
            let mem_sources = recall(&mut mem_classes, |class| {
                walked
                    .mem
                    .get(class)
                    .map(|&(stats, over, under)| Source::Remembered(stats, over, under))
            });
            let fetch_sources = recall(&mut fetch_classes, |class| {
                walked.fetch.get(class).map(|&stats| Source::Remembered(stats, 0, 0))
            });
            drop(walked);
            for disposition in &mut dispositions {
                if let Disposition::Valid { mem, fetch } = disposition {
                    if let Source::Walked(class) = *mem {
                        *mem = mem_sources[class];
                    }
                    if let Source::Walked(class) = *fetch {
                        *fetch = fetch_sources[class];
                    }
                }
            }
        }
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

    /// Number of distinct memory-walk behavior classes this plan still has
    /// to walk (configurations answered by the capturing run, in closed
    /// form or by a remembered walk have none).
    pub fn mem_class_count(&self) -> usize {
        self.mem_classes.len()
    }

    /// Number of distinct fetch-walk behavior classes this plan still has
    /// to walk (configurations answered by the capturing run, in closed
    /// form or by a remembered walk have none).
    pub fn fetch_class_count(&self) -> usize {
        self.fetch_classes.len()
    }

    /// Total distinct behavior classes this plan still has to walk (the
    /// batch's walk budget: no caller partitioning can make the engine
    /// perform more walks than this).  0 when every configuration is
    /// answered without a walk.
    pub fn class_count(&self) -> usize {
        self.mem_classes.len() + self.fetch_classes.len()
    }

    /// Walk the memory stream **once**, re-simulating every memory class in
    /// `span` simultaneously: each class's lean d-cache model sees exactly
    /// the access sequence a full simulation would have produced, and one
    /// resident-window automaton per distinct window count re-derives the
    /// traps shared by every class with that count.  Returns each class's
    /// `(dcache stats, overflows, underflows)` in span order.  An empty span
    /// walks nothing.
    pub fn walk_mem_span(&self, span: Range<usize>) -> Vec<(CacheStats, u64, u64)> {
        if span.is_empty() {
            return Vec::new();
        }
        let classes = &self.mem_classes[span];
        record_trace_walk();
        let mut walker = MemSpanWalker::new(classes);
        if walker.groups.len() == 1 {
            walker.walk_folded_blocked(&self.trace.folded);
        } else {
            walker.walk_folded_interleaved(&self.trace.folded);
        }
        // hit counts are derived, not maintained: every class saw exactly
        // loads + 16·underflows reads and stores + 16·overflows writes
        let summary = &self.trace.summary;
        let trap_regs = u64::from(crate::cpu::WINDOW_TRAP_REGS);
        let mut results = vec![(CacheStats::default(), 0, 0); classes.len()];
        for group in &walker.groups {
            let reads = summary.loads + group.underflows * trap_regs;
            let writes = summary.stores + group.overflows * trap_regs;
            for &member in &group.members {
                let stats = walker.caches[member].stats(reads, writes);
                results[member] = (stats, group.overflows, group.underflows);
            }
        }
        results
    }

    /// Walk the fetch stream **once**, re-simulating every fetch class in
    /// `span` simultaneously.  Returns each class's i-cache statistics in
    /// span order.  An empty span walks nothing.
    pub fn walk_fetch_span(&self, span: Range<usize>) -> Vec<CacheStats> {
        if span.is_empty() {
            return Vec::new();
        }
        let classes = &self.fetch_classes[span];
        record_trace_walk();
        let mut caches: Vec<TagCache> = classes.iter().map(|&cache| TagCache::new(cache)).collect();
        walk_runs(&mut caches, &self.trace.fetch);
        // every class fetched exactly one read per dynamic instruction
        let fetches = self.trace.summary.instructions;
        caches.iter().map(|cache| cache.stats(fetches, 0)).collect()
    }

    /// Reconstruct every configuration's [`Stats`] closed-form from the walk
    /// results (`mem` and `fetch` are the per-class results of this plan's
    /// span walks, concatenated in class order).  Element `i` equals
    /// `replay(trace, &configs[i], max_cycles)` exactly, including errors.
    ///
    /// Remembers each walked class's result on the trace, so later plans
    /// over the same `Trace` value finish those classes without a walk.
    /// Two plans that walked the same class record the same result.
    pub fn finish(
        &self,
        mem: &[(CacheStats, u64, u64)],
        fetch: &[CacheStats],
    ) -> Vec<Result<Stats, SimError>> {
        assert_eq!(mem.len(), self.mem_classes.len(), "one walk result per memory class");
        assert_eq!(fetch.len(), self.fetch_classes.len(), "one walk result per fetch class");
        let trace = self.trace;
        if !mem.is_empty() || !fetch.is_empty() {
            // each insert is a whole value, so a poisoned map is still valid
            let mut walked = trace.facts.walked.lock().unwrap_or_else(PoisonError::into_inner);
            walked.mem.extend(self.mem_classes.iter().copied().zip(mem.iter().copied()));
            walked.fetch.extend(self.fetch_classes.iter().copied().zip(fetch.iter().copied()));
        }
        self.dispositions
            .iter()
            .zip(&self.configs)
            .map(|(disposition, config)| match disposition {
                Disposition::Failed(error) => Err(error.clone()),
                Disposition::Valid { mem: mem_source, fetch: fetch_source } => {
                    let icache = match *fetch_source {
                        Source::Captured => trace.base_icache,
                        Source::Closed(stats) | Source::Remembered(stats, ..) => stats,
                        Source::Walked(class) => fetch[class],
                    };
                    let (dcache, overflows, underflows) = match *mem_source {
                        Source::Captured => {
                            (trace.base_dcache, trace.base_overflows, trace.base_underflows)
                        }
                        Source::Closed(stats) => (stats, 0, 0),
                        Source::Remembered(stats, overflows, underflows) => {
                            (stats, overflows, underflows)
                        }
                        Source::Walked(class) => mem[class],
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

/// The memory walk of one class span: one lean d-cache model per class and
/// one resident-window automaton per distinct window count.
struct MemSpanWalker {
    caches: Vec<TagCache>,
    groups: Vec<WindowGroup>,
}

impl MemSpanWalker {
    fn new(classes: &[MemClass]) -> MemSpanWalker {
        let caches = classes.iter().map(|class| TagCache::new(class.dcache)).collect();
        // one automaton per distinct window count; members index `caches`
        let mut groups: Vec<WindowGroup> = Vec::new();
        for (i, class) in classes.iter().enumerate() {
            let nwindows = class.reg_windows as u32;
            match groups.iter_mut().find(|g| g.nwindows == nwindows) {
                Some(group) => group.members.push(i),
                None => groups.push(WindowGroup {
                    nwindows,
                    resident: 1,
                    overflows: 0,
                    underflows: 0,
                    members: vec![i],
                }),
            }
        }
        MemSpanWalker { caches, groups }
    }

    /// Single-window-count path: the folded items stream into
    /// [`WALK_BLOCK`]-entry buffers that fan out class by class (cache
    /// blocking — the folded-item encoding *is* the block-entry encoding, so
    /// a leader whose line is not already established is pushed verbatim).
    /// Walk-time folding re-merges items across non-trapping markers and
    /// capture-time run caps, recovering the full elision: every re-merged
    /// access is a guaranteed hit whose only state effect (LRU clock/stamp)
    /// is identical either way, and flush `run_line` resets and [`MAX_RUN`]
    /// splits are stats-invisible for the same reason.
    fn walk_folded_blocked(&mut self, folded: &[u64]) {
        let group = &mut self.groups[0];
        let caches = &mut self.caches;
        let block = &mut Vec::with_capacity(WALK_BLOCK + 2 * TRAP_ACCESSES);
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

        // append a leader (with the run it carries), or merge it and its run
        // into the last entry when that entry established its line: after
        // that read they are all guaranteed hits
        let push = |block: &mut Vec<u64>, run_line: &mut Option<u32>, entry: u64| {
            let line = entry as u32 >> 4;
            let accesses = 1 + (entry >> TagCache::MEM_RUN_SHIFT);
            if *run_line == Some(line) {
                let last = block.last_mut().expect("a run leader precedes every extension");
                if (*last >> TagCache::MEM_RUN_SHIFT) + accesses <= MAX_RUN {
                    *last += accesses * RUN_ONE;
                    return;
                }
            }
            block.push(entry);
            *run_line = (entry & TagCache::WRITE_BIT == 0).then_some(line);
        };

        for &item in folded {
            if item & FOLD_MARKER_BIT != 0 {
                let sp = item as u32;
                if item & FOLD_RESTORE_BIT != 0 {
                    if group.resident <= 1 {
                        group.underflows += 1;
                        for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                            push(block, &mut run_line, u64::from(sp.wrapping_sub(4 + i * 4)));
                        }
                    } else {
                        group.resident -= 1;
                    }
                } else if group.resident >= group.nwindows - 1 {
                    group.overflows += 1;
                    for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                        let spill = u64::from(sp.wrapping_sub(4 + i * 4)) | TagCache::WRITE_BIT;
                        push(block, &mut run_line, spill);
                    }
                } else {
                    group.resident += 1;
                }
            } else {
                push(block, &mut run_line, item);
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

/// Walk the fetch runs through every class's i-cache model (the fetch
/// counterpart of [`MemSpanWalker::walk_folded_blocked`]).
///
/// Each run is split at 16-byte blocks, and a piece in the block of the
/// previous entry merges into that entry's run: after the leading fetch the
/// line is present in every class, so the followers are guaranteed hits
/// (probed by nobody, clock-accounted under LRU).  The entries are the
/// maximal stretches of consecutive fetches within one block.
fn walk_runs(caches: &mut [TagCache], runs: &[u64]) {
    let block = &mut Vec::with_capacity(WALK_BLOCK);
    let mut run_line: Option<u32> = None;
    let flush = |block: &mut Vec<u64>, run_line: &mut Option<u32>, caches: &mut [TagCache]| {
        for cache in caches.iter_mut() {
            cache.run_mem_block(block);
        }
        block.clear();
        *run_line = None;
    };
    for &entry in runs {
        let (mut pc, count) = run_parts(entry);
        let mut left = u64::from(count);
        loop {
            // the fetches at pc, pc + 4, … that stay in pc's block
            let fetches = (u64::from(19 - (pc & 15)) / 4).min(left);
            let merged = run_line == Some(pc >> 4)
                && block
                    .last()
                    .is_some_and(|&last| (last >> TagCache::MEM_RUN_SHIFT) + fetches <= MAX_RUN);
            if merged {
                *block.last_mut().expect("a run leader precedes every extension") +=
                    fetches * RUN_ONE;
            } else {
                block.push(u64::from(pc) | ((fetches - 1) * RUN_ONE));
                run_line = Some(pc >> 4);
                if block.len() >= WALK_BLOCK {
                    flush(block, &mut run_line, caches);
                }
            }
            left -= fetches;
            if left == 0 {
                break;
            }
            // a checked run ends at or below u32::MAX, so another block
            // follows
            pc = (pc | 15) + 1;
        }
    }
    flush(block, &mut run_line, caches);
}

/// Retime every configuration of a batch against one captured trace in a
/// single pass per trace stream.
///
/// Element `i` of the result equals `replay(trace, &configs[i], max_cycles)`
/// bit-for-bit (including `InvalidConfig` and `CycleLimitExceeded` errors),
/// but a batch of N configurations performs at most **two** trace walks —
/// one over the memory stream for all distinct (d-cache geometry, window
/// count) classes, one over the fetch stream for all distinct i-cache
/// geometries, each skipped when the stream has no class — where N
/// one-configuration replays perform up to 2N.  Callers with a worker pool
/// should partition the classes instead (see [`ReplayBatch`]).
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
    let recorder = cpu.take_trace().expect("trace was enabled before the run");
    let trace = recorder.finish(config, &result.stats);
    debug_assert_eq!(trace.summary.instructions, result.stats.instructions);
    debug_assert_eq!(trace.summary.loads, result.stats.loads);
    debug_assert_eq!(trace.summary.stores, result.stats.stores);
    debug_assert_eq!(trace.summary.branches, result.stats.branches);
    Ok((result, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::config::{Multiplier, ReplacementPolicy};
    use leon_isa::{Asm, Reg};

    /// Serialises the tests that walk a trace: two of them assert exact
    /// deltas of the process-wide walk counters, which any concurrent walk
    /// would disturb.
    static WALKS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn walk_lock() -> std::sync::MutexGuard<'static, ()> {
        WALKS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

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

    /// A program no closed form covers: 1.6 KB of straight-line text (a
    /// 1 KB i-cache way conflicts), data 128 KB apart (so does every
    /// d-cache) and recursion 12 deep (fewer than 14 windows trap).
    fn wide_program() -> leon_isa::Program {
        let mut a = Asm::new("wide");
        a.set(Reg::L0, leon_isa::DATA_BASE);
        a.set(Reg::L1, 3);
        a.set(Reg::L4, 128 * 1024);
        a.label("loop");
        for _ in 0..400 {
            a.add(Reg::L2, Reg::L2, 1);
        }
        a.st(Reg::L2, Reg::L0, 0);
        a.ld(Reg::L3, Reg::L0, 4);
        a.add(Reg::L0, Reg::L0, Reg::L4);
        a.subcc(Reg::L1, Reg::L1, 1);
        a.bne("loop");
        a.set(Reg::O0, 11);
        a.call("func");
        a.halt();
        a.label("func");
        a.save(Reg::SP, Reg::SP, -96);
        a.st(Reg::I0, Reg::SP, 64);
        a.cmp(Reg::I0, 0);
        a.be("leaf");
        a.add(Reg::O0, Reg::I0, -1_i32);
        a.call("func");
        a.label("leaf");
        a.ld(Reg::L0, Reg::SP, 64);
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
                (trace.fetch_runs().len() as u64) < plain.stats.instructions,
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
        let _walks = walk_lock();
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
        let _walks = walk_lock();
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

        // a budget below the instruction count fails before any walk
        let _walks = walk_lock();
        let mut dcache_small = base;
        dcache_small.dcache.way_kb = 1;
        let limit = trace.instructions() - 1;
        let before = trace_walks_performed();
        let replayed = replay(&trace, &dcache_small, limit).unwrap_err();
        assert_eq!(trace_walks_performed(), before, "no walk can bring the run within budget");
        assert_eq!(replayed, crate::simulate(&dcache_small, &program, limit).unwrap_err());
    }

    #[test]
    fn runs_split_where_the_run_field_ends() {
        let _walks = walk_lock();
        // three read leaders of one line, each carrying the longest run an
        // item holds, then a write 128 KB away, so the d-cache is walked:
        // merging all three into one walk entry would overflow the run
        // field, so the walk starts a new entry, which hits; four runs of
        // 2^30 sequential fetches pay for the accesses
        let (_, mut trace) = capture(&LeonConfig::base(), &demo_program(), 1_000_000).unwrap();
        let leader = 0x4000 | MAX_RUN << TagCache::MEM_RUN_SHIFT;
        let loads = 3 * (1 + MAX_RUN);
        trace.fetch = vec![run_entry(0, 1 << 30); 4];
        trace.folded = vec![leader, leader, leader, 0x2_4000 | TagCache::WRITE_BIT];
        trace.summary =
            TraceSummary { instructions: 1 << 32, loads, stores: 1, ..TraceSummary::default() };
        let trace = Trace::from_bytes(&trace.to_bytes()).expect("a well-formed trace");
        assert_eq!(trace.mem_facts().data.line16, None, "the data is walked");
        let mut config = LeonConfig::base();
        config.dcache.way_kb = 1;
        let stats = replay(&trace, &config, u64::MAX).unwrap();
        let expected =
            CacheStats { read_hits: loads - 1, read_misses: 1, write_hits: 0, write_misses: 1 };
        assert_eq!(stats.dcache, expected);
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
        let _walks = walk_lock();
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
        let _walks = walk_lock();
        let base = LeonConfig::base();
        let mut dcache_small = base;
        dcache_small.dcache.way_kb = 1;
        let mut windows_low = base;
        windows_low.iu.reg_windows = 2;
        let mut icache_small = base;
        icache_small.icache.way_kb = 1;
        let mut closed_form = base;
        closed_form.iu.multiplier = Multiplier::M32x32;
        let mut windows_high = base;
        windows_high.iu.reg_windows = 16;
        let mut windows_max = base;
        windows_max.iu.reg_windows = 32;
        let configs = [
            base,
            dcache_small,
            dcache_small,
            windows_low,
            icache_small,
            closed_form,
            base,
            windows_high,
            windows_max,
        ];

        // recursion 13 deep: 8 windows trap, so the d-cache variants walk;
        // the ~40-byte text cannot conflict in a 1 KB way, so the i-cache
        // variant is closed form, and so are 16 and 32 windows — trap-free,
        // over a program with no loads or stores
        let (_, trace) = capture(&base, &recursing_program(), 1_000_000).unwrap();
        let plan = ReplayBatch::new(&trace, &configs, 1_000_000);
        assert_eq!(plan.len(), 9);
        // duplicates and base-geometry configs never create classes
        assert_eq!(plan.mem_class_count(), 2, "dcache_small (deduped) + windows_low");
        assert_eq!(plan.fetch_class_count(), 0, "icache_small is closed form");
        assert_eq!(plan.class_count(), 2);
        let before = trace_walks_performed();
        let mem = plan.walk_mem_span(0..plan.mem_class_count());
        assert_eq!(trace_walks_performed() - before, 1);
        // empty spans — here the whole fetch stream — are free
        let fetch = plan.walk_fetch_span(0..plan.fetch_class_count());
        assert!(fetch.is_empty() && plan.walk_mem_span(0..0).is_empty());
        assert_eq!(trace_walks_performed() - before, 1);
        for (result, config) in plan.finish(&mem, &fetch).iter().zip(&configs) {
            assert_eq!(
                result.as_ref().unwrap(),
                &walked_replay(&trace, config, 1_000_000).unwrap()
            );
        }

        // the wide program walks every variant: 16 and 32 windows are both
        // trap-free there (depth 12) and share one class
        let (_, trace) = capture(&base, &wide_program(), 1_000_000).unwrap();
        let plan = ReplayBatch::new(&trace, &configs, 1_000_000);
        assert_eq!(plan.mem_class_count(), 3, "dcache_small + windows_low + trap-free windows");
        assert_eq!(plan.fetch_class_count(), 1, "icache_small");
        assert_eq!(plan.class_count(), 4);

        // a span walk is exactly one counted pass over the stream
        let before = trace_walks_performed();
        let mem = plan.walk_mem_span(0..plan.mem_class_count());
        assert_eq!(trace_walks_performed() - before, 1);
        let fetch = plan.walk_fetch_span(0..plan.fetch_class_count());
        assert_eq!(trace_walks_performed() - before, 2);

        // split spans produce the same per-class results as the fused pass
        let first = plan.walk_mem_span(0..1);
        let rest = plan.walk_mem_span(1..3);
        assert_eq!(mem, [first, rest].concat());

        let finished = plan.finish(&mem, &fetch);
        for (result, config) in finished.iter().zip(&configs) {
            assert_eq!(result.as_ref().unwrap(), &replay(&trace, config, 1_000_000).unwrap());
            let full = crate::simulate(config, &wide_program(), 1_000_000).unwrap();
            assert_eq!(result.as_ref().unwrap(), &full.stats);
        }
    }

    #[test]
    fn traces_are_shared_across_measurement_workers() {
        // the campaign engine fans replays of one trace out over a worker
        // pool; the trace type must stay plain shareable data
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
    }

    #[test]
    fn fetch_runs_are_maximal_and_hold_every_instruction() {
        let base = LeonConfig::base();
        for program in [demo_program(), recursing_program(), wide_program()] {
            let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
            let runs: Vec<FetchRun> = trace.fetch_runs().collect();
            assert!(runs.iter().all(|r| r.count >= 1), "{}", program.name);
            // a run ends only where the next pc is not the previous pc + 4
            for pair in runs.windows(2) {
                assert_ne!(pair[1].pc, pair[0].pc + 4 * pair[0].count, "{}", program.name);
            }
            let total: u64 = runs.iter().map(|r| u64::from(r.count)).sum();
            assert_eq!(total, run.stats.instructions, "{}", program.name);
        }
    }

    #[test]
    fn binary_codec_round_trips_exactly() {
        let _walks = walk_lock();
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
        assert_eq!(header.summary, trace.summary);
        assert_eq!(
            (header.runs, header.items),
            (trace.fetch.len() as u64, trace.folded.len() as u64)
        );

        // a stream bit flip passes the peek (no integrity claim) but still
        // fails the full decode
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
        assert!(Trace::peek_header(&truncated).is_err(), "stream lengths must mismatch");
    }

    /// Header offsets of the run and item counts (after the magic, version,
    /// configuration, base statistics, traps and the 13 event counts).
    const RUNS_AT: usize = 232;
    const ITEMS_AT: usize = 240;

    #[test]
    fn binary_codec_rejects_damage() {
        let (_, trace) = capture(&LeonConfig::base(), &wide_program(), 1_000_000).unwrap();
        let good = trace.to_bytes();
        assert_eq!(Trace::from_bytes(&good).unwrap(), trace);
        assert_eq!(good[RUNS_AT..RUNS_AT + 8], (trace.fetch.len() as u64).to_le_bytes());
        assert_eq!(good[ITEMS_AT..ITEMS_AT + 8], (trace.folded.len() as u64).to_le_bytes());

        // truncation (both mid-stream and mid-header)
        assert!(Trace::from_bytes(&good[..good.len() - 1]).is_err());
        assert!(Trace::from_bytes(&good[..10]).is_err());
        assert!(Trace::from_bytes(&[]).is_err());

        // a different format version — newer, or a retired one: version 5
        // with its segment indexes, or one that stored one record per
        // eventful instruction (version 4, version 3 with FNV-1a per
        // segment, version 2 with derived data, monolithic version 1) — must
        // be rejected even with a valid checksum over the altered body, by
        // every decoder
        for version in [TRACE_FORMAT_VERSION + 1, 5, 4, 3, 2, 1] {
            let mut versioned = good.clone();
            versioned[4..8].copy_from_slice(&version.to_le_bytes());
            let versioned = rechecksummed(versioned);
            let err = Trace::from_bytes(&versioned).unwrap_err();
            assert!(err.to_string().contains("version"), "got: {err}");
            let err = Trace::peek_header(&versioned).unwrap_err();
            assert!(err.to_string().contains("version"), "got: {err}");
            let err = Trace::validate(&versioned).unwrap_err();
            assert!(err.to_string().contains("version"), "got: {err}");
        }

        // trailing garbage is rejected (the stream lengths no longer match)
        let mut padded = good[..good.len() - 8].to_vec();
        padded.extend_from_slice(&[0u8; 8]);
        let checksum = xxh64(&padded);
        padded.extend_from_slice(&checksum.to_le_bytes());
        assert!(Trace::from_bytes(&padded).is_err());

        // streams and counts replay could not handle, each encoded with a
        // valid checksum: one case per rule, each tripping only its rule,
        // and rejected alike by the full decode and the doctor's pass
        let damaged = |keyword: &str, damage: &dyn Fn(&mut Trace)| {
            let mut bad = trace.clone();
            damage(&mut bad);
            let bytes = bad.to_bytes();
            assert!(Trace::peek_header(&bytes).is_ok(), "{keyword}: the layout is intact");
            for err in [Trace::from_bytes(&bytes), Trace::validate(&bytes).map(|_| bad)]
                .map(|decoded| decoded.unwrap_err())
            {
                assert!(err.to_string().contains(keyword), "expected {keyword:?}, got: {err}");
            }
        };
        let first = |t: &Trace, kind: fn(&MemItem) -> bool| {
            t.folded.iter().position(|&item| kind(&MemItem::of(item))).unwrap()
        };
        let leaders = |t: &Trace, write: bool| {
            t.memory_items()
                .filter(|item| match item {
                    MemItem::Read { .. } => !write,
                    MemItem::Write { .. } => write,
                    _ => false,
                })
                .count() as u64
        };
        damaged("is empty", &|t| {
            let (pc, count) = run_parts(t.fetch[1]);
            t.fetch[1] = run_entry(pc, 0);
            t.summary.instructions -= u64::from(count);
        });
        damaged("wraps past the top", &|t| {
            let (_, count) = run_parts(t.fetch[0]);
            t.fetch[0] = run_entry(u32::MAX - 3, 2);
            t.summary.instructions = t.summary.instructions - u64::from(count) + 2;
        });
        damaged("write leader with a run", &|t| {
            let at = first(t, |item| matches!(item, MemItem::Write { .. }));
            t.folded[at] += RUN_ONE;
            t.summary.stores += 1;
        });
        damaged("stray bits", &|t| {
            let at = first(t, |item| matches!(item, MemItem::Save { .. }));
            t.folded[at] |= 1 << 40;
        });
        damaged("fetch runs hold", &|t| t.summary.instructions += 1);
        damaged("accesses", &|t| t.summary.loads += 1);
        damaged("cannot lead", &|t| {
            let reads = leaders(t, false);
            t.summary.stores += t.summary.loads - (reads - 1);
            t.summary.loads = reads - 1;
        });
        damaged("cannot lead", &|t| {
            let writes = leaders(t, true);
            t.summary.loads += t.summary.stores - (writes - 1);
            t.summary.stores = writes - 1;
        });
        damaged("marks", &|t| t.summary.saves += 1);
        damaged("marks", &|t| t.summary.restores -= 1);
        damaged("exceeds", &|t| t.summary.slow_decode = t.summary.instructions + 1);
        damaged("exceeds", &|t| t.summary.calls = t.summary.instructions + 1);
        damaged("taken branches", &|t| t.summary.taken_branches = t.summary.branches + 1);
        // a run ending exactly at u32::MAX is well-formed
        let mut top = trace.clone();
        let (_, count) = run_parts(top.fetch[0]);
        top.fetch[0] = run_entry(u32::MAX - 3, 1);
        top.summary.instructions = top.summary.instructions - u64::from(count) + 1;
        assert_eq!(Trace::from_bytes(&top.to_bytes()).unwrap(), top);

        // run and item counts the payload cannot hold, up to 2^60 and
        // beyond, are typed errors from every decoder, never an overflow
        // panic
        for (at, value) in [
            (RUNS_AT, 1 << 60),
            (RUNS_AT, u64::MAX),
            (ITEMS_AT, 1 << 60),
            (ITEMS_AT, u64::MAX),
            (RUNS_AT, 1 << 61),
            (ITEMS_AT, (trace.fetch.len() + trace.folded.len()) as u64),
        ] {
            let mut hostile = good.clone();
            hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let hostile = rechecksummed(hostile);
            assert!(Trace::from_bytes(&hostile).is_err(), "{value:#x} at byte {at}");
            assert!(Trace::peek_header(&hostile).is_err(), "{value:#x} at byte {at}");
            assert!(Trace::validate(&hostile).is_err(), "{value:#x} at byte {at}");
        }
        // both counts inflated so that only their sum overflows
        let mut hostile = good.clone();
        hostile[RUNS_AT..RUNS_AT + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        hostile[ITEMS_AT..ITEMS_AT + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = Trace::from_bytes(&rechecksummed(hostile)).unwrap_err();
        assert!(err.to_string().contains("do not fill"), "got: {err}");
    }

    #[test]
    fn reconstruct_stats_turns_overflow_into_a_cycle_limit_error() {
        let (_, trace) = capture(&LeonConfig::base(), &demo_program(), 1_000_000).unwrap();
        let mut config = LeonConfig::base();
        config.memory.read_first = u32::MAX;
        config.memory.read_burst = u32::MAX;
        let huge = CacheStats { read_misses: u64::MAX / 2, ..CacheStats::default() };
        let over = SimError::CycleLimitExceeded { limit: u64::MAX };
        let stats = |icache, dcache, traps| {
            reconstruct_stats(&trace.summary, &config, icache, dcache, traps, traps, u64::MAX)
        };
        assert_eq!(stats(huge, CacheStats::default(), 0), Err(over.clone()));
        assert_eq!(stats(CacheStats::default(), huge, 0), Err(over.clone()));
        assert_eq!(stats(CacheStats::default(), CacheStats::default(), u64::MAX), Err(over));
        assert!(stats(CacheStats::default(), CacheStats::default(), 0).is_ok());
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
        // flip anywhere: header, streams or the trailer
        let (_, trace) = capture(&LeonConfig::base(), &recursing_program(), 1_000_000).unwrap();
        let good = trace.to_bytes();
        assert!(Trace::validate(&good).is_ok());
        let mut bad = good.clone();
        for bit in 0..good.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Trace::from_bytes(&bad).is_err(), "from_bytes missed bit {bit}");
            assert!(Trace::validate(&bad).is_err(), "validate missed bit {bit}");
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
        for program in [demo_program(), recursing_program(), wide_program()] {
            let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
            let s = &trace.summary;
            assert_eq!(s.instructions, run.stats.instructions);
            assert_eq!(s.loads, run.stats.loads);
            assert_eq!(s.stores, run.stats.stores);
            assert_eq!(s.branches, run.stats.branches);
            assert_eq!(s.taken_branches, run.stats.taken_branches);
            assert_eq!(s.calls, run.stats.calls);
            // every rotation is one folded marker, and the leaders with
            // their runs hold every load and store
            let items: Vec<MemItem> = trace.memory_items().collect();
            let markers = items
                .iter()
                .filter(|item| matches!(item, MemItem::Save { .. } | MemItem::Restore { .. }))
                .count();
            assert_eq!(markers as u64, s.saves + s.restores, "{}", program.name);
            let accesses: u64 = items
                .iter()
                .map(|item| match item {
                    MemItem::Read { run, .. } => 1 + u64::from(*run),
                    MemItem::Write { .. } => 1,
                    _ => 0,
                })
                .sum();
            assert_eq!(accesses, s.loads + s.stores, "{}", program.name);
            if program.name == "recurse" {
                assert!(s.saves > 0 && s.restores > 0, "recursion must rotate windows");
            }
        }
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
    fn span_walks_tick_the_walk_counter_once_per_stream() {
        let _walks = walk_lock();
        let base = LeonConfig::base();
        let configs = mixed_batch(&base);
        // the recursing program's i-cache variant is closed form (no fetch
        // walk); the wide program walks both streams
        for (program, streams) in [(recursing_program(), 1u64), (wide_program(), 2)] {
            let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
            let plan = ReplayBatch::new(&trace, &configs, 1_000_000);
            assert_eq!(plan.mem_class_count(), 1, "{}", program.name);
            assert_eq!(plan.fetch_class_count() as u64, streams - 1, "{}", program.name);
            let walks_before = trace_walks_performed();
            plan.walk_mem_span(0..plan.mem_class_count());
            plan.walk_fetch_span(0..plan.fetch_class_count());
            assert_eq!(trace_walks_performed() - walks_before, streams, "{}", program.name);

            // a one-configuration `replay` is a batch too: a config changing
            // both caches walks each stream it cannot finish in closed form
            // once
            let mut both = base;
            both.dcache.way_kb = 1;
            both.icache.way_kb = 1;
            let walks_before = trace_walks_performed();
            replay(&trace, &both, 1_000_000).unwrap();
            assert_eq!(trace_walks_performed() - walks_before, streams, "{}", program.name);
        }
    }

    /// `replay_batch` of `configs` on `trace` and the walks it performed.
    fn counted(trace: &Trace, configs: &[LeonConfig]) -> (Vec<Result<Stats, SimError>>, u64) {
        let before = trace_walks_performed();
        let replayed = replay_batch(trace, configs, 1_000_000);
        (replayed, trace_walks_performed() - before)
    }

    #[test]
    fn remembered_walks_serve_every_trap_free_window_count() {
        let _walks = walk_lock();
        // recursion 12 deep: 14 and more windows never trap and share one
        // class, 13 traps; the data conflicts in a 1 KB way
        let base = LeonConfig::base();
        let program = wide_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
        let windows = |count: u8| {
            let mut c = base;
            c.dcache.way_kb = 1;
            c.iu.reg_windows = count;
            c
        };
        let (first, walked) = counted(&trace, &[windows(14)]);
        assert_eq!(walked, 1, "the first trap-free count walks");
        let others = [windows(32), windows(20)];
        assert_eq!(ReplayBatch::new(&trace, &others, 1_000_000).class_count(), 0);
        let (second, walked) = counted(&trace, &others);
        assert_eq!(walked, 0, "every trap-free count shares the remembered walk");
        let (third, walked) = counted(&trace, &[windows(13)]);
        assert_eq!(walked, 1, "a trapping count is a class of its own");

        let configs = [windows(14), windows(32), windows(20), windows(13)];
        let replayed = first.iter().chain(&second).chain(&third);
        for (config, result) in configs.iter().zip(replayed) {
            assert_eq!(result, &walked_replay(&trace, config, 1_000_000), "{config:?}");
            let full = crate::simulate(config, &program, 1_000_000).unwrap();
            assert_eq!(result.as_ref().unwrap(), &full.stats, "{config:?}");
        }
    }

    #[test]
    fn remembered_walks_are_shared_by_concurrent_plans() {
        let _walks = walk_lock();
        let base = LeonConfig::base();
        let (_, trace) = capture(&base, &wide_program(), 1_000_000).unwrap();
        let configs = geometry_batch(&[2, 8, 14]);
        // two batches overlapping in their middle third
        let third = configs.len() / 3;
        let (left, right) = (&configs[..2 * third], &configs[third..]);
        let barrier = std::sync::Barrier::new(2);
        // both plan before either finishes, so both miss every shared class,
        // walk it and record the same result
        let run = |batch: &[LeonConfig]| {
            let plan = ReplayBatch::new(&trace, batch, 1_000_000);
            barrier.wait();
            let mem = plan.walk_mem_span(0..plan.mem_class_count());
            let fetch = plan.walk_fetch_span(0..plan.fetch_class_count());
            let streams = u64::from(!mem.is_empty()) + u64::from(!fetch.is_empty());
            (plan.finish(&mem, &fetch), streams)
        };
        let before = trace_walks_performed();
        let (a, b, streams) = std::thread::scope(|scope| {
            let a = scope.spawn(|| run(left));
            let b = scope.spawn(|| run(right));
            let ((a, sa), (b, sb)) = (a.join().unwrap(), b.join().unwrap());
            (a, b, sa + sb)
        });
        assert_eq!(streams, 4, "each batch walks both streams");
        assert_eq!(trace_walks_performed() - before, streams);
        assert_eq!(a, replay_batch(&trace.clone(), left, 1_000_000));
        assert_eq!(b, replay_batch(&trace.clone(), right, 1_000_000));

        // every class of the union was walked by one thread or both
        let (union, walked) = counted(&trace, &configs);
        assert_eq!(walked, 0, "the union is remembered whole");
        assert_eq!(union, replay_batch(&trace.clone(), &configs, 1_000_000));
        assert_eq!(union[..2 * third], a[..]);
        assert_eq!(union[third..], b[..]);
    }

    #[test]
    fn remembered_walks_start_empty_on_clones_and_decodes() {
        let _walks = walk_lock();
        let base = LeonConfig::base();
        let (_, trace) = capture(&base, &wide_program(), 1_000_000).unwrap();
        let configs = mixed_batch(&base);
        let (replayed, walked) = counted(&trace, &configs);
        assert_eq!(walked, 2, "the d-cache and the i-cache variant walk");
        assert_eq!(counted(&trace, &configs), (replayed.clone(), 0), "both are remembered");

        // a clone keeps the derived facts but no walk; a decode has neither
        let clone = trace.clone();
        assert!(clone.facts.mem.get().is_some() && clone.facts.fetch.get().is_some());
        assert_eq!(counted(&clone, &configs), (replayed.clone(), 2));
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(counted(&decoded, &configs), (replayed, 2));
        // remembered walks take no part in equality
        assert_eq!(decoded, trace);
    }

    /// Replay `config` with every stream that differs from capture walked:
    /// the plan without its closed forms and window equivalence, i.e. the
    /// reference the closed forms must equal exactly.
    fn walked_replay(
        trace: &Trace,
        config: &LeonConfig,
        max_cycles: u64,
    ) -> Result<Stats, SimError> {
        config.validate().map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        let plan = ReplayBatch {
            trace,
            max_cycles,
            configs: vec![*config],
            dispositions: Vec::new(),
            mem_classes: vec![MemClass {
                dcache: config.dcache,
                reg_windows: config.iu.reg_windows,
            }],
            fetch_classes: vec![config.icache],
        };
        let captured = &trace.captured;
        let (dcache, overflows, underflows) = if config.dcache == captured.dcache
            && config.iu.reg_windows == captured.iu.reg_windows
        {
            (trace.base_dcache, trace.base_overflows, trace.base_underflows)
        } else {
            plan.walk_mem_span(0..1)[0]
        };
        let icache = if config.icache == captured.icache {
            trace.base_icache
        } else {
            plan.walk_fetch_span(0..1)[0]
        };
        reconstruct_stats(&trace.summary, config, icache, dcache, overflows, underflows, max_cycles)
    }

    /// Every valid d-cache or i-cache geometry at the given line size.
    fn geometries(line_words: u8) -> Vec<CacheConfig> {
        let mut out = Vec::new();
        for (ways, replacement) in [
            (1u8, ReplacementPolicy::Random),
            (2, ReplacementPolicy::Random),
            (2, ReplacementPolicy::Lrr),
            (2, ReplacementPolicy::Lru),
            (3, ReplacementPolicy::Lru),
            (4, ReplacementPolicy::Random),
            (4, ReplacementPolicy::Lru),
        ] {
            for way_kb in CacheConfig::VALID_WAY_KB {
                out.push(CacheConfig { ways, way_kb, line_words, replacement });
            }
        }
        out
    }

    /// A batch crossing cache geometries with window counts: every
    /// d-cache geometry at each window count in `windows`, and every
    /// i-cache geometry.
    fn geometry_batch(windows: &[u8]) -> Vec<LeonConfig> {
        let base = LeonConfig::base();
        let mut configs = Vec::new();
        for line_words in [4, 8] {
            for cache in geometries(line_words) {
                for &reg_windows in windows {
                    let mut c = base;
                    c.dcache = cache;
                    c.iu.reg_windows = reg_windows;
                    configs.push(c);
                }
                let mut c = base;
                c.icache = cache;
                configs.push(c);
            }
        }
        configs
    }

    #[test]
    fn closed_forms_equal_the_walk_and_the_simulator() {
        let _walks = walk_lock();
        // every geometry × window count the shortcuts could take, on
        // programs inside and outside their reach: the batch (closed forms,
        // window equivalence) must equal the forced walk and full
        // simulation exactly
        let base = LeonConfig::base();
        let configs = geometry_batch(&[2, 8, 14, 15, 32]);
        for program in [demo_program(), recursing_program(), wide_program()] {
            let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
            let batched = replay_batch(&trace, &configs, 1_000_000);
            for (config, result) in configs.iter().zip(&batched) {
                let walked = walked_replay(&trace, config, 1_000_000);
                assert_eq!(result, &walked, "{}: {config:?}", program.name);
                let full = crate::simulate(config, &program, 1_000_000).unwrap();
                assert_eq!(result.as_ref().unwrap(), &full.stats, "{}: {config:?}", program.name);
            }
        }
    }

    #[test]
    fn closed_form_facts_are_derived_lazily_once_per_stream() {
        let base = LeonConfig::base();
        let (_, trace) = capture(&base, &wide_program(), 1_000_000).unwrap();
        let unset = |t: &Trace| (t.facts.mem.get().is_none(), t.facts.fetch.get().is_none());
        assert_eq!(unset(&trace), (true, true), "capture derives nothing");
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(unset(&decoded), (true, true), "decode derives nothing");

        // a plan derives only the streams it needs: none for the captured
        // geometry, then the fetch stream for an i-cache variant
        let mut icache_small = base;
        icache_small.icache.way_kb = 1;
        ReplayBatch::new(&decoded, &[base], 1_000_000);
        assert_eq!(unset(&decoded), (true, true));
        ReplayBatch::new(&decoded, &[icache_small], 1_000_000);
        assert_eq!(unset(&decoded), (true, false));
        let mut windows = base;
        windows.iu.reg_windows = 16;
        ReplayBatch::new(&decoded, &[windows], 1_000_000);
        assert_eq!(unset(&decoded), (false, false));
        // derived once: later plans read the cached facts
        let facts: *const MemFacts = decoded.mem_facts();
        ReplayBatch::new(&decoded, &[windows, icache_small], 1_000_000);
        assert!(std::ptr::eq(facts, decoded.mem_facts()));

        // the facts are no part of equality
        assert_eq!(decoded, trace);
        assert_eq!(decoded.mem_facts().max_depth, Some(12));
        assert_eq!(decoded.mem_facts().data.line16, None, "data 128 KB apart is wide");
        let text = decoded.fetch_footprint().line16.unwrap();
        assert!(text.span() > 64, "1.6 KB of text spans more than a 1 KB way");
    }

    /// Re-encode `trace` after `damage` rewrote its memory stream and
    /// counts, and decode it: a trace only a hostile input can produce, with
    /// a valid checksum.
    fn hostile(trace: &Trace, damage: impl FnOnce(&mut Trace)) -> Trace {
        let mut altered = trace.clone();
        damage(&mut altered);
        Trace::from_bytes(&altered.to_bytes()).expect("the altered trace is well-formed")
    }

    #[test]
    fn hostile_traces_replay_exactly_as_the_walk() {
        let _walks = walk_lock();
        let base = LeonConfig::base();
        let configs = geometry_batch(&[2, 3, 8, 32]);
        let (_, demo) = capture(&base, &demo_program(), 1_000_000).unwrap();
        let (_, recursing) = capture(&base, &recursing_program(), 1_000_000).unwrap();
        // moving every leader keeps its folded followers in its line: the
        // base is 16-byte aligned
        let relocate = |base_addr: u32| {
            move |t: &mut Trace| {
                for item in t.folded.iter_mut().filter(|&&mut item| item & FOLD_MARKER_BIT == 0) {
                    let addr = base_addr.wrapping_add(*item as u32 & 0xfff);
                    *item = *item & !u64::from(u32::MAX) | u64::from(addr);
                }
            }
        };
        let restore_first = |t: &mut Trace| {
            t.folded.insert(0, FOLD_MARKER_BIT | FOLD_RESTORE_BIT | 0x1000);
            t.summary.restores += 1;
        };
        let cases = [
            // a `restore` before any `save`: it underflows under every
            // window count, so no count is trap-free
            ("restore first", hostile(&recursing, restore_first), None),
            ("restore first, no saves", hostile(&demo, restore_first), None),
            // loads and stores in the last 4 KB below u32::MAX: a footprint
            // like any other
            ("near u32::MAX", hostile(&demo, relocate(0xffff_f000)), Some(true)),
            // ... and straddling the wrap to 0: lines a whole address space
            // apart, so always walked
            ("wrapping", hostile(&demo, relocate(0xffff_ff80)), Some(false)),
        ];
        for (name, trace, fits) in &cases {
            let facts = trace.mem_facts();
            match fits {
                None => assert_eq!(facts.max_depth, None, "{name}"),
                Some(fits) => assert_eq!(facts.data.line16.is_some(), *fits, "{name}"),
            }
            let batched = replay_batch(trace, &configs, 1_000_000_000);
            for (config, result) in configs.iter().zip(&batched) {
                let walked = walked_replay(trace, config, 1_000_000_000);
                assert_eq!(result, &walked, "{name}: {config:?}");
            }
        }
    }

    #[test]
    fn closed_form_cache_stats_match_the_cache_on_every_policy_and_geometry() {
        // the oracle: drive the general `Cache` over random read/write
        // streams whose lines fit, and do not fit, each geometry; wherever
        // the closed form applies it must equal `Cache::stats()`, and it
        // must apply whenever the touched lines fit in one way's sets
        let mut state = 0x5eed_u64;
        let mut next = move |n: u64| -> u64 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let mut applied = 0;
        for line_words in [4u8, 8] {
            for config in geometries(line_words) {
                let line_bytes = config.line_bytes();
                let sets = config.lines_per_way();
                // the widest fitting range, twice that, and a stream near
                // the top of the address space
                for (span_lines, top) in [(sets, false), (2 * sets, false), (sets, true)] {
                    let base = if top {
                        0u32.wrapping_sub(span_lines * line_bytes)
                    } else {
                        next(1 << 20) as u32 * line_bytes
                    };
                    let mut cache = Cache::new(config);
                    let mut stream = Vec::new();
                    let (mut reads, mut writes) = (0u64, 0u64);
                    let (mut first, mut last) = (u32::MAX, 0u32);
                    for _ in 0..3000 {
                        let addr =
                            base.wrapping_add(next((span_lines * line_bytes) as u64) as u32 & !3);
                        let write = next(3) == 0;
                        if write {
                            writes += 1;
                            cache.write(addr);
                        } else {
                            reads += 1;
                            cache.read(addr);
                        }
                        stream.push(addr as u64 | if write { TagCache::WRITE_BIT } else { 0 });
                        first = first.min(addr / line_bytes);
                        last = last.max(addr / line_bytes);
                    }
                    let footprint = MemFacts::derive(&stream).data;
                    let closed = footprint.closed_form(&config, reads, writes);
                    assert_eq!(
                        closed.is_some(),
                        last - first < sets,
                        "{config:?} span {span_lines}"
                    );
                    if let Some(stats) = closed {
                        assert_eq!(stats, cache.stats(), "{config:?} span {span_lines}");
                        applied += 1;
                    }
                }
            }
        }
        let fitting_streams = 2 * (geometries(4).len() + geometries(8).len());
        assert!(applied >= fitting_streams, "every geometry must see fitting streams: {applied}");
    }
}
