//! Set-associative cache model.
//!
//! The cache tracks tags only (the data lives in [`crate::memory::Memory`]);
//! its job is to decide hit/miss for every access so the timing model can
//! charge the right number of cycles.  It implements the three LEON2
//! replacement policies — pseudo-random, LRR (least recently *replaced*,
//! i.e. per-set FIFO) and LRU — and the write-through / no-write-allocate
//! write policy of the LEON2 data cache.

use crate::config::{CacheConfig, ReplacementPolicy};

/// Result of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent.  For reads the line is filled; writes do not
    /// allocate.
    Miss,
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    tag: u32,
    /// Monotonic timestamp of the last access (LRU) .
    last_used: u64,
    /// Monotonic timestamp of the fill (LRR).
    filled_at: u64,
}

/// Per-cache hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Read (or fetch) accesses that hit.
    pub read_hits: u64,
    /// Read (or fetch) accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed (no allocation performed).
    pub write_misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate over all accesses (0 when there were no accesses).
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses() as f64 / total as f64
        }
    }
}

/// A set-associative, write-through, no-write-allocate cache.
#[derive(Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>, // [way * sets + index]
    sets: u32,
    line_shift: u32,
    /// `sets - 1`; the set count is always a power of two, so indexing is a
    /// mask and the tag a shift (no hardware division on the hot path).
    index_mask: u32,
    tag_shift: u32,
    clock: u64,
    lfsr: u32,
    /// Per-set round-robin pointer for LRR replacement.
    lrr_next: Vec<u8>,
    stats: CacheStats,
}

/// Seed of the 16-bit Galois LFSR driving pseudo-random replacement (shared
/// by [`Cache`] and [`TagCache`] so their victim streams are identical).
const LFSR_SEED: u32 = 0xace1;

impl Cache {
    /// Build a cache from its configuration: every line invalid, the
    /// replacement state (LRU clock, LRR pointers, LFSR) at its seed.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.lines_per_way();
        debug_assert!(sets.is_power_of_two(), "way_kb and line size are powers of two");
        let line_shift = config.line_bytes().trailing_zeros();
        Cache {
            config,
            lines: vec![Line::default(); (sets * config.ways as u32) as usize],
            sets,
            line_shift,
            index_mask: sets - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
            clock: 0,
            lfsr: LFSR_SEED,
            lrr_next: vec![0; sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn index_and_tag(&self, addr: u32) -> (u32, u32) {
        let index = (addr >> self.line_shift) & self.index_mask;
        let tag = addr >> self.tag_shift;
        (index, tag)
    }

    #[inline]
    fn line(&self, way: u32, index: u32) -> &Line {
        &self.lines[(way * self.sets + index) as usize]
    }

    #[inline]
    fn line_mut(&mut self, way: u32, index: u32) -> &mut Line {
        &mut self.lines[(way * self.sets + index) as usize]
    }

    fn lookup(&mut self, addr: u32) -> Option<u32> {
        let (index, tag) = self.index_and_tag(addr);
        for way in 0..self.config.ways as u32 {
            let line = self.line(way, index);
            if line.valid && line.tag == tag {
                return Some(way);
            }
        }
        None
    }

    fn next_random(&mut self) -> u32 {
        // 16-bit Galois LFSR — deterministic pseudo-random replacement.
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb == 1 {
            self.lfsr ^= 0xb400;
        }
        self.lfsr
    }

    fn victim_way(&mut self, index: u32) -> u32 {
        let ways = self.config.ways as u32;
        // Prefer an invalid line.
        for way in 0..ways {
            if !self.line(way, index).valid {
                return way;
            }
        }
        match self.config.replacement {
            ReplacementPolicy::Random => self.next_random() % ways,
            ReplacementPolicy::Lrr => {
                let way = self.lrr_next[index as usize] as u32 % ways;
                self.lrr_next[index as usize] = ((way + 1) % ways) as u8;
                way
            }
            ReplacementPolicy::Lru => (0..ways)
                .min_by_key(|w| self.line(*w, index).last_used)
                .unwrap_or(0),
        }
    }

    /// Perform a read (or instruction fetch) access.  Misses fill the line.
    pub fn read(&mut self, addr: u32) -> Access {
        self.clock += 1;
        let clock = self.clock;
        let (index, tag) = self.index_and_tag(addr);
        if let Some(way) = self.lookup(addr) {
            self.line_mut(way, index).last_used = clock;
            self.stats.read_hits += 1;
            return Access::Hit;
        }
        let victim = self.victim_way(index);
        let line = self.line_mut(victim, index);
        line.valid = true;
        line.tag = tag;
        line.last_used = clock;
        line.filled_at = clock;
        self.stats.read_misses += 1;
        Access::Miss
    }

    /// Count a read hit without probing: for a read of the line the
    /// previous access read, with no access in between, a probe finds the
    /// line and changes no state any replacement policy reads (it already is
    /// the most recently used line, and random and LRR state move only on
    /// fills).
    pub(crate) fn count_read_hit(&mut self) {
        self.stats.read_hits += 1;
    }

    /// Perform a write access.  The cache is write-through and does not
    /// allocate on a write miss; a write hit updates the line's LRU state.
    pub fn write(&mut self, addr: u32) -> Access {
        self.clock += 1;
        let clock = self.clock;
        let (index, _) = self.index_and_tag(addr);
        if let Some(way) = self.lookup(addr) {
            self.line_mut(way, index).last_used = clock;
            self.stats.write_hits += 1;
            Access::Hit
        } else {
            self.stats.write_misses += 1;
            Access::Miss
        }
    }

    /// Invalidate the whole cache (used between runs on a shared simulator).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            *line = Line::default();
        }
        self.lrr_next.fill(0);
    }
}

/// Sentinel marking an empty line in a [`TagCache`].  A real tag can never
/// reach it: the tag shift is at least 10 bits for every valid geometry
/// (line ≥ 16 bytes, way ≥ 1 KB), so tags top out below 2²³.
const INVALID_TAG: u32 = u32::MAX;

/// A lean, tag-only cache model for batched replay walks.
///
/// Reproduces [`Cache`]'s hit/miss decisions — and therefore its
/// [`CacheStats`] — bit-identically while maintaining only the state those
/// decisions actually read:
///
/// * Random replacement picks victims from the LFSR and LRR from its
///   per-set round-robin pointer, so neither ever reads the LRU timestamps
///   (or the fill stamps, which nothing reads at all); both reduce to a
///   flat `u32` tag array, and only LRU pays for a clock and stamps.
/// * Hit counters are *derived*, not maintained: the walker knows each
///   class's total read/write counts up front (they are configuration-
///   independent properties of the trace), so only the rare miss paths
///   touch a counter and the common hit path is read-only —
///   [`TagCache::stats`] reconstructs the full [`CacheStats`] from the
///   totals.
/// * Tags are stored set-major (`tags[set * ways + way]`, the transpose of
///   [`Cache`]'s way-major lines), so a multi-way probe walks one cache
///   line instead of striding a way apart.  Probe order over ways is
///   unchanged, so every decision matches.
///
/// Together these roughly halve the per-access cost, which the one-pass
/// batched walk multiplies by the number of behavior classes it updates per
/// stream entry.  Equivalence with [`Cache`] is pinned by the
/// `tag_cache_matches_cache_*` tests below and, end to end, by the
/// replay-batch equivalence suite (`tests/replay_equivalence.rs`).
pub(crate) struct TagCache {
    ways: u32,
    line_shift: u32,
    index_mask: u32,
    tag_shift: u32,
    replacement: ReplacementPolicy,
    /// `tags[set * ways + way]`; [`INVALID_TAG`] marks an empty line.
    tags: Vec<u32>,
    /// Last-use timestamps (same layout as `tags`), only under LRU.
    stamps: Vec<u64>,
    /// Per-set round-robin pointers, allocated only under LRR.
    lrr_next: Vec<u8>,
    clock: u64,
    lfsr: u32,
    read_misses: u64,
    write_misses: u64,
}

impl TagCache {
    /// Build a lean model of `config`, empty and at its seed state.
    pub(crate) fn new(config: CacheConfig) -> TagCache {
        let sets = config.lines_per_way();
        debug_assert!(sets.is_power_of_two(), "way_kb and line size are powers of two");
        let line_shift = config.line_bytes().trailing_zeros();
        let tag_shift = line_shift + sets.trailing_zeros();
        debug_assert!(tag_shift >= 9, "tags must stay clear of INVALID_TAG");
        let ways = config.ways as u32;
        let lines = (sets * ways) as usize;
        let lru = config.replacement == ReplacementPolicy::Lru;
        let lrr = config.replacement == ReplacementPolicy::Lrr;
        TagCache {
            ways,
            line_shift,
            index_mask: sets - 1,
            tag_shift,
            replacement: config.replacement,
            tags: vec![INVALID_TAG; lines],
            stamps: if lru { vec![0; lines] } else { Vec::new() },
            lrr_next: if lrr { vec![0; sets as usize] } else { Vec::new() },
            clock: 0,
            lfsr: LFSR_SEED,
            read_misses: 0,
            write_misses: 0,
        }
    }

    /// Reconstruct the full statistics from the class's total access
    /// counts: the walker charged every read/write through this model, so
    /// `reads`/`writes` minus the recorded misses are exactly the hits the
    /// eagerly-counting [`Cache`] would report.  A walk calls this once, at
    /// its end.
    pub(crate) fn stats(&self, reads: u64, writes: u64) -> CacheStats {
        debug_assert!(self.read_misses <= reads && self.write_misses <= writes);
        CacheStats {
            read_hits: reads - self.read_misses,
            read_misses: self.read_misses,
            write_hits: writes - self.write_misses,
            write_misses: self.write_misses,
        }
    }

    /// Victim slot for a miss in `set` (slot base `set * ways`) — mirrors
    /// [`Cache`]: first invalid way in way order, else the policy's choice
    /// (identical LFSR/round-robin/argmin, first minimum on ties).
    fn victim_slot(&mut self, base: usize) -> usize {
        for slot in base..base + self.ways as usize {
            if self.tags[slot] == INVALID_TAG {
                return slot;
            }
        }
        match self.replacement {
            ReplacementPolicy::Random => {
                let lsb = self.lfsr & 1;
                self.lfsr >>= 1;
                if lsb == 1 {
                    self.lfsr ^= 0xb400;
                }
                base + (self.lfsr % self.ways) as usize
            }
            ReplacementPolicy::Lrr => {
                let set = base / self.ways as usize;
                let way = self.lrr_next[set] as u32 % self.ways;
                self.lrr_next[set] = ((way + 1) % self.ways) as u8;
                base + way as usize
            }
            ReplacementPolicy::Lru => {
                let mut best = base;
                let mut best_stamp = self.stamps[base];
                for slot in base + 1..base + self.ways as usize {
                    if self.stamps[slot] < best_stamp {
                        best = slot;
                        best_stamp = self.stamps[slot];
                    }
                }
                best
            }
        }
    }

    /// Read access; returns the outcome and the slot now holding the line.
    #[inline]
    fn read_at(&mut self, addr: u32) -> (Access, usize) {
        let set = ((addr >> self.line_shift) & self.index_mask) as usize;
        let tag = addr >> self.tag_shift;
        let lru = self.replacement == ReplacementPolicy::Lru;
        if lru {
            self.clock += 1;
        }
        let base = set * self.ways as usize;
        for slot in base..base + self.ways as usize {
            if self.tags[slot] == tag {
                if lru {
                    self.stamps[slot] = self.clock;
                }
                return (Access::Hit, slot);
            }
        }
        self.read_misses += 1;
        let victim = self.victim_slot(base);
        self.tags[victim] = tag;
        if lru {
            self.stamps[victim] = self.clock;
        }
        (Access::Miss, victim)
    }

    /// Read (or fetch) access; misses fill the line.
    #[inline]
    pub(crate) fn read(&mut self, addr: u32) -> Access {
        self.read_at(addr).0
    }

    /// One read at `addr` plus `extra` guaranteed same-line accesses —
    /// identical in decisions and end state to `extra + 1` [`Cache::read`]
    /// calls on that line: the trailing hits cost O(1), advancing the LRU
    /// clock and leaving the line's stamp on the final tick (the `extra`
    /// hits surface through the derived totals in [`TagCache::stats`]).
    #[inline]
    pub(crate) fn read_run(&mut self, addr: u32, extra: u64) -> Access {
        let (access, slot) = self.read_at(addr);
        if extra > 0 && self.replacement == ReplacementPolicy::Lru {
            self.clock += extra;
            self.stamps[slot] = self.clock;
        }
        access
    }

    /// Write access: write-through, no allocation on miss, like
    /// [`Cache::write`].
    #[inline]
    pub(crate) fn write(&mut self, addr: u32) -> Access {
        let set = ((addr >> self.line_shift) & self.index_mask) as usize;
        let tag = addr >> self.tag_shift;
        let lru = self.replacement == ReplacementPolicy::Lru;
        if lru {
            self.clock += 1;
        }
        let base = set * self.ways as usize;
        for slot in base..base + self.ways as usize {
            if self.tags[slot] == tag {
                if lru {
                    self.stamps[slot] = self.clock;
                }
                return Access::Hit;
            }
        }
        self.write_misses += 1;
        Access::Miss
    }

    /// Run a whole block of resolved memory accesses — equivalent to
    /// calling [`TagCache::read`]/[`TagCache::write`] per represented
    /// access, but dispatched once to a loop monomorphized for this cache's
    /// (ways, policy), with every scalar hoisted into registers.  This is
    /// the batched walker's hot loop: the per-entry cost is what one trace
    /// pass multiplies by the class count.
    ///
    /// Each entry is a *run leader* — `addr` in the low half,
    /// [`TagCache::WRITE_BIT`] marking a write — plus, in the bits above
    /// [`TagCache::MEM_RUN_SHIFT`], the number of elided accesses that
    /// followed the leader strictly consecutively within the leader's
    /// 16-byte line (only read leaders carry them).  After a read of a line
    /// the line is present and nothing intervenes, so every elided access —
    /// read or write — is a guaranteed hit under *any* geometry: it
    /// contributes no miss (hits are derived from totals, see
    /// [`TagCache::stats`]) and changes no tag state; under LRU it advances
    /// the clock and leaves the line's stamp on the final tick, exactly as
    /// the per-access path would.
    pub(crate) fn run_mem_block(&mut self, block: &[u64]) {
        match (self.replacement, self.ways) {
            (ReplacementPolicy::Random, 1) => self.mem_block::<1, POLICY_RANDOM>(block),
            (ReplacementPolicy::Random, 2) => self.mem_block::<2, POLICY_RANDOM>(block),
            (ReplacementPolicy::Random, 3) => self.mem_block::<3, POLICY_RANDOM>(block),
            (ReplacementPolicy::Random, 4) => self.mem_block::<4, POLICY_RANDOM>(block),
            (ReplacementPolicy::Lrr, _) => self.mem_block::<2, POLICY_LRR>(block),
            (ReplacementPolicy::Lru, 2) => self.mem_block::<2, POLICY_LRU>(block),
            (ReplacementPolicy::Lru, 3) => self.mem_block::<3, POLICY_LRU>(block),
            (ReplacementPolicy::Lru, 4) => self.mem_block::<4, POLICY_LRU>(block),
            // structurally unreachable for validated configs; stay correct
            _ => {
                for &entry in block {
                    let addr = entry as u32;
                    if entry & TagCache::WRITE_BIT != 0 {
                        self.write(addr);
                    } else {
                        // elided same-line followers only touch LRU clock and
                        // the line's stamp — exactly read_run's contract
                        self.read_run(addr, entry >> TagCache::MEM_RUN_SHIFT);
                    }
                }
            }
        }
    }


    /// The monomorphized memory-block loop behind [`TagCache::run_mem_block`].
    fn mem_block<const WAYS: usize, const POLICY: u8>(&mut self, block: &[u64]) {
        let line_shift = self.line_shift;
        let index_mask = self.index_mask;
        let tag_shift = self.tag_shift;
        let mut read_misses = self.read_misses;
        let mut write_misses = self.write_misses;
        let mut lfsr = self.lfsr;
        let mut clock = self.clock;
        let tags = self.tags.as_mut_slice();
        let stamps = self.stamps.as_mut_slice();
        let lrr_next = self.lrr_next.as_mut_slice();

        for &entry in block {
            let addr = entry as u32;
            let set = ((addr >> line_shift) & index_mask) as usize;
            let tag = addr >> tag_shift;
            let base = set * WAYS;
            if POLICY == POLICY_LRU {
                // the leader plus its elided same-line followers each tick
                // the clock; the line's stamp lands on the final tick
                clock += 1 + (entry >> TagCache::MEM_RUN_SHIFT);
            }
            // probe (way order preserved; unrolled for const WAYS)
            let mut hit = usize::MAX;
            for way in 0..WAYS {
                if tags[base + way] == tag {
                    hit = way;
                    break;
                }
            }
            if hit != usize::MAX {
                if POLICY == POLICY_LRU {
                    stamps[base + hit] = clock;
                }
                continue;
            }
            if entry & TagCache::WRITE_BIT != 0 {
                write_misses += 1; // write-through, no allocation
                continue;
            }
            read_misses += 1;
            let mut victim = usize::MAX;
            for way in 0..WAYS {
                if tags[base + way] == INVALID_TAG {
                    victim = way;
                    break;
                }
            }
            if victim == usize::MAX {
                victim = match POLICY {
                    POLICY_RANDOM => {
                        let lsb = lfsr & 1;
                        lfsr >>= 1;
                        if lsb == 1 {
                            lfsr ^= 0xb400;
                        }
                        (lfsr % WAYS as u32) as usize
                    }
                    POLICY_LRR => {
                        let way = lrr_next[set] as usize % WAYS;
                        lrr_next[set] = ((way + 1) % WAYS) as u8;
                        way
                    }
                    _ => {
                        let mut best = 0;
                        for way in 1..WAYS {
                            if stamps[base + way] < stamps[base + best] {
                                best = way;
                            }
                        }
                        best
                    }
                };
            }
            tags[base + victim] = tag;
            if POLICY == POLICY_LRU {
                stamps[base + victim] = clock;
            }
        }

        self.read_misses = read_misses;
        self.write_misses = write_misses;
        self.lfsr = lfsr;
        self.clock = clock;
    }

}

/// Policy tags for the monomorphized block loops (const-generic parameters).
const POLICY_RANDOM: u8 = 0;
const POLICY_LRR: u8 = 1;
const POLICY_LRU: u8 = 2;

impl TagCache {
    /// Bit marking a resolved memory-block entry as a write access.
    pub(crate) const WRITE_BIT: u64 = 1 << 32;

    /// Bit position of a memory-block entry's elided-run length: the number
    /// of accesses that followed the leader strictly consecutively within
    /// its 16-byte line (guaranteed hits under every valid geometry, since
    /// 16 bytes is the minimum line size and nothing intervenes).
    pub(crate) const MEM_RUN_SHIFT: u32 = 33;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ways: u8, way_kb: u32, line_words: u8, replacement: ReplacementPolicy) -> CacheConfig {
        CacheConfig { ways, way_kb, line_words, replacement }
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 1 KB direct mapped, 32-byte lines => 32 sets.  Two addresses 1 KB
        // apart map to the same set and evict each other.
        let mut c = Cache::new(cfg(1, 1, 8, ReplacementPolicy::Random));
        assert_eq!(c.read(0), Access::Miss);
        assert_eq!(c.read(0), Access::Hit);
        assert_eq!(c.read(1024), Access::Miss);
        assert_eq!(c.read(0), Access::Miss); // evicted
        let stats = c.stats();
        assert_eq!(stats.read_hits, 1);
        assert_eq!(stats.read_misses, 3);
    }

    #[test]
    fn two_way_lru_keeps_both() {
        let mut c = Cache::new(cfg(2, 1, 8, ReplacementPolicy::Lru));
        assert_eq!(c.read(0), Access::Miss);
        assert_eq!(c.read(1024), Access::Miss);
        // Both fit (different ways) — repeated accesses hit.
        assert_eq!(c.read(0), Access::Hit);
        assert_eq!(c.read(1024), Access::Hit);
        // A third conflicting line evicts the least recently used (addr 0).
        assert_eq!(c.read(2048), Access::Miss);
        assert_eq!(c.read(1024), Access::Hit);
        assert_eq!(c.read(0), Access::Miss);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(cfg(2, 1, 8, ReplacementPolicy::Lru));
        c.read(0);
        c.read(1024);
        c.read(0); // 0 is now most recent
        c.read(2048); // must evict 1024
        assert_eq!(c.read(0), Access::Hit);
        assert_eq!(c.read(1024), Access::Miss);
    }

    #[test]
    fn lrr_replaces_in_fill_order() {
        let mut c = Cache::new(cfg(2, 1, 8, ReplacementPolicy::Lrr));
        c.read(0); // way 0
        c.read(1024); // way 1
        c.read(0); // touch 0 (does not matter for LRR)
        c.read(2048); // LRR: replaces the way filled first = way 0 (addr 0)
        assert_eq!(c.read(1024), Access::Hit);
        assert_eq!(c.read(0), Access::Miss);
    }

    #[test]
    fn writes_do_not_allocate() {
        let mut c = Cache::new(cfg(1, 4, 8, ReplacementPolicy::Random));
        assert_eq!(c.write(64), Access::Miss);
        assert_eq!(c.write(64), Access::Miss); // still not cached
        assert_eq!(c.read(64), Access::Miss);
        assert_eq!(c.write(64), Access::Hit); // read filled the line
        assert_eq!(c.stats().write_hits, 1);
        assert_eq!(c.stats().write_misses, 2);
    }

    #[test]
    fn capacity_behaviour_sequential_fits() {
        // Sequential working set smaller than capacity: after the first pass
        // everything hits.
        let mut c = Cache::new(cfg(1, 4, 8, ReplacementPolicy::Random));
        for addr in (0..4096).step_by(4) {
            c.read(addr);
        }
        let misses_first_pass = c.stats().read_misses;
        for addr in (0..4096).step_by(4) {
            assert_eq!(c.read(addr), Access::Hit);
        }
        assert_eq!(c.stats().read_misses, misses_first_pass);
        // one miss per line
        assert_eq!(misses_first_pass, 4096 / 32);
    }

    #[test]
    fn larger_cache_has_no_more_misses_on_scan() {
        let trace: Vec<u32> = (0..16 * 1024).step_by(4).chain((0..16 * 1024).step_by(4)).collect();
        let mut small = Cache::new(cfg(1, 4, 8, ReplacementPolicy::Random));
        let mut large = Cache::new(cfg(1, 32, 8, ReplacementPolicy::Random));
        for &a in &trace {
            small.read(a);
            large.read(a);
        }
        assert!(large.stats().read_misses <= small.stats().read_misses);
        // the large cache holds the 16 KB working set across both passes
        assert_eq!(large.stats().read_misses, 16 * 1024 / 32);
    }

    #[test]
    fn line_size_changes_miss_count_on_streaming() {
        let mut short_lines = Cache::new(cfg(1, 4, 4, ReplacementPolicy::Random));
        let mut long_lines = Cache::new(cfg(1, 4, 8, ReplacementPolicy::Random));
        for addr in (0..8192u32).step_by(4) {
            short_lines.read(addr);
            long_lines.read(addr);
        }
        // streaming: one miss per line => 8-word lines miss half as often
        assert_eq!(short_lines.stats().read_misses, 8192 / 16);
        assert_eq!(long_lines.stats().read_misses, 8192 / 32);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = Cache::new(cfg(2, 1, 4, ReplacementPolicy::Lru));
        c.read(0);
        c.read(64);
        c.flush();
        assert_eq!(c.read(0), Access::Miss);
        assert_eq!(c.read(64), Access::Miss);
    }

    #[test]
    fn miss_rate_helper() {
        let mut c = Cache::new(cfg(1, 1, 4, ReplacementPolicy::Random));
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.read(0);
        c.read(0);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    /// Deterministic pseudo-random access sequence mixing reads, writes and
    /// same-line runs, exercising hits, conflict misses and every victim
    /// path of a given geometry.
    fn torture_sequence(seed: u64) -> Vec<(u8, u32, u64)> {
        let mut state = seed;
        let mut next = move |n: u64| -> u64 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        (0..4000)
            .map(|_| {
                let kind = next(3) as u8; // 0 read, 1 write, 2 read_run
                let addr = (next(64 * 1024) as u32) & !3;
                let extra = next(4);
                (kind, addr, extra)
            })
            .collect()
    }

    fn all_geometries() -> Vec<CacheConfig> {
        let mut configs = Vec::new();
        for (ways, replacement) in [
            (1u8, ReplacementPolicy::Random),
            (2, ReplacementPolicy::Random),
            (2, ReplacementPolicy::Lrr),
            (2, ReplacementPolicy::Lru),
            (3, ReplacementPolicy::Lru),
            (4, ReplacementPolicy::Random),
            (4, ReplacementPolicy::Lru),
        ] {
            for way_kb in [1u32, 2, 4] {
                for line_words in [4u8, 8] {
                    configs.push(cfg(ways, way_kb, line_words, replacement));
                }
            }
        }
        configs
    }

    #[test]
    fn tag_cache_matches_cache_on_every_policy_and_geometry() {
        // the lean batched-walk model must reproduce the full model's
        // hit/miss stream (and so its statistics) bit-identically
        for config in all_geometries() {
            let mut full = Cache::new(config);
            let mut lean = TagCache::new(config);
            let (mut reads, mut writes) = (0u64, 0u64);
            for (kind, addr, extra) in torture_sequence(config.total_bytes() as u64) {
                let (a, b) = match kind {
                    0 => {
                        reads += 1;
                        (full.read(addr), lean.read(addr))
                    }
                    1 => {
                        writes += 1;
                        (full.write(addr), lean.write(addr))
                    }
                    _ => {
                        // the reference for a run is `extra + 1` plain reads;
                        // the first decides the outcome, the rest must hit
                        reads += extra + 1;
                        let first = full.read(addr);
                        for _ in 0..extra {
                            assert_eq!(full.read(addr), Access::Hit);
                        }
                        (first, lean.read_run(addr, extra))
                    }
                };
                assert_eq!(a, b, "{config:?}: diverged at addr {addr:#x}");
            }
            assert_eq!(full.stats(), lean.stats(reads, writes), "{config:?}: stats diverged");
        }
    }

    #[test]
    fn tag_cache_block_loops_match_cache_on_every_policy_and_geometry() {
        // the monomorphized block loops are the batched walker's hot path:
        // run_mem_block must leave the model in exactly
        // the state per-access Cache calls produce
        for config in all_geometries() {
            // memory blocks: reads and writes, with the walker's
            // guaranteed-hit run compression (an access strictly following
            // a read of its own 16-byte line folds into the leader)
            let mut full = Cache::new(config);
            let mut lean = TagCache::new(config);
            let (mut reads, mut writes) = (0u64, 0u64);
            let mut entries: Vec<u64> = Vec::new();
            let mut run_line: Option<u32> = None;
            let mut prev_addr = 0u32;
            for (i, (kind, addr, _)) in
                torture_sequence(config.total_bytes() as u64 + 1).into_iter().enumerate()
            {
                // revisit the previous access's 16-byte line often, so
                // mixed read/write runs actually form
                let addr = if i % 3 != 0 { prev_addr ^ 4 } else { addr };
                prev_addr = addr;
                let write = kind == 1;
                if write {
                    writes += 1;
                    full.write(addr);
                } else {
                    reads += 1;
                    full.read(addr);
                }
                if run_line == Some(addr >> 4) {
                    *entries.last_mut().unwrap() += 1 << TagCache::MEM_RUN_SHIFT;
                } else {
                    entries.push(addr as u64 | if write { TagCache::WRITE_BIT } else { 0 });
                    run_line = (!write).then(|| addr >> 4);
                }
            }
            assert!(entries.len() < (reads + writes) as usize, "{config:?}: no runs formed");
            // feed the lean model the same accesses in two odd-sized blocks
            let split = entries.len() / 3;
            lean.run_mem_block(&entries[..split]);
            lean.run_mem_block(&entries[split..]);
            assert_eq!(full.stats(), lean.stats(reads, writes), "{config:?}: mem blocks diverged");
            // subsequent behaviour must agree exactly (internal state equal)
            for addr in [0u32, 64, 4096, 1 << 16] {
                assert_eq!(full.read(addr), lean.read(addr), "{config:?}: post-block read");
                reads += 1;
            }
            assert_eq!(full.stats(), lean.stats(reads, writes));

            // fetch blocks: reads with same-line runs
            let mut full = Cache::new(config);
            let mut lean = TagCache::new(config);
            let mut fetches = 0u64;
            let entries: Vec<u64> = torture_sequence(config.way_kb as u64)
                .into_iter()
                .map(|(_, addr, extra)| {
                    // keep the run inside one minimum-size line, as captured
                    // traces guarantee
                    let addr = addr & !15;
                    let extra = extra.min(3);
                    fetches += extra + 1;
                    for _ in 0..=extra {
                        full.read(addr);
                    }
                    addr as u64 | extra << TagCache::MEM_RUN_SHIFT
                })
                .collect();
            let split = entries.len() / 2 + 1;
            lean.run_mem_block(&entries[..split]);
            lean.run_mem_block(&entries[split..]);
            assert_eq!(full.stats(), lean.stats(fetches, 0), "{config:?}: fetch blocks diverged");
            for addr in [0u32, 64, 4096, 1 << 16] {
                assert_eq!(full.read(addr), lean.read(addr), "{config:?}: post-block fetch");
            }
        }
    }

    #[test]
    fn random_replacement_is_deterministic_across_clones() {
        let build_trace = || {
            let mut c = Cache::new(cfg(4, 1, 4, ReplacementPolicy::Random));
            let mut outcomes = Vec::new();
            for i in 0..2000u32 {
                let addr = (i * 37) % (16 * 1024);
                outcomes.push(c.read(addr & !3));
            }
            outcomes
        };
        assert_eq!(build_trace(), build_trace());
    }
}
