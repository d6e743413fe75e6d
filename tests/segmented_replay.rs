//! Segmentation-equivalence contract of segmented traces: *where* a trace
//! is cut into segments is a pure representation choice.  Each stream — the
//! fetch runs and the folded memory items — is cut on its own, and for any
//! segmentation — including pathological ones: one entry per segment, a
//! boundary between a trap's `save` and `restore`, a boundary splitting a
//! stretch of fetches in one 16-byte block — batched replay must be
//! bit-identical to the monolithic walk, through every engine:
//!
//! * the serial fused walk (`replay_batch`),
//! * and the class-span × segment worker pool (`replay_batch_indexed`) at
//!   `threads = 1` and `threads = 4`.
//!
//! All four workloads of the paper's suite are covered, plus the probe
//! guest (`probe_guest`), whose configurations still walk both streams
//! where the suite's are finished in closed form.

mod probe_guest;

use std::sync::OnceLock;

use liquid_autoreconf::apps::{benchmark_suite, Scale};
use liquid_autoreconf::sim::{
    self, CacheConfig, Divider, LeonConfig, Multiplier, ReplacementPolicy, SimError, Trace,
};
use proptest::prelude::*;

const MAX_CYCLES: u64 = 400_000_000;

/// One captured trace per suite workload plus the probe guest, shared by
/// every test case (capture is the expensive part and is
/// segmentation-free).
fn captured_suite() -> &'static Vec<(String, Trace)> {
    static SUITE: OnceLock<Vec<(String, Trace)>> = OnceLock::new();
    SUITE.get_or_init(|| {
        benchmark_suite(Scale::Tiny)
            .iter()
            .map(|w| (w.name().to_string(), w.build()))
            .chain([("PROBE".to_string(), probe_guest::probe_program())])
            .map(|(name, program)| {
                let (_, trace) = sim::capture(&LeonConfig::base(), &program, MAX_CYCLES).unwrap();
                (name, trace)
            })
            .collect()
    })
}

/// splitmix64 step, the `replay_equivalence` seed-decoding idiom.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decode a seed into a structurally valid configuration (cache geometries,
/// replacement policies, IU options, window counts) — validity holds by
/// construction, so no generated case is wasted.
fn config_from_seed(seed: u64) -> LeonConfig {
    let mut state = seed;
    let mut pick = |n: u64| splitmix(&mut state) % n;

    let mut cache = |c: &mut CacheConfig, pick: &mut dyn FnMut(u64) -> u64| {
        c.ways = 1 + pick(4) as u8;
        c.way_kb = CacheConfig::VALID_WAY_KB[pick(7) as usize];
        c.line_words = if pick(2) == 0 { 4 } else { 8 };
        c.replacement = match c.ways {
            1 => ReplacementPolicy::Random,
            2 => [ReplacementPolicy::Random, ReplacementPolicy::Lrr, ReplacementPolicy::Lru]
                [pick(3) as usize],
            _ => [ReplacementPolicy::Random, ReplacementPolicy::Lru][pick(2) as usize],
        };
    };

    let mut config = LeonConfig::base();
    cache(&mut config.icache, &mut pick);
    cache(&mut config.dcache, &mut pick);
    config.dcache_fast_read = pick(2) == 1;
    config.dcache_fast_write = pick(2) == 1;
    config.iu.load_delay = 1 + pick(2) as u8;
    config.iu.reg_windows = (2 + pick(31)) as u8; // 2..=32
    config.iu.divider = [Divider::Radix2, Divider::None][pick(2) as usize];
    config.iu.multiplier = Multiplier::ALL[pick(7) as usize];
    config
}

/// Decode a seed into a valid segmentation of a `len`-entry stream: random
/// strictly increasing cut points starting at 0 (none for an empty stream).
/// Random cuts land between a leader and an item that re-folds into it, and
/// between the blocks of one line's fetches, as a matter of course —
/// exactly the boundaries the walkers' chained state has to get right.
fn boundaries_from_seed(seed: u64, len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let mut state = seed;
    let cuts = 1 + (splitmix(&mut state) % 12) as usize;
    let mut boundaries = vec![0usize];
    for _ in 0..cuts {
        if len > 1 {
            boundaries.push(1 + (splitmix(&mut state) % (len as u64 - 1)) as usize);
        }
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    boundaries
}

/// A batch exercising every replay tier: the captured config (closed form),
/// memory-stream classes (d-cache geometry, window count), a fetch-stream
/// class, and a structurally invalid config (the error lane).
fn mixed_batch() -> Vec<LeonConfig> {
    let base = LeonConfig::base();
    let mut dcache_small = base;
    dcache_small.dcache.way_kb = 1;
    dcache_small.iu.reg_windows = 2;
    let mut icache_small = base;
    icache_small.icache.way_kb = 1;
    let mut closed_form = base;
    closed_form.iu.multiplier = Multiplier::M32x32;
    let mut invalid = base;
    invalid.dcache.way_kb = 3;
    vec![base, dcache_small, icache_small, closed_form, invalid]
}

/// Replay `configs` through every segmented engine and check each against
/// `expected` (the monolithic-walk result for the same batch).
fn assert_all_engines_match(
    name: &str,
    tag: &str,
    seg: &Trace,
    configs: &[LeonConfig],
    expected: &[Result<sim::Stats, SimError>],
) {
    let serial = sim::replay_batch(seg, configs, MAX_CYCLES);
    assert_eq!(serial, expected, "{name}/{tag}: serial fused walk diverged");
    for threads in [1usize, 4] {
        let pooled =
            liquid_autoreconf::tuner::replay_batch_indexed(seg, configs, MAX_CYCLES, threads);
        assert_eq!(pooled, expected, "{name}/{tag}: pooled walk diverged at threads={threads}");
    }
}

/// A named way to cut a stream of `n` entries into segments.
type Cut = (&'static str, fn(usize) -> Vec<usize>);

#[test]
fn pathological_segmentations_are_bit_identical() {
    let configs = mixed_batch();
    for (name, trace) in captured_suite() {
        let (runs, items) = (trace.fetch_runs().len(), trace.memory_items().len());
        assert!(runs > 2, "{name}: trace too small to segment meaningfully");
        let expected = sim::replay_batch(trace, &configs, MAX_CYCLES);

        let cuts: [Cut; 3] = [
            // one entry per segment: every trap's markers and every line's
            // stretch of fetches that spans runs is split somewhere
            ("1-entry", |n| (0..n).collect()),
            // a single segment (the monolithic layout)
            ("single", |n| (0..n.min(1)).collect()),
            // one interior cut
            ("halves", |n| {
                let mut cuts: Vec<usize> = [0, n / 2].into_iter().filter(|&b| b < n).collect();
                cuts.dedup();
                cuts
            }),
        ];
        for (fetch_tag, fetch_cut) in cuts {
            for (memory_tag, memory_cut) in cuts {
                let tag = &format!("{fetch_tag}/{memory_tag}");
                let (fetch, memory) = (fetch_cut(runs), memory_cut(items));
                let mut seg = trace.clone();
                seg.resegment_at(&fetch, &memory);
                assert_eq!(seg.fetch_segment_count(), fetch.len(), "{name}/{tag}");
                assert_eq!(seg.memory_segment_count(), memory.len(), "{name}/{tag}");
                assert_all_engines_match(name, tag, &seg, &configs, &expected);
                // the codec round-trips the segmentation, not just the
                // streams
                let decoded = Trace::from_bytes(&seg.to_bytes()).unwrap();
                assert_eq!(decoded, seg, "{name}/{tag}: codec round trip");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For a random segmentation and a random batch of valid geometries
    /// (salted with the captured config and an invalid one), every
    /// segmented engine must be bit-identical to the monolithic walk on
    /// every workload of the suite.
    #[test]
    fn random_segmentations_replay_identically(
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
        cut_seed in any::<u64>(),
    ) {
        let mut configs: Vec<LeonConfig> =
            seeds.iter().map(|&seed| config_from_seed(seed)).collect();
        configs.push(LeonConfig::base()); // the captured configuration itself
        let mut invalid = LeonConfig::base();
        invalid.dcache.way_kb = 3; // structurally invalid
        configs.push(invalid);

        for (name, trace) in captured_suite() {
            let expected = sim::replay_batch(trace, &configs, MAX_CYCLES);
            // each stream draws its own cuts
            let fetch = boundaries_from_seed(cut_seed, trace.fetch_runs().len());
            let memory = boundaries_from_seed(!cut_seed, trace.memory_items().len());
            let mut seg = trace.clone();
            seg.resegment_at(&fetch, &memory);
            prop_assert_eq!(seg.fetch_segment_count(), fetch.len());
            prop_assert_eq!(seg.memory_segment_count(), memory.len());
            assert_all_engines_match(name, "random", &seg, &configs, &expected);
        }
    }
}
