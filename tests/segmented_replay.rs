//! Segmentation-equivalence contract of segmented traces: *where* a trace
//! is cut into segments is a pure representation choice.  For any
//! segmentation — including pathological ones: one record per segment, a
//! boundary in the middle of a window-trap burst, a boundary splitting a
//! compressed run — batched replay must be bit-identical to the monolithic
//! walk, through every engine:
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

/// Decode a seed into a valid segmentation of a `len`-record trace: random
/// strictly increasing cut points starting at 0.  Random cuts land inside
/// window-trap bursts and compressed runs as a matter of course — exactly
/// the boundaries the checkpoint machinery has to get right.
fn boundaries_from_seed(seed: u64, len: usize) -> Vec<usize> {
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

#[test]
fn pathological_segmentations_are_bit_identical() {
    let configs = mixed_batch();
    for (name, trace) in captured_suite() {
        let n = trace.len();
        assert!(n > 2, "{name}: trace too small to segment meaningfully");
        let expected = sim::replay_batch(trace, &configs, MAX_CYCLES);

        // one record per segment: every window-trap burst and every
        // compressed run that spans records is split somewhere
        let every_record: Vec<usize> = (0..n).collect();
        // a single segment (the monolithic layout)
        let single = vec![0usize];
        // one interior cut
        let halves = vec![0usize, n / 2];
        for (tag, boundaries) in
            [("1-op", &every_record), ("single", &single), ("halves", &halves)]
        {
            let mut seg = trace.clone();
            seg.resegment_at(boundaries);
            assert_eq!(seg.segment_count(), boundaries.len(), "{name}/{tag}");
            assert_all_engines_match(name, tag, &seg, &configs, &expected);
            // the codec round-trips the segmentation, not just the records
            let decoded = Trace::from_bytes(&seg.to_bytes()).unwrap();
            assert_eq!(decoded, seg, "{name}/{tag}: codec round trip");
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
            let boundaries = boundaries_from_seed(cut_seed, trace.len());
            let mut seg = trace.clone();
            seg.resegment_at(&boundaries);
            prop_assert_eq!(seg.segment_count(), boundaries.len());
            assert_all_engines_match(name, "random", &seg, &configs, &expected);
        }
    }
}
