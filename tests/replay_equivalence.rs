//! Replay-equivalence contract: for every trace-invariant perturbation, the
//! trace-driven replay engine must reproduce the full cycle-accurate
//! simulator's `cycles` and cache statistics *bit-identically* — on every
//! workload of the paper's suite.  This is the property the fast measurement
//! path in `autoreconf::measure` and the Figure 2 sweep rely on.
//!
//! The suite's guests are small enough that replay finishes most of their
//! configurations in closed form, so the property tests also run the probe
//! guest (`probe_guest`), which keeps the fetch walk, the window-trap
//! expansion and the mixed-window-count memory walk under the same check.

mod probe_guest;

use std::sync::OnceLock;

use liquid_autoreconf::apps::{benchmark_suite, Scale};
use liquid_autoreconf::isa::Program;
use liquid_autoreconf::sim::{
    self, CacheConfig, Divider, LeonConfig, Multiplier, ReplacementPolicy, SimError, Trace,
};
use proptest::prelude::*;

const MAX_CYCLES: u64 = 400_000_000;

/// A grid of trace-invariant configurations: cache geometries × replacement
/// policies × latency/decode options, all derived from the base config.
fn trace_invariant_grid() -> Vec<LeonConfig> {
    let base = LeonConfig::base();
    let mut grid = Vec::new();

    // d-cache and i-cache geometry sweep (the Figure 2 axes)
    for (ways, replacement) in [
        (1u8, ReplacementPolicy::Random),
        (2, ReplacementPolicy::Random),
        (2, ReplacementPolicy::Lrr),
        (2, ReplacementPolicy::Lru),
        (4, ReplacementPolicy::Lru),
    ] {
        for way_kb in [1u32, 4, 16] {
            for line_words in [4u8, 8] {
                let mut c = base;
                c.dcache.ways = ways;
                c.dcache.way_kb = way_kb;
                c.dcache.line_words = line_words;
                c.dcache.replacement = replacement;
                grid.push(c);

                let mut c = base;
                c.icache.ways = ways;
                c.icache.way_kb = way_kb;
                c.icache.line_words = line_words;
                c.icache.replacement = replacement;
                grid.push(c);
            }
        }
    }

    // integer-unit timing options
    for multiplier in [
        Multiplier::None,
        Multiplier::Iterative,
        Multiplier::M16x16Pipelined,
        Multiplier::M32x32,
    ] {
        let mut c = base;
        c.iu.multiplier = multiplier;
        grid.push(c);
    }
    let mut c = base;
    c.iu.divider = sim::Divider::None;
    grid.push(c);
    let mut c = base;
    c.iu.load_delay = 2;
    grid.push(c);
    let mut c = base;
    c.iu.fast_jump = false;
    c.iu.fast_decode = false;
    c.iu.icc_hold = false;
    grid.push(c);
    let mut c = base;
    c.dcache_fast_read = true;
    c.dcache_fast_write = true;
    grid.push(c);

    // register windows: parametric save/restore events in the trace make
    // these replayable too (the paper's x30–x46 group)
    for windows in [2u8, 4, 16, 24, 32] {
        let mut c = base;
        c.iu.reg_windows = windows;
        grid.push(c);
    }

    grid.retain(|c| c.validate().is_ok());
    grid
}

#[test]
fn replay_matches_full_simulation_for_every_workload_and_perturbation() {
    let base = LeonConfig::base();
    for workload in benchmark_suite(Scale::Tiny) {
        let program = workload.build();
        let (_, trace) = sim::capture(&base, &program, MAX_CYCLES).unwrap();
        let mut checked = 0;
        for config in trace_invariant_grid() {
            let full = sim::simulate(&config, &program, MAX_CYCLES).unwrap();
            let replayed = sim::replay(&trace, &config, MAX_CYCLES).unwrap();
            assert_eq!(
                replayed.cycles,
                full.stats.cycles,
                "{}: cycle mismatch on {config:?}",
                workload.name()
            );
            assert_eq!(
                replayed.icache,
                full.stats.icache,
                "{}: icache stats mismatch on {config:?}",
                workload.name()
            );
            assert_eq!(
                replayed.dcache,
                full.stats.dcache,
                "{}: dcache stats mismatch on {config:?}",
                workload.name()
            );
            // the whole Stats block must agree, not just the headline numbers
            assert_eq!(replayed, full.stats, "{}: stats mismatch", workload.name());
            checked += 1;
        }
        assert!(checked > 60, "expected a meaningful grid, checked only {checked}");
    }
}

#[test]
fn replay_rejects_invalid_configurations_like_the_simulator() {
    let base = LeonConfig::base();
    let suite = benchmark_suite(Scale::Tiny);
    let program = suite[3].build(); // Arith: smallest program
    let (_, trace) = sim::capture(&base, &program, MAX_CYCLES).unwrap();
    let mut c = base;
    c.dcache.way_kb = 3; // structurally invalid
    assert!(matches!(sim::replay(&trace, &c, MAX_CYCLES), Err(SimError::InvalidConfig(_))));
}

/// One captured (program, trace) per suite workload plus the probe guest,
/// shared by every property-test case (capture is the expensive part and is
/// config-free).
fn captured_suite() -> &'static Vec<(String, Program, Trace)> {
    static SUITE: OnceLock<Vec<(String, Program, Trace)>> = OnceLock::new();
    SUITE.get_or_init(|| {
        benchmark_suite(Scale::Tiny)
            .iter()
            .map(|w| (w.name().to_string(), w.build()))
            .chain([("PROBE".to_string(), probe_guest::probe_program())])
            .map(|(name, program)| {
                let (_, trace) = sim::capture(&LeonConfig::base(), &program, MAX_CYCLES).unwrap();
                (name, program, trace)
            })
            .collect()
    })
}

#[test]
fn probe_guest_walks_what_the_suite_finishes_in_closed_form() {
    let (_, program, trace) = captured_suite().last().unwrap();
    let base = LeonConfig::base();
    let mut small_icache = base;
    small_icache.icache.way_kb = 1;
    let mut large_icache = base;
    large_icache.icache.way_kb = 2;
    let mut large_dcache = base;
    large_dcache.dcache.ways = 4;
    large_dcache.dcache.way_kb = 64;
    large_dcache.dcache.replacement = ReplacementPolicy::Lru;
    // a batch mixing trapping window counts walks access by access
    let windows = |n: u8| {
        let mut c = base;
        c.iu.reg_windows = n;
        c
    };
    let configs = [
        small_icache,
        large_icache,
        large_dcache,
        windows(2),
        windows(13),
        windows(14),
        windows(32),
    ];

    let plan = sim::ReplayBatch::new(trace, &configs, MAX_CYCLES);
    assert_eq!(trace.mem_facts().max_depth, Some(12));
    assert_eq!(plan.fetch_class_count(), 1, "a 1 KB way walks, a 2 KB way is closed form");
    assert_eq!(
        plan.mem_class_count(),
        4,
        "the 64 KB d-cache, 2 and 13 windows, and one class for 14 and 32 windows (trap-free)"
    );
    let walks = sim::trace_walks_performed();
    let replayed = sim::replay_batch(trace, &configs, MAX_CYCLES);
    assert!(sim::trace_walks_performed() - walks >= 2, "both streams are walked");
    for (config, replayed) in configs.iter().zip(replayed) {
        let full = sim::simulate(config, program, MAX_CYCLES).unwrap();
        assert_eq!(replayed.unwrap(), full.stats, "PROBE: {config:?}");
        if config.iu.reg_windows < 14 {
            assert!(full.stats.window_overflows > 0, "{} windows trap", config.iu.reg_windows);
        }
    }
}

/// Decode a seed into a *structurally valid* configuration covering the
/// whole Figure 1 space: random cache geometries (ways × way size × line
/// size × a replacement policy valid for that associativity) for both
/// caches, plus every IU option.  Validity holds by construction, so the
/// property test explores the full space with zero rejected cases.
fn config_from_seed(seed: u64) -> LeonConfig {
    let mut state = seed;
    let mut pick = move |n: u64| -> u64 {
        // splitmix64 step: decorrelates the successive field draws
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };

    let mut cache = |c: &mut CacheConfig| {
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
    cache(&mut config.icache);
    cache(&mut config.dcache);
    config.dcache_fast_read = pick(2) == 1;
    config.dcache_fast_write = pick(2) == 1;
    config.iu.fast_jump = pick(2) == 1;
    config.iu.icc_hold = pick(2) == 1;
    config.iu.fast_decode = pick(2) == 1;
    config.iu.load_delay = 1 + pick(2) as u8;
    config.iu.reg_windows = (2 + pick(31)) as u8; // 2..=32
    config.iu.divider = [Divider::Radix2, Divider::None][pick(2) as usize];
    config.iu.multiplier = Multiplier::ALL[pick(7) as usize];
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generalisation of the fixed grid above: on *any* valid configuration
    /// geometry, replay of the shared base trace must be bit-identical to a
    /// full cycle-accurate simulation — for every workload of the suite.
    #[test]
    fn replay_matches_full_simulation_on_random_geometries(seed in any::<u64>()) {
        let config = config_from_seed(seed);
        prop_assert!(config.validate().is_ok(), "decoder must only produce valid configs");
        for (name, program, trace) in captured_suite() {
            let full = sim::simulate(&config, program, MAX_CYCLES).unwrap();
            let replayed = sim::replay(trace, &config, MAX_CYCLES).unwrap();
            prop_assert_eq!(
                &replayed,
                &full.stats,
                "{}: replay diverged from full simulation on {:?}",
                name,
                config
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one-pass batched engine against the anchor above: for a random
    /// batch of valid geometries — salted with a duplicate, the captured
    /// configuration itself and a structurally invalid config —
    /// `replay_batch` must equal element-wise `replay` bit-for-bit
    /// (successes *and* errors), on every workload, both through the serial
    /// fused walk and through the class-partitioned worker pool at
    /// `threads = 1` and `threads = 4`.
    #[test]
    fn replay_batch_matches_elementwise_replay(
        seeds in proptest::collection::vec(any::<u64>(), 1..8)
    ) {
        let mut configs: Vec<LeonConfig> =
            seeds.iter().map(|&seed| config_from_seed(seed)).collect();
        configs.push(configs[0]); // duplicate: same behavior class twice
        configs.push(LeonConfig::base()); // the captured configuration itself
        let mut invalid = LeonConfig::base();
        invalid.dcache.way_kb = 3; // structurally invalid
        configs.push(invalid);

        for (name, _program, trace) in captured_suite() {
            let elementwise: Vec<_> =
                configs.iter().map(|c| sim::replay(trace, c, MAX_CYCLES)).collect();
            let batched = sim::replay_batch(trace, &configs, MAX_CYCLES);
            prop_assert_eq!(&batched, &elementwise, "{}: serial batch diverged", name);
            for threads in [1usize, 4] {
                let pooled = liquid_autoreconf::tuner::replay_batch_indexed(
                    trace, &configs, MAX_CYCLES, threads,
                );
                prop_assert_eq!(
                    &pooled,
                    &elementwise,
                    "{}: class-partitioned batch diverged at threads={}",
                    name,
                    threads
                );
            }
        }
    }
}

#[test]
fn trace_is_compact() {
    let base = LeonConfig::base();
    for workload in benchmark_suite(Scale::Tiny) {
        let program = workload.build();
        let (run, trace) = sim::capture(&base, &program, MAX_CYCLES).unwrap();
        // run compression must account for every dynamic instruction exactly
        assert_eq!(trace.instructions(), run.stats.instructions, "{}", workload.name());
        // a run of sequential fetches covers several instructions, and the
        // folded memory stream fewer items than loads, stores and rotations
        let (runs, items) = (trace.fetch_runs().len(), trace.memory_items().len());
        let s = trace.summary();
        assert!(
            (runs as u64) < run.stats.instructions / 2,
            "{}: fetch runs should compress the fetch stream",
            workload.name()
        );
        assert!(
            items as u64 <= s.loads + s.stores + s.saves + s.restores,
            "{}: folding must not expand the memory stream",
            workload.name()
        );
        // 8 bytes per run and per item, and nothing else
        assert_eq!(trace.memory_bytes(), (runs + items) * 8, "{}", workload.name());
    }
}
