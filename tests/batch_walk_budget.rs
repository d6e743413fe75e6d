//! Trace-walk budget contract of the batched replay engine.
//!
//! The batched engine's reason to exist is that a sweep of N configurations
//! over one trace must no longer decode the op stream N times.  These tests
//! pin that with the process-wide `leon_sim::trace_walks_performed` counter:
//!
//! * the 52-variable cost table performs **at most one walk per distinct
//!   behavior class** — and exactly one pass per trace stream when the
//!   classes are not partitioned across workers (`threads = 1`);
//! * the Figure 2 exhaustive d-cache sweep collapses to a single
//!   memory-stream pass, where one `leon_sim::replay` per configuration
//!   pays one walk per feasible non-base geometry;
//! * the segmented engine's finer-grained `trace_segments_walked` counter
//!   stays within classes × segments (parallel table) and hits exactly one
//!   tick per segment for the fused Figure 2 pass;
//! * batching changes no result: the tables are byte-identical across
//!   thread counts, and every batched cycle count equals its per-config
//!   `replay`, so the walk budget is a pure cost change.
//!
//! The walk counter is process-global, so every test in this binary takes
//! one shared lock around its delta measurements (the
//! `tests/incremental_store.rs` pattern).

use std::collections::HashSet;
use std::sync::Mutex;

use liquid_autoreconf::apps::{capture_verified, Blastn, Scale};
use liquid_autoreconf::fpga::SynthesisModel;
use liquid_autoreconf::sim::{
    replay, trace_segments_walked, trace_walks_performed, CacheConfig, LeonConfig,
    ReplacementPolicy,
};
use liquid_autoreconf::tuner::{
    dcache_exhaustive_traced, measure_cost_table_traced, DcacheRow, MeasurementOptions,
    ParameterSpace, Variable,
};

const MAX_CYCLES: u64 = 400_000_000;

/// Serialises this binary's counter-delta measurements.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn options(threads: usize) -> MeasurementOptions {
    MeasurementOptions { max_cycles: MAX_CYCLES, threads, use_replay: true }
}

/// The configurations a cost table times for `var`: its perturbation first,
/// then its enabler reference when it has one.
fn timed_configs(var: &Variable, base: &LeonConfig) -> Vec<LeonConfig> {
    let mut reference = *base;
    if let Some(enabler) = &var.enabler {
        enabler.apply(&mut reference);
    }
    let mut perturbed = reference;
    var.change.apply(&mut perturbed);
    if var.enabler.is_some() {
        vec![perturbed, reference]
    } else {
        vec![perturbed]
    }
}

/// Independently re-derive the batch's behavior classes from the parameter
/// space: every distinct (d-cache geometry, window count) pair and every
/// distinct i-cache geometry — over perturbations *and* enabler references —
/// that differs from the capturing configuration.  Also counts the timed
/// configurations that walk at least one stream when replayed one at a
/// time.
fn distinct_classes(
    space: &ParameterSpace,
    base: &LeonConfig,
) -> (HashSet<(CacheConfig, u8)>, HashSet<CacheConfig>, usize) {
    let mut mem: HashSet<(CacheConfig, u8)> = HashSet::new();
    let mut fetch: HashSet<CacheConfig> = HashSet::new();
    let mut walked_configs: HashSet<LeonConfig> = HashSet::new();
    for var in space.variables() {
        for config in timed_configs(var, base) {
            let mut walks = false;
            if config.dcache != base.dcache || config.iu.reg_windows != base.iu.reg_windows {
                mem.insert((config.dcache, config.iu.reg_windows));
                walks = true;
            }
            if config.icache != base.icache {
                fetch.insert(config.icache);
                walks = true;
            }
            if walks {
                walked_configs.insert(config);
            }
        }
    }
    (mem, fetch, walked_configs.len())
}

#[test]
fn cost_table_walks_at_most_once_per_behavior_class() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let workload = Blastn::scaled(Scale::Tiny);
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let space = ParameterSpace::paper();
    let (_, trace) = capture_verified(&workload, &base, MAX_CYCLES).unwrap();

    let (mem_classes, fetch_classes, walked_configs) = distinct_classes(&space, &base);
    let classes = mem_classes.len() + fetch_classes.len();
    assert!(classes > 0, "the paper space must contain cache perturbations");
    assert!(
        classes <= walked_configs,
        "classes ({classes}) can never exceed walked configurations ({walked_configs})"
    );

    // threads = 1: the whole table fuses into one pass per trace stream
    let before = trace_walks_performed();
    let serial =
        measure_cost_table_traced(&space, &workload, &base, &model, &options(1), &trace)
            .unwrap();
    let serial_walks = trace_walks_performed() - before;
    assert!(
        serial_walks <= 2,
        "threads=1 must fuse all classes into one pass per stream, walked {serial_walks}"
    );

    // threads = 4: classes are partitioned, never duplicated — and the
    // segmented engine ticks at most one segment walk per class × segment
    // unit (each class-span walker visits every segment exactly once)
    let segments = trace.segment_count() as u64;
    let before = trace_walks_performed();
    let seg_before = trace_segments_walked();
    let parallel =
        measure_cost_table_traced(&space, &workload, &base, &model, &options(4), &trace)
            .unwrap();
    let parallel_walks = trace_walks_performed() - before;
    let parallel_segment_walks = trace_segments_walked() - seg_before;
    assert!(
        parallel_walks <= classes as u64,
        "batched table must walk at most once per class ({classes}), walked {parallel_walks}"
    );
    assert!(
        parallel_segment_walks <= classes as u64 * segments,
        "segment walks ({parallel_segment_walks}) must not exceed classes ({classes}) × \
         segments ({segments})"
    );

    // one `replay` per timed configuration pays a walk per stream each one
    // changes — the cost the batched engine amortises away
    let before = trace_walks_performed();
    let per_config: Vec<Vec<u64>> = space
        .variables()
        .iter()
        .map(|var| {
            timed_configs(var, &base)
                .iter()
                .map(|config| replay(&trace, config, MAX_CYCLES).unwrap().cycles)
                .collect()
        })
        .collect();
    let per_config_walks = trace_walks_performed() - before;
    assert!(
        per_config_walks >= classes as u64,
        "per-config replays must walk at least once per class ({classes}), \
         walked {per_config_walks}"
    );
    assert!(
        serial_walks < per_config_walks,
        "batching must reduce the walk count ({serial_walks} vs {per_config_walks})"
    );

    // and the budget is a pure cost change: the tables are byte-identical,
    // and every perturbation's batched cycles equal its per-config replay
    let serial_json = serde_json::to_string(&serial).unwrap();
    assert_eq!(serial_json, serde_json::to_string(&parallel).unwrap());
    for (var, cycles) in space.variables().iter().zip(&per_config) {
        assert_eq!(serial.by_index(var.index).unwrap().cycles, cycles[0], "{}", var.name);
    }
}

#[test]
fn fig2_sweep_collapses_to_one_memory_stream_pass() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let workload = Blastn::scaled(Scale::Tiny);
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let (_, trace) = capture_verified(&workload, &base, MAX_CYCLES).unwrap();

    let before = trace_walks_performed();
    let seg_before = trace_segments_walked();
    let batched = dcache_exhaustive_traced(&trace, &base, &model, MAX_CYCLES, 1).unwrap();
    let batched_walks = trace_walks_performed() - before;
    let batched_segment_walks = trace_segments_walked() - seg_before;
    assert_eq!(
        batched_walks, 1,
        "the sweep changes only the d-cache: one fused memory-stream pass"
    );
    assert_eq!(
        batched_segment_walks,
        trace.segment_count() as u64,
        "that one pass visits each of the trace's segments exactly once"
    );

    // one `replay` per feasible row, on the geometry the sweep times
    let before = trace_walks_performed();
    let per_config: Vec<DcacheRow> = batched
        .iter()
        .map(|row| {
            if !row.fits {
                return *row;
            }
            let mut config = base;
            config.dcache.ways = row.ways;
            config.dcache.way_kb = row.way_kb;
            if row.ways > 1 {
                config.dcache.replacement = ReplacementPolicy::Random;
            }
            let cycles = replay(&trace, &config, MAX_CYCLES).unwrap().cycles;
            DcacheRow { cycles, seconds: config.cycles_to_seconds(cycles), ..*row }
        })
        .collect();
    let per_config_walks = trace_walks_performed() - before;
    let walked_rows =
        batched.iter().filter(|r| r.fits && (r.ways, r.way_kb) != (1, 4)).count() as u64;
    assert_eq!(
        per_config_walks, walked_rows,
        "per-config replay walks once per feasible non-base geometry"
    );
    assert!(per_config_walks > batched_walks);

    assert_eq!(
        serde_json::to_string(&batched).unwrap(),
        serde_json::to_string(&per_config).unwrap(),
        "both paths must produce identical Figure 2 rows"
    );
}
