//! Trace-walk budget contract of the batched replay engine.
//!
//! The batched engine's reason to exist is that a sweep of N configurations
//! over one trace must no longer decode the op stream N times.  These tests
//! pin that with the process-wide `leon_sim::trace_walks_performed` counter:
//!
//! * the 52-variable cost table performs **at most one walk per distinct
//!   behavior class** — and exactly one pass per trace stream that has a
//!   class when the classes are not partitioned across workers
//!   (`threads = 1`);
//! * a configuration replay finishes in closed form — a cache the stream
//!   cannot conflict in, a window count that cannot trap — walks **zero**
//!   times, so the classes are re-derived independently here (`Reach`) and
//!   every count below is exact;
//! * the Figure 2 exhaustive d-cache sweep collapses to a single
//!   memory-stream pass, where one `leon_sim::replay` per configuration
//!   pays one walk per feasible geometry it cannot finish in closed form;
//! * batching changes no result: the tables are byte-identical across
//!   thread counts, and every batched cycle count equals its per-config
//!   `replay`, so the walk budget is a pure cost change;
//! * a trace remembers the classes it has walked, so re-running a batched
//!   leg on the same `Trace` value walks zero times.  Every other leg runs
//!   on a clone (a cold copy), so its count is the one it would pay alone.
//!
//! Each contract runs on BLASTN, whose tables are mostly closed form, and
//! on the probe guest (`probe_guest`), whose configurations still walk.
//!
//! The walk counter is process-global, so every test in this binary takes
//! one shared lock around its delta measurements (the
//! `tests/incremental_store.rs` pattern).

mod probe_guest;

use std::collections::HashSet;
use std::sync::Mutex;

use liquid_autoreconf::apps::{benchmark_suite, capture_verified, Blastn, Scale};
use liquid_autoreconf::fpga::SynthesisModel;
use liquid_autoreconf::sim::{
    self, replay, trace_walks_performed, CacheConfig, LeonConfig, MemItem, ReplacementPolicy,
    ReplayBatch, Trace,
};
use liquid_autoreconf::tuner::{
    dcache_exhaustive_traced, measure_cost_table_traced, replay_batch_indexed, DcacheRow,
    MeasurementOptions, ParameterSpace, Variable,
};

const MAX_CYCLES: u64 = 400_000_000;

/// Serialises this binary's counter-delta measurements.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn options(threads: usize) -> MeasurementOptions {
    MeasurementOptions { max_cycles: MAX_CYCLES, threads }
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

/// The batch a cost table hands to the replay engine: every timed
/// configuration of the space, once each.
fn table_batch(space: &ParameterSpace, base: &LeonConfig) -> Vec<LeonConfig> {
    let mut seen = HashSet::new();
    space
        .variables()
        .iter()
        .flat_map(|var| timed_configs(var, base))
        .filter(|config| seen.insert(*config))
        .collect()
}

/// What replay can answer without a walk, re-derived from the fetch runs and
/// the folded memory items rather than through the engine's own footprint
/// code.
struct Reach {
    /// Deepest window nesting; `None` after a `restore` at depth 0.
    depth: Option<u64>,
    /// Lowest and highest load/store address.
    data: Option<(u32, u32)>,
    /// Lowest and highest fetch address.
    text: Option<(u32, u32)>,
}

impl Reach {
    fn of(trace: &Trace) -> Reach {
        let widen = |range: Option<(u32, u32)>, addr: u32| {
            Some(range.map_or((addr, addr), |(lo, hi)| (lo.min(addr), hi.max(addr))))
        };
        let (mut depth, mut max_depth, mut balanced) = (0u64, 0u64, true);
        let (mut data, mut text) = (None, None);
        for run in trace.fetch_runs() {
            // a run fetches every pc from its first to its last
            text = widen(text, run.pc);
            text = widen(text, run.pc + 4 * (run.count - 1));
        }
        for item in trace.memory_items() {
            match item {
                // a leader's folded followers stay in its 16-byte line, so
                // the leaders bound the lines
                MemItem::Read { addr, .. } | MemItem::Write { addr } => data = widen(data, addr),
                MemItem::Save { .. } => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                MemItem::Restore { .. } => {
                    balanced &= depth > 0;
                    depth = depth.saturating_sub(1);
                }
            }
        }
        Reach { depth: balanced.then_some(max_depth), data, text }
    }

    /// No two touched lines share a set of `cache`.
    fn fits(range: Option<(u32, u32)>, cache: &CacheConfig) -> bool {
        let line = cache.line_bytes();
        range.is_none_or(|(lo, hi)| hi / line - lo / line < cache.lines_per_way())
    }

    fn trap_free(&self, windows: u8) -> bool {
        self.depth.is_some_and(|depth| u64::from(windows) >= depth + 2)
    }

    /// The memory class `config` walks in (`None` for the window count:
    /// trap-free), or `None` when the capturing run or a closed form
    /// answers it.
    fn mem_class(
        &self,
        config: &LeonConfig,
        base: &LeonConfig,
    ) -> Option<(CacheConfig, Option<u8>)> {
        let windows = config.iu.reg_windows;
        let trap_free = self.trap_free(windows);
        let captured = config.dcache == base.dcache
            && (windows == base.iu.reg_windows
                || (trap_free && self.trap_free(base.iu.reg_windows)));
        let closed = trap_free && Reach::fits(self.data, &config.dcache);
        (!captured && !closed).then_some((config.dcache, (!trap_free).then_some(windows)))
    }

    /// The fetch class `config` walks in, or `None` when the capturing run
    /// or a closed form answers it.
    fn fetch_class(&self, config: &LeonConfig, base: &LeonConfig) -> Option<CacheConfig> {
        (config.icache != base.icache && !Reach::fits(self.text, &config.icache))
            .then_some(config.icache)
    }

    /// Walks one `replay` of `config` performs.
    fn walks(&self, config: &LeonConfig, base: &LeonConfig) -> u64 {
        self.mem_class(config, base).is_some() as u64
            + self.fetch_class(config, base).is_some() as u64
    }

    /// The distinct memory and fetch classes of a batch.
    fn classes(&self, configs: &[LeonConfig], base: &LeonConfig) -> (usize, usize) {
        let mem: HashSet<_> = configs.iter().filter_map(|c| self.mem_class(c, base)).collect();
        let fetch: HashSet<_> = configs.iter().filter_map(|c| self.fetch_class(c, base)).collect();
        (mem.len(), fetch.len())
    }
}

/// The probe guest's trace, captured on `base`.
fn probe_trace(base: &LeonConfig) -> Trace {
    sim::capture(base, &probe_guest::probe_program(), MAX_CYCLES).unwrap().1
}

#[test]
fn cost_table_walks_at_most_once_per_behavior_class() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let workload = Blastn::scaled(Scale::Tiny);
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let space = ParameterSpace::paper();
    let batch = table_batch(&space, &base);
    let (_, trace) = capture_verified(&workload, &base, MAX_CYCLES).unwrap();

    // BLASTN: 2.2 KB of data and no register-window rotation, so only the
    // d-cache ways below 4 KB walk; every i-cache, every window count and
    // every larger d-cache is closed form
    let reach = Reach::of(&trace);
    let (mem_classes, fetch_classes) = reach.classes(&batch, &base);
    let plan = ReplayBatch::new(&trace, &batch, MAX_CYCLES);
    assert_eq!((plan.mem_class_count(), plan.fetch_class_count()), (mem_classes, fetch_classes));
    assert_eq!((mem_classes, fetch_classes), (2, 0));
    let classes = mem_classes + fetch_classes;

    // threads = 1: the whole table fuses into one pass per stream with a
    // class, and the closed-form stream is never walked
    let before = trace_walks_performed();
    let serial =
        measure_cost_table_traced(&space, &workload, &base, &model, &options(1), &trace).unwrap();
    let serial_walks = trace_walks_performed() - before;
    assert_eq!(serial_walks, 1, "one memory pass, no fetch pass");

    // threads = 4: classes are partitioned, never duplicated
    let before = trace_walks_performed();
    let parallel =
        measure_cost_table_traced(&space, &workload, &base, &model, &options(4), &trace.clone())
            .unwrap();
    let parallel_walks = trace_walks_performed() - before;
    assert!(
        (1..=classes as u64).contains(&parallel_walks),
        "batched table must walk at most once per class ({classes}), walked {parallel_walks}"
    );

    // one `replay` per timed configuration, each on a cold copy, pays a
    // walk per stream it cannot finish in closed form — the cost the
    // batched engine amortises away
    let before = trace_walks_performed();
    let per_config: Vec<Vec<u64>> = space
        .variables()
        .iter()
        .map(|var| {
            timed_configs(var, &base)
                .iter()
                .map(|config| replay(&trace.clone(), config, MAX_CYCLES).unwrap().cycles)
                .collect()
        })
        .collect();
    let per_config_walks = trace_walks_performed() - before;
    let expected: u64 = space
        .variables()
        .iter()
        .flat_map(|var| timed_configs(var, &base))
        .map(|config| reach.walks(&config, &base))
        .sum();
    assert_eq!(per_config_walks, expected, "closed-form configurations walk zero times");
    assert!(serial_walks < per_config_walks);

    // and the budget is a pure cost change: the tables are byte-identical,
    // and every perturbation's batched cycles equal its per-config replay
    let serial_json = serde_json::to_string(&serial).unwrap();
    assert_eq!(serial_json, serde_json::to_string(&parallel).unwrap());
    for (var, cycles) in space.variables().iter().zip(&per_config) {
        assert_eq!(serial.by_index(var.index).unwrap().cycles, cycles[0], "{}", var.name);
    }

    // the trace the serial leg walked remembers its classes
    let before = trace_walks_performed();
    let again =
        measure_cost_table_traced(&space, &workload, &base, &model, &options(1), &trace).unwrap();
    assert_eq!(trace_walks_performed() - before, 0, "a re-run is remembered whole");
    assert_eq!(serde_json::to_string(&again).unwrap(), serial_json);

    // the probe guest still walks: every d-cache variable, every window
    // count below 14 (one class for the trap-free ones) and the 1 KB-way
    // i-cache variables, each fused into one pass per stream
    let trace = probe_trace(&base);
    let reach = Reach::of(&trace);
    let (mem_classes, fetch_classes) = reach.classes(&batch, &base);
    let plan = ReplayBatch::new(&trace, &batch, MAX_CYCLES);
    assert_eq!((plan.mem_class_count(), plan.fetch_class_count()), (mem_classes, fetch_classes));
    assert!(mem_classes > 10 && fetch_classes > 0, "{mem_classes} + {fetch_classes} classes");
    let before = trace_walks_performed();
    let batched = replay_batch_indexed(&trace, &batch, MAX_CYCLES, 1);
    assert_eq!(trace_walks_performed() - before, 2, "one pass per stream");
    let before = trace_walks_performed();
    let elementwise: Vec<_> = batch.iter().map(|c| replay(&trace.clone(), c, MAX_CYCLES)).collect();
    let expected: u64 = batch.iter().map(|config| reach.walks(config, &base)).sum();
    assert_eq!(trace_walks_performed() - before, expected);
    assert!(expected as usize > mem_classes + fetch_classes, "per-config replays walk more");
    assert_eq!(batched, elementwise);
    let before = trace_walks_performed();
    assert_eq!(replay_batch_indexed(&trace, &batch, MAX_CYCLES, 4), batched);
    assert_eq!(trace_walks_performed() - before, 0, "a re-run is remembered whole");
}

#[test]
fn fig2_sweep_collapses_to_one_memory_stream_pass() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let workload = Blastn::scaled(Scale::Tiny);
    let base = LeonConfig::base();
    let model = SynthesisModel::default();
    let (_, blastn) = capture_verified(&workload, &base, MAX_CYCLES).unwrap();

    // BLASTN's ways below 4 KB walk; the probe's data conflicts in every
    // geometry, so each of its feasible non-base rows walks
    for (name, trace) in [("BLASTN", blastn), ("PROBE", probe_trace(&base))] {
        let before = trace_walks_performed();
        let batched = dcache_exhaustive_traced(&trace, &base, &model, MAX_CYCLES, 1).unwrap();
        let batched_walks = trace_walks_performed() - before;
        assert_eq!(
            batched_walks, 1,
            "{name}: the sweep changes only the d-cache: one fused memory-stream pass"
        );

        // one `replay` per feasible row, on the geometry the sweep times,
        // each on a cold copy
        let sweep_config = |row: &DcacheRow| {
            let mut config = base;
            config.dcache.ways = row.ways;
            config.dcache.way_kb = row.way_kb;
            if row.ways > 1 {
                config.dcache.replacement = ReplacementPolicy::Random;
            }
            config
        };
        let before = trace_walks_performed();
        let per_config: Vec<DcacheRow> = batched
            .iter()
            .map(|row| {
                if !row.fits {
                    return *row;
                }
                let config = sweep_config(row);
                let cycles = replay(&trace.clone(), &config, MAX_CYCLES).unwrap().cycles;
                DcacheRow { cycles, seconds: config.cycles_to_seconds(cycles), ..*row }
            })
            .collect();
        let per_config_walks = trace_walks_performed() - before;
        let reach = Reach::of(&trace);
        let walked_rows = batched
            .iter()
            .filter(|row| row.fits && reach.mem_class(&sweep_config(row), &base).is_some())
            .count() as u64;
        let non_base_rows =
            batched.iter().filter(|r| r.fits && (r.ways, r.way_kb) != (1, 4)).count() as u64;
        match name {
            "BLASTN" => assert_eq!(walked_rows, 8, "BLASTN: the 1 and 2 KB ways walk"),
            _ => assert_eq!(walked_rows, non_base_rows, "PROBE: every non-base row walks"),
        }
        assert_eq!(
            per_config_walks, walked_rows,
            "{name}: per-config replay walks once per feasible geometry without a closed form"
        );
        assert!(per_config_walks > batched_walks);

        assert_eq!(
            serde_json::to_string(&batched).unwrap(),
            serde_json::to_string(&per_config).unwrap(),
            "{name}: both paths must produce identical Figure 2 rows"
        );

        // the trace the batched sweep walked remembers every row's class
        let before = trace_walks_performed();
        let again = dcache_exhaustive_traced(&trace, &base, &model, MAX_CYCLES, 1).unwrap();
        assert_eq!(trace_walks_performed() - before, 0, "{name}: a re-run is remembered whole");
        assert_eq!(again, batched, "{name}");
    }
}

#[test]
fn paper_table_batch_walks_no_fetch_class_at_tiny() {
    // the paper-space table batch of every benchmark workload: the
    // i-cache variables and the window counts are closed form, so only
    // d-cache geometries the data conflicts in are left to walk (11 fetch
    // and 28 memory classes before the closed forms)
    let base = LeonConfig::base();
    let batch = table_batch(&ParameterSpace::paper(), &base);
    for workload in benchmark_suite(Scale::Tiny) {
        let (_, trace) = capture_verified(workload.as_ref(), &base, MAX_CYCLES).unwrap();
        let plan = ReplayBatch::new(&trace, &batch, MAX_CYCLES);
        let name = workload.name();
        assert_eq!(plan.fetch_class_count(), 0, "{name}: every i-cache is closed form");
        assert!(plan.mem_class_count() <= 11, "{name}: {} memory classes", plan.mem_class_count());
        let reach = Reach::of(&trace);
        assert_eq!(reach.depth, Some(0), "{name}: the benchmark guests rotate no window");
        assert_eq!(reach.classes(&batch, &base), (plan.mem_class_count(), 0), "{name}");
        println!(
            "{name}: {} configurations, {} memory classes",
            batch.len(),
            plan.mem_class_count()
        );
    }
}
