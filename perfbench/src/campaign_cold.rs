//! `campaign_cold`: whole campaigns at `Scale::Medium`, three kinds per
//! round — store-less (control), on a fresh empty store (main) and re-run
//! over the store the first round's cold run filled (warm).  Every
//! campaign's result JSON is checked byte-for-byte against a store-less
//! reference made in set-up.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use autoreconf::experiments::ExperimentOptions;
use autoreconf::{
    run_indexed, ArtifactStore, Campaign, CampaignResult, SearchSpace, TraceSet, TracedWorkload,
    Weights,
};
use leon_sim::{trace_segments_walked, trace_walks_performed, LeonConfig, Trace};
use workloads::{benchmark_suite, capture_verified, guest_instructions_executed, Scale, Workload};

use crate::report::{bench_key, Ctx, EndToEnd, Outcome, Tally};
use crate::spans::Tracer;
use crate::stats::median;

const SCALE: Scale = Scale::Medium;
const SETUPS: usize = 5;
/// Warm re-runs per cold run: each is cheap, and more samples steady
/// their median.
const WARM_REPEATS: usize = 8;
const MIN_ROUNDS: usize = 3;
const PROBES: usize = 3;

struct Fixture {
    engine: Campaign,
    threads: usize,
    max_cycles: u64,
    suite: Vec<Box<dyn Workload + Send + Sync>>,
    mix: Vec<f64>,
    reference: String,
    reference_guest: u64,
    setup_s: Vec<f64>,
}

/// Set-up, repeated [`SETUPS`] times: build the suite and the store-less
/// reference campaign.
fn fixture(ctx: &Ctx) -> Fixture {
    let options = ExperimentOptions {
        scale: SCALE,
        threads: ctx.threads,
        ..ExperimentOptions::default()
    };
    let engine = Campaign::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(options.measurement());
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let suite = benchmark_suite(SCALE);
        let mix = crate::stream::campaign_mix(ctx.seed, suite.len());
        let before = guest_instructions_executed();
        let result = engine
            .run(&suite, &mix)
            .expect("store-less reference campaign");
        let reference_guest = guest_instructions_executed() - before;
        let reference = serde_json::to_string(&result).expect("serialise campaign result");
        setup_s.push(start.elapsed().as_secs_f64());
        last = Some((suite, mix, reference, reference_guest));
    }
    let (suite, mix, reference, reference_guest) = last.expect("at least one set-up");
    Fixture {
        engine,
        threads: options.threads,
        max_cycles: options.max_cycles,
        suite,
        mix,
        reference,
        reference_guest,
        setup_s,
    }
}

/// One timed `Campaign::run`; `Err` carries the failure text.
fn timed_run(engine: &Campaign, f: &Fixture) -> (Result<String, String>, f64, u64) {
    let before = guest_instructions_executed();
    let start = Instant::now();
    let result = engine.run(&f.suite, &f.mix);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let guest = guest_instructions_executed() - before;
    let json = result
        .map_err(|e| e.to_string())
        .map(|r| serde_json::to_string(&r).expect("serialise campaign result"));
    (json, ms, guest)
}

/// Count and check one timed campaign; its time in ms when it succeeded.
fn checked(
    tally: &mut Tally,
    what: &str,
    run: (Result<String, String>, f64, u64),
    guest: u64,
    reference: &str,
) -> Option<f64> {
    let (json, ms, executed) = run;
    tally.begin();
    match json {
        Ok(json) => {
            tally.verify(json == reference, || {
                format!("{what} result differs from the store-less reference")
            });
            tally.verify(executed == guest, || {
                format!("{what} executed {executed} guest instructions, expected {guest}")
            });
            Some(ms)
        }
        Err(e) => {
            tally.fail(what, &e);
            None
        }
    }
}

/// One cold campaign on a fresh store at `dir`, then [`WARM_REPEATS`] warm
/// re-runs over the store at `warm`.  Every round re-runs over the same
/// warm store: re-runs over each round's newly written store clustered at
/// a level of their own, up to a third apart, so a run's median rested on
/// a few rounds; one store for all rounds narrowed the spread between runs
/// (IQR/median 0.22 → 0.15 over 6 seeds, 2 vCPUs).
fn cold_and_warm(f: &Fixture, dir: &Path, warm: &Path, tally: &mut Tally, e2e: &mut EndToEnd) {
    let store = ArtifactStore::open(dir).expect("open cold store");
    let cold = timed_run(&f.engine.clone().with_store(store.clone()), f);
    if let Some(ms) = checked(
        tally,
        "cold campaign",
        cold,
        f.reference_guest,
        &f.reference,
    ) {
        e2e.main_ms.push(0, ms);
    }
    let mut corrupt = store.stats().corrupt;
    if dir != warm {
        let _ = std::fs::remove_dir_all(dir);
    }
    for _ in 0..WARM_REPEATS {
        let warm_store = ArtifactStore::open(warm).expect("reopen warm store");
        let warm = timed_run(&f.engine.clone().with_store(warm_store.clone()), f);
        if let Some(ms) = checked(tally, "warm campaign", warm, 0, &f.reference) {
            e2e.warm_ms.push(0, ms);
        }
        corrupt += warm_store.stats().corrupt;
    }
    tally.verify(corrupt == 0, || format!("{corrupt} corrupt store entries"));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let f = fixture(ctx);
    let mut tally = Tally::default();
    let mut e2e = EndToEnd {
        setup_s: f.setup_s.clone().into(),
        ..EndToEnd::default()
    };
    let warm = ctx.dir.join("cold-0");
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < ctx.seconds {
        let dir = ctx.dir.join(format!("cold-{round}"));
        // alternate which campaign runs first, so neither always follows the other
        if round % 2 == 1 {
            cold_and_warm(&f, &dir, &warm, &mut tally, &mut e2e);
        }
        let storeless = timed_run(&f.engine, &f);
        if let Some(ms) = checked(
            &mut tally,
            "store-less campaign",
            storeless,
            f.reference_guest,
            &f.reference,
        ) {
            e2e.control_ms.push(0, ms);
        }
        if round % 2 == 0 {
            cold_and_warm(&f, &dir, &warm, &mut tally, &mut e2e);
        }
        round += 1;
    }
    e2e.peak_heap_mb = crate::heap::peak_mb();
    Outcome {
        tally,
        e2e,
        layers: BTreeMap::new(),
    }
}

/// Per-operation counts of one traced cold campaign.
#[derive(Default)]
struct Counts {
    capture_guest: f64,
    campaign_guest: f64,
    trace_mb: f64,
    mb_written: f64,
    walk_passes: f64,
    walk_segments: f64,
}

/// A cold campaign split into its stages, each a span: capture → encode →
/// store write → cost tables → sweeps → per-app optima → co-optimization.
/// Returns the result JSON, the captured traces and the counts.
fn traced_cold(
    tracer: &Tracer,
    f: &Fixture,
    dir: &Path,
) -> Result<(String, TraceSet, Counts), String> {
    let engine = &f.engine;
    let guest_before = guest_instructions_executed();
    let walks_before = (trace_walks_performed(), trace_segments_walked());
    let mut counts = Counts::default();
    let out = tracer.op(
        "campaign.cold",
        |op| -> Result<(String, TraceSet), String> {
            let store = tracer
                .span(op, "store.open", |_| ArtifactStore::open(dir))
                .map_err(|e| e.to_string())?;
            let save_json =
                |kind: &str, i: usize, json: String, counts: &mut Counts| -> Result<(), String> {
                    counts.mb_written += json.len() as f64 / 1e6;
                    tracer
                        .span(op, "store.write", |_| {
                            store.save(kind, bench_key(kind, i), json.as_bytes())
                        })
                        .map_err(|e| e.to_string())
                };
            // like the product, each worker captures one workload and persists
            // its trace before taking the next, so the stage's spans overlap
            let captured = tracer.span(op, "capture_persist", |stage| {
                run_indexed(
                    f.suite.len(),
                    f.threads,
                    |i| -> Result<(TracedWorkload, usize), String> {
                        let workload = f.suite[i].as_ref();
                        let (run, trace) = tracer
                            .span(stage, "capture", |_| {
                                capture_verified(workload, engine.base(), f.max_cycles)
                            })
                            .map_err(|e| e.to_string())?;
                        let entry = TracedWorkload {
                            name: workload.name().to_string(),
                            trace,
                            base_cycles: run.stats.cycles,
                            base_seconds: run.seconds,
                        };
                        let payload =
                            tracer.span(stage, "codec.encode", |_| entry.trace.to_bytes());
                        tracer
                            .span(stage, "store.write", |_| {
                                store.save("trace", bench_key("trace", i), &payload)
                            })
                            .map_err(|e| e.to_string())?;
                        Ok((entry, payload.len()))
                    },
                )
            });
            counts.capture_guest = (guest_instructions_executed() - guest_before) as f64;
            let mut entries = Vec::new();
            for result in captured {
                let (entry, bytes) = result?;
                counts.trace_mb += bytes as f64 / 1e6;
                counts.mb_written += bytes as f64 / 1e6;
                entries.push(entry);
            }
            let traces = TraceSet {
                base: *engine.base(),
                entries,
            };
            let tables = tracer
                .span(op, "measure.table", |_| {
                    engine.cost_tables(&f.suite, &traces)
                })
                .map_err(|e| e.to_string())?;
            for (i, t) in tables.iter().enumerate() {
                save_json(
                    "table",
                    i,
                    serde_json::to_string(t).map_err(|e| e.0)?,
                    &mut counts,
                )?;
            }
            let sweeps = tracer
                .span(op, "dcache_study.sweep", |_| engine.sweeps(&traces))
                .map_err(|e| e.to_string())?;
            for (i, s) in sweeps.iter().enumerate() {
                save_json(
                    "sweep",
                    i,
                    serde_json::to_string(s).map_err(|e| e.0)?,
                    &mut counts,
                )?;
            }
            let per_app = tracer
                .span(op, "optimizer.per_app", |_| {
                    engine.optimize_each(&f.suite, &traces, &tables)
                })
                .map_err(|e| e.to_string())?;
            for (i, o) in per_app.iter().enumerate() {
                save_json(
                    "optimum",
                    i,
                    serde_json::to_string(o).map_err(|e| e.0)?,
                    &mut counts,
                )?;
            }
            let co = tracer
                .span(op, "co", |_| engine.co_optimize(&traces, &tables, &f.mix))
                .map_err(|e| e.to_string())?;
            save_json(
                "co",
                0,
                serde_json::to_string(&co).map_err(|e| e.0)?,
                &mut counts,
            )?;
            let result = CampaignResult {
                workloads: traces.names(),
                tables,
                sweeps,
                per_app,
                co,
            };
            let json = tracer
                .span(op, "json", |_| serde_json::to_string(&result))
                .map_err(|e| e.0)?;
            Ok((json, traces))
        },
    )?;
    counts.campaign_guest = (guest_instructions_executed() - guest_before) as f64;
    counts.walk_passes = (trace_walks_performed() - walks_before.0) as f64;
    counts.walk_segments = (trace_segments_walked() - walks_before.1) as f64;
    let _ = std::fs::remove_dir_all(dir);
    Ok((out.0, out.1, counts))
}

/// The Figure 2 grid's 28 configurations over `base`.
pub fn figure2_configs(base: &LeonConfig) -> Vec<LeonConfig> {
    let figure2 = SearchSpace::figure2();
    figure2
        .candidates
        .iter()
        .map(|c| figure2.space.apply(base, c))
        .collect()
}

/// One probe operation: a batched walk (`replay_batch_indexed`) of every
/// trace over `configs`, one `walk` span per trace.
pub fn walk_probe(
    tracer: &Tracer,
    traces: &[&Trace],
    configs: &[LeonConfig],
    max_cycles: u64,
    threads: usize,
) {
    tracer.op("probe.walk", |op| {
        for trace in traces {
            let stats = tracer.span(op, "walk", |_| {
                autoreconf::replay_batch_indexed(trace, configs, max_cycles, threads)
            });
            std::hint::black_box(stats);
        }
    });
}

/// Probes run after the timed operations: one `fnv1a64` pass over every
/// encoded trace, and one batched Figure 2 walk per trace.  Returns configs
/// per behavior class.
fn probes(tracer: &Tracer, f: &Fixture, traces: &TraceSet, threads: usize) -> f64 {
    let encoded: Vec<Vec<u8>> = traces.entries.iter().map(|e| e.trace.to_bytes()).collect();
    let resident: Vec<&Trace> = traces.entries.iter().map(|e| &e.trace).collect();
    let configs = figure2_configs(f.engine.base());
    for _ in 0..PROBES {
        tracer.op("probe.hash", |op| {
            for bytes in &encoded {
                std::hint::black_box(tracer.span(op, "codec.hash", |_| leon_sim::fnv1a64(bytes)));
            }
        });
        walk_probe(tracer, &resident, &configs, f.max_cycles, threads);
    }
    let mut classes = 0;
    for trace in &resident {
        classes += leon_sim::ReplayBatch::new(trace, &configs, f.max_cycles).class_count();
    }
    (configs.len() * traces.len()) as f64 / classes.max(1) as f64
}

pub fn run_traced(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let f = fixture(ctx);
    let mut tally = Tally::default();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counts = Vec::new();
    let mut hit_ratio = Vec::new();
    let mut last_traces = None;
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < ctx.seconds {
        for step in 0..2 {
            let dir = ctx.dir.join(format!("traced-{round}-{step}"));
            if (round + step) % 2 == 0 {
                // untraced baseline for the tracing overhead
                let store = ArtifactStore::open(&dir).expect("open cold store");
                let run = timed_run(&f.engine.clone().with_store(store.clone()), &f);
                if let Some(ms) = checked(
                    &mut tally,
                    "cold campaign",
                    run,
                    f.reference_guest,
                    &f.reference,
                ) {
                    plain_ms.push(ms);
                }
                let s = store.stats();
                hit_ratio.push(s.hits as f64 / (s.hits + s.misses).max(1) as f64);
                let _ = std::fs::remove_dir_all(&dir);
            } else {
                let begin = Instant::now();
                tally.begin();
                match traced_cold(tracer, &f, &dir) {
                    Ok((json, traces, c)) => {
                        traced_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                        tally.verify(json == f.reference, || {
                            "traced campaign result differs from Campaign::run".to_string()
                        });
                        tally.verify(c.campaign_guest as u64 == f.reference_guest, || {
                            format!(
                                "traced campaign executed {} guest instructions",
                                c.campaign_guest
                            )
                        });
                        counts.push(c);
                        last_traces = Some(traces);
                    }
                    Err(e) => tally.fail("traced cold campaign", &e),
                }
            }
        }
        round += 1;
    }
    let traces = last_traces.expect("at least one traced campaign");
    let configs_per_class = probes(tracer, &f, &traces, ctx.threads);

    let b = crate::spans::Breakdown::of(&tracer.spans());
    eprint!("{}", b.render("campaign_cold"));
    let col = |pick: fn(&Counts) -> f64| median(&counts.iter().map(pick).collect::<Vec<_>>());
    let capture_ms = b.ms("capture");
    let capture_guest = col(|c| c.capture_guest);
    let overhead = median(&traced_ms) / median(&plain_ms) - 1.0;
    eprintln!(
        "  tracing overhead: traced {:.2} ms vs untraced {:.2} ms per cold campaign ({:+.2}%)",
        median(&traced_ms),
        median(&plain_ms),
        100.0 * overhead
    );
    let layers = BTreeMap::from([
        ("capture.ms", capture_ms),
        ("capture.guest_instr", capture_guest),
        ("capture.mips", capture_guest / (capture_ms * 1e3)),
        ("codec.encode_ms", b.ms("codec.encode")),
        ("codec.hash_ms", b.ms("codec.hash")),
        ("codec.trace_mb", col(|c| c.trace_mb)),
        ("store.write_ms", b.ms("store.write")),
        ("store.mb_written", col(|c| c.mb_written)),
        ("store.hit_ratio", median(&hit_ratio)),
        ("walk.ms", b.ms("walk")),
        ("walk.passes", col(|c| c.walk_passes)),
        ("walk.segments", col(|c| c.walk_segments)),
        ("walk.configs_per_class", configs_per_class),
        ("measure.table_ms", b.ms("measure.table")),
        ("dcache_study.sweep_ms", b.ms("dcache_study.sweep")),
        ("optimizer.per_app_ms", b.ms("optimizer.per_app")),
        ("campaign.guest_instr", col(|c| c.campaign_guest)),
        ("trace.unattributed_frac", b.unattributed_frac()),
        ("trace.overhead_frac", overhead),
    ]);
    Outcome {
        tally,
        e2e: EndToEnd::default(),
        layers,
    }
}
