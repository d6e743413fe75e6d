//! `serve_mixed`: an in-process daemon (`autoreconf::service::Server`) at
//! `Scale::Small` over a store warmed in set-up, driven by one closed-loop
//! SDK client.  The client sends a seeded stream of ~9 hits (per-app optima
//! and sweeps from session memory, popular mixes re-read from the store)
//! to 1 fresh co-optimization of a never-seen mix.  After the loop the
//! daemon is restarted over the warm store [`RESTARTS`] times, timing
//! bind → first fresh answer.
//!
//! One client, not one per CPU: on a 2-vCPU host two closed-loop clients
//! (each fresh request fanning its replays over both CPUs) made the fresh
//! median swing by a quarter between identical runs.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use autoreconf::experiments::ExperimentOptions;
use autoreconf::service::{Server, ServerConfig};
use autoreconf::{
    canonical_shares, formulate_mixed, ArtifactStore, Campaign, CampaignSession, CoOutcome,
    CostTable, FormulationOptions, ParameterSpace, StoreStats, Weights,
};
use autoreconf_service::Client;
use fpga_model::SynthesisModel;
use leon_sim::Trace;
use workloads::{benchmark_suite, guest_instructions_executed, Scale};

use crate::report::{bench_key, json, Ctx, EndToEnd, Outcome, Suite, Tally};
use crate::spans::{Breakdown, Scope, Tracer};
use crate::stats::{median, Samples};
use crate::stream::{serve_inputs, Request, RequestStream, ServeInputs};

const SCALE: Scale = Scale::Small;
/// Restarts per run: each is one sample of `warm_ms`, and a median of a
/// handful jumped between runs.
const RESTARTS: usize = 12;
const SETUPS: usize = 3;
/// Fresh mixes generated per second of run: far more than the client can
/// co-optimize, so the pool never runs dry.
const FRESH_PER_SECOND: usize = 300;

fn options(ctx: &Ctx) -> ExperimentOptions {
    ExperimentOptions {
        scale: SCALE,
        threads: ctx.threads,
        ..ExperimentOptions::default()
    }
}

/// The configuration the daemon builds its session with.
fn engine(ctx: &Ctx) -> Campaign {
    Campaign::new()
        .with_space(ParameterSpace::paper())
        .with_weights(Weights::runtime_optimized())
        .with_measurement(options(ctx).measurement())
}

/// Reference answers from a store-less in-process session.
struct References<'s> {
    session: CampaignSession<'s>,
    optimize: Vec<String>,
    sweep: Vec<String>,
    popular: Vec<String>,
}

impl References<'_> {
    /// The set-up answer to a hit; `None` for fresh requests.
    fn expected(&self, request: &Request) -> Option<&String> {
        match request {
            Request::Optimize(app) => Some(&self.optimize[*app]),
            Request::Sweep(app) => Some(&self.sweep[*app]),
            Request::Popular(k) => Some(&self.popular[*k]),
            Request::Fresh(_) => None,
        }
    }
}

fn references<'s>(ctx: &Ctx, suite: &'s Suite, inputs: &ServeInputs) -> References<'s> {
    let session = engine(ctx).session(suite).expect("reference session");
    let optimize = (0..suite.len())
        .map(|i| json(session.per_app_outcome(i).expect("reference optimum")))
        .collect();
    let sweep = (0..suite.len())
        .map(|i| json(session.sweep(i).expect("reference sweep")))
        .collect();
    let popular = inputs
        .popular
        .iter()
        .map(|mix| json(&session.co_optimize(mix).expect("reference co")))
        .collect();
    References {
        session,
        optimize,
        sweep,
        popular,
    }
}

/// Fill a store the way a daemon's earlier life would have: every
/// per-workload artifact plus the popular mixes' co outcomes.
fn warm_store(ctx: &Ctx, suite: &Suite, inputs: &ServeInputs, dir: &Path) {
    let store = ArtifactStore::open(dir).expect("open set-up store");
    let session = engine(ctx)
        .with_store(store)
        .session(suite)
        .expect("set-up session");
    session.materialize_all().expect("warm every artifact");
    for mix in &inputs.popular {
        session.co_optimize(mix).expect("warm popular mix");
    }
}

struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
    store: ArtifactStore,
}

fn start_daemon(ctx: &Ctx, dir: &Path) -> Daemon {
    let store = ArtifactStore::open(dir).expect("open daemon store");
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        options: options(ctx),
        space: ParameterSpace::paper(),
        store: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("daemon address");
    Daemon {
        addr,
        handle: std::thread::spawn(move || server.run()),
        store,
    }
}

fn stop_daemon(daemon: Daemon) {
    Client::connect(daemon.addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("daemon shutdown");
    daemon
        .handle
        .join()
        .expect("daemon thread")
        .expect("daemon run");
}

/// Ask a daemon for `mix`'s co-optimization on a new connection.
fn ask_co(addr: SocketAddr, mix: &[f64]) -> Result<String, String> {
    Client::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut client| client.co_optimize(mix).map_err(|e| e.to_string()))
}

/// Stratum of a hit's latency: its kind.
fn hit_kind(request: &Request) -> usize {
    match request {
        Request::Optimize(_) => 0,
        Request::Sweep(_) => 1,
        _ => 2,
    }
}

/// Everything one run shares between the loop, the restarts and the checks.
struct Run<'s> {
    ctx: &'s Ctx,
    names: Vec<String>,
    inputs: ServeInputs,
    refs: References<'s>,
    store_dir: PathBuf,
    setup_s: Vec<f64>,
}

impl Run<'_> {
    /// One SDK call for `request`, returning the answer JSON.
    fn call(&self, client: &mut Client, request: &Request) -> Result<String, String> {
        let answer = match request {
            Request::Optimize(app) => client.optimize(&self.names[*app]),
            Request::Sweep(app) => client.sweep(&self.names[*app]),
            Request::Popular(k) => client.co_optimize(&self.inputs.popular[*k]),
            Request::Fresh(k) => client.co_optimize(&self.inputs.fresh[*k]),
        };
        answer.map_err(|e| e.to_string())
    }
}

/// Set-up, repeated [`SETUPS`] times: warm a store and build the
/// store-less references.
fn set_up<'s>(ctx: &'s Ctx, suite: &'s Suite) -> Run<'s> {
    let fresh = FRESH_PER_SECOND * (ctx.seconds.as_secs() as usize).max(1);
    let mut setup_s = Vec::new();
    let mut last = None;
    for rep in 0..SETUPS {
        let start = Instant::now();
        let inputs = serve_inputs(ctx.seed, suite.len(), fresh, RESTARTS);
        let dir = ctx.dir.join(format!("store-{rep}"));
        warm_store(ctx, suite, &inputs, &dir);
        let refs = references(ctx, suite, &inputs);
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((_, _, old)) = last.replace((inputs, refs, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (inputs, refs, store_dir) = last.expect("at least one set-up");
    Run {
        ctx,
        names: refs.session.names().to_vec(),
        inputs,
        refs,
        store_dir,
        setup_s,
    }
}

/// The in-process side of the traced run: a session over the warm store
/// (the daemon's state, outside the daemon) and a probe store holding each
/// trace's serialised bytes, so store reads and decodes can be timed apart.
struct Shadow<'s> {
    tracer: &'s Tracer,
    /// Runs the same replica unrecorded, for the tracing overhead.
    untraced: Tracer,
    suite: &'s Suite,
    local: CampaignSession<'s>,
    probe: ArtifactStore,
    space: ParameterSpace,
    model: SynthesisModel,
    max_cycles: u64,
}

/// Per-operation counts of the shadow co-optimization.
#[derive(Clone, Copy, Default)]
struct CoCounts {
    nodes: u64,
    replays: u64,
}

impl Shadow<'_> {
    /// A co-optimization split into its layers: formulation → BINLP solve
    /// → synthesis of the recommendation → one replay per workload.
    /// Returns the selected variables and per-workload cycles.
    fn co(
        &self,
        t: &Tracer,
        scope: Scope,
        traces: &[&Trace],
        tables: &[&CostTable],
        mix: &[f64],
        counts: &mut CoCounts,
    ) -> Result<(Vec<usize>, Vec<u64>), String> {
        let shares = canonical_shares(mix).map_err(|e| e.to_string())?;
        let weighted: Vec<(f64, &CostTable)> =
            shares.iter().copied().zip(tables.iter().copied()).collect();
        let (formulation, _) = t.span(scope, "formulation", |_| {
            formulate_mixed(
                &self.space,
                &weighted,
                Weights::runtime_optimized(),
                FormulationOptions::default(),
            )
        });
        let solution = t
            .span(scope, "binlp.solve", |_| binlp::solve(&formulation.problem))
            .map_err(|e| format!("{e:?}"))?;
        counts.nodes += solution.stats.nodes;
        let mut selected = formulation.selected_indices(&solution.assignment);
        selected.sort_unstable();
        let recommended = self.space.apply(self.local.engine().base(), &selected);
        std::hint::black_box(t.span(scope, "synth", |_| self.model.synthesize(&recommended)));
        let mut cycles = Vec::new();
        for trace in traces {
            counts.replays += 1;
            let stats = t
                .span(scope, "replay", |_| {
                    leon_sim::replay(trace, &recommended, self.max_cycles)
                })
                .map_err(|e| e.to_string())?;
            cycles.push(stats.cycles);
        }
        Ok((selected, cycles))
    }

    fn resident(&self) -> (Vec<&Trace>, Vec<&CostTable>) {
        let n = self.local.len();
        let traces = (0..n)
            .map(|i| &self.local.trace(i).expect("resident trace").trace)
            .collect();
        let tables = (0..n)
            .map(|i| self.local.table(i).expect("resident table"))
            .collect();
        (traces, tables)
    }
}

/// The shadow's answer must agree with the daemon's on what matters: the
/// selected variables and every workload's replayed cycles.
fn agrees(answer: &str, selected: &[usize], cycles: &[u64]) -> bool {
    match serde_json::from_str::<CoOutcome>(answer) {
        Ok(co) => {
            co.selected == selected
                && co
                    .per_workload
                    .iter()
                    .map(|w| w.cycles)
                    .eq(cycles.iter().copied())
        }
        Err(_) => false,
    }
}

/// What the client saw.
#[derive(Default)]
struct Log {
    tally: Tally,
    /// Hit latencies, one stratum per kind (optimize, sweep, popular).
    hit_ms: Samples,
    fresh_ms: Vec<f64>,
    restart_ms: Vec<f64>,
    /// Every never-seen mix asked and its answer, checked after the run.
    fresh: Vec<(Vec<f64>, String)>,
    completed: u64,
    response_bytes: u64,
    // traced runs only: replica plus round trip, recorded
    traced_fresh_ms: Vec<f64>,
    wire_us: Vec<f64>,
    co: Vec<CoCounts>,
}

/// The closed loop against one daemon over the warm store: send the next
/// request only after the previous answer arrived.  With a shadow, every
/// fresh request runs its replica before the SDK round trip, and every
/// other request is traced (shadow layers, then the round trip as its own
/// span); untraced fresh requests run the replica unrecorded, so traced and
/// untraced fresh times cover the same work.  Returns the daemon store's
/// counters before and after.
fn serve(run: &Run<'_>, shadow: Option<&Shadow<'_>>, log: &mut Log) -> (StoreStats, StoreStats) {
    let daemon = start_daemon(run.ctx, &run.store_dir);
    let mut client = Client::connect(daemon.addr).expect("connect client");
    // daemon warm-up (not timed): pull every per-app answer into session memory
    for name in &run.names {
        client.optimize(name).expect("warm-up optimize");
        client.sweep(name).expect("warm-up sweep");
    }
    let before = daemon.store.stats();
    let mut stream = RequestStream::new(run.ctx.seed, run.names.len());
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < run.ctx.seconds {
        let request = stream.next_request();
        if let Request::Fresh(k) = request {
            if k >= run.inputs.fresh.len() {
                eprintln!("warning: the fresh mix pool ran dry");
                break;
            }
        }
        n += 1;
        log.tally.begin();
        let traced = shadow.filter(|_| n.is_multiple_of(2));
        let begin = Instant::now();
        let answer = match (shadow, &request) {
            (None, _) => run.call(&mut client, &request),
            (Some(s), Request::Fresh(k)) => {
                let t = if traced.is_some() { s.tracer } else { &s.untraced };
                shadowed_fresh(s, t, &mut client, run, *k, log)
            }
            (Some(s), _) if traced.is_some() => traced_hit(s, &mut client, run, &request, log),
            (Some(_), _) => run.call(&mut client, &request),
        };
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => {
                log.tally.fail("request", &e);
                continue;
            }
        };
        log.completed += 1;
        log.response_bytes += answer.len() as u64;
        match (run.refs.expected(&request), &request) {
            (Some(expected), _) => {
                log.tally.verify(&answer == expected, || {
                    format!("{request:?} differs from its reference")
                });
                if traced.is_none() {
                    log.hit_ms.push(hit_kind(&request), ms);
                }
            }
            (None, Request::Fresh(k)) => {
                match traced {
                    None => log.fresh_ms.push(ms),
                    Some(_) => log.traced_fresh_ms.push(ms),
                }
                log.fresh.push((run.inputs.fresh[*k].clone(), answer));
            }
            (None, _) => unreachable!("only fresh requests lack a set-up reference"),
        }
    }
    let after = daemon.store.stats();
    drop(client);
    stop_daemon(daemon);
    (before, after)
}

/// A fresh request: the layer-by-layer replica of its co-optimization, then
/// the SDK round trip, under tracer `t` (recording or not).
fn shadowed_fresh(
    s: &Shadow<'_>,
    t: &Tracer,
    client: &mut Client,
    run: &Run<'_>,
    k: usize,
    log: &mut Log,
) -> Result<String, String> {
    let mix = &run.inputs.fresh[k];
    let mut counts = CoCounts::default();
    let (shadow, answer) = t.op("service.fresh", |op| {
        let (traces, tables) = s.resident();
        let shadow = s.co(t, op, &traces, &tables, mix, &mut counts);
        let answer = t.span(op, "service.roundtrip", |_| {
            run.call(client, &Request::Fresh(k))
        });
        (shadow, answer)
    });
    let answer = answer?;
    let (selected, cycles) = shadow?;
    log.tally.verify(agrees(&answer, &selected, &cycles), || {
        format!("daemon answer for fresh mix {mix:?} disagrees with its layer-by-layer replica")
    });
    log.co.push(counts);
    Ok(answer)
}

fn traced_hit(
    s: &Shadow<'_>,
    client: &mut Client,
    run: &Run<'_>,
    request: &Request,
    log: &mut Log,
) -> Result<String, String> {
    let t = s.tracer;
    t.op("service.hit", |op| {
        let start = Instant::now();
        let local = t.span(op, "session.call", |_| -> Result<String, String> {
            let l = &s.local;
            let err = |e: autoreconf::OptimizeError| e.to_string();
            Ok(match request {
                Request::Optimize(app) => json(l.per_app_outcome(*app).map_err(err)?),
                Request::Sweep(app) => json(l.sweep(*app).map_err(err)?),
                Request::Popular(k) => json(&l.co_optimize(&run.inputs.popular[*k]).map_err(err)?),
                Request::Fresh(_) => unreachable!("handled above"),
            })
        });
        let local_ns = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        let answer = t.span(op, "service.roundtrip", |_| run.call(client, request));
        let roundtrip_ns = start.elapsed().as_nanos() as f64;
        log.wire_us.push((roundtrip_ns - local_ns) / 1e3);
        log.tally
            .verify(local.as_ref().ok() == run.refs.expected(request), || {
                format!("in-process answer to {request:?} differs from its reference")
            });
        answer
    })
}

/// Restart the daemon over the warm store once per restart mix, timing
/// bind → first fresh answer.
fn restarts(run: &Run<'_>, shadow: Option<&Shadow<'_>>, log: &mut Log) {
    for mix in &run.inputs.restart {
        log.tally.begin();
        let start = Instant::now();
        let answer = match shadow {
            None => {
                let daemon = start_daemon(run.ctx, &run.store_dir);
                let answer = ask_co(daemon.addr, mix);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                stop_daemon(daemon);
                answer.map(|a| (ms, a))
            }
            Some(s) => traced_restart(run, s, mix, &mut log.tally),
        };
        match answer {
            Ok((ms, answer)) => {
                log.restart_ms.push(ms);
                log.fresh.push((mix.clone(), answer));
            }
            Err(e) => log.tally.fail("daemon restart", &e),
        }
    }
}

/// A restart split into its layers: bind, read and decode every trace,
/// load every cost table, the co-optimization layers, then the daemon's
/// own first fresh answer.
fn traced_restart(
    run: &Run<'_>,
    s: &Shadow<'_>,
    mix: &[f64],
    tally: &mut Tally,
) -> Result<(f64, String), String> {
    let t = s.tracer;
    let start = Instant::now();
    let (daemon, answer, shadow) = t.op("service.restart", |op| {
        let daemon = t.span(op, "service.bind", |_| {
            start_daemon(run.ctx, &run.store_dir)
        });
        let shadow = (|| -> Result<(Vec<usize>, Vec<u64>), String> {
            let mut traces = Vec::new();
            for i in 0..run.names.len() {
                let bytes = t
                    .span(op, "store.read", |_| {
                        s.probe.load("probe", bench_key("probe", i))
                    })
                    .ok_or("probe entry missing")?;
                traces.push(
                    t.span(op, "codec.decode", |_| Trace::from_bytes(&bytes))
                        .map_err(|e| e.to_string())?,
                );
            }
            let fresh = t
                .span(op, "campaign.session", |_| {
                    let store = ArtifactStore::open(&run.store_dir)?;
                    engine(run.ctx)
                        .with_store(store)
                        .session(s.suite)
                        .map_err(|e| io::Error::other(e.to_string()))
                })
                .map_err(|e| e.to_string())?;
            let mut tables = Vec::new();
            for i in 0..run.names.len() {
                tables.push(
                    t.span(op, "session.table", |_| fresh.table(i).cloned())
                        .map_err(|e| e.to_string())?,
                );
            }
            let traces: Vec<&Trace> = traces.iter().collect();
            let tables: Vec<&CostTable> = tables.iter().collect();
            s.co(t, op, &traces, &tables, mix, &mut CoCounts::default())
        })();
        let answer = t.span(op, "service.roundtrip", |_| ask_co(daemon.addr, mix));
        (daemon, answer, shadow)
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    stop_daemon(daemon);
    let answer = answer?;
    let (selected, cycles) = shadow?;
    tally.verify(agrees(&answer, &selected, &cycles), || {
        format!("restarted daemon's answer for {mix:?} disagrees with its layer-by-layer replica")
    });
    Ok((ms, answer))
}

/// Check every fresh answer against the store-less session's
/// co-optimization of the same mix.  This runs after the loop, split over
/// the CPUs: a reference per fresh request costs as much as the request.
fn verify_fresh(run: &Run<'_>, log: &mut Log) {
    let workers = run.ctx.threads.max(1);
    let answers = &log.fresh;
    let wrong: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    answers
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .filter(|(mix, answer)| {
                            run.refs.session.co_optimize(mix).map(|co| json(&co)).as_ref()
                                != Ok(answer)
                        })
                        .map(|(mix, _)| {
                            format!("fresh answer for {mix:?} differs from the in-memory co-optimization")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    for what in wrong {
        log.tally.verify(false, || what);
    }
}

/// Serve, restart, check; returns the log and the daemon store's counters.
fn drive(run: &Run<'_>, shadow: Option<&Shadow<'_>>) -> (Log, StoreStats, StoreStats) {
    let mut log = Log::default();
    let guest_before = guest_instructions_executed();
    let (before, after) = serve(run, shadow, &mut log);
    restarts(run, shadow, &mut log);
    let guest = guest_instructions_executed() - guest_before;
    log.tally.verify(guest == 0, || {
        format!("serving executed {guest} guest instructions")
    });
    verify_fresh(run, &mut log);
    (log, before, after)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let suite = benchmark_suite(SCALE);
    let run = set_up(ctx, &suite);
    let (log, _, _) = drive(&run, None);
    let e2e = EndToEnd {
        setup_s: run.setup_s.clone().into(),
        main_ms: log.fresh_ms.into(),
        control_ms: log.hit_ms,
        warm_ms: log.restart_ms.into(),
        peak_heap_mb: crate::heap::peak_mb(),
    };
    Outcome {
        tally: log.tally,
        e2e,
        layers: BTreeMap::new(),
    }
}

pub fn run_traced(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let suite = benchmark_suite(SCALE);
    let run = set_up(ctx, &suite);
    let local = engine(ctx)
        .with_store(ArtifactStore::open(&run.store_dir).expect("open shadow store"))
        .session(&suite)
        .expect("shadow session");
    local.materialize_all().expect("shadow artifacts");
    let probe = ArtifactStore::open(ctx.dir.join("probe")).expect("open probe store");
    for i in 0..suite.len() {
        let bytes = local.trace(i).expect("shadow trace").trace.to_bytes();
        probe
            .save("probe", bench_key("probe", i), &bytes)
            .expect("save probe trace");
    }
    let shadow = Shadow {
        tracer,
        untraced: Tracer::disabled(),
        suite: &suite,
        local,
        probe,
        space: ParameterSpace::paper(),
        model: SynthesisModel::default(),
        max_cycles: options(ctx).max_cycles,
    };
    let (log, before, after) = drive(&run, Some(&shadow));

    let b = Breakdown::of(&tracer.spans());
    eprint!("{}", b.render("serve_mixed"));
    let traced_fresh = median(&log.traced_fresh_ms);
    let plain_fresh = median(&log.fresh_ms);
    let overhead = traced_fresh / plain_fresh - 1.0;
    eprintln!(
        "  tracing overhead: traced {traced_fresh:.3} ms vs untraced {plain_fresh:.3} ms per fresh request, replica plus round trip ({:+.2}%)",
        100.0 * overhead
    );
    let per_request = |total: f64| total / log.completed.max(1) as f64;
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let co_median = |pick: fn(&CoCounts) -> u64| {
        median(&log.co.iter().map(|c| pick(c) as f64).collect::<Vec<_>>())
    };
    let layers = BTreeMap::from([
        ("codec.decode_ms", b.ms("codec.decode")),
        ("store.read_ms", b.ms("store.read")),
        (
            "store.mb_read",
            per_request((after.payload_bytes_read - before.payload_bytes_read) as f64 / 1e6),
        ),
        (
            "store.hit_ratio",
            (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        ),
        ("replay.ms", b.ms("replay")),
        ("replay.calls", co_median(|c| c.replays)),
        ("formulation.ms", b.ms("formulation")),
        ("binlp.solve_ms", b.ms("binlp.solve")),
        ("binlp.nodes", co_median(|c| c.nodes)),
        ("service.wire_us", median(&log.wire_us)),
        (
            "service.frame_kb",
            per_request(log.response_bytes as f64 / 1024.0),
        ),
        ("synth.ms", b.ms("synth")),
        ("synth.calls", if log.co.is_empty() { 0.0 } else { 1.0 }),
        ("campaign.guest_instr", 0.0),
        ("trace.unattributed_frac", b.unattributed_frac()),
        ("trace.overhead_frac", overhead),
    ]);
    Outcome {
        tally: log.tally,
        e2e: EndToEnd::default(),
        layers,
    }
}
