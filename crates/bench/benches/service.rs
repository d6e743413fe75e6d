//! Campaign-service latency benchmarks (DESIGN.md §11) — `BENCH_service.json`.
//!
//! An in-process `autoreconf::service::Server` (real TCP listener, real
//! frames) is driven by SDK clients in three modes:
//!
//! * `cold/<scale>` — a fresh daemon over an empty store, one client's first
//!   full query round (per-app optimum + sweep for every workload, then the
//!   co-optimization) — every answer computed and persisted under a lease;
//! * `warm/<scale>` — the same daemon re-queried after the store is hot —
//!   every answer served from the store with zero guest execution;
//! * `contended/<scale>` — a fresh daemon and empty store hit by
//!   [`CLIENTS`] concurrent clients at once, racing every artifact.
//!
//! The vendored criterion shim only records mean/min, so this bench is a
//! plain `main` that collects *per-request* latencies and reports
//! p50/p99 alongside mean/min, in the same `BENCH_<group>.json` /
//! `$BENCH_JSON_DIR` / `BENCH_SMOKE` conventions as the other targets.
//!
//! Contracts asserted before the numbers are reported:
//!
//! * every response (cold, warm, contended) is byte-identical to a direct
//!   in-process, store-less campaign;
//! * each cold/contended round executes *exactly* one run's worth of guest
//!   instructions — the duplicated-guest-instruction count across all
//!   contended clients is asserted zero (the claim/lease dedup contract);
//! * warm rounds execute zero guest instructions.

use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use autoreconf::experiments::ExperimentOptions;
use autoreconf::service::{Server, ServerConfig};
use autoreconf::{ArtifactStore, ParameterSpace};
use autoreconf_service::Client;
use workloads::{benchmark_suite, guest_instructions_executed, Scale};

const MIX: [f64; 4] = [0.4, 0.3, 0.2, 0.1];
const CLIENTS: usize = 16;

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-bench-service-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference answers: a direct in-process campaign with the exact same
/// configuration the daemon builds, but no store — pure computation.
struct Reference {
    names: Vec<String>,
    outcomes: Vec<String>,
    sweeps: Vec<String>,
    co: String,
}

fn reference(scale: Scale) -> Reference {
    let engine = ExperimentOptions { scale, ..ExperimentOptions::default() }.engine(None);
    let suite = benchmark_suite(scale);
    let session = engine.session(&suite).unwrap();
    Reference {
        names: session.names().to_vec(),
        outcomes: (0..suite.len())
            .map(|i| serde_json::to_string(session.per_app_outcome(i).unwrap()).unwrap())
            .collect(),
        sweeps: (0..suite.len())
            .map(|i| serde_json::to_string(session.sweep(i).unwrap()).unwrap())
            .collect(),
        co: serde_json::to_string(&session.co_optimize(&MIX).unwrap()).unwrap(),
    }
}

struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
    dir: PathBuf,
}

fn start_daemon(scale: Scale) -> Daemon {
    let dir = scratch_dir();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        options: ExperimentOptions { scale, ..ExperimentOptions::default() },
        space: ParameterSpace::paper(),
        store: Some(ArtifactStore::open(&dir).unwrap()),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind service listener");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle, dir }
}

fn stop_daemon(daemon: Daemon) {
    let client = Client::connect(daemon.addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    daemon.handle.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&daemon.dir);
}

/// Time one request, pushing its latency (ns) into `samples`.
fn timed<T>(samples: &mut Vec<f64>, call: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = call();
    samples.push(start.elapsed().as_nanos() as f64);
    out
}

/// One full query round — per-app optimum + sweep for every workload, then
/// the co-optimization — every answer checked against the reference.
fn full_round(client: &mut Client, expected: &Reference, samples: &mut Vec<f64>) {
    for (w, name) in expected.names.iter().enumerate() {
        let outcome = timed(samples, || client.optimize(name).expect("optimize"));
        assert_eq!(
            outcome, expected.outcomes[w],
            "per-app optimum for {name} must be byte-identical to a local run"
        );
        let sweep = timed(samples, || client.sweep(name).expect("sweep"));
        assert_eq!(
            sweep, expected.sweeps[w],
            "sweep for {name} must be byte-identical to a local run"
        );
    }
    let co = timed(samples, || client.co_optimize(&MIX).expect("co-optimize"));
    assert_eq!(co, expected.co, "co-optimization must be byte-identical to a local run");
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct ModeStats {
    name: String,
    mean_ns: f64,
    min_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    samples: usize,
}

fn stats(name: String, mut samples: Vec<f64>) -> ModeStats {
    samples.sort_by(|a, b| a.total_cmp(b));
    let count = samples.len().max(1);
    let mean = samples.iter().sum::<f64>() / count as f64;
    let min = samples.first().copied().unwrap_or(0.0);
    let p50 = percentile(&samples, 50.0);
    let p99 = percentile(&samples, 99.0);
    eprintln!(
        "  {name:<28} p50 {p50:>12.1} ns  p99 {p99:>12.1} ns  mean {mean:>12.1} ns  \
         ({} samples)",
        samples.len()
    );
    ModeStats { name, mean_ns: mean, min_ns: min, p50_ns: p50, p99_ns: p99, samples: samples.len() }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let scale = match std::env::var("BENCH_SCALE") {
        Ok(v) => Scale::parse(&v).unwrap_or_else(|e| panic!("BENCH_SCALE: {e}")),
        Err(_) => Scale::Small,
    };
    eprintln!("benchmark group: service (scale {}, {CLIENTS} contended clients)", scale.name());

    let before_reference = guest_instructions_executed();
    let expected = reference(scale);
    let reference_guest = guest_instructions_executed() - before_reference;
    assert!(reference_guest > 0, "the store-less reference run must execute guest code");

    // -- cold: a fresh daemon + empty store per iteration, one client ------
    let cold_iterations = if smoke { 1 } else { 5 };
    let mut cold_samples = Vec::new();
    let mut hot_daemon = None;
    for _ in 0..cold_iterations {
        if let Some(previous) = hot_daemon.take() {
            stop_daemon(previous);
        }
        let daemon = start_daemon(scale);
        let before = guest_instructions_executed();
        let mut client = Client::connect(daemon.addr).expect("connect cold client");
        full_round(&mut client, &expected, &mut cold_samples);
        assert_eq!(
            guest_instructions_executed() - before,
            reference_guest,
            "a cold round must execute exactly one run's worth of guest instructions"
        );
        hot_daemon = Some(daemon);
    }

    // -- warm: re-query the last daemon's hot store ------------------------
    let warm_rounds = if smoke { 2 } else { 20 };
    let mut warm_samples = Vec::new();
    let warm_daemon = hot_daemon.take().expect("a cold iteration ran");
    let before_warm = guest_instructions_executed();
    let mut client = Client::connect(warm_daemon.addr).expect("connect warm client");
    for _ in 0..warm_rounds {
        full_round(&mut client, &expected, &mut warm_samples);
    }
    assert_eq!(
        guest_instructions_executed(),
        before_warm,
        "warm rounds must execute zero guest instructions"
    );
    drop(client);
    stop_daemon(warm_daemon);

    // -- contended: CLIENTS concurrent clients race a fresh store ----------
    let contended_iterations = if smoke { 1 } else { 3 };
    let mut contended_samples = Vec::new();
    let mut duplicated_guest_instructions = 0u64;
    for _ in 0..contended_iterations {
        let daemon = start_daemon(scale);
        let addr = daemon.addr;
        let before = guest_instructions_executed();
        let per_client: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut samples = Vec::new();
                        let mut client = Client::connect(addr).expect("connect");
                        let w = i % expected.names.len();
                        let name = &expected.names[w];
                        let outcome = timed(&mut samples, || client.optimize(name).expect("optimize"));
                        assert_eq!(outcome, expected.outcomes[w]);
                        let sweep = timed(&mut samples, || client.sweep(name).expect("sweep"));
                        assert_eq!(sweep, expected.sweeps[w]);
                        let co =
                            timed(&mut samples, || client.co_optimize(&MIX).expect("co-optimize"));
                        assert_eq!(co, expected.co);
                        samples
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let executed = guest_instructions_executed() - before;
        duplicated_guest_instructions += executed.saturating_sub(reference_guest);
        assert_eq!(
            executed, reference_guest,
            "{CLIENTS} contending clients must together execute exactly one run's worth \
             of guest instructions"
        );
        contended_samples.extend(per_client.into_iter().flatten());
        stop_daemon(daemon);
    }
    assert_eq!(
        duplicated_guest_instructions, 0,
        "the claim/lease protocol must never duplicate guest execution"
    );

    // -- report ------------------------------------------------------------
    let results = [
        stats(format!("cold/{}", scale.name()), cold_samples),
        stats(format!("warm/{}", scale.name()), warm_samples),
        stats(format!("contended/{}", scale.name()), contended_samples),
    ];
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = format!("{dir}/BENCH_service.json");
    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"group\": \"service\",");
    let _ = writeln!(body, "  \"scale\": \"{}\",", scale.name());
    let _ = writeln!(body, "  \"clients\": {CLIENTS},");
    let _ = writeln!(body, "  \"duplicated_guest_instructions\": {duplicated_guest_instructions},");
    let _ = writeln!(body, "  \"benchmarks\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "    {{\"name\": \"{}\", \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
             \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}}}{comma}",
            r.name, r.p50_ns, r.p99_ns, r.mean_ns, r.min_ns, r.samples
        );
    }
    let _ = writeln!(body, "  ]");
    let _ = writeln!(body, "}}");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}
