//! End-to-end smoke test for the campaign service: a real
//! `autoreconf-serve` subprocess, a fan-out of concurrent clients covering
//! warm, cold and contended queries, and byte-identity of every answer
//! against a direct in-process, store-less campaign.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use autoreconf::experiments::ExperimentOptions;
use autoreconf::ParameterSpace;
use autoreconf_service::Client;
use workloads::{benchmark_suite, Scale};

const MIX: [f64; 4] = [0.4, 0.3, 0.2, 0.1];
const CLIENTS: usize = 32;

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-service-{}-{}-{tag}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference answers: a direct in-process campaign with the exact same
/// configuration the daemon builds, but *no store* — pure computation.
/// The population the warm phase asks over the wire: the shared mix, a
/// scalar multiple of it (dedups onto the same unique mix) and a skewed
/// one.  Named `mix-{i}` to match the server's wire-profile naming.
const POPULATION: [[f64; 4]; 3] =
    [MIX, [0.8, 0.6, 0.4, 0.2], [0.1, 0.1, 0.1, 0.7]];
const POPULATION_TOLERANCE_PCT: f64 = 5.0;

struct Reference {
    names: Vec<String>,
    outcomes: Vec<String>,
    sweeps: Vec<String>,
    co: String,
    population: String,
}

fn reference() -> Reference {
    let options = ExperimentOptions { scale: Scale::Tiny, ..ExperimentOptions::default() };
    let engine = options.engine(None).with_space(ParameterSpace::dcache_geometry());
    let suite = benchmark_suite(Scale::Tiny);
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
        population: {
            let profiles: Vec<autoreconf::MixProfile> = POPULATION
                .iter()
                .enumerate()
                .map(|(i, weights)| autoreconf::MixProfile {
                    name: format!("mix-{i}"),
                    weights: weights.to_vec(),
                })
                .collect();
            serde_json::to_string(
                &session.population(&profiles, POPULATION_TOLERANCE_PCT).unwrap(),
            )
            .unwrap()
        },
    }
}

#[test]
fn daemon_answers_are_byte_identical_under_contention() {
    // `AUTORECONF_SMOKE_STORE` pins (and keeps) the store directory, so CI
    // can run the store lifecycle against the store the daemon left behind
    let (store_dir, keep_store) = match std::env::var("AUTORECONF_SMOKE_STORE") {
        Ok(dir) => (PathBuf::from(dir), true),
        Err(_) => (scratch_dir("smoke"), false),
    };
    let store_was_fresh = !store_dir.exists();
    let expected = reference();

    let mut child = Command::new(env!("CARGO_BIN_EXE_autoreconf-serve"))
        .args([
            "--scale",
            "tiny",
            "--space",
            "dcache",
            "--store",
            store_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn autoreconf-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read address line");
    let addr = line.trim().rsplit(' ').next().expect("address word").to_string();

    // -- cold + contended: 32 clients race every artifact at once ----------
    std::thread::scope(|scope| {
        for i in 0..CLIENTS {
            let addr = &addr;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                assert_eq!(
                    client.ping().expect("ping"),
                    autoreconf_service::PROTOCOL_VERSION
                );
                let w = i % expected.names.len();
                let name = &expected.names[w];
                assert_eq!(
                    client.optimize(name).expect("optimize"),
                    expected.outcomes[w],
                    "per-app optimum for {name} must be byte-identical to a local run"
                );
                assert_eq!(
                    client.sweep(name).expect("sweep"),
                    expected.sweeps[w],
                    "sweep for {name} must be byte-identical to a local run"
                );
                assert_eq!(
                    client.co_optimize(&MIX).expect("co-optimize"),
                    expected.co,
                    "co-optimization must be byte-identical to a local run"
                );
            });
        }
    });

    // -- warm: a fresh round of every query must execute no new guest code --
    let mut client = Client::connect(&addr).expect("connect warm client");
    let description = client.describe().expect("describe");
    assert_eq!(description.workloads, expected.names);
    assert_eq!(description.scale, "tiny");
    assert!(description.store, "the daemon was started with --store");
    let cold = client.counters().expect("counters after cold phase");
    if store_was_fresh {
        assert!(cold.guest_instructions > 0, "the cold phase must have executed guest code");
    }
    for (w, name) in expected.names.iter().enumerate() {
        assert_eq!(client.optimize(name).expect("warm optimize"), expected.outcomes[w]);
        assert_eq!(client.sweep(name).expect("warm sweep"), expected.sweeps[w]);
    }
    assert_eq!(client.co_optimize(&MIX).expect("warm co-optimize"), expected.co);
    let mixes: Vec<Vec<f64>> = POPULATION.iter().map(|m| m.to_vec()).collect();
    assert_eq!(
        client.population(&mixes, POPULATION_TOLERANCE_PCT).expect("population"),
        expected.population,
        "a population solve over the wire must be byte-identical to a local run"
    );
    let warm = client.counters().expect("counters after warm phase");
    assert_eq!(
        warm.guest_instructions, cold.guest_instructions,
        "warm queries must execute zero guest instructions"
    );
    assert!(warm.requests_served > cold.requests_served);

    client.shutdown().expect("shutdown");
    let status = child.wait().expect("daemon exit status");
    assert!(status.success(), "daemon must exit cleanly after Shutdown: {status:?}");

    if !keep_store {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}
