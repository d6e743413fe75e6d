//! Golden-master fixtures: the paper-shaped results, frozen byte-for-byte.
//!
//! The store/laziness refactors promise "faster, never different".  These
//! tests make that promise falsifiable: the canonical `Scale::Tiny` results
//! — per-application optima over the paper's 52-variable space, the Figure 2
//! exhaustive sweeps, and the co-optimization outcomes for the equal mix and
//! every degenerate mix — are committed as pretty-printed JSON under
//! `tests/golden/`, and every run (store off, cold, warm, post-GC) must
//! reproduce them *byte-identically*.  The vendored `serde_json` round-trips
//! every `f64`/`u64` bit-exactly and the whole pipeline is deterministic at
//! any thread count (pinned by `tests/campaign_engine.rs`), so any diff here
//! is a real behaviour change.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_master
//! ```
//!
//! and review the fixture diff like any other code change.

use std::path::PathBuf;

use liquid_autoreconf::apps::{benchmark_suite, Scale};
use liquid_autoreconf::tuner::{
    ArtifactStore, Campaign, CampaignSession, MeasurementOptions, Weights,
};

const MAX_CYCLES: u64 = 400_000_000;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn campaign(store: Option<ArtifactStore>) -> Campaign {
    // the paper's full 52-variable space with the runtime-optimisation
    // weights — the configuration behind Figures 2, 5 and 6
    let mut c = Campaign::new().with_weights(Weights::runtime_optimized()).with_measurement(
        MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0, use_replay: true },
    );
    if let Some(store) = store {
        c = c.with_store(store);
    }
    c
}

/// The three golden artifacts, rendered as (file name, pretty JSON).
fn render_goldens(session: &CampaignSession) -> Vec<(&'static str, String)> {
    let n = session.len();
    session.materialize_all().expect("derive every artifact");
    let per_app: Vec<_> = (0..n).map(|i| session.per_app_outcome(i).unwrap().clone()).collect();
    let sweeps: Vec<_> = (0..n).map(|i| session.sweep(i).unwrap().clone()).collect();

    // co-optimization outcomes: the equal mix plus every degenerate mix
    // (the degenerate ones must coincide with the per-application optima —
    // the correctness anchor of DESIGN.md §6)
    let mut cos = Vec::new();
    cos.push(session.co_optimize(&vec![1.0; n]).unwrap());
    for k in 0..n {
        let mut mix = vec![0.0; n];
        mix[k] = 1.0;
        cos.push(session.co_optimize(&mix).unwrap());
    }

    vec![
        ("per_app_optima.json", serde_json::to_string_pretty(&per_app).unwrap()),
        ("fig2_sweeps.json", serde_json::to_string_pretty(&sweeps).unwrap()),
        ("co_outcomes.json", serde_json::to_string_pretty(&cos).unwrap()),
    ]
}

/// Diff rendered artifacts against the committed fixtures (or regenerate
/// them under `BLESS=1`).  `phase` names the store phase for the message.
fn assert_matches_goldens(rendered: &[(&'static str, String)], phase: &str) {
    let bless = std::env::var("BLESS").map(|v| v == "1").unwrap_or(false);
    let dir = golden_dir();
    for (name, body) in rendered {
        let path = dir.join(name);
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, body.as_bytes()).unwrap();
            eprintln!("blessed {}", path.display());
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); run `BLESS=1 cargo test --test golden_master` \
                 to generate it",
                path.display()
            )
        });
        assert!(
            *body == committed,
            "{phase}: {} diverges from the committed golden master.\n\
             If this change is intentional, regenerate with `BLESS=1 cargo test --test \
             golden_master` and review the fixture diff.\n\
             (computed {} bytes, committed {} bytes)",
            path.display(),
            body.len(),
            committed.len()
        );
    }
}

#[test]
fn golden_master_matches_a_storeless_run() {
    let suite = benchmark_suite(Scale::Tiny);
    let engine = campaign(None);
    let session = engine.session(&suite).unwrap();
    assert_matches_goldens(&render_goldens(&session), "store off");
}

#[test]
fn golden_master_holds_across_the_store_lifecycle() {
    // skip the (redundant) lifecycle sweep while blessing: the storeless
    // test writes the fixtures, this one would race it over the same files
    if std::env::var("BLESS").map(|v| v == "1").unwrap_or(false) {
        return;
    }
    let suite = benchmark_suite(Scale::Tiny);
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-golden-lifecycle-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // cold: computes and persists every artifact
    let store = ArtifactStore::open(&dir).unwrap();
    let session = campaign(Some(store.clone())).session(&suite).unwrap();
    assert_matches_goldens(&render_goldens(&session), "cold store");
    drop(session);

    // warm: everything served from disk
    let session = campaign(Some(ArtifactStore::open(&dir).unwrap())).session(&suite).unwrap();
    assert_matches_goldens(&render_goldens(&session), "warm store");
    drop(session);

    // post-GC: a tight budget evicts most entries (no session pins are held
    // here), the next run recomputes the evicted artifacts — same bytes
    let report = store.gc(16 << 10).unwrap();
    assert!(report.within_budget(), "{report:?}");
    assert!(report.evicted > 0, "a 16 KiB budget must evict something: {report:?}");
    let session = campaign(Some(ArtifactStore::open(&dir).unwrap())).session(&suite).unwrap();
    assert_matches_goldens(&render_goldens(&session), "post-gc store");
    drop(session);

    assert!(store.doctor(false).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}
