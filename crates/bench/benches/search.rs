//! Pruned design-space search benchmarks (DESIGN.md §13) — `BENCH_search.json`.
//!
//! The funnel's claim is a wall-clock one: finding the measured optimum of a
//! candidate space no longer costs a walk per candidate.  This bench pins it
//! with three measurements per workload over the Figure 2 grid, plus the
//! 24 192-candidate expanded space on the memory-bound workload:
//!
//! * `exhaustive/<space>/<wl>` — every feasible candidate walk-validated
//!   (the baseline the funnel is pinned byte-identical against);
//! * `pruned/<space>/<wl>` — the three-stage funnel (closed-form bounds →
//!   Pareto frontier → batched branch-and-bound), same trace and cost table
//!   already resident, so the timing difference *is* the skipped walks;
//!
//! Both cold-funnel rows search on a new session whose trace was loaded
//! from the store before timing: a trace remembers the classes it has
//! walked, so the warm-up session's would answer the funnel's walks from
//! memory.
//! * `pruned_warm/<space>/<wl>` — the identical question re-asked against
//!   the store: one JSON load, counter-asserted **zero guest instructions
//!   and zero trace walks**.
//!
//! Every pruned run is parity-asserted against its exhaustive baseline
//! before any number is reported, and the recorded `pruned_fraction` is the
//! share of candidates never handed to the replay engine.
//!
//! Same `BENCH_<group>.json` / `$BENCH_JSON_DIR` / `BENCH_SMOKE` /
//! `BENCH_SCALE` conventions as the other plain-`main` targets.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use autoreconf::{
    ArtifactStore, Campaign, CampaignSession, SearchMode, SearchSpace, Weights,
};
use bench::{campaign_scale, measurement};
use leon_sim::trace_walks_performed;
use workloads::{benchmark_suite, guest_instructions_executed, Scale, Workload};

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autoreconf-bench-search-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(scale: Scale, dir: &PathBuf) -> Campaign {
    let _ = scale;
    Campaign::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(measurement())
        .with_store(ArtifactStore::open(dir).expect("open bench store"))
}

/// Drop every persisted `search` outcome so the next search re-runs the
/// funnel cold while traces and cost tables stay warm — the timing then
/// isolates the funnel itself.
fn purge_search_entries(store: &ArtifactStore) {
    for file in store.entries(Some("search")) {
        let _ = std::fs::remove_file(file);
    }
}

/// A new session with workload `index`'s trace already loaded from the
/// store: a cold copy, which remembers no walk.
fn resident<'s>(
    engine: &Campaign,
    suite: &'s [Box<dyn Workload + Send + Sync>],
    index: usize,
) -> CampaignSession<'s> {
    let session = engine.session(suite).expect("open session");
    session.trace(index).expect("load trace");
    session
}

struct Row {
    name: String,
    secs: f64,
    enumerated: usize,
    walk_validated: usize,
    pruned_fraction: f64,
}

fn timed_search(
    session: &CampaignSession<'_>,
    index: usize,
    sspace: &SearchSpace,
    mode: SearchMode,
    rows: &mut Vec<Row>,
) -> (String, f64) {
    let start = Instant::now();
    let outcome = session.search(index, sspace, mode).expect("search");
    let secs = start.elapsed().as_secs_f64();
    let fraction =
        outcome.candidates_pruned_closed_form as f64 / outcome.candidates_enumerated as f64;
    eprintln!(
        "  {}/{}/{}: {secs:.3}s ({} of {} walk-validated, pruned fraction {fraction:.4})",
        mode.name(),
        sspace.name,
        outcome.workload,
        outcome.candidates_walk_validated,
        outcome.candidates_enumerated,
    );
    rows.push(Row {
        name: format!("{}/{}/{}", mode.name(), sspace.name, outcome.workload),
        secs,
        enumerated: outcome.candidates_enumerated,
        walk_validated: outcome.candidates_walk_validated,
        pruned_fraction: fraction,
    });
    (serde_json::to_string(&outcome.best).expect("serialise best"), fraction)
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let scale = if smoke { Scale::Tiny } else { campaign_scale() };
    eprintln!("benchmark group: search (scale {})", scale.name());

    let dir = scratch_dir();
    let suite = benchmark_suite(scale);
    let engine = engine(scale, &dir);
    let store = engine.store().expect("store attached").clone();
    let session = engine.session(&suite).expect("open session");
    let figure2 = SearchSpace::figure2();
    let expanded = SearchSpace::expanded();
    let mut rows = Vec::new();

    // targets: every workload on the Figure 2 grid, the memory-bound
    // workload (BLASTN, suite index 0) on the expanded space
    let mut targets: Vec<(usize, &SearchSpace)> =
        (0..suite.len()).map(|i| (i, &figure2)).collect();
    targets.push((0, &expanded));

    // warm traces and search-space cost tables once, so the timed sections
    // below measure the funnel and not the shared setup
    for &(index, sspace) in &targets {
        session.search(index, sspace, SearchMode::Pruned).expect("warmup search");
    }

    // -- exhaustive baselines (cold funnel, warm trace/table) --------------
    purge_search_entries(&store);
    let mut parity: Vec<String> = Vec::new();
    for &(index, sspace) in &targets {
        let cold = resident(&engine, &suite, index);
        let (best, _) = timed_search(&cold, index, sspace, SearchMode::Exhaustive, &mut rows);
        parity.push(best);
    }

    // -- the pruned funnel (cold funnel, warm trace/table) ------------------
    purge_search_entries(&store);
    let mut fractions: Vec<f64> = Vec::new();
    for (&(index, sspace), exhaustive_best) in targets.iter().zip(&parity) {
        let cold = resident(&engine, &suite, index);
        let (best, fraction) = timed_search(&cold, index, sspace, SearchMode::Pruned, &mut rows);
        assert_eq!(
            &best, exhaustive_best,
            "pruned must crown the byte-identical optimum (workload {index}, {})",
            sspace.name
        );
        fractions.push(fraction);
    }

    // -- warm re-search: one JSON load, zero compute ------------------------
    let guests_before = guest_instructions_executed();
    let walks_before = trace_walks_performed();
    for &(index, sspace) in &targets {
        let start = Instant::now();
        let outcome = session.search(index, sspace, SearchMode::Pruned).expect("warm search");
        let secs = start.elapsed().as_secs_f64();
        rows.push(Row {
            name: format!("pruned_warm/{}/{}", sspace.name, outcome.workload),
            secs,
            enumerated: outcome.candidates_enumerated,
            walk_validated: outcome.candidates_walk_validated,
            pruned_fraction: outcome.candidates_pruned_closed_form as f64
                / outcome.candidates_enumerated as f64,
        });
    }
    let warm_guests = guest_instructions_executed() - guests_before;
    let warm_walks = trace_walks_performed() - walks_before;
    assert_eq!(warm_guests, 0, "a warm re-search must execute zero guest instructions");
    assert_eq!(warm_walks, 0, "a warm re-search must perform zero trace walks");
    eprintln!("  pruned_warm: 0 guest instructions, 0 trace walks");

    // -- report ------------------------------------------------------------
    let expanded_fraction = fractions.last().copied().unwrap_or(0.0);
    let out_dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = format!("{out_dir}/BENCH_search.json");
    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"group\": \"search\",");
    let _ = writeln!(body, "  \"scale\": \"{}\",", scale.name());
    let _ = writeln!(body, "  \"expanded_candidates\": {},", expanded.len());
    let _ = writeln!(body, "  \"expanded_pruned_fraction\": {expanded_fraction:.6},");
    let _ = writeln!(body, "  \"warm_guest_instructions\": {warm_guests},");
    let _ = writeln!(body, "  \"warm_trace_walks\": {warm_walks},");
    let _ = writeln!(body, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "    {{\"name\": \"{}\", \"secs\": {:.6}, \"enumerated\": {}, \
             \"walk_validated\": {}, \"pruned_fraction\": {:.6}}}{comma}",
            r.name, r.secs, r.enumerated, r.walk_validated, r.pruned_fraction
        );
    }
    let _ = writeln!(body, "  ]");
    let _ = writeln!(body, "}}");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("wrote {path}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
