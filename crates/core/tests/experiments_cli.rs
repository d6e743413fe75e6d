//! The figure targets of the real `experiments` binary read one campaign
//! session per run:
//!
//! * `all` captures each workload once — exactly the guest instructions the
//!   `campaign` target alone executes — and its campaign is the `campaign`
//!   target's, byte for byte;
//! * with `--store`, every figure is served through the session's store: a
//!   cold and a warm `all` write the figure JSON a store-less `all` writes,
//!   and the warm run executes no guest instruction;
//! * `--gc-budget` runs after the session closes, so the pass sees none of
//!   the run's pins, fits the budget and leaves a doctor-clean store.

use std::path::Path;
use std::process::{Command, Output};

mod support;
use support::{guest_instructions, scratch_dir};

/// Run `experiments ARGS` (isolated from any ambient store or budget) and
/// insist that it succeeds.
fn experiments(args: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env_remove("AUTORECONF_STORE")
        .env_remove("AUTORECONF_STORE_BUDGET")
        .output()
        .expect("spawn experiments");
    assert!(
        output.status.success(),
        "experiments {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Run a Tiny-scale target, writing its JSON into `json` and its compute
/// counters beside it; returns the guest instructions it executed.
fn run_tiny(target: &str, json: &Path, extra: &[&str]) -> (u64, Output) {
    let counters = json.with_extension("counters.json");
    let mut args = vec![target, "--scale", "tiny", "--threads", "1"];
    args.extend(["--json", json.to_str().unwrap(), "--counters", counters.to_str().unwrap()]);
    args.extend(extra);
    let output = experiments(&args);
    (guest_instructions(&counters), output)
}

/// Every JSON file a run wrote, by name.
fn json_files(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn all_captures_each_workload_once() {
    let root = scratch_dir("once");
    let (all_guest, _) = run_tiny("all", &root.join("all"), &[]);
    let (campaign_guest, _) = run_tiny("campaign", &root.join("campaign"), &[]);
    assert!(campaign_guest > 0, "the campaign must capture the suite");
    assert_eq!(all_guest, campaign_guest, "`all` must capture each workload exactly once");
    let read = |dir: &str| std::fs::read_to_string(root.join(dir).join("campaign.json")).unwrap();
    assert_eq!(read("all"), read("campaign"), "`all` must run the `campaign` target's campaign");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn figures_served_from_a_store_equal_storeless_figures() {
    let root = scratch_dir("store");
    let store = root.join("store");
    let store_arg = ["--store", store.to_str().unwrap()];
    let (_, plain) = run_tiny("all", &root.join("plain"), &[]);
    let (cold_guest, cold) = run_tiny("all", &root.join("cold"), &store_arg);
    let (warm_guest, warm) = run_tiny("all", &root.join("warm"), &store_arg);

    let reference = json_files(&root.join("plain"));
    assert_eq!(reference.len(), 7, "figures 2-7 and the campaign: {reference:?}");
    assert_eq!(json_files(&root.join("cold")), reference, "a cold store must not change a figure");
    assert_eq!(json_files(&root.join("warm")), reference, "a warm store must not change a figure");
    assert_eq!(cold.stdout, plain.stdout);
    assert_eq!(warm.stdout, plain.stdout);
    assert!(cold_guest > 0, "the cold run captures the suite");
    assert_eq!(warm_guest, 0, "a warm `all` must serve every figure from the store");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn gc_budget_runs_after_the_session_releases_its_pins() {
    let root = scratch_dir("gc");
    let store = root.join("store");
    let store_arg = store.to_str().unwrap();
    let budget = 64u64 << 10;
    let (_, output) =
        run_tiny("all", &root.join("json"), &["--store", store_arg, "--gc-budget", "64K"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let report = stderr.lines().find(|l| l.starts_with("gc: ")).expect("a gc report line");
    assert!(report.contains(" 0 pinned retained"), "the run's own pins must be released: {report}");

    // the store's entry files fit the budget afterwards
    let stats = experiments(&["store", "stats", "--store", store_arg]);
    let stats = String::from_utf8_lossy(&stats.stdout);
    let total = stats.lines().find(|l| l.starts_with("total")).expect("a total row");
    let bytes: u64 = total.split_whitespace().last().unwrap().parse().unwrap();
    assert!(bytes <= budget, "{bytes} bytes left after a {budget}-byte gc: {report}");

    let doctor = experiments(&["store", "doctor", "--store", store_arg]);
    assert!(String::from_utf8_lossy(&doctor.stdout).contains("store is clean"));
    let _ = std::fs::remove_dir_all(&root);
}
