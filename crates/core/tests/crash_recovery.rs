//! Crash recovery with real OS processes: a compute holder is killed hard
//! (abort — the in-process stand-in for `kill -9`) between claiming a trace
//! and publishing it, and a sibling process must recover.
//!
//! The contract under test (the PR-10 pinned invariant):
//! * the survivor takes over the dead holder's expired lease and produces a
//!   campaign result **byte-identical** to a store-less reference run;
//! * the only cost of the crash is one re-computed artifact — the victim's
//!   partial work (it published nothing);
//! * the store is doctor-repairable afterwards and doctor-clean after the
//!   repair — the crash never leaves damage that repair cannot fix.
//!
//! The kill site is injected via `AUTORECONF_FAULTS=store.rename:0=kill`:
//! the victim writes its first entry tmp file, then dies at the atomic
//! publish rename — holding a live lease and leaving a stray tmp behind,
//! the worst-timed crash the store protocol allows.

use std::path::Path;
use std::process::{Child, Command, Stdio};

mod support;
use support::{guest_instructions, scratch_dir};

/// Spawn one `experiments campaign` process (tiny scale, one worker) with a
/// short lease TTL so a dead holder's lease expires in milliseconds, and an
/// optional fault schedule.
fn spawn_campaign(
    store: Option<&Path>,
    json_dir: &Path,
    counters: &Path,
    faults: Option<&str>,
) -> Child {
    let mut command = Command::new(env!("CARGO_BIN_EXE_experiments"));
    command.args(["campaign", "--scale", "tiny", "--threads", "1"]);
    if let Some(store) = store {
        command.args(["--store", store.to_str().unwrap()]);
    }
    command.args(["--json", json_dir.to_str().unwrap()]);
    command.args(["--counters", counters.to_str().unwrap()]);
    command.env_remove("AUTORECONF_STORE").env_remove("AUTORECONF_STORE_BUDGET");
    command.env("AUTORECONF_LEASE_TTL_MS", "500");
    // victims report their injected death on stderr — capture it; healthy
    // processes just run (never let an unread pipe back-pressure them)
    match faults {
        Some(plan) => command.env("AUTORECONF_FAULTS", plan).stderr(Stdio::piped()),
        None => command.env_remove("AUTORECONF_FAULTS").stderr(Stdio::null()),
    };
    command.stdout(Stdio::null());
    command.spawn().expect("spawn experiments campaign")
}

fn doctor(store: &Path, repair: bool) -> std::process::Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_experiments"));
    command.args(["store", "doctor"]);
    if repair {
        command.arg("--repair");
    }
    command.args(["--store", store.to_str().unwrap()]);
    command.output().expect("run store doctor")
}

#[test]
fn a_killed_holder_is_taken_over_byte_identically_and_repairably() {
    // -- reference: a store-less run defines the correct answer ------------
    let ref_json = scratch_dir("ref-json");
    let ref_counters = scratch_dir("ref-counters").join("counters.json");
    let status =
        spawn_campaign(None, &ref_json, &ref_counters, None).wait().unwrap();
    assert!(status.success(), "reference campaign failed: {status:?}");
    let reference_guest = guest_instructions(&ref_counters);
    assert!(reference_guest > 0);
    let reference_result =
        std::fs::read_to_string(ref_json.join("campaign.json")).expect("reference campaign.json");

    // -- victim: killed at its first entry publish -------------------------
    let store = scratch_dir("store");
    let victim_json = scratch_dir("victim-json");
    let victim_counters = scratch_dir("victim-counters").join("counters.json");
    let victim = spawn_campaign(
        Some(&store),
        &victim_json,
        &victim_counters,
        Some("store.rename:0=kill"),
    );
    let output = victim.wait_with_output().unwrap();
    assert!(
        !output.status.success(),
        "the victim must die at the injected kill site: {:?}",
        output.status
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("fault injection: kill at store.rename"),
        "the victim must audit its own death, got stderr:\n{stderr}"
    );
    // it died mid-flight: no campaign result, no counters (abort skips all
    // teardown) — and the kill site itself proves the victim computed its
    // first trace (entry publish only happens after a compute produced it)
    assert!(!victim_json.join("campaign.json").exists(), "a dead process publishes nothing");
    assert!(!victim_counters.exists(), "abort must not reach the counters writeout");

    // -- survivor: waits out the 500 ms lease, recomputes, finishes --------
    let survivor_json = scratch_dir("survivor-json");
    let survivor_counters = scratch_dir("survivor-counters").join("counters.json");
    let status = spawn_campaign(Some(&store), &survivor_json, &survivor_counters, None)
        .wait()
        .unwrap();
    assert!(status.success(), "survivor campaign failed: {status:?}");

    // byte-identical takeover: the crash is invisible in the answer
    assert_eq!(
        std::fs::read_to_string(survivor_json.join("campaign.json")).expect("survivor json"),
        reference_result,
        "the survivor's campaign must be byte-identical to the reference"
    );

    // cost accounting: the victim published nothing, so the survivor
    // re-computes exactly one full run — the crash costs the victim's lost
    // first-trace compute (proven by the kill site above) and nothing else
    let survivor_guest = guest_instructions(&survivor_counters);
    assert_eq!(
        survivor_guest, reference_guest,
        "the survivor re-computes exactly one run's worth (the victim published nothing)"
    );

    // the crash left real debris (expired lease and/or stray tmp) — plain
    // doctor may flag it, repair must fix it, and the repaired store must
    // verify clean
    let repair = doctor(&store, true);
    assert!(
        repair.status.success(),
        "doctor --repair failed on the post-crash store:\n{}",
        String::from_utf8_lossy(&repair.stdout)
    );
    let verify = doctor(&store, false);
    assert!(
        verify.status.success(),
        "store not doctor-clean after repair:\n{}",
        String::from_utf8_lossy(&verify.stdout)
    );

    // and the repaired store still serves: a warm re-run computes nothing
    let warm_json = scratch_dir("warm-json");
    let warm_counters = scratch_dir("warm-counters").join("counters.json");
    let status =
        spawn_campaign(Some(&store), &warm_json, &warm_counters, None).wait().unwrap();
    assert!(status.success());
    assert_eq!(guest_instructions(&warm_counters), 0, "post-repair store must be fully warm");
    assert_eq!(
        std::fs::read_to_string(warm_json.join("campaign.json")).expect("warm json"),
        reference_result
    );

    for dir in [&ref_json, &victim_json, &survivor_json, &warm_json, &store] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A sibling arriving at a dead holder's *fresh* lease must block on it
/// (it is still unexpired), observe its expiry, take it over, and deliver
/// the byte-identical answer — expiry takeover, not just cold-start
/// recovery of long-dead debris.
#[test]
fn a_sibling_blocked_on_a_dead_holders_lease_takes_it_over() {
    let ref_json = scratch_dir("r2-json");
    let ref_counters = scratch_dir("r2-counters").join("counters.json");
    assert!(spawn_campaign(None, &ref_json, &ref_counters, None).wait().unwrap().success());
    let reference_result =
        std::fs::read_to_string(ref_json.join("campaign.json")).expect("reference campaign.json");
    let reference_guest = guest_instructions(&ref_counters);

    let store = scratch_dir("r2-store");
    let victim_json = scratch_dir("r2-victim-json");
    let victim_counters = scratch_dir("r2-victim-counters").join("counters.json");
    // die at the canonical crash point: the first claim acquired, heartbeat
    // started, nothing computed or published yet — it fires within
    // milliseconds of startup, so the lease it leaves behind is fresh
    let victim = spawn_campaign(
        Some(&store),
        &victim_json,
        &victim_counters,
        Some("lease.acquired:0=kill"),
    );
    let victim_output = victim.wait_with_output().unwrap();
    assert!(!victim_output.status.success(), "the victim must die at its kill site");
    assert!(
        String::from_utf8_lossy(&victim_output.stderr)
            .contains("fault injection: kill at lease.acquired"),
        "the victim must die at the injected claim-acquired site"
    );

    // launch the sibling immediately: the dead holder's lease was stamped
    // milliseconds ago, so the sibling's first claim sees Busy on a
    // live-looking lease and must wait out the remaining 500 ms TTL
    let sibling_json = scratch_dir("r2-sibling-json");
    let sibling_counters = scratch_dir("r2-sibling-counters").join("counters.json");
    let mut sibling = spawn_campaign(Some(&store), &sibling_json, &sibling_counters, None);
    assert!(sibling.wait().unwrap().success(), "the sibling must survive the takeover");

    assert_eq!(
        std::fs::read_to_string(sibling_json.join("campaign.json")).expect("sibling json"),
        reference_result,
        "takeover through a dead holder's lease must stay byte-identical"
    );
    // the victim died at its first acquisition without publishing anything,
    // so the sibling computes exactly one full run — expiry takeover costs
    // zero duplicated *published* work
    let sibling_guest = guest_instructions(&sibling_counters);
    assert_eq!(
        sibling_guest, reference_guest,
        "the sibling computes exactly one run's worth \
         (sibling={sibling_guest}, reference={reference_guest})"
    );

    assert!(doctor(&store, true).status.success(), "doctor --repair after takeover");
    assert!(doctor(&store, false).status.success(), "doctor-clean after repair");

    for dir in [&ref_json, &victim_json, &sibling_json, &store] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
