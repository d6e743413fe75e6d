//! Reproduction of the paper's Section 5 validation: the optimiser's choice
//! under the parameter-independence assumption is compared against the
//! exhaustive optimum on the dcache geometry sub-space (Figures 2–4).

use liquid_autoreconf::apps::benchmark_suite;
use liquid_autoreconf::fpga::SynthesisModel;
use liquid_autoreconf::prelude::*;
use liquid_autoreconf::tuner::experiments::{fig2, fig3, fig4, ExperimentOptions};
use liquid_autoreconf::tuner::{best_runtime_row, dcache_exhaustive};

fn options() -> ExperimentOptions {
    ExperimentOptions::test_sized()
}

/// The benchmark suite the figure drivers' session is opened over.
fn suite() -> Vec<Box<dyn Workload + Send + Sync>> {
    benchmark_suite(options().scale)
}

#[test]
fn figure2_optimum_beats_or_matches_the_base_configuration() {
    let suite = suite();
    let session = options().engine(None).session(&suite).unwrap();
    let r = fig2(&session).expect("figure 2 runs");
    assert_eq!(r.rows.len(), 28);
    assert_eq!(r.rows.iter().filter(|row| row.fits).count(), 19);
    assert!(r.optimal_gain_pct() >= 0.0);
    // the optimum must be a feasible configuration
    assert!(r.optimal.fits);
    assert!(r.optimal.bram_pct <= 100);
}

#[test]
fn figure3_optimizer_is_near_optimal_for_blastn() {
    // the paper reports a 0.02% gap between the optimiser's dcache choice and
    // the exhaustive optimum; allow a modest tolerance at test scale
    let suite = suite();
    let session = options().engine(None).session(&suite).unwrap();
    let r = fig3(&session).expect("figure 3 runs");
    let gap = r.comparison.gap_pct();
    assert!(gap >= -1e-9, "the optimiser cannot beat the exhaustive optimum (gap {gap})");
    assert!(gap < 1.0, "optimiser choice must be within 1% of the exhaustive optimum, gap {gap:.3}%");
    // it evaluated only the one-at-a-time configurations (base + 8)
    assert_eq!(r.comparison.evaluated.len(), 9);
}

#[test]
fn figure4_other_benchmarks_match_or_do_not_care() {
    let suite = suite();
    let session = options().engine(None).session(&suite).unwrap();
    let r = fig4(&session).expect("figure 4 runs");
    assert_eq!(r.comparisons.len(), 3);
    for c in &r.comparisons {
        if c.no_effect {
            // Arith: "No effect, as application is not data intensive"
            assert_eq!(c.workload, "Arith");
            continue;
        }
        let gap = c.gap_pct();
        assert!(
            gap < 1.5,
            "{}: optimiser within 1.5% of the exhaustive dcache optimum (gap {gap:.3}%)",
            c.workload
        );
    }
    // Arith is present and flagged as insensitive
    assert!(r.comparisons.iter().any(|c| c.workload == "Arith" && c.no_effect));
}

#[test]
fn points_in_between_are_reachable() {
    // Section 5, "Further Observations": the optimiser can select
    // configurations that were never measured directly (e.g. 2 sets of 16 KB
    // when only single-parameter perturbations were measured).  Verify that
    // such combined selections are valid, buildable configurations.
    let space = liquid_autoreconf::tuner::ParameterSpace::dcache_geometry();
    let base = LeonConfig::base();
    let combined = space.apply(&base, &[12, 18]); // 2 sets + 16 KB per set
    assert_eq!(combined.dcache.ways, 2);
    assert_eq!(combined.dcache.way_kb, 16);
    assert!(combined.validate().is_ok());
    let report = SynthesisModel::default().synthesize(&combined);
    assert!(report.fits, "the 2x16 KB point in between must be buildable");
    // and it runs correctly
    let run = run_verified(&Blastn::scaled(Scale::Tiny), &combined, 200_000_000).unwrap();
    assert!(run.stats.cycles > 0);
}

#[test]
fn exhaustive_sweep_and_optimizer_agree_on_total_capacity_for_drr() {
    // DRR's optimum in the paper is 32 KB of total dcache (1x32 exhaustively,
    // 2x16 from the optimiser).  At any scale both methods should land on the
    // same *total* capacity even if the geometry differs.
    let w = Drr::scaled(Scale::Tiny);
    let rows = dcache_exhaustive(&w, &LeonConfig::base(), &SynthesisModel::default(), 400_000_000, 0)
        .unwrap();
    let best = best_runtime_row(&rows).unwrap();
    let suite = suite();
    let session = options().engine(None).session(&suite).unwrap();
    let comparison = fig4(&session).unwrap();
    let drr = comparison.comparisons.iter().find(|c| c.workload == "DRR").unwrap();
    let optimizer_total = drr.optimizer_choice.0 as u32 * drr.optimizer_choice.1;
    // allow one binary step of difference in total capacity
    let ratio = optimizer_total.max(best.total_kb()) as f64 / optimizer_total.min(best.total_kb()).max(1) as f64;
    assert!(
        ratio <= 2.0,
        "exhaustive total {} KB vs optimiser total {} KB differ too much",
        best.total_kb(),
        optimizer_total
    );
}
