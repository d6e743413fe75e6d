//! Integration tests for experiment artifacts: serialisation of outcomes and
//! the rendered figure tables.

use liquid_autoreconf::apps::benchmark_suite;
use liquid_autoreconf::prelude::*;
use liquid_autoreconf::tuner::experiments::{fig2, fig6, ExperimentOptions};
use liquid_autoreconf::tuner::{MeasurementOptions, Outcome, ParameterSpace};

fn small_outcome() -> Outcome {
    AutoReconfigurator::new()
        .with_space(ParameterSpace::dcache_geometry())
        .with_weights(Weights::runtime_only())
        .with_measurement(MeasurementOptions { max_cycles: 400_000_000, threads: 0 })
        .optimize(&Blastn::scaled(Scale::Tiny))
        .unwrap()
}

#[test]
fn outcomes_serialize_to_json_and_back() {
    let outcome = small_outcome();
    let json = serde_json::to_string_pretty(&outcome).expect("outcome serialises");
    assert!(json.contains("\"workload\""));
    assert!(json.contains("\"recommended\""));
    let back: Outcome = serde_json::from_str(&json).expect("outcome deserialises");
    assert_eq!(back.workload, outcome.workload);
    assert_eq!(back.selected, outcome.selected);
    assert_eq!(back.recommended, outcome.recommended);
    assert_eq!(back.validation, outcome.validation);
}

#[test]
fn leon_configs_serialize_round_trip() {
    let mut config = LeonConfig::base();
    config.dcache.ways = 2;
    config.dcache.way_kb = 16;
    config.dcache.replacement = ReplacementPolicy::Lru;
    config.iu.multiplier = Multiplier::M32x32;
    let json = serde_json::to_string(&config).unwrap();
    let back: LeonConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, config);
}

#[test]
fn rendered_tables_have_the_papers_shape() {
    let opts = ExperimentOptions::test_sized();
    let suite = benchmark_suite(opts.scale);
    let session = opts.engine(None).session(&suite).unwrap();
    let f2 = fig2(&session).unwrap();
    let table = f2.render();
    assert!(table.contains("exhaustive: dcache sets,setsize"));
    assert!(table.contains("Optimal runtime"));
    // one line per feasible row plus headers and the optimum
    assert!(table.lines().count() >= 19 + 3);

    let f6 = fig6(&session).unwrap();
    let table6 = f6.render();
    assert!(table6.contains("runtime optimization costs"));
    assert!(table6.contains("LUTs(%)"));
}

#[test]
fn cost_tables_are_json_friendly_for_external_analysis() {
    let outcome = small_outcome();
    let json = serde_json::to_value(&outcome.cost_table).unwrap();
    let costs = json.get("costs").and_then(|c| c.as_array()).unwrap();
    assert_eq!(costs.len(), 8);
    for entry in costs {
        assert!(entry.get("rho").is_some());
        assert!(entry.get("lambda").is_some());
        assert!(entry.get("beta").is_some());
    }
}
