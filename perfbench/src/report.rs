//! Run context, the metric registry and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use crate::stats::{summarize, Samples};

/// End-to-end metrics (`--trace 0`): every workload reports every one.
/// `main`, `control` and `warm` name the workload's three operation kinds
/// (see `BENCHMARK.json` and `README.md` for each workload's meaning).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("main_ms", "ms"),
    ("control_ms", "ms"),
    ("warm_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), named after the module or function
/// whose public entry point the traced run wraps.  A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("capture.ms", "ms"),
    ("capture.guest_instr", "count"),
    ("capture.mips", "MIPS"),
    ("codec.encode_ms", "ms"),
    ("codec.hash_ms", "ms"),
    ("codec.trace_mb", "MB"),
    ("codec.decode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.mb_written", "MB"),
    ("store.read_ms", "ms"),
    ("store.mb_read", "MB"),
    ("store.hit_ratio", "ratio"),
    ("walk.ms", "ms"),
    ("walk.passes", "count"),
    ("walk.segments", "count"),
    ("walk.configs_per_class", "ratio"),
    ("measure.table_ms", "ms"),
    ("dcache_study.sweep_ms", "ms"),
    ("optimizer.per_app_ms", "ms"),
    ("replay.ms", "ms"),
    ("replay.calls", "count"),
    ("formulation.ms", "ms"),
    ("binlp.solve_ms", "ms"),
    ("binlp.nodes", "count"),
    ("service.wire_us", "us"),
    ("service.frame_kb", "KB"),
    ("synth.ms", "ms"),
    ("synth.calls", "count"),
    ("search.funnel_ms", "ms"),
    ("search.pruned_closed_form", "count"),
    ("search.walk_validated", "count"),
    ("search.validated_ratio", "ratio"),
    ("search.mismatch_frac", "ratio"),
    ("campaign.guest_instr", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The benchmark suite, as `workloads::benchmark_suite` builds it.
pub type Suite = [Box<dyn workloads::Workload + Send + Sync>];

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub threads: usize,
    /// Scratch directory for stores, removed when the run ends.
    pub dir: PathBuf,
}

/// Operation accounting shared by every workload.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Operations that returned a wrong answer (a check failed).
    pub wrong: u64,
}

impl Tally {
    /// Count one operation as started.
    pub fn begin(&mut self) {
        self.attempted += 1;
    }

    /// Check one answer of the current operation; the first wrong answer
    /// of the run is described on stderr.
    pub fn verify(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if self.wrong == 0 {
                eprintln!("WRONG ANSWER: {}", what());
            }
            self.wrong += 1;
        }
    }

    /// Count the current operation as failed; the first failure of the run
    /// is described on stderr.
    pub fn fail(&mut self, what: &str, error: &dyn std::fmt::Display) {
        if self.failed == 0 {
            eprintln!("FAILED: {what}: {error}");
        }
        self.failed += 1;
    }
}

/// Samples of the end-to-end metrics, in their own units.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Samples,
    pub main_ms: Samples,
    pub control_ms: Samples,
    pub warm_ms: Samples,
    pub peak_heap_mb: f64,
}

/// One workload run's result.
pub struct Outcome {
    pub tally: Tally,
    pub e2e: EndToEnd,
    /// Per-layer metric values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Store key of an entry the benchmark writes itself (stage-by-stage
/// copies of product artifacts, probe payloads), disjoint from the
/// product's keys.
pub fn bench_key(kind: &str, index: usize) -> autoreconf::Fingerprint {
    autoreconf::FingerprintBuilder::new()
        .str("perfbench")
        .str(kind)
        .u64(index as u64)
        .finish()
}

/// The canonical JSON text of an answer, as the service sends it.
pub fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("answers serialise")
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The metric's value, then the summary of its pooled samples.
fn summary_line(name: &str, unit: &str, samples: &Samples) -> String {
    let Some(s) = summarize(&samples.pooled()) else {
        return format!("  {name:<26} {:>12.4} {unit:<6} (no samples)", 0.0);
    };
    let p90 = s.p90.map_or("n/a (<10 samples beyond)".to_string(), |v| {
        format!("{v:.4}")
    });
    format!(
        "  {name:<26} {:>12.4} {unit:<6} pooled: median {:.4} q1 {:.4} q3 {:.4} p90 {p90} n={} in {} strata",
        samples.value(),
        s.median,
        s.q1,
        s.q3,
        s.count,
        samples.strata()
    )
}

/// Print the human-readable summary to stderr and return the result line.
pub fn render(workload: &str, outcome: &Outcome, traced: bool) -> String {
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let t = &outcome.tally;
    eprintln!(
        "workload {workload}: {} attempted, {} failed, {} wrong; nproc {}, git rev {}",
        t.attempted,
        t.failed,
        t.wrong,
        crate::stats::nproc(),
        crate::stats::git_rev()
    );
    if traced {
        for &(name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:<26} {value:>14.4} {unit}");
            metrics.push((name, unit, value));
        }
    } else {
        let e = &outcome.e2e;
        for &(name, unit) in END_TO_END {
            let samples = match name {
                "setup_s" => &e.setup_s,
                "main_ms" => &e.main_ms,
                "control_ms" => &e.control_ms,
                "warm_ms" => &e.warm_ms,
                _ => {
                    eprintln!("  {name:<26} {:>12.4} {unit}", e.peak_heap_mb);
                    metrics.push((name, unit, e.peak_heap_mb));
                    continue;
                }
            };
            eprintln!("{}", summary_line(name, unit, samples));
            metrics.push((name, unit, samples.value()));
        }
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        t.wrong == 0 && t.attempted > 0,
        t.attempted.max(1),
        t.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry above is the single source of metric names; it must
    /// agree with `BENCHMARK.json` at the repository root.
    #[test]
    fn registry_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 3,
                failed: 0,
                wrong: 0,
            },
            e2e: EndToEnd {
                setup_s: vec![1.0, 2.0, 3.0].into(),
                main_ms: vec![5.0].into(),
                control_ms: vec![4.0].into(),
                warm_ms: vec![0.5].into(),
                peak_heap_mb: 64.0,
            },
            layers: BTreeMap::new(),
        };
        let line = render("unit", &outcome, false);
        let json = serde_json::parse_value(&line).expect("valid JSON");
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let metrics = json.get("metrics").and_then(|v| v.as_object()).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(2.0));
        let traced = render("unit", &outcome, true);
        let json = serde_json::parse_value(&traced).expect("valid JSON");
        assert_eq!(
            json.get("metrics")
                .and_then(|v| v.as_object())
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
    }
}
