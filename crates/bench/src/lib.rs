//! Shared helpers for the benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index).  The helpers here
//! keep the Criterion configuration consistent — small sample counts and
//! short measurement windows, because each iteration already runs full
//! simulations — and provide the shared workload/configuration setup.

use autoreconf::{MeasurementOptions, Weights};
use workloads::Scale;

/// Problem scale used by the benchmark harness.
///
/// `Tiny` keeps a full `cargo bench` run in the minutes range while
/// preserving every code path; set the environment variable
/// `BENCH_SCALE=small` (or `medium`, `large`) to use the experiment-sized
/// inputs.
pub fn bench_scale() -> Scale {
    std::env::var("BENCH_SCALE")
        .ok()
        .map(|v| Scale::parse(&v).unwrap_or_else(|e| panic!("BENCH_SCALE: {e}")))
        .unwrap_or(Scale::Tiny)
}

/// Scale used by the campaign benchmark (`BENCH_SCALE` still wins).
///
/// Parallel speedups only show when per-job work dominates worker-pool
/// overhead: at `Tiny` a single replay retiming is tens of microseconds, of
/// the same order as waking a worker, so the campaign group defaults to
/// `Small` (millions of cycles per trace) instead of `Tiny`.
pub fn campaign_scale() -> Scale {
    std::env::var("BENCH_SCALE")
        .ok()
        .map(|v| Scale::parse(&v).unwrap_or_else(|e| panic!("BENCH_SCALE: {e}")))
        .unwrap_or(Scale::Small)
}

/// Cycle budget large enough for every benchmark at any supported scale.
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// Measurement options used by the harness (all cores).
pub fn measurement() -> MeasurementOptions {
    MeasurementOptions { max_cycles: MAX_CYCLES, threads: 0, use_replay: true }
}

/// The paper's two weight settings plus the runtime-only validation weights.
pub fn weight_settings() -> Vec<(&'static str, Weights)> {
    vec![
        ("w1=100,w2=1 (runtime)", Weights::runtime_optimized()),
        ("w1=1,w2=100 (resources)", Weights::resource_optimized()),
        ("w1=100,w2=0 (runtime only)", Weights::runtime_only()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_tiny() {
        // unless overridden through the environment
        if std::env::var("BENCH_SCALE").is_err() {
            assert_eq!(bench_scale(), Scale::Tiny);
        }
    }

    #[test]
    fn weight_settings_cover_the_papers_experiments() {
        let w = weight_settings();
        assert_eq!(w.len(), 3);
        assert!(w.iter().any(|(_, w)| *w == Weights::runtime_optimized()));
        assert!(w.iter().any(|(_, w)| *w == Weights::resource_optimized()));
    }
}
