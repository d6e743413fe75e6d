//! Full-simulation baselines for the replay benchmarks.
//!
//! The library measures every configuration by trace replay; the simulator
//! is only its oracle.  A baseline row therefore times
//! [`workloads::run_verified`] over exactly the configurations its replay
//! row retimes, and the lists of those configurations are built in bench
//! code: here for the Figure 2 sweep, which two bench targets time.

use autoreconf::dcache_study::dcache_combinations;
use fpga_model::SynthesisModel;
use leon_sim::{LeonConfig, ReplacementPolicy};
use workloads::Workload;

/// The geometries of the Figure 2 sweep that fit the device, in sweep
/// order: the configurations `dcache_exhaustive` retimes.
pub fn sweep_configs(base: &LeonConfig, model: &SynthesisModel) -> Vec<LeonConfig> {
    dcache_combinations()
        .into_iter()
        .map(|(ways, way_kb)| {
            let mut config = *base;
            config.dcache.ways = ways;
            config.dcache.way_kb = way_kb;
            if ways > 1 {
                config.dcache.replacement = ReplacementPolicy::Random;
            }
            config
        })
        .filter(|config| model.synthesize(config).fits)
        .collect()
}

/// Fully simulate `workload` on every configuration, fanned out over
/// `threads` workers (0 = one per CPU); returns the summed cycles.
pub fn simulate_all(
    workload: &(dyn Workload + Sync),
    configs: &[LeonConfig],
    max_cycles: u64,
    threads: usize,
) -> u64 {
    autoreconf::run_indexed(configs.len(), threads, |i| {
        workloads::run_verified(workload, &configs[i], max_cycles).unwrap().stats.cycles
    })
    .into_iter()
    .sum()
}
