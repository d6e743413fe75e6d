//! Print the trace-engine profile of every benchmark workload: dynamic
//! instruction count, record counts after fetch-run compression, and the
//! event mix that decides which replay tier (closed-form / memory-walk /
//! fetch-walk) a perturbation uses.
//!
//! ```sh
//! cargo run --release --example trace_profile
//! ```

use leon_sim::LeonConfig;
use workloads::{benchmark_suite, Scale};

fn main() {
    let base = LeonConfig::base();
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>7} {:>9}",
        "workload", "instrs", "records", "mem ops", "branches", "loads", "stores", "mul/div", "traps", "KiB"
    );
    for workload in benchmark_suite(Scale::Tiny) {
        let program = workload.build();
        let (run, trace) = leon_sim::capture(&base, &program, 2_000_000_000).unwrap();
        let s = &trace.summary;
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>7} {:>9.1}",
            workload.name(),
            s.instructions,
            trace.len(),
            s.loads + s.stores + s.saves + s.restores,
            s.branches,
            s.loads,
            s.stores,
            s.mul_ops + s.div_ops,
            run.stats.window_overflows + run.stats.window_underflows,
            trace.memory_bytes() as f64 / 1024.0,
        );
    }
}
