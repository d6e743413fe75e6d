//! Print the trace-engine profile of every benchmark workload: dynamic
//! instruction count, the two stored streams — fetch runs and folded memory
//! items — and what they cost stored (bytes per instruction), the event mix
//! that decides which replay tier (closed-form / memory-walk / fetch-walk)
//! a perturbation uses, and the facts behind the closed-form cache tier:
//! the maximum window nesting depth and the byte ranges the loads/stores
//! and the fetches touch (in 16-byte lines).
//!
//! ```sh
//! cargo run --release --example trace_profile
//! ```

use leon_sim::{LeonConfig, StreamFootprint};
use workloads::{benchmark_suite, Scale};

/// The byte range and line count a stream touches at 16-byte lines.
fn touched(footprint: &StreamFootprint) -> String {
    match footprint.line16 {
        None => "wider than 64 KB".to_string(),
        Some(f) => match f.lines {
            None => "none".to_string(),
            Some((first, last)) => {
                format!("{:#07x}..{:#07x} ({} lines)", first * 16, (last + 1) * 16, f.span())
            }
        },
    }
}

fn main() {
    let base = LeonConfig::base();
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>7} {:>9} {:>8} {:>8} {:>9} {:>7} {:>5}  {:<30} {:<30}",
        "workload",
        "instrs",
        "runs",
        "mem items",
        "B/instr",
        "branches",
        "loads",
        "stores",
        "mul/div",
        "traps",
        "depth",
        "data lines",
        "text lines"
    );
    for workload in benchmark_suite(Scale::Tiny) {
        let program = workload.build();
        let (run, trace) = leon_sim::capture(&base, &program, 2_000_000_000).unwrap();
        let s = trace.summary();
        let mem = trace.mem_facts();
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>7.2} {:>9} {:>8} {:>8} {:>9} {:>7} {:>5}  {:<30} {:<30}",
            workload.name(),
            s.instructions,
            trace.fetch_runs().len(),
            trace.memory_items().len(),
            trace.to_bytes().len() as f64 / s.instructions as f64,
            s.branches,
            s.loads,
            s.stores,
            s.mul_ops + s.div_ops,
            run.stats.window_overflows + run.stats.window_underflows,
            mem.max_depth.map_or("-".to_string(), |depth| depth.to_string()),
            touched(&mem.data),
            touched(trace.fetch_footprint()),
        );
    }
}
