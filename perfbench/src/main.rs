//! End-to-end and per-layer benchmark of the autoreconf reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`campaign_cold`, `serve_mixed` or `search_expanded`)
//! for `--seconds`, checks every answer against a reference made in
//! set-up, prints a human-readable summary on stderr and, as the last line
//! of stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`).  Scratch stores live under `.perfbench/` in the
//! working directory and are removed when the run ends; a traced run
//! leaves its spans there as JSON lines.

mod campaign_cold;
mod heap;
mod report;
mod search_expanded;
mod serve_mixed;
mod spans;
mod stats;
mod stream;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Ctx;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload campaign_cold|serve_mixed|search_expanded --seed N --seconds N --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".perfbench");
    let scratch = Scratch(out.join(format!("run-{}-{}", args.workload, std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        threads: stats::nproc(),
        dir: scratch.0.clone(),
    };
    let tracer = spans::Tracer::default();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("campaign_cold", false) => campaign_cold::run(&ctx),
        ("campaign_cold", true) => campaign_cold::run_traced(&ctx, &tracer),
        ("serve_mixed", false) => serve_mixed::run(&ctx),
        ("serve_mixed", true) => serve_mixed::run_traced(&ctx, &tracer),
        ("search_expanded", false) => search_expanded::run(&ctx),
        ("search_expanded", true) => search_expanded::run_traced(&ctx, &tracer),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let line = report::render(&args.workload, &outcome, args.trace);
    drop(scratch);
    println!("{line}");
    ExitCode::SUCCESS
}
