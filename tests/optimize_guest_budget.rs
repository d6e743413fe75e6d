//! Guest budget of the front door: `AutoReconfigurator::optimize` executes
//! the application once — it captures a trace on the base configuration,
//! and both the cost-table measurement and the validation of the
//! recommendation replay that trace.
//!
//! The guest-instruction counter is process-wide, so this test has a binary
//! of its own: no other test can run guest code while it reads the counter.

use liquid_autoreconf::apps::{benchmark_suite, guest_instructions_executed, run_verified, Scale};
use liquid_autoreconf::sim::LeonConfig;
use liquid_autoreconf::tuner::{AutoReconfigurator, MeasurementOptions};

#[test]
fn optimize_executes_one_run_of_guest_instructions() {
    let options = MeasurementOptions { max_cycles: 400_000_000, threads: 0 };
    let tool = AutoReconfigurator::new().with_measurement(options);
    for workload in benchmark_suite(Scale::Tiny) {
        let run = run_verified(workload.as_ref(), &LeonConfig::base(), options.max_cycles).unwrap();
        let before = guest_instructions_executed();
        let outcome = tool.optimize(workload.as_ref()).unwrap();
        assert_eq!(
            guest_instructions_executed() - before,
            run.stats.instructions,
            "{}: optimize must execute exactly one run of the application",
            outcome.workload
        );
    }
}
