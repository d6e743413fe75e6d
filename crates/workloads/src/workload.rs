//! The [`Workload`] trait and common helpers.

use std::sync::atomic::{AtomicU64, Ordering};

use leon_isa::Program;
use leon_sim::{LeonConfig, RunResult, SimError, Trace};
use serde::{Deserialize, Serialize};

/// Process-wide count of guest instructions retired through the verified
/// execution entry points ([`run_verified`] and [`capture_verified`]).
///
/// The incremental campaign store's headline guarantee — *a warm-store run
/// executes zero guest instructions for unchanged workloads* — is asserted
/// against deltas of this counter, so every code path that actually executes
/// guest code funnels through the two verified entry points and ticks it.
/// Trace replay never does.
static GUEST_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Total guest instructions executed so far by this process through the
/// verified entry points.  Monotonic; compare deltas rather than resetting,
/// so concurrent measurements cannot clobber each other.
pub fn guest_instructions_executed() -> u64 {
    GUEST_INSTRUCTIONS.load(Ordering::Relaxed)
}

/// Process-wide count of serialised trace-payload bytes materialised from
/// artifact stores — the companion counter to [`guest_instructions_executed`].
///
/// The lazy-store guarantee — *a warm campaign run whose co-optimization
/// entry hits reads zero trace payload bytes* — is asserted against deltas
/// of this counter: the campaign layer ticks it by the whole payload length
/// each time it loads a stored trace entry (the only way a stored trace is
/// read), and envelope-only presence checks never do.
static TRACE_PAYLOAD_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total trace-payload bytes read back from artifact stores so far by this
/// process.  Monotonic; compare deltas rather than resetting (see
/// [`guest_instructions_executed`]).
pub fn trace_payload_bytes_read() -> u64 {
    TRACE_PAYLOAD_BYTES.load(Ordering::Relaxed)
}

/// Record `bytes` of serialised trace payload read from an artifact store.
/// Called by the store-aware campaign layer; tests observe the total through
/// [`trace_payload_bytes_read`].
pub fn record_trace_payload_read(bytes: u64) {
    TRACE_PAYLOAD_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Report channel that carries the workload's primary checksum.
pub const CHAN_CHECKSUM: u16 = 1;
/// Report channel that carries a secondary result metric (hits, packets, …).
pub const CHAN_METRIC: u16 = 2;

/// Problem-size presets for the benchmark suite.
///
/// The paper's benchmarks run for 10 seconds to 9 minutes on a 25 MHz LEON2;
/// simulating that many cycles for hundreds of candidate configurations would
/// make the experiments needlessly slow, so each workload supports scaled
/// problem sizes with identical code paths and memory-behaviour *shape*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Scale {
    /// A few tens of thousands of cycles; used by unit tests.
    Tiny,
    /// A few million cycles; the default for the reproduction experiments.
    #[default]
    Small,
    /// Around ten million cycles; between `Small` and `Large`, sized for
    /// multi-workload campaign studies on multi-core hardware (opt in via
    /// `BENCH_SCALE=medium` / `--scale medium`; the campaign bench defaults
    /// to `Small`).
    Medium,
    /// Tens of millions of cycles; closest to the paper's runtimes
    /// (still far below the paper's wall-clock figures).
    Large,
}

/// Error returned by [`Scale::parse`] for an unrecognised preset name.
///
/// Carries the offending input so CLI layers can surface a precise message
/// instead of silently falling back to a default (the silent fallback was a
/// real bug: `--scale mediun` used to run a whole campaign at `small`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseScaleError {
    input: String,
}

impl ParseScaleError {
    /// The string that failed to parse.
    pub fn input(&self) -> &str {
        &self.input
    }
}

impl std::fmt::Display for ParseScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scale `{}` (expected one of: tiny, small, medium, large)",
            self.input
        )
    }
}

impl std::error::Error for ParseScaleError {}

impl Scale {
    /// Every preset, smallest problem first.
    pub const ALL: [Scale; 4] = [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large];

    /// Parse a preset name as used by the CLI / environment knobs
    /// (whitespace-trimmed, case-insensitive).  An unrecognised name is an
    /// error, never a silent default.
    pub fn parse(name: &str) -> Result<Scale, ParseScaleError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            _ => Err(ParseScaleError { input: name.to_string() }),
        }
    }

    /// Lower-case preset name (the `parse` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }
}

/// A guest benchmark application.
pub trait Workload {
    /// Short name used in reports (e.g. `BLASTN`).
    fn name(&self) -> &str;

    /// One-line description of what the application does.
    fn description(&self) -> &str;

    /// Build the guest program image (code + input data).
    fn build(&self) -> Program;

    /// The reports the guest is expected to produce, computed by a host-side
    /// reference implementation.  Used to verify that the guest program is
    /// functionally correct on every configuration.
    fn expected_reports(&self) -> Vec<(u16, u32)>;

    /// Stable content fingerprint of this workload instance.
    ///
    /// Covers the name, the fully assembled program image (which embeds the
    /// scaled, deterministically generated inputs — so two scales of the
    /// same benchmark fingerprint differently) and the expected reports.
    /// Artifact stores key captured traces and measured cost tables by this
    /// value: any change to the guest program or its expected behaviour
    /// yields a new fingerprint and therefore a recompute, never a stale
    /// artifact.
    ///
    /// Every variable-length field is length-prefixed, so byte streams
    /// cannot alias across field boundaries (e.g. a word moved from the end
    /// of the text segment to the start of the data segment changes the
    /// fingerprint even though the concatenated bytes would be identical).
    fn fingerprint(&self) -> u64 {
        let program = self.build();
        let reports = self.expected_reports();
        let mut image = Vec::with_capacity(
            64 + self.name().len() + program.name.len() + program.text.len() * 4 + program.data.len(),
        );
        let mut field = |bytes: &[u8]| {
            image.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            image.extend_from_slice(bytes);
        };
        field(self.name().as_bytes());
        field(program.name.as_bytes());
        field(&program.entry.to_le_bytes());
        field(&program.stack_top.to_le_bytes());
        field(&program.data_base.to_le_bytes());
        let text: Vec<u8> = program.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        field(&text);
        field(&program.data);
        let reports: Vec<u8> = reports
            .iter()
            .flat_map(|(c, v)| {
                let mut pair = c.to_le_bytes().to_vec();
                pair.extend_from_slice(&v.to_le_bytes());
                pair
            })
            .collect();
        field(&reports);
        leon_sim::fnv1a64(&image)
    }

    /// Verify a run result against the reference implementation.
    fn verify(&self, result: &RunResult) -> Result<(), String> {
        for (channel, expected) in self.expected_reports() {
            match result.report(channel) {
                Some(actual) if actual == expected => {}
                Some(actual) => {
                    return Err(format!(
                        "{}: channel {channel}: expected {expected:#x}, got {actual:#x}",
                        self.name()
                    ))
                }
                None => {
                    return Err(format!("{}: channel {channel}: no report produced", self.name()))
                }
            }
        }
        Ok(())
    }
}

/// Run a workload on a configuration and verify its output.
pub fn run_verified(
    workload: &dyn Workload,
    config: &LeonConfig,
    max_cycles: u64,
) -> Result<RunResult, SimError> {
    let program = workload.build();
    let result = leon_sim::simulate(config, &program, max_cycles)?;
    GUEST_INSTRUCTIONS.fetch_add(result.stats.instructions, Ordering::Relaxed);
    if let Err(msg) = workload.verify(&result) {
        // A functional mismatch means the workload or simulator is broken —
        // surface it loudly rather than producing bogus experiment data.
        panic!("workload verification failed: {msg}");
    }
    Ok(result)
}

/// Run a workload once with trace capture enabled, verifying its output.
///
/// The returned [`Trace`] retimes any trace-invariant configuration change
/// through [`leon_sim::replay`] without re-executing the program — the
/// functional results (and therefore the verified checksums) are identical on
/// every such configuration by construction.
pub fn capture_verified(
    workload: &dyn Workload,
    config: &LeonConfig,
    max_cycles: u64,
) -> Result<(RunResult, Trace), SimError> {
    let program = workload.build();
    let (result, trace) = leon_sim::capture(config, &program, max_cycles)?;
    GUEST_INSTRUCTIONS.fetch_add(result.stats.instructions, Ordering::Relaxed);
    if let Err(msg) = workload.verify(&result) {
        panic!("workload verification failed: {msg}");
    }
    Ok((result, trace))
}
