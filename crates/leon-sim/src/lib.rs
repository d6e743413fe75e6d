//! # leon-sim
//!
//! Cycle-level simulator of a LEON2-like soft-core processor, the measurement
//! substrate of the `liquid-autoreconf` reproduction of *"Automatic
//! Application-Specific Microarchitecture Reconfiguration"* (IPDPS 2006).
//!
//! The paper measures application runtime by executing benchmarks directly on
//! a LEON2 processor instantiated on an FPGA, using a hardware profiler for
//! cycle-accurate counts.  This crate plays that role in simulation: it
//! executes guest programs built with [`leon_isa`] on a configurable
//! microarchitecture ([`LeonConfig`], mirroring the paper's Figure 1) and
//! reports exact cycle counts plus detailed event statistics ([`Stats`]).
//!
//! ```
//! use leon_isa::{Asm, Reg};
//! use leon_sim::{simulate, LeonConfig};
//!
//! let mut a = Asm::new("demo");
//! a.set(Reg::L0, 100);
//! a.label("loop");
//! a.subcc(Reg::L0, Reg::L0, 1);
//! a.bne("loop");
//! a.halt();
//! let program = a.assemble().unwrap();
//!
//! let result = simulate(&LeonConfig::base(), &program, 1_000_000).unwrap();
//! assert!(result.stats.cycles > 100);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod cpu;
pub mod error;
pub mod memory;
pub mod profiler;
pub mod regwin;
pub mod trace;

pub use cache::{Access, Cache, CacheStats};
pub use config::{
    CacheConfig, ConfigError, Divider, IuConfig, LeonConfig, MemoryTiming, Multiplier,
    ReplacementPolicy, SynthesisConfig,
};
pub use cpu::{simulate, Cpu};
pub use error::SimError;
pub use memory::Memory;
pub use profiler::{RunResult, Stats};
pub use regwin::{RegisterWindows, WindowEvent};
pub use trace::{
    capture, fnv1a64, fnv1a64_extend, replay, replay_batch, trace_segments_walked,
    trace_walks_performed, xxh64, FetchRun, LineFootprint, MemFacts, MemItem, Recorder,
    ReplayBatch, StreamFootprint, Trace, TraceCodecError, TraceHeader, FNV1A64_OFFSET,
    TRACE_FORMAT_VERSION,
};

/// Default per-run cycle budget used by the higher-level crates.
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;
