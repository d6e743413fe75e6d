//! The stored-trace format (version 5) against its two promises:
//!
//! * **compact** — a stored trace is its fetch runs, its folded memory
//!   stream and its event counts, so it costs at most two bytes per guest
//!   instruction on every benchmark workload;
//! * **hostile input gets a typed error** — whatever a truncation, a bit
//!   flip or an inflated count does to the bytes, `Trace::from_bytes`
//!   returns the original trace or a `TraceCodecError`, never a panic; a
//!   mutant re-sealed with a valid checksum is either rejected or a trace
//!   that re-encodes to exactly its input and replays without panicking
//!   (the suite runs in debug builds, so arithmetic overflow would panic).

use liquid_autoreconf::apps::{benchmark_suite, capture_verified, Scale};
use liquid_autoreconf::isa::{Asm, Program, Reg, DATA_BASE};
use liquid_autoreconf::sim::{self, xxh64, LeonConfig, Multiplier, Trace};
use proptest::prelude::*;

const MAX_CYCLES: u64 = 400_000_000;

#[test]
fn stored_traces_cost_at_most_two_bytes_per_instruction() {
    // trace format version 4 stored 7.1–8.8 bytes per instruction
    let base = LeonConfig::base();
    for scale in [Scale::Tiny, Scale::Small] {
        for workload in benchmark_suite(scale) {
            let (run, trace) = capture_verified(workload.as_ref(), &base, MAX_CYCLES).unwrap();
            let bytes = trace.to_bytes().len() as f64;
            let per_instruction = bytes / run.stats.instructions as f64;
            println!(
                "{} {}: {} bytes, {:.2} bytes per instruction",
                workload.name(),
                scale.name(),
                bytes,
                per_instruction
            );
            assert!(
                per_instruction <= 2.0,
                "{} at {}: {per_instruction:.2} bytes per instruction",
                workload.name(),
                scale.name()
            );
        }
    }
}

/// A small guest that fills every part of a trace: two arrays 4 KB apart,
/// loads and stores that fold and ones that do not, multiplies, branches,
/// and recursion six windows deep.
fn codec_program() -> Program {
    let mut a = Asm::new("codec");
    a.set(Reg::L0, DATA_BASE);
    a.set(Reg::L1, 24);
    a.set(Reg::L4, 4096);
    a.label("loop");
    a.ld(Reg::L2, Reg::L0, 0);
    a.ld(Reg::L3, Reg::L0, 4);
    a.st(Reg::L2, Reg::L0, 8);
    a.add(Reg::L5, Reg::L0, Reg::L4);
    a.st(Reg::L3, Reg::L5, 0);
    a.smul(Reg::L3, Reg::L3, 3);
    a.add(Reg::L0, Reg::L0, 64);
    a.subcc(Reg::L1, Reg::L1, 1);
    a.bne("loop");
    a.set(Reg::O0, 6);
    a.call("func");
    a.halt();
    a.label("func");
    a.save(Reg::SP, Reg::SP, -96);
    a.st(Reg::I0, Reg::SP, 64);
    a.cmp(Reg::I0, 0);
    a.be("leaf");
    a.add(Reg::O0, Reg::I0, -1_i32);
    a.call("func");
    a.label("leaf");
    a.ld(Reg::L0, Reg::SP, 64);
    a.ret_restore();
    a.assemble().unwrap()
}

/// Configurations that walk both streams, trap at every depth, and take
/// every closed form, so an accepted mutant exercises each replay path.
fn replay_batch_configs() -> Vec<LeonConfig> {
    let base = LeonConfig::base();
    let mut configs = vec![base];
    for (dcache_kb, windows) in [(1, 2), (1, 4), (8, 32), (64, 8)] {
        let mut c = base;
        c.dcache.way_kb = dcache_kb;
        c.iu.reg_windows = windows;
        configs.push(c);
    }
    let mut icache = base;
    icache.icache.way_kb = 1;
    icache.icache.line_words = 4;
    configs.push(icache);
    let mut timing = base;
    timing.iu.multiplier = Multiplier::M32x32;
    timing.memory.read_first = u32::MAX;
    timing.memory.read_burst = u32::MAX;
    configs.push(timing);
    configs
}

/// Re-seal `bytes` with a valid trailing checksum, so only the structural
/// checks can reject what was altered.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    if bytes.len() >= 8 {
        let body = bytes.len() - 8;
        let checksum = xxh64(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Seeded mutations of an encoded trace: truncation, bit flips and an
    /// inflated 8-byte word (header counts and segment indexes included),
    /// each decoded as it is and re-sealed with a valid checksum.
    #[test]
    fn hostile_trace_decodes_return_the_trace_or_a_typed_error(
        kind in 0u64..3,
        position in any::<u64>(),
        detail in any::<u64>(),
    ) {
        let (_, original) =
            sim::capture(&LeonConfig::base(), &codec_program(), MAX_CYCLES).unwrap();
        let good = original.to_bytes();
        let len = good.len() as u64;
        let mut mutant = good.clone();
        match kind {
            0 => mutant.truncate((position % len) as usize),
            1 => {
                // one to four flips anywhere, trailer included
                for flip in 0..1 + detail % 4 {
                    let bit = position.wrapping_add(flip.wrapping_mul(detail)) % (len * 8);
                    mutant[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
            }
            _ => {
                // a count or offset claimed up to 2^60 and beyond
                let word = ((position % (len / 8 - 1)) * 8) as usize;
                let old = u64::from_le_bytes(mutant[word..word + 8].try_into().unwrap());
                let value = match detail % 4 {
                    0 => 1u64 << (32 + detail / 4 % 29),
                    1 => u64::MAX - detail / 4 % 2,
                    2 => old.wrapping_add(1),
                    _ => detail,
                };
                mutant[word..word + 8].copy_from_slice(&value.to_le_bytes());
            }
        }

        // as it is: the trailer catches every change
        match Trace::from_bytes(&mutant) {
            Ok(trace) => prop_assert_eq!(&trace, &original, "an altered input decoded"),
            Err(error) => prop_assert!(!error.to_string().is_empty()),
        }

        // re-sealed: rejected, or a trace that is exactly its bytes and
        // replays like any other
        let sealed = resealed(mutant);
        let decoded = Trace::from_bytes(&sealed);
        prop_assert_eq!(decoded.is_ok(), Trace::validate_segments(&sealed).is_ok());
        if let Ok(trace) = decoded {
            prop_assert_eq!(trace.to_bytes(), sealed, "an accepted input re-encodes exactly");
            let configs = replay_batch_configs();
            let batched = sim::replay_batch(&trace, &configs, u64::MAX);
            for threads in [1usize, 2] {
                let pooled = liquid_autoreconf::tuner::replay_batch_indexed(
                    &trace, &configs, u64::MAX, threads,
                );
                prop_assert_eq!(&pooled, &batched);
            }
        }
    }
}
