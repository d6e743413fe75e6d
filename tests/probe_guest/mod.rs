//! A correctness probe for the replay paths the benchmark guests no longer
//! reach.
//!
//! The four benchmark guests have at most 388 bytes of text, at most 6.3 KB
//! of data and never rotate a register window, so replay finishes every
//! i-cache configuration, every window count and most d-caches of theirs in
//! closed form.  This guest is built to need the walks instead:
//!
//! * 1.5 KB of straight-line text, so a 1 KB i-cache way conflicts (the
//!   fetch walk) while larger ways do not (the fetch closed form);
//! * recursion 12 windows deep every 8th iteration, so fewer than 14 windows
//!   trap (the spill/fill expansion, and the per-access walk whenever one
//!   batch mixes window counts) while 14 or more do not;
//! * an 80 KB sweep plus a hot block re-read every iteration, with the stack
//!   near the top of memory, so every d-cache conflicts and is walked.
//!
//! It is a guest for the replay ≡ simulation checks only, not a benchmark.

use liquid_autoreconf::isa::{Asm, Program, Reg, DATA_BASE};

/// Iterations of the main loop; each advances the sweep by 512 bytes.
const ITERATIONS: u32 = 160;

/// Build the probe guest.
pub fn probe_program() -> Program {
    let mut a = Asm::new("PROBE");
    a.set(Reg::G1, DATA_BASE); // the hot block, re-read every iteration
    a.set(Reg::L0, DATA_BASE + 512); // the sweep
    a.set(Reg::L1, ITERATIONS);
    a.clr(Reg::L5);
    a.label("loop");
    for k in 0..384 {
        let offset = (k * 4) % 128;
        match k % 4 {
            0 => a.ld(Reg::L3, Reg::L0, offset),
            1 => a.ld(Reg::L4, Reg::G1, offset),
            2 => a.xor(Reg::L5, Reg::L5, Reg::L3),
            _ => a.st(Reg::L5, Reg::L0, offset),
        };
    }
    a.add(Reg::L0, Reg::L0, 512);
    a.tst(Reg::L1, 7);
    a.bne("next");
    a.set(Reg::O0, 11);
    a.call("recurse");
    a.label("next");
    a.subcc(Reg::L1, Reg::L1, 1);
    a.bne("loop");
    a.report(0, Reg::L5);
    a.halt();

    // recurse(n): one window and one stack word per level, n + 1 levels
    a.label("recurse");
    a.save(Reg::SP, Reg::SP, -96);
    a.st(Reg::I0, Reg::SP, 64);
    a.cmp(Reg::I0, 0);
    a.be("leaf");
    a.add(Reg::O0, Reg::I0, -1_i32);
    a.call("recurse");
    a.label("leaf");
    a.ld(Reg::L0, Reg::SP, 64);
    a.ret_restore();
    a.assemble().expect("the probe guest assembles")
}
