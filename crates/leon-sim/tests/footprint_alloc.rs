//! Deriving a trace's closed-form facts allocates nothing, whatever the
//! trace holds: the footprint ring has a fixed size, so a hostile decoded
//! trace — accesses spread over the whole address space, a `restore`
//! before any `save` — costs no more memory than a well-behaved one.  And
//! decoding a trace allocates at most a constant multiple of its input,
//! whatever counts the input claims.
//!
//! A test binary of its own, because it counts allocations through its
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use leon_isa::{Asm, Reg};
use leon_sim::trace::flags;
use leon_sim::{capture, xxh64, LeonConfig, Recorder, ReplayBatch, Stats, Trace};

thread_local! {
    // const-initialised, so reading it never calls the allocator back
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Counts the bytes each thread allocates.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// thread-local integer that never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|bytes| bytes.set(bytes.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the bytes it allocated on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// A loop of loads and stores, captured on the base configuration.
fn captured() -> Trace {
    let mut a = Asm::new("sweep");
    a.set(Reg::L0, 2000);
    a.set(Reg::L2, leon_isa::DATA_BASE);
    a.label("loop");
    a.ld(Reg::L3, Reg::L2, 0);
    a.st(Reg::L3, Reg::L2, 4);
    a.add(Reg::L2, Reg::L2, 64);
    a.subcc(Reg::L0, Reg::L0, 1);
    a.bne("loop");
    a.halt();
    capture(&LeonConfig::base(), &a.assemble().unwrap(), 10_000_000).unwrap().1
}

/// `trace` through the codec: what a store entry decodes to.
fn decoded(trace: &Trace) -> Trace {
    Trace::from_bytes(&trace.to_bytes()).unwrap()
}

/// A trace no guest produces, built on the two streams: a `restore` before
/// any `save`, then fetches and loads and stores scattered over the whole
/// address space, up to `u32::MAX` — what a hostile store entry with a
/// valid checksum decodes to.
fn scattered() -> Trace {
    let mut recorder = Recorder::new();
    recorder.record(0, flags::RESTORE, u32::MAX);
    for i in 1..4000u32 {
        let pc = i.wrapping_mul(0x9e37_79b1) & !3;
        let addr = i.wrapping_mul(0x85eb_ca77) | 0xf000_0000;
        let events = [flags::LOAD, flags::STORE, 0][i as usize % 3];
        recorder.record(pc, events, addr);
    }
    decoded(&recorder.finish(&LeonConfig::base(), &Stats::default()))
}

#[test]
fn deriving_the_facts_of_a_hostile_trace_allocates_nothing() {
    let trace = captured();
    let scattered = scattered();
    for trace in [&trace, &scattered] {
        let (depth, bytes) = allocated_by(|| trace.mem_facts().max_depth);
        assert_eq!(bytes, 0, "the memory-stream derivation allocated {bytes} bytes");
        let (text, bytes) = allocated_by(|| trace.fetch_footprint().line16);
        assert_eq!(bytes, 0, "the fetch-stream derivation allocated {bytes} bytes");
        if std::ptr::eq(trace, &scattered) {
            assert_eq!(depth, None, "a restore at depth 0 disables the window shortcut");
            assert_eq!(trace.mem_facts().data.line16, None, "scattered data is wide");
            assert_eq!(text, None, "scattered text is wide");
        } else {
            assert_eq!(depth, Some(0));
            assert!(text.is_some() && trace.mem_facts().data.line16.is_none());
        }
    }

    // and a plan over the hostile trace allocates only for its batch
    let mut configs = vec![LeonConfig::base(); 8];
    for (i, config) in configs.iter_mut().enumerate() {
        config.iu.reg_windows = 2 + 4 * i as u8;
        config.icache.way_kb = 1 << (i % 4);
    }
    let fresh = decoded(&trace);
    let (_, bytes) = allocated_by(|| ReplayBatch::new(&fresh, &configs, 1 << 40).len());
    assert!(bytes < 16 << 10, "planning 8 configurations allocated {bytes} bytes");
}

#[test]
fn decoding_allocates_at_most_a_constant_multiple_of_the_input() {
    for trace in [captured(), scattered()] {
        let good = trace.to_bytes();
        let (result, bytes) = allocated_by(|| Trace::from_bytes(&good));
        assert_eq!(result.unwrap(), trace);
        assert!(bytes <= 2 * good.len() as u64, "decoding {} bytes allocated {bytes}", good.len());

        // every 8-byte word of the header and the segment indexes claiming
        // 2^32 up to 2^60 and beyond, re-sealed with a valid checksum: a
        // typed error, never an allocation sized by the claim
        let body = good.len() - 8;
        for word in (0..body.min(512)).step_by(8) {
            for claim in [1u64 << 32, 1 << 40, 1 << 60, u64::MAX] {
                let mut hostile = good.clone();
                hostile[word..word + 8].copy_from_slice(&claim.to_le_bytes());
                let checksum = xxh64(&hostile[..body]);
                hostile[body..].copy_from_slice(&checksum.to_le_bytes());
                let (_, bytes) = allocated_by(|| Trace::from_bytes(&hostile));
                assert!(
                    bytes <= 2 * good.len() as u64,
                    "{claim:#x} at byte {word}: decoding {} bytes allocated {bytes}",
                    good.len()
                );
            }
        }
    }
}
