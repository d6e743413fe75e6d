//! A frame's length prefix buys no memory on its own: both frame readers
//! grow the body as bytes arrive, so a peer that announces the largest
//! frame ([`MAX_FRAME_BYTES`], 64 MiB) and sends little of it costs what it
//! sent, not what it announced — per connection, up to the daemon's
//! in-flight cap.  Nor does a served request: a store-backed session (the
//! daemon's) answers the same question again without holding more memory.
//!
//! A test binary of its own, because it tracks the peak of the process's
//! live heap bytes through its global allocator; every test takes one lock,
//! so no test's allocations land in another's peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use autoreconf::experiments::ExperimentOptions;
use autoreconf::service::{
    read_frame, write_frame, Request, Response, Server, ServerConfig, MAX_FRAME_BYTES,
};
use autoreconf::ArtifactStore;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Tracks the live heap bytes of the whole process and their peak.
struct Peak;

impl Peak {
    fn allocated(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are atomics
// that never touch the returned memory.
unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Peak::allocated(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Peak::allocated(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Peak = Peak;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f`, returning its result and how far the peak of live heap bytes
/// rose above the live bytes at its start.
fn peak_rise<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst).saturating_sub(base))
}

/// A length prefix announcing the largest frame, then 1 KiB of its body.
fn truncated_frame() -> Vec<u8> {
    let mut bytes = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&[b'['; 1024]);
    bytes
}

#[test]
fn a_length_prefix_alone_buys_no_memory() {
    let _guard = lock();
    let frame = truncated_frame();
    let (read, rise) = peak_rise(|| read_frame(&mut Cursor::new(&frame)).map(|_| ()));
    let err = read.unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(rise < 1 << 20, "1 KiB of a 64 MiB frame raised the peak by {rise} bytes");

    // an announcement past the limit is still refused before any body byte
    let over = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
    let err = read_frame(&mut Cursor::new(&over)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
}

#[test]
fn a_one_mebibyte_frame_still_round_trips() {
    let _guard = lock();
    let body: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &body).unwrap();
    let mut reader = Cursor::new(&wire);
    assert_eq!(read_frame(&mut reader).unwrap(), Some(body));
    assert_eq!(read_frame(&mut reader).unwrap(), None, "a clean EOF between frames");
}

/// One request/response round trip on `stream`.
fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, serde_json::to_string(request).unwrap().as_bytes()).unwrap();
    let frame = read_frame(stream).unwrap().expect("a response frame");
    serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap()
}

#[test]
fn a_daemon_fed_a_bare_length_prefix_stays_small_and_keeps_answering() {
    let _guard = lock();
    let server = Server::bind(ServerConfig { store: None, ..ServerConfig::default() }).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    // the daemon's own set-up and first connection happen before measuring
    let mut first = TcpStream::connect(addr).unwrap();
    assert!(matches!(roundtrip(&mut first, &Request::Ping), Response::Pong { .. }));
    drop(first);

    let ((), rise) = peak_rise(|| {
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile.write_all(&truncated_frame()).unwrap();
        hostile.shutdown(Shutdown::Write).unwrap();
        // the daemon closes the connection only after it has read the
        // prefix and what followed it, and met the EOF
        let _ = hostile.read_to_end(&mut Vec::new());
    });
    assert!(rise < 8 << 20, "a bare 64 MiB announcement raised the daemon's peak by {rise} bytes");

    let mut fresh = TcpStream::connect(addr).unwrap();
    assert!(matches!(roundtrip(&mut fresh, &Request::Ping), Response::Pong { .. }));
    assert_eq!(roundtrip(&mut fresh, &Request::Shutdown), Response::Bye);
    handle.join().unwrap().unwrap();
}

#[test]
fn repeated_co_hits_hold_the_live_heap_flat() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("autoreconf-co-hits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).unwrap();
    let options = ExperimentOptions { threads: 1, ..ExperimentOptions::test_sized() };
    let suite = workloads::benchmark_suite(options.scale);
    let session = options.engine(Some(store)).session(&suite).unwrap();
    let mix = [1.0; 4];
    // the cold solve publishes the co entry, the first hit settles the
    // store's one-off state; every later request is a hit like it
    let cold = session.co_optimize(&mix).unwrap();
    assert_eq!(session.co_optimize(&mix).unwrap().selected, cold.selected);

    let before = LIVE.load(Ordering::SeqCst);
    for _ in 0..20_000 {
        session.co_optimize(&mix).unwrap();
    }
    let grown = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    assert!(grown < 64 << 10, "20,000 co hits grew the live heap by {grown} bytes");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
