//! `autoreconf-serve` — the campaign-as-a-service daemon.
//!
//! Binds a TCP listener, prints the bound address on stdout (machine
//! parseable — port 0 picks a free port), and serves campaign queries over
//! one shared artifact store until a client sends `Shutdown`.
//!
//! ```text
//! autoreconf-serve [--addr HOST:PORT] [--scale tiny|small|medium|large] \
//!     [--threads N] [--space paper|dcache] [--store DIR] [--doctor] \
//!     [--max-inflight N] [--io-timeout-ms N]
//! ```
//!
//! `--store DIR` defaults to `$AUTORECONF_STORE`; with neither, every query
//! is answered by computing (still deduplicated in-process).  `--doctor`
//! runs a repair pass over the store before serving; `--max-inflight` caps
//! concurrently computing requests (0 = unbounded — excess load is shed
//! with `Overloaded`); `--io-timeout-ms` bounds how long an idle or stalled
//! client may hold a connection thread (0 = no timeout).  Every malformed
//! flag is a hard error — never a silent fallback.  `experiments serve` is
//! the same daemon behind the same parser
//! ([`autoreconf::service::run_cli`]).

fn main() {
    // fail fast on a malformed AUTORECONF_THREADS instead of panicking in a
    // worker-pool setup deep inside the first cold query
    if let Err(message) = autoreconf::campaign::threads_env() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    // same fail-fast treatment for the fault-injection and lease-TTL
    // overrides: a typo must not silently disable a crash schedule or run
    // a crash test at the 10 s default TTL
    if let Err(message) = autoreconf::faults::install_from_env() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    if let Err(message) = autoreconf::store::lease_ttl_env() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(autoreconf::service::run_cli(&args));
}
