//! Campaign-as-a-service: a std-only TCP daemon over one shared artifact
//! store.
//!
//! The [`Server`] owns a lazily materialised [`CampaignSession`] and answers
//! clients over a tiny length-prefixed JSON protocol (see [`Request`] /
//! [`Response`]).  A warm query is served straight from the store — zero
//! guest instructions, zero trace payload bytes; a cold query walks the
//! session's dependency chain under the store's claim/lease protocol
//! ([`crate::store::ArtifactStore::try_claim`]), so any number of concurrent
//! clients — and any number of *other processes* sharing the store — execute
//! each artifact's guest code exactly once.
//!
//! ## Wire protocol
//!
//! Every message (both directions) is one *frame*: a 4-byte big-endian
//! payload length followed by that many bytes of JSON — the externally
//! tagged serialisation of [`Request`] or [`Response`].  Frames larger than
//! [`MAX_FRAME_BYTES`] are rejected; a clean EOF between frames ends the
//! connection.  One connection carries any number of request/response
//! round-trips, strictly in order.
//!
//! Campaign outcomes travel as their canonical JSON text (the exact bytes
//! `serde_json::to_string` produces for [`crate::campaign::CoOutcome`] /
//! [`crate::Outcome`]), so clients can byte-compare answers against a local
//! run without worrying about field ordering drift.
//!
//! ```no_run
//! use autoreconf::service::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap(); // blocks until a Shutdown request
//! ```

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use workloads::Scale;

use crate::campaign::{Campaign, CampaignSession};
use crate::experiments::ExperimentOptions;
use crate::formulation::Weights;
use crate::params::ParameterSpace;
use crate::store::ArtifactStore;

/// Version tag answered by [`Request::Ping`]; bumped on any incompatible
/// change to the frame format or the request/response enums.
/// Version 2 added [`Request::Population`] / [`Response::Population`].
/// Version 3 added [`Request::Search`] / [`Response::Search`] (the pruned
/// design-space funnel).
/// Version 4 added [`Response::Overloaded`] (load shedding when the
/// server's in-flight compute cap is reached).
pub const PROTOCOL_VERSION: u32 = 4;

/// Granularity at which a blocked connection read re-checks the shutdown
/// flag and its idle deadline.  Purely an internal polling interval — it
/// bounds shutdown-drain latency, not request latency.
const READ_POLL: Duration = Duration::from_millis(50);

/// Default [`ServerConfig::io_timeout`]: generous enough that no
/// legitimate client trips it between keep-alive requests, small enough
/// that a half-open peer cannot pin a connection thread for hours.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Default [`ServerConfig::max_in_flight`]: far above any plausible
/// concurrent compute load, so shedding only starts when the server is
/// genuinely drowning.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 256;

/// Upper bound on a single frame's payload, both directions.  Large enough
/// for any campaign outcome, small enough that a malformed length prefix
/// cannot balloon into a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Most bytes a frame body is given before any of it arrives; it grows as
/// bytes arrive, so a length prefix alone never costs the peer's announced
/// size (at most [`MAX_FRAME_BYTES`] per connection).
const FRAME_INITIAL_CAPACITY: usize = 64 << 10;

/// The error of a connection that closes inside a frame.
fn closed_mid_frame() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame")
}

// -- framing ----------------------------------------------------------------

/// Write one length-prefixed frame and flush it.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit", body.len()),
        ));
    }
    // one contiguous write: a separate prefix write would interact with
    // Nagle + delayed ACK on a TCP peer (~40 ms stalls per response)
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Read one length-prefixed frame.  `Ok(None)` on a clean EOF *between*
/// frames (the peer hung up); an EOF mid-frame is an error.  The body
/// buffer grows with the bytes received, not with the announced length.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        let n = reader.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame (inside the length prefix)",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (limit {MAX_FRAME_BYTES})"),
        ));
    }
    let mut body = Vec::with_capacity(len.min(FRAME_INITIAL_CAPACITY));
    Read::take(reader, len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(closed_mid_frame());
    }
    Ok(Some(body))
}

/// [`read_frame`] over a socket, with an idle deadline and shutdown
/// awareness — the server-side read path.
///
/// The stream is switched to a short ([`READ_POLL`]) read timeout so the
/// wait is a poll loop rather than an unbounded block; each tick re-checks
/// the shutdown flag (a flagged shutdown closes the connection cleanly at
/// the frame boundary — the drain half of graceful shutdown) and the idle
/// clock.  A peer idle past `io_timeout` *between* frames gets a clean
/// close (`Ok(None)`); one that stalls `io_timeout` *mid-frame* — a
/// half-open or wedged client — is an error, so it can no longer pin a
/// connection thread forever.  `io_timeout: None` waits indefinitely (but
/// still honours shutdown).
fn read_frame_deadline(
    stream: &mut TcpStream,
    io_timeout: Option<Duration>,
    shutdown: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    stream.set_read_timeout(Some(READ_POLL))?;
    let start = Instant::now();
    let mut len_buf = [0u8; 4];
    let mut prefix_filled = 0usize;
    let mut body: Vec<u8> = Vec::new();
    let mut body_len: Option<usize> = None;
    loop {
        let mid_frame = prefix_filled > 0 || body_len.is_some();
        // the body appends what has arrived, also when the poll times out
        let read = match body_len {
            Some(len) => Read::take(&mut *stream, (len - body.len()) as u64).read_to_end(&mut body),
            None => stream.read(&mut len_buf[prefix_filled..]),
        };
        match read {
            Ok(0) => {
                if mid_frame {
                    return Err(closed_mid_frame());
                }
                return Ok(None); // clean EOF between frames
            }
            Ok(n) => match body_len {
                Some(len) => {
                    if body.len() == len {
                        return Ok(Some(body));
                    }
                }
                None => {
                    prefix_filled += n;
                    if prefix_filled == len_buf.len() {
                        let len = u32::from_be_bytes(len_buf) as usize;
                        if len > MAX_FRAME_BYTES {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("peer announced a {len}-byte frame (limit {MAX_FRAME_BYTES})"),
                            ));
                        }
                        if len == 0 {
                            return Ok(Some(Vec::new()));
                        }
                        body = Vec::with_capacity(len.min(FRAME_INITIAL_CAPACITY));
                        body_len = Some(len);
                    }
                }
            },
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(None); // draining: close at the frame boundary
                }
                if let Some(limit) = io_timeout {
                    if start.elapsed() >= limit {
                        if mid_frame {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!(
                                    "peer stalled mid-frame for {:.0}s",
                                    limit.as_secs_f64()
                                ),
                            ));
                        }
                        return Ok(None); // idle client: close cleanly
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

// -- protocol ---------------------------------------------------------------

/// A client request, one per frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Health check; answered with [`Response::Pong`].
    Ping,
    /// Describe the served suite (workload names, scale, store attachment).
    Describe,
    /// Per-application optimum for one workload of the served suite, by
    /// name (e.g. `"BLASTN"`).
    Optimize {
        /// Workload name, as listed by [`Request::Describe`].
        workload: String,
    },
    /// The workload's exhaustive d-cache sweep (the paper's Figure 2 rows).
    Sweep {
        /// Workload name, as listed by [`Request::Describe`].
        workload: String,
    },
    /// Co-optimize the whole served suite for a workload mix (one weight
    /// per workload, suite order; weights are normalised server-side).
    CoOptimize {
        /// Un-normalised mix weights, one per workload.
        mix: Vec<f64>,
    },
    /// Batch co-optimize a *population* of tenant mixes and reduce the
    /// per-mix optima to the Pareto frontier of configurations covering
    /// every tenant within `tolerance_pct` of its own optimum (see
    /// [`crate::population`]).
    Population {
        /// One un-normalised mix per tenant (each: one weight per
        /// workload, suite order).  Tenants are named `mix-0`, `mix-1`, …
        /// in the outcome.
        mixes: Vec<Vec<f64>>,
        /// Per-tenant regret tolerance, in percent (≥ 0).
        tolerance_pct: f64,
    },
    /// Design-space search for one workload: enumerate a candidate space
    /// and find its measured optimum, either exhaustively or through the
    /// three-stage pruned funnel (see [`crate::search`]).
    Search {
        /// Workload name, as listed by [`Request::Describe`].
        workload: String,
        /// Which shipped candidate space to search.
        space: crate::search::SearchSpaceChoice,
        /// Exhaustive baseline or the pruned funnel (both return the
        /// byte-identical optimum).
        mode: crate::search::SearchMode,
    },
    /// Process-wide compute counters — the duplicated-work audit surface.
    Counters,
    /// Stop the daemon after answering with [`Response::Bye`].
    Shutdown,
}

/// Process-wide compute counters reported by [`Response::Counters`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceCounters {
    /// Guest instructions executed by this server process since start
    /// ([`workloads::guest_instructions_executed`]).
    pub guest_instructions: u64,
    /// Trace payload bytes materialised from the store
    /// ([`workloads::trace_payload_bytes_read`]).
    pub trace_payload_bytes: u64,
    /// Requests answered so far, across all connections.
    pub requests_served: u64,
}

/// A server response, one per request frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Answer to [`Request::Describe`].
    Describe {
        /// Workload names, in suite order — the order mix weights apply in.
        workloads: Vec<String>,
        /// Problem scale the suite was built at (`tiny`/`small`/…).
        scale: String,
        /// Whether an artifact store is attached (warm hits possible).
        store: bool,
    },
    /// Answer to [`Request::Optimize`]: the canonical JSON text of the
    /// [`crate::Outcome`].
    Outcome {
        /// `serde_json::to_string` of the outcome, byte-comparable against
        /// a local run.
        json: String,
    },
    /// Answer to [`Request::Sweep`]: the canonical JSON text of the
    /// `Vec<DcacheRow>`.
    Sweep {
        /// `serde_json::to_string` of the sweep rows.
        json: String,
    },
    /// Answer to [`Request::CoOptimize`]: the canonical JSON text of the
    /// [`crate::campaign::CoOutcome`].
    CoOutcome {
        /// `serde_json::to_string` of the co-optimization outcome.
        json: String,
    },
    /// Answer to [`Request::Population`]: the canonical JSON text of the
    /// [`crate::population::PopulationOutcome`].
    Population {
        /// `serde_json::to_string` of the population outcome.
        json: String,
    },
    /// Answer to [`Request::Search`]: the canonical JSON text of the
    /// [`crate::search::SearchOutcome`].
    Search {
        /// `serde_json::to_string` of the search outcome.
        json: String,
    },
    /// Answer to [`Request::Counters`].
    Counters {
        /// The counter snapshot.
        counters: ServiceCounters,
    },
    /// The server's in-flight compute cap ([`ServerConfig::max_in_flight`])
    /// is reached: the request was *shed*, not queued.  The connection
    /// stays usable; because every request is idempotent, the client simply
    /// retries after a backoff (the SDK's `RetryPolicy` does this
    /// automatically).
    Overloaded {
        /// Compute requests in flight when this one was shed.
        in_flight: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Acknowledgement of [`Request::Shutdown`]; the daemon exits after
    /// sending it.
    Bye,
    /// Any failure: unknown workload, malformed request, campaign error.
    /// The connection stays usable.
    Error {
        /// Human-readable description of what was wrong.
        message: String,
    },
}

// -- server -----------------------------------------------------------------

/// Configuration for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to listen on.  Port 0 picks a free port — read it back via
    /// [`Server::local_addr`].
    pub addr: String,
    /// Campaign sizing (scale, cycle budget, worker threads) — identical
    /// semantics to the `experiments campaign` target, so the service
    /// shares its store entries with CLI runs.
    pub options: ExperimentOptions,
    /// The decision-variable space to optimize over.  The default —
    /// [`ParameterSpace::paper`] — matches the `campaign` CLI target;
    /// smoke tests restrict it (e.g. [`ParameterSpace::dcache_geometry`])
    /// to keep cold queries fast.
    pub space: ParameterSpace,
    /// The shared artifact store; `None` serves every query by computing.
    pub store: Option<ArtifactStore>,
    /// Per-connection socket deadline (see [`read_frame_deadline`]): idle
    /// peers are closed cleanly, mid-frame stalls and blocked writes are
    /// errors.  `None` disables the deadline (shutdown is still honoured).
    pub io_timeout: Option<Duration>,
    /// Cap on concurrently *computing* requests; excess load is shed with
    /// [`Response::Overloaded`] instead of queueing without bound.  Control
    /// requests (ping, describe, counters, shutdown) are always served.
    /// `0` disables the cap.
    pub max_in_flight: usize,
    /// Run a `doctor --repair` pass over the attached store before serving,
    /// so a daemon (re)started over a store a crashed process left dirty
    /// begins from a verified-clean state.
    pub doctor_on_start: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            options: ExperimentOptions::default(),
            space: ParameterSpace::paper(),
            store: ArtifactStore::from_env(),
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            doctor_on_start: false,
        }
    }
}

/// The campaign daemon: a bound listener plus the campaign configuration it
/// will serve.  [`Server::run`] blocks until a [`Request::Shutdown`].
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
}

impl Server {
    /// Bind the listening socket (without serving yet).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server { listener, config })
    }

    /// The bound address — the one to hand to clients when the configured
    /// port was 0.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a client sends [`Request::Shutdown`].
    ///
    /// Connections are handled one thread each; they all share one lazy
    /// [`CampaignSession`], so concurrent cold queries for the same
    /// artifact dedup in-process ([`crate::store::LazyArtifact`]) and
    /// across processes (claim/lease).
    pub fn run(self) -> io::Result<()> {
        if self.config.doctor_on_start {
            if let Some(store) = &self.config.store {
                let report = store.doctor(true)?;
                eprintln!("{}", report.render());
            }
        }
        let suite = workloads::benchmark_suite(self.config.options.scale);
        let mut engine = Campaign::new()
            .with_space(self.config.space.clone())
            .with_weights(Weights::runtime_optimized())
            .with_measurement(self.config.options.measurement());
        if let Some(store) = self.config.store.clone() {
            engine = engine.with_store(store);
        }
        let session = engine
            .session(&suite)
            .map_err(|e| io::Error::new(io::ErrorKind::Other, e.to_string()))?;
        let scale = self.config.options.scale;
        let state = ServerState {
            session,
            scale,
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            addr: self.listener.local_addr()?,
            io_timeout: self.config.io_timeout,
            max_in_flight: self.config.max_in_flight,
            in_flight: AtomicUsize::new(0),
        };
        std::thread::scope(|scope| {
            for conn in self.listener.incoming() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(stream) => stream,
                    Err(_) => continue, // transient accept failure
                };
                // small request/response frames: don't let Nagle batch them
                let _ = stream.set_nodelay(true);
                let state = &state;
                scope.spawn(move || {
                    if let Err(e) = handle_connection(stream, state) {
                        // a dropped client mid-request is routine, not fatal
                        eprintln!("connection error: {e}");
                    }
                });
            }
        });
        Ok(())
    }
}

/// Everything the connection handlers share.
struct ServerState<'suite> {
    session: CampaignSession<'suite>,
    scale: Scale,
    shutdown: AtomicBool,
    served: AtomicU64,
    addr: SocketAddr,
    io_timeout: Option<Duration>,
    max_in_flight: usize,
    in_flight: AtomicUsize,
}

/// RAII slot in the in-flight compute gate: dropping it (however the
/// request ends) frees the slot.
#[derive(Debug)]
struct InFlightSlot<'a>(&'a AtomicUsize);

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Try to admit one compute request under `limit` (0 = unbounded).
/// `Err(observed)` when the cap is reached — the caller sheds the request.
fn try_admit(in_flight: &AtomicUsize, limit: usize) -> Result<InFlightSlot<'_>, usize> {
    let prev = in_flight.fetch_add(1, Ordering::SeqCst);
    if limit != 0 && prev >= limit {
        in_flight.fetch_sub(1, Ordering::SeqCst);
        return Err(prev);
    }
    Ok(InFlightSlot(in_flight))
}

/// Whether a request runs campaign compute (and is therefore subject to
/// the in-flight cap), as opposed to a constant-time control request.
fn is_compute(request: &Request) -> bool {
    matches!(
        request,
        Request::Optimize { .. }
            | Request::Sweep { .. }
            | Request::CoOptimize { .. }
            | Request::Population { .. }
            | Request::Search { .. }
    )
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) -> io::Result<()> {
    // a peer that stops draining its receive buffer must not pin this
    // thread in write_all forever either
    stream.set_write_timeout(state.io_timeout)?;
    loop {
        let frame = match read_frame_deadline(&mut stream, state.io_timeout, &state.shutdown) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // clean EOF, idle past deadline, or drain
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // protocol violation (oversized announcement): tell the peer
                // why before closing, instead of a bare EOF
                let body = serde_json::to_string(&Response::Error { message: e.to_string() })
                    .unwrap_or_else(|_| String::from("{\"Error\":{\"message\":\"protocol error\"}}"));
                let _ = write_frame(&mut stream, body.as_bytes());
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let request: Result<Request, String> = std::str::from_utf8(&frame)
            .map_err(|e| format!("request is not UTF-8: {e}"))
            .and_then(|text| {
                serde_json::from_str(text).map_err(|e| format!("malformed request: {e}"))
            });
        let (response, stop) = match request {
            Err(message) => (Response::Error { message }, false),
            Ok(Request::Shutdown) => (Response::Bye, true),
            Ok(request) if is_compute(&request) => {
                match try_admit(&state.in_flight, state.max_in_flight) {
                    Ok(_slot) => (dispatch(state, &request), false),
                    Err(observed) => (
                        Response::Overloaded {
                            in_flight: observed,
                            limit: state.max_in_flight,
                        },
                        false,
                    ),
                }
            }
            Ok(request) => (dispatch(state, &request), false),
        };
        state.served.fetch_add(1, Ordering::Relaxed);
        let body = serde_json::to_string(&response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_frame(&mut stream, body.as_bytes())?;
        if stop {
            state.shutdown.store(true, Ordering::SeqCst);
            // wake the accept loop so it observes the flag and exits
            let _ = TcpStream::connect(state.addr);
            return Ok(());
        }
    }
}

/// Answer one (non-shutdown) request.  Campaign failures become
/// [`Response::Error`]; the connection survives them.
fn dispatch(state: &ServerState, request: &Request) -> Response {
    let session = &state.session;
    let index_of = |workload: &str| {
        session.names().iter().position(|name| name == workload).ok_or_else(|| {
            format!("unknown workload `{workload}` (serving: {})", session.names().join(", "))
        })
    };
    fn as_json<T: serde::Serialize>(value: &T) -> Result<String, String> {
        serde_json::to_string(value).map_err(|e| format!("serialisation failed: {e}"))
    }
    let result = match request {
        Request::Ping => Ok(Response::Pong { protocol: PROTOCOL_VERSION }),
        Request::Describe => Ok(Response::Describe {
            workloads: session.names().to_vec(),
            scale: state.scale.name().to_string(),
            store: session.engine().store().is_some(),
        }),
        Request::Optimize { workload } => index_of(workload)
            .and_then(|i| session.per_app_outcome(i).map_err(|e| e.to_string()))
            .and_then(|outcome| as_json(outcome))
            .map(|json| Response::Outcome { json }),
        Request::Sweep { workload } => index_of(workload)
            .and_then(|i| session.sweep(i).map_err(|e| e.to_string()))
            .and_then(|sweep| as_json(sweep))
            .map(|json| Response::Sweep { json }),
        Request::CoOptimize { mix } => validate_mix(mix, session.len())
            .and_then(|()| session.co_optimize(mix).map_err(|e| e.to_string()))
            .and_then(|outcome| as_json(&outcome))
            .map(|json| Response::CoOutcome { json }),
        Request::Population { mixes, tolerance_pct } => {
            let profiles: Vec<crate::population::MixProfile> = mixes
                .iter()
                .enumerate()
                .map(|(i, weights)| crate::population::MixProfile {
                    name: format!("mix-{i}"),
                    weights: weights.clone(),
                })
                .collect();
            session
                .population(&profiles, *tolerance_pct)
                .map_err(|e| e.to_string())
                .and_then(|outcome| as_json(&outcome))
                .map(|json| Response::Population { json })
        }
        Request::Search { workload, space, mode } => index_of(workload)
            .and_then(|i| {
                session.search(i, &space.space(), *mode).map_err(|e| e.to_string())
            })
            .and_then(|outcome| as_json(&outcome))
            .map(|json| Response::Search { json }),
        Request::Counters => Ok(Response::Counters {
            counters: ServiceCounters {
                guest_instructions: workloads::guest_instructions_executed(),
                trace_payload_bytes: workloads::trace_payload_bytes_read(),
                requests_served: state.served.load(Ordering::Relaxed),
            },
        }),
        Request::Shutdown => unreachable!("handled by the connection loop"),
    };
    result.unwrap_or_else(|message| Response::Error { message })
}

/// Reject a mix the session would refuse (wrong arity) or fold into a
/// nonsense key.  Value checks delegate to
/// [`crate::campaign::canonical_shares`] — the exact validation (and
/// canonicalisation) the session applies before fingerprinting, so
/// nothing the wire accepts can mis-key the store: finite weights whose
/// *sum* overflows to `+inf` are rejected here too, not folded into the
/// all-zero-shares key.
fn validate_mix(mix: &[f64], suite_len: usize) -> Result<(), String> {
    if mix.len() != suite_len {
        return Err(format!("mix has {} weights but the suite has {suite_len}", mix.len()));
    }
    crate::campaign::canonical_shares(mix).map(|_| ()).map_err(|e| e.to_string())
}

// -- command line -----------------------------------------------------------

/// Usage text of the daemon's flags, shared by `autoreconf-serve` and
/// `experiments serve`.
pub const USAGE: &str = "usage: autoreconf-serve | experiments serve [--addr HOST:PORT] \
     [--scale tiny|small|medium|large] [--threads N] [--space paper|dcache] \
     [--store DIR] [--doctor] [--max-inflight N] [--io-timeout-ms N]\n\
\n\
--addr defaults to 127.0.0.1:0 (a free port; the bound address is printed \
on stdout). --store defaults to $AUTORECONF_STORE. --space dcache restricts \
the optimization to the d-cache geometry variables (fast smoke runs). \
--doctor repairs the store before serving. --max-inflight caps concurrently \
computing requests (0 = unbounded); excess load is shed with Overloaded. \
--io-timeout-ms bounds idle/stalled connections (0 = none).";

/// Parse the `--space` flag: the paper's full 52-variable space or the
/// restricted d-cache geometry study space.
fn parse_space(name: &str) -> Result<ParameterSpace, String> {
    match name.trim().to_ascii_lowercase().as_str() {
        "paper" | "full" => Ok(ParameterSpace::paper()),
        "dcache" => Ok(ParameterSpace::dcache_geometry()),
        other => Err(format!("unknown space `{other}` (expected paper or dcache)")),
    }
}

/// Parse the daemon's flags (the words after `autoreconf-serve` or
/// `experiments serve`) into a [`ServerConfig`], opening `--store DIR` (or
/// `$AUTORECONF_STORE` without it); `Ok(None)` asks for the usage text.
/// Every malformed flag is an error naming it — never a silent fallback.
pub fn parse_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut config = ServerConfig::default();
    let mut store_dir = None;
    let mut iter = args.iter().peekable();
    let flag_value = |flag: &str,
                      iter: &mut std::iter::Peekable<std::slice::Iter<'_, String>>|
     -> Result<String, String> {
        match iter.peek() {
            Some(v) if !v.starts_with("--") => Ok(iter.next().unwrap().clone()),
            _ => Err(format!("{flag} requires a value")),
        }
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => config.addr = flag_value("--addr", &mut iter)?,
            "--scale" => {
                let value = flag_value("--scale", &mut iter)?;
                config.options.scale = Scale::parse(&value).map_err(|e| e.to_string())?;
            }
            "--threads" => {
                let value = flag_value("--threads", &mut iter)?;
                config.options.threads = value.trim().parse().map_err(|_| {
                    format!("invalid --threads value `{value}` (expected a number; 0 = all cores)")
                })?;
            }
            "--space" => config.space = parse_space(&flag_value("--space", &mut iter)?)?,
            "--store" => store_dir = Some(flag_value("--store", &mut iter)?),
            "--doctor" => config.doctor_on_start = true,
            "--max-inflight" => {
                let value = flag_value("--max-inflight", &mut iter)?;
                config.max_in_flight = value.trim().parse().map_err(|_| {
                    format!(
                        "invalid --max-inflight value `{value}` (expected a number; 0 = unbounded)"
                    )
                })?;
            }
            "--io-timeout-ms" => {
                let value = flag_value("--io-timeout-ms", &mut iter)?;
                let ms: u64 = value.trim().parse().map_err(|_| {
                    format!("invalid --io-timeout-ms value `{value}` (expected milliseconds; 0 = none)")
                })?;
                config.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(dir) = store_dir {
        let store = ArtifactStore::open(&dir)
            .map_err(|e| format!("cannot open artifact store `{dir}`: {e}"))?;
        config.store = Some(store);
    }
    Ok(Some(config))
}

/// The daemon's command-line front end, behind both `autoreconf-serve` and
/// `experiments serve`: parse `args` ([`parse_args`]), bind, print
/// `autoreconf-serve listening on ADDR` on stdout (machine parseable — port
/// 0 picks a free port) and serve until a client sends `Shutdown`.  Returns
/// the process exit code: 0 after `--help` or a clean shutdown, 2 for a
/// malformed flag, 1 when binding or serving fails.
pub fn run_cli(args: &[String]) -> i32 {
    let config = match parse_args(args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("{USAGE}");
            return 0;
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let addr = config.addr.clone();
    let served = Server::bind(config)
        .map_err(|e| format!("cannot bind listener on `{addr}`: {e}"))
        .and_then(|server| {
            let bound = server.local_addr().map_err(|e| format!("no local address: {e}"))?;
            println!("autoreconf-serve listening on {bound}");
            io::stdout().flush().map_err(|e| format!("cannot flush address line: {e}"))?;
            server.run().map_err(|e| format!("server failed: {e}"))
        });
    match served {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("error: {message}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        // cut the frame mid-payload and mid-prefix
        let mut reader = &wire[..6];
        assert!(read_frame(&mut reader).is_err());
        let mut reader = &wire[..2];
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn oversized_announcements_are_rejected() {
        let wire = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        assert!(read_frame(&mut wire.as_slice()).is_err());
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME_BYTES + 1]).is_err());
    }

    #[test]
    fn protocol_messages_round_trip_through_json() {
        let requests = vec![
            Request::Ping,
            Request::Describe,
            Request::Optimize { workload: "BLASTN".to_string() },
            Request::Sweep { workload: "DRR".to_string() },
            Request::CoOptimize { mix: vec![1.0, 2.0, 0.5, 0.0] },
            Request::Population {
                mixes: vec![vec![1.0, 0.0, 1.0, 0.0], vec![0.0, 2.0, 0.0, 1.0]],
                tolerance_pct: 5.0,
            },
            Request::Search {
                workload: "FRAG".to_string(),
                space: crate::search::SearchSpaceChoice::Figure2,
                mode: crate::search::SearchMode::Pruned,
            },
            Request::Counters,
            Request::Shutdown,
        ];
        for request in requests {
            let text = serde_json::to_string(&request).unwrap();
            let back: Request = serde_json::from_str(&text).unwrap();
            assert_eq!(back, request, "{text}");
        }
        let responses = vec![
            Response::Pong { protocol: PROTOCOL_VERSION },
            Response::Error { message: "nope".to_string() },
            Response::Overloaded { in_flight: 256, limit: 256 },
            Response::Counters {
                counters: ServiceCounters {
                    guest_instructions: 1,
                    trace_payload_bytes: 2,
                    requests_served: 3,
                },
            },
            Response::Bye,
        ];
        for response in responses {
            let text = serde_json::to_string(&response).unwrap();
            let back: Response = serde_json::from_str(&text).unwrap();
            assert_eq!(back, response, "{text}");
        }
    }

    #[test]
    fn mix_validation_catches_nonsense() {
        assert!(validate_mix(&[1.0, 1.0], 2).is_ok());
        assert!(validate_mix(&[1.0], 2).unwrap_err().contains("2"));
        assert!(validate_mix(&[1.0, -1.0], 2).unwrap_err().contains("non-negative"));
        assert!(validate_mix(&[f64::NAN, 1.0], 2).unwrap_err().contains("finite"));
        assert!(validate_mix(&[0.0, 0.0], 2).unwrap_err().contains("zero"));
        // finite weights whose *sum* overflows must be rejected, not folded
        // into all-zero shares (and the all-zero store key)
        assert!(validate_mix(&[1e308, 1e308], 2).unwrap_err().contains("finite"));
        // -0.0 is an accepted weight (it canonicalises to +0.0 — same key)
        assert!(validate_mix(&[-0.0, 1.0], 2).is_ok());
    }

    /// End-to-end over a real socket: ping, describe, bad request, shutdown.
    /// (Compute-heavy queries are exercised by the service crate's smoke
    /// test and the multi-process store test.)
    #[test]
    fn server_answers_control_requests_over_tcp() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            options: ExperimentOptions::test_sized(),
            space: ParameterSpace::dcache_geometry(),
            store: None,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut roundtrip = |request: &Request| -> Response {
            let body = serde_json::to_string(request).unwrap();
            write_frame(&mut stream, body.as_bytes()).unwrap();
            let frame = read_frame(&mut stream).unwrap().expect("response frame");
            serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap()
        };

        assert_eq!(roundtrip(&Request::Ping), Response::Pong { protocol: PROTOCOL_VERSION });
        match roundtrip(&Request::Describe) {
            Response::Describe { workloads, scale, store } => {
                assert_eq!(workloads, vec!["BLASTN", "DRR", "FRAG", "Arith"]);
                assert_eq!(scale, "tiny");
                assert!(!store);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        match roundtrip(&Request::Optimize { workload: "NOPE".to_string() }) {
            Response::Error { message } => assert!(message.contains("unknown workload")),
            other => panic!("unexpected response: {other:?}"),
        }
        match roundtrip(&Request::Search {
            workload: "NOPE".to_string(),
            space: crate::search::SearchSpaceChoice::Figure2,
            mode: crate::search::SearchMode::Pruned,
        }) {
            Response::Error { message } => assert!(message.contains("unknown workload")),
            other => panic!("unexpected response: {other:?}"),
        }
        match roundtrip(&Request::CoOptimize { mix: vec![1.0] }) {
            Response::Error { message } => assert!(message.contains("4")),
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(roundtrip(&Request::Shutdown), Response::Bye);
        handle.join().unwrap();
    }

    fn control_server(io_timeout: Option<Duration>, max_in_flight: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            options: ExperimentOptions::test_sized(),
            space: ParameterSpace::dcache_geometry(),
            store: None,
            io_timeout,
            max_in_flight,
            doctor_on_start: false,
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        (addr, std::thread::spawn(move || server.run().unwrap()))
    }

    fn roundtrip_on(stream: &mut TcpStream, request: &Request) -> Response {
        let body = serde_json::to_string(request).unwrap();
        write_frame(stream, body.as_bytes()).unwrap();
        let frame = read_frame(stream).unwrap().expect("response frame");
        serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap()
    }

    /// Satellite regression: a half-open client (connected, silent) used to
    /// pin its connection thread forever.  With an io_timeout it is closed
    /// cleanly, a *mid-frame* staller is dropped as an error, and the
    /// server keeps serving healthy clients throughout.
    #[test]
    fn half_open_clients_are_closed_not_pinned() {
        let (addr, handle) = control_server(Some(Duration::from_millis(300)), 0);

        // idle at a frame boundary: the server closes cleanly — our read
        // sees EOF, not a hang
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(idle.read(&mut buf).unwrap(), 0, "idle client should see a clean close");

        // stalled mid-frame: announce a frame, send half of it, go silent
        let mut staller = TcpStream::connect(addr).unwrap();
        staller.write_all(&8u32.to_be_bytes()).unwrap();
        staller.write_all(b"half").unwrap();
        staller.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // the server drops the connection (TimedOut error side); our read
        // ends with EOF or a reset rather than blocking forever
        let _ = staller.read(&mut buf);

        // a healthy client is still served promptly
        let mut healthy = TcpStream::connect(addr).unwrap();
        assert_eq!(
            roundtrip_on(&mut healthy, &Request::Ping),
            Response::Pong { protocol: PROTOCOL_VERSION }
        );
        assert_eq!(roundtrip_on(&mut healthy, &Request::Shutdown), Response::Bye);
        handle.join().unwrap();
    }

    /// Satellite regression: an oversized announced frame used to kill the
    /// connection with a bare EOF; now the peer gets a readable
    /// [`Response::Error`] frame first.
    #[test]
    fn oversized_announcement_gets_an_error_frame_before_close() {
        let (addr, handle) = control_server(Some(Duration::from_secs(10)), 0);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        match read_frame(&mut stream).unwrap() {
            Some(frame) => {
                let response: Response =
                    serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
                match response {
                    Response::Error { message } => {
                        assert!(message.contains("byte frame"), "{message}")
                    }
                    other => panic!("unexpected response: {other:?}"),
                }
            }
            None => panic!("expected an error frame before close, got bare EOF"),
        }
        assert_eq!(read_frame(&mut stream).unwrap(), None, "connection closed after the error");

        let mut healthy = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip_on(&mut healthy, &Request::Shutdown), Response::Bye);
        handle.join().unwrap();
    }

    /// Hostile-input regression: one 200 KB request frame of `[` used to
    /// overflow the JSON parser's stack and abort the whole daemon.  It now
    /// gets a typed error, and both that connection and a new one keep
    /// being served.
    #[test]
    fn nested_json_frame_gets_an_error_and_the_daemon_keeps_serving() {
        let (addr, handle) = control_server(Some(Duration::from_secs(10)), 0);
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, "[".repeat(200_000).as_bytes()).unwrap();
        let frame = read_frame(&mut stream).unwrap().expect("response frame");
        match serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap() {
            Response::Error { message } => {
                assert!(message.starts_with("malformed request"), "{message}")
            }
            other => panic!("unexpected response: {other:?}"),
        }
        let pong = Response::Pong { protocol: PROTOCOL_VERSION };
        assert_eq!(roundtrip_on(&mut stream, &Request::Ping), pong);
        let mut fresh = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip_on(&mut fresh, &Request::Ping), pong);
        assert_eq!(roundtrip_on(&mut fresh, &Request::Shutdown), Response::Bye);
        handle.join().unwrap();
    }

    #[test]
    fn in_flight_gate_sheds_over_the_cap_and_frees_slots() {
        let gate = AtomicUsize::new(0);
        let a = try_admit(&gate, 2).unwrap();
        let b = try_admit(&gate, 2).unwrap();
        let shed = try_admit(&gate, 2).unwrap_err();
        assert_eq!(shed, 2, "observed in-flight count reported to the shed client");
        drop(a);
        let c = try_admit(&gate, 2).unwrap();
        drop(b);
        drop(c);
        assert_eq!(gate.load(Ordering::SeqCst), 0, "all slots returned");
        // 0 = unbounded
        let unbounded = AtomicUsize::new(0);
        let slots: Vec<_> = (0..64).map(|_| try_admit(&unbounded, 0).unwrap()).collect();
        drop(slots);
        assert_eq!(unbounded.load(Ordering::SeqCst), 0);
    }

    /// Load shedding end to end: with a cap of 1, concurrent compute
    /// requests each end as a real outcome or a clean
    /// [`Response::Overloaded`] — never a hang, never a dropped
    /// connection — and a shed client succeeds by retrying (the requests
    /// are idempotent).  Timing-robust: how many requests are shed depends
    /// on scheduling, but every shed one must eventually succeed.
    #[test]
    fn overloaded_requests_are_shed_cleanly_and_retry_to_success() {
        let (addr, handle) = control_server(Some(Duration::from_secs(30)), 1);
        let workers: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let request = Request::Optimize { workload: "BLASTN".to_string() };
                    let mut shed = 0u32;
                    for _ in 0..200 {
                        match roundtrip_on(&mut stream, &request) {
                            Response::Outcome { json } => {
                                assert!(json.contains("recommended"), "{json}");
                                return shed;
                            }
                            Response::Overloaded { limit, .. } => {
                                assert_eq!(limit, 1);
                                shed += 1;
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            other => panic!("unexpected response: {other:?}"),
                        }
                    }
                    panic!("request never admitted after 200 retries");
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip_on(&mut stream, &Request::Shutdown), Response::Bye);
        handle.join().unwrap();
    }

    fn parse(words: &[&str]) -> Result<Option<ServerConfig>, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_flags_parse() {
        let config = parse(&[]).unwrap().unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.options.scale, Scale::Small);
        let config = parse(&["--addr", "0.0.0.0:7071", "--scale", "tiny", "--threads", "2"])
            .unwrap()
            .unwrap();
        assert_eq!(config.addr, "0.0.0.0:7071");
        assert_eq!(config.options.scale, Scale::Tiny);
        assert_eq!(config.options.threads, 2);
        assert!(parse(&["--help"]).unwrap().is_none());
    }

    #[test]
    fn malformed_flags_are_loud() {
        assert!(parse(&["--scale", "big"]).unwrap_err().contains("unknown scale"));
        assert!(parse(&["--threads", "all"]).unwrap_err().contains("invalid --threads"));
        assert!(parse(&["--addr"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["--space", "everything"]).unwrap_err().contains("unknown space"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["--max-inflight", "many"]).unwrap_err().contains("--max-inflight"));
        assert!(parse(&["--io-timeout-ms", "soon"]).unwrap_err().contains("--io-timeout-ms"));
    }

    #[test]
    fn hardening_flags_parse() {
        let config = parse(&[]).unwrap().unwrap();
        assert!(!config.doctor_on_start);
        assert_eq!(config.max_in_flight, DEFAULT_MAX_IN_FLIGHT);
        assert_eq!(config.io_timeout, Some(DEFAULT_IO_TIMEOUT));
        let config =
            parse(&["--doctor", "--max-inflight", "8", "--io-timeout-ms", "2500"]).unwrap().unwrap();
        assert!(config.doctor_on_start);
        assert_eq!(config.max_in_flight, 8);
        assert_eq!(config.io_timeout, Some(Duration::from_millis(2500)));
        let unbounded = parse(&["--max-inflight", "0", "--io-timeout-ms", "0"]).unwrap().unwrap();
        assert_eq!(unbounded.max_in_flight, 0);
        assert_eq!(unbounded.io_timeout, None);
    }

    #[test]
    fn space_flag_selects_the_study_space() {
        let config = parse(&["--space", "dcache"]).unwrap().unwrap();
        assert!(config.space.len() < ParameterSpace::paper().len());
        let full = parse(&["--space", "paper"]).unwrap().unwrap();
        assert_eq!(full.space.len(), ParameterSpace::paper().len());
    }
}
