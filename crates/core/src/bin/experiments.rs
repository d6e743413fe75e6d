//! Experiment driver binary.
//!
//! Regenerates the paper's tables and figures and manages the campaign
//! artifact store:
//!
//! ```text
//! experiments fig1|fig2|fig3|fig4|fig5|fig6|fig7|campaign|space|all \
//!     [--scale tiny|small|medium|large] [--threads N] [--json DIR] \
//!     [--store DIR] [--gc-budget BYTES] [--counters FILE]
//! experiments serve [--addr HOST:PORT] [--scale S] [--threads N] \
//!     [--space paper|dcache] [--store DIR] [--doctor] [--max-inflight N] \
//!     [--io-timeout-ms N]
//! experiments population (--mixes FILE | --random N [--seed S]) \
//!     [--tolerance PCT] [--scale S] [--threads N] [--json DIR] [--store DIR]
//! experiments search [--workload NAME] [--space figure2|expanded] \
//!     [--mode pruned|exhaustive] [--scale S] [--threads N] [--json DIR] \
//!     [--store DIR]
//! experiments store doctor [--repair] [--store DIR]
//! experiments store stats            [--store DIR]
//! experiments store gc --budget BYTES [--store DIR]
//! experiments store pack --file FILE  [--store DIR]
//! experiments store unpack --file FILE [--store DIR]
//! ```
//!
//! `serve` runs the campaign daemon — `autoreconf-serve` behind the same
//! flag parser ([`autoreconf::service::run_cli`]), with the same engine
//! configuration as the `campaign` target, so they share store entries;
//! `population` batch co-optimizes a fleet of tenant mixes (from a JSON
//! profile file or generated deterministically) and prints the Pareto
//! frontier of configurations covering every tenant within `--tolerance`
//! percent of its own optimum; `search` runs the enumerate-then-prune design-space funnel
//! over a shipped candidate space (`figure2` = the paper's 28 d-cache
//! geometries, `expanded` = the 24 192-candidate i-cache × d-cache ×
//! windows × timings cross) — `--mode exhaustive` walk-validates every
//! feasible candidate, `--mode pruned` (the default) finds the
//! byte-identical optimum while walking a small fraction; `--counters FILE`
//! writes this process's guest-instruction / trace-byte counters as JSON on
//! exit, which the multi-process store tests sum to prove no duplicated
//! compute across processes.
//!
//! Every figure target, the campaign, `population` and `search` are views
//! over one campaign session per run, opened over the benchmark suite with
//! [`ExperimentOptions::engine`] (the daemon's engine too): each workload is
//! captured at most once, whichever targets read it.  With `campaign` (or
//! `all`) requested, `--store DIR` (or the `AUTORECONF_STORE` environment
//! variable) roots that session on the incremental artifact store, so it
//! serves every figure as well: a second run over an unchanged suite serves
//! every artifact from disk and executes no guest instruction, and a warm
//! campaign whose co-optimization entry hits reads zero trace payload bytes.
//! `--gc-budget` (or `AUTORECONF_STORE_BUDGET`; both accept `K`/`M`/`G`
//! suffixes) shrinks the store to a byte budget after the run's session
//! closes, evicting the least recently used entries first.
//!
//! Every malformed flag is a hard error with a precise message — never a
//! silent fallback (see `parse_args` unit tests for the full error matrix).

use std::io::Write;

use autoreconf::experiments::{self, ExperimentOptions};
use autoreconf::{ArtifactStore, CampaignSession};
use workloads::Scale;

const FIGURES: [&str; 10] =
    ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "campaign", "space", "all"];

const USAGE: &str = "usage: experiments [fig1|fig2|fig3|fig4|fig5|fig6|fig7|campaign|space|all]... \
     [--scale tiny|small|medium|large] [--threads N] [--json DIR] [--store DIR] \
     [--gc-budget BYTES] [--counters FILE]\n\
       experiments serve [--addr HOST:PORT] [--scale S] [--threads N] \
     [--space paper|dcache] [--store DIR] [--doctor] [--max-inflight N] \
     [--io-timeout-ms N]\n\
       experiments population (--mixes FILE | --random N [--seed S]) \
     [--tolerance PCT] [--scale S] [--threads N] [--json DIR] [--store DIR]\n\
       experiments search [--workload NAME] [--space figure2|expanded] \
     [--mode pruned|exhaustive] [--scale S] [--threads N] [--json DIR] [--store DIR]\n\
       experiments store doctor [--repair] [--store DIR]\n\
       experiments store stats [--store DIR]\n\
       experiments store gc --budget BYTES [--store DIR]\n\
       experiments store pack --file FILE [--store DIR]\n\
       experiments store unpack --file FILE [--store DIR]\n\
\n\
BYTES accepts K/M/G suffixes (e.g. 64K, 16M). --store defaults to \
$AUTORECONF_STORE; --gc-budget defaults to $AUTORECONF_STORE_BUDGET. \
--counters writes this process's compute counters as JSON on exit.";

/// A fully parsed invocation.
#[derive(Clone, Debug, PartialEq)]
enum Command {
    /// Print usage and exit successfully.
    Help,
    /// Run experiment targets.
    Figures {
        figures: Vec<String>,
        options: ExperimentOptions,
        json_dir: Option<String>,
        store_dir: Option<String>,
        gc_budget: Option<u64>,
        counters_file: Option<String>,
    },
    /// Run the campaign-as-a-service daemon; its flags (everything after
    /// `serve`) go to the daemon's own parser.
    Serve(Vec<String>),
    /// Batch co-optimize a population of tenant mixes.
    Population {
        source: MixSource,
        tolerance_pct: f64,
        options: ExperimentOptions,
        json_dir: Option<String>,
        store_dir: Option<String>,
    },
    /// Search a candidate space for measured optima (pruned or exhaustive).
    Search {
        workload: Option<String>,
        space: autoreconf::SearchSpaceChoice,
        mode: autoreconf::SearchMode,
        options: ExperimentOptions,
        json_dir: Option<String>,
        store_dir: Option<String>,
    },
    /// Operate on the artifact store.
    Store { action: StoreAction, store_dir: Option<String> },
}

/// Where the `population` target's tenant mixes come from (exactly one of
/// `--mixes FILE` and `--random N` must be given).
#[derive(Clone, Debug, PartialEq)]
enum MixSource {
    /// A `MixProfileFile` JSON document.
    File(String),
    /// Deterministically generated mixes.
    Random { count: usize, seed: u64 },
}

#[derive(Clone, Debug, PartialEq)]
enum StoreAction {
    Doctor { repair: bool },
    Stats,
    Gc { budget: u64 },
    Pack { file: String },
    Unpack { file: String },
}

/// Parse a byte count with an optional `K`/`M`/`G` suffix (binary units).
fn parse_bytes(text: &str) -> Result<u64, String> {
    let text = text.trim();
    let (digits, multiplier) = match text.to_ascii_uppercase() {
        t if t.ends_with('K') => (&text[..text.len() - 1], 1u64 << 10),
        t if t.ends_with('M') => (&text[..text.len() - 1], 1u64 << 20),
        t if t.ends_with('G') => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1),
    };
    let value: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid byte count `{text}` (expected e.g. 65536, 64K, 16M, 1G)"))?;
    value
        .checked_mul(multiplier)
        .ok_or_else(|| format!("byte count `{text}` overflows a 64-bit size"))
}

/// Consume the value of `--flag value`, erroring when it is missing or is
/// itself a flag.
fn flag_value(
    flag: &str,
    args: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<String, String> {
    match args.peek() {
        Some(v) if !v.starts_with("--") => Ok(args.next().unwrap().clone()),
        _ => Err(format!("{flag} requires a value")),
    }
}

/// Parse a `store <action>` invocation (everything after the `store` word).
fn parse_store_args(args: &[String]) -> Result<Command, String> {
    let mut iter = args.iter().peekable();
    let action_word = iter
        .next()
        .ok_or("store: missing action (expected doctor|stats|gc|pack|unpack)".to_string())?;
    if matches!(action_word.as_str(), "--help" | "-h") {
        return Ok(Command::Help);
    }
    let mut store_dir = None;
    let mut budget = None;
    let mut file = None;
    let mut repair = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--store" => store_dir = Some(flag_value("--store", &mut iter)?),
            "--budget" => budget = Some(parse_bytes(&flag_value("--budget", &mut iter)?)?),
            "--file" => file = Some(flag_value("--file", &mut iter)?),
            "--repair" => repair = true,
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("store: unknown argument `{other}`")),
        }
    }
    // each flag belongs to exactly one action — a stray one is an error,
    // not silently ignored
    let action_word = action_word.as_str();
    if budget.is_some() && action_word != "gc" {
        return Err(format!("store {action_word}: unknown argument `--budget`"));
    }
    if file.is_some() && !matches!(action_word, "pack" | "unpack") {
        return Err(format!("store {action_word}: unknown argument `--file`"));
    }
    if repair && action_word != "doctor" {
        return Err(format!("store {action_word}: unknown argument `--repair`"));
    }
    let need_file = |file: Option<String>, action: &str| {
        file.ok_or(format!("store {action}: --file FILE is required"))
    };
    let action = match action_word {
        "doctor" => StoreAction::Doctor { repair },
        "stats" => StoreAction::Stats,
        "gc" => StoreAction::Gc {
            budget: budget.ok_or("store gc: --budget BYTES is required".to_string())?,
        },
        "pack" => StoreAction::Pack { file: need_file(file, "pack")? },
        "unpack" => StoreAction::Unpack { file: need_file(file, "unpack")? },
        other => {
            return Err(format!(
                "store: unknown action `{other}` (expected doctor|stats|gc|pack|unpack)"
            ))
        }
    };
    Ok(Command::Store { action, store_dir })
}

/// Parse a `population` invocation (everything after the `population` word).
fn parse_population_args(args: &[String]) -> Result<Command, String> {
    let mut mixes_file = None;
    let mut random_count = None;
    let mut seed = None;
    let mut tolerance_pct = 5.0f64;
    let mut options = ExperimentOptions::default();
    let mut json_dir = None;
    let mut store_dir = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--mixes" => mixes_file = Some(flag_value("--mixes", &mut iter)?),
            "--random" => {
                let value = flag_value("--random", &mut iter)?;
                let count: usize = value.trim().parse().map_err(|_| {
                    format!("invalid --random value `{value}` (expected a mix count)")
                })?;
                if count == 0 {
                    return Err("--random requires at least one mix".to_string());
                }
                random_count = Some(count);
            }
            "--seed" => {
                let value = flag_value("--seed", &mut iter)?;
                seed = Some(value.trim().parse().map_err(|_| {
                    format!("invalid --seed value `{value}` (expected a 64-bit integer)")
                })?);
            }
            "--tolerance" => {
                let value = flag_value("--tolerance", &mut iter)?;
                tolerance_pct = value.trim().parse().map_err(|_| {
                    format!("invalid --tolerance value `{value}` (expected a percentage)")
                })?;
                if !tolerance_pct.is_finite() || tolerance_pct < 0.0 {
                    return Err(format!(
                        "invalid --tolerance value `{value}` (must be a finite, \
                         non-negative percentage)"
                    ));
                }
            }
            "--scale" => {
                let value = flag_value("--scale", &mut iter)?;
                options.scale = Scale::parse(&value).map_err(|e| e.to_string())?;
            }
            "--threads" => {
                let value = flag_value("--threads", &mut iter)?;
                options.threads = value.trim().parse().map_err(|_| {
                    format!("invalid --threads value `{value}` (expected a number; 0 = all cores)")
                })?;
            }
            "--json" => json_dir = Some(flag_value("--json", &mut iter)?),
            "--store" => store_dir = Some(flag_value("--store", &mut iter)?),
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("population: unknown argument `{other}`")),
        }
    }
    let source = match (mixes_file, random_count) {
        (Some(_), Some(_)) => {
            return Err("population: --mixes and --random are mutually exclusive".to_string())
        }
        (Some(file), None) => {
            if seed.is_some() {
                return Err("population: --seed only applies to --random".to_string());
            }
            MixSource::File(file)
        }
        (None, Some(count)) => MixSource::Random { count, seed: seed.unwrap_or(0) },
        (None, None) => {
            return Err(
                "population: one of --mixes FILE or --random N is required".to_string()
            )
        }
    };
    Ok(Command::Population { source, tolerance_pct, options, json_dir, store_dir })
}

/// Parse a `search` invocation (everything after the `search` word).
fn parse_search_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut space = autoreconf::SearchSpaceChoice::Figure2;
    let mut mode = autoreconf::SearchMode::Pruned;
    let mut options = ExperimentOptions::default();
    let mut json_dir = None;
    let mut store_dir = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workload" => workload = Some(flag_value("--workload", &mut iter)?),
            "--space" => {
                space = autoreconf::SearchSpaceChoice::parse(&flag_value("--space", &mut iter)?)?
            }
            "--mode" => mode = autoreconf::SearchMode::parse(&flag_value("--mode", &mut iter)?)?,
            "--scale" => {
                let value = flag_value("--scale", &mut iter)?;
                options.scale = Scale::parse(&value).map_err(|e| e.to_string())?;
            }
            "--threads" => {
                let value = flag_value("--threads", &mut iter)?;
                options.threads = value.trim().parse().map_err(|_| {
                    format!("invalid --threads value `{value}` (expected a number; 0 = all cores)")
                })?;
            }
            "--json" => json_dir = Some(flag_value("--json", &mut iter)?),
            "--store" => store_dir = Some(flag_value("--store", &mut iter)?),
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("search: unknown argument `{other}`")),
        }
    }
    Ok(Command::Search { workload, space, mode, options, json_dir, store_dir })
}

/// Parse a full command line (without the program name).  Every malformed
/// argument is an `Err` with a message naming the flag — never a silent
/// fallback to a default.
fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("store") {
        return parse_store_args(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return Ok(Command::Serve(args[1..].to_vec()));
    }
    if args.first().map(String::as_str) == Some("population") {
        return parse_population_args(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("search") {
        return parse_search_args(&args[1..]);
    }
    let mut figures = Vec::new();
    let mut options = ExperimentOptions::default();
    let mut json_dir = None;
    let mut store_dir = None;
    let mut gc_budget = None;
    let mut counters_file = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = flag_value("--scale", &mut iter)?;
                options.scale = Scale::parse(&value).map_err(|e| e.to_string())?;
            }
            "--threads" => {
                let value = flag_value("--threads", &mut iter)?;
                options.threads = value.trim().parse().map_err(|_| {
                    format!("invalid --threads value `{value}` (expected a number; 0 = all cores)")
                })?;
            }
            "--json" => json_dir = Some(flag_value("--json", &mut iter)?),
            "--store" => store_dir = Some(flag_value("--store", &mut iter)?),
            "--gc-budget" => {
                gc_budget = Some(parse_bytes(&flag_value("--gc-budget", &mut iter)?)?)
            }
            "--counters" => counters_file = Some(flag_value("--counters", &mut iter)?),
            "--help" | "-h" => return Ok(Command::Help),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => {
                if !FIGURES.contains(&other) {
                    return Err(format!(
                        "unknown experiment target `{other}` (expected one of: {})",
                        FIGURES.join(", ")
                    ));
                }
                figures.push(other.to_string());
            }
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    let wants_campaign = figures.iter().any(|f| f == "campaign" || f == "all");
    if gc_budget.is_some() && !wants_campaign {
        return Err("--gc-budget only applies to the campaign target".to_string());
    }
    if store_dir.is_some() && !wants_campaign {
        return Err("--store only applies to the campaign target".to_string());
    }
    Ok(Command::Figures { figures, options, json_dir, store_dir, gc_budget, counters_file })
}

/// Resolve the GC budget: the explicit flag wins, else
/// `AUTORECONF_STORE_BUDGET` (malformed values are an error, not a warning).
fn resolve_gc_budget(flag: Option<u64>) -> Result<Option<u64>, String> {
    if flag.is_some() {
        return Ok(flag);
    }
    match std::env::var("AUTORECONF_STORE_BUDGET") {
        Ok(v) if !v.trim().is_empty() => {
            parse_bytes(&v).map(Some).map_err(|e| format!("AUTORECONF_STORE_BUDGET: {e}"))
        }
        _ => Ok(None),
    }
}

/// Open the store named by `--store`, falling back to `AUTORECONF_STORE`.
fn open_store(store_dir: &Option<String>) -> Result<Option<ArtifactStore>, String> {
    match store_dir {
        Some(dir) => ArtifactStore::open(dir)
            .map(Some)
            .map_err(|e| format!("cannot open artifact store `{dir}`: {e}")),
        None => Ok(ArtifactStore::from_env()),
    }
}

/// Like [`open_store`] but requires a store (for the `store` subcommands).
fn require_store(store_dir: &Option<String>) -> Result<ArtifactStore, String> {
    open_store(store_dir)?.ok_or_else(|| {
        "no store: pass --store DIR or set AUTORECONF_STORE".to_string()
    })
}

/// Open the run's one campaign session — the benchmark suite at
/// `options.scale` on the engine every target and the daemon share, rooted
/// on `store` — run `targets` on it, report on stderr what its store served
/// and wrote, and close it (releasing its store pins).
fn with_session<T>(
    options: &ExperimentOptions,
    store: Option<ArtifactStore>,
    targets: impl FnOnce(&CampaignSession) -> Result<T, String>,
) -> Result<T, String> {
    let suite = workloads::benchmark_suite(options.scale);
    let session = options.engine(store).session(&suite).map_err(|e| e.to_string())?;
    let out = targets(&session)?;
    if let Some(store) = session.engine().store() {
        let s = store.stats();
        eprintln!(
            "artifact store {}: {} hits, {} misses ({} corrupt), {} writes, {} payload bytes read",
            store.dir().display(),
            s.hits,
            s.misses,
            s.corrupt,
            s.writes,
            s.payload_bytes_read
        );
    }
    Ok(out)
}

fn write_json(dir: &Option<String>, name: &str, value: &impl serde::Serialize) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json output directory");
        let path = format!("{dir}/{name}.json");
        let mut file = std::fs::File::create(&path).expect("create json file");
        let body = serde_json::to_string_pretty(value).expect("serialise result");
        file.write_all(body.as_bytes()).expect("write json file");
        eprintln!("wrote {path}");
    }
}

/// Write this process's compute counters (guest instructions executed,
/// trace payload bytes read) as JSON — the audit record the multi-process
/// store tests sum across processes to prove claim/lease dedup worked.
fn write_counters_file(path: &str) -> Result<(), String> {
    let body = format!(
        "{{\"guest_instructions\":{},\"trace_payload_bytes\":{}}}\n",
        workloads::guest_instructions_executed(),
        workloads::trace_payload_bytes_read()
    );
    std::fs::write(path, body).map_err(|e| format!("cannot write counters file `{path}`: {e}"))
}

/// Run the `population` target: resolve the mix source, batch co-optimize,
/// print the frontier, and optionally write `population.json`.
fn run_population(
    source: &MixSource,
    tolerance_pct: f64,
    options: &ExperimentOptions,
    json_dir: &Option<String>,
    store_dir: &Option<String>,
) -> Result<(), String> {
    let resolved = match source {
        MixSource::File(path) => {
            let body = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read mix profile file `{path}`: {e}"))?;
            let file: autoreconf::MixProfileFile = serde_json::from_str(&body)
                .map_err(|e| format!("malformed mix profile file `{path}`: {e}"))?;
            experiments::PopulationSource::Profiles(file.mixes)
        }
        MixSource::Random { count, seed } => {
            experiments::PopulationSource::Random { count: *count, seed: *seed }
        }
    };
    let outcome = with_session(options, open_store(store_dir)?, |session| {
        experiments::population(session, &resolved, tolerance_pct)
            .map_err(|e| format!("population failed: {e}"))
    })?;
    println!("{}", outcome.render());
    write_json(json_dir, "population", &outcome);
    Ok(())
}

/// Run the `search` target: prune (or exhaust) a shipped candidate space
/// for each requested workload, print each outcome, and optionally write
/// `search_<workload>.json` (the full outcome) plus
/// `search_best_<workload>.json` (only the winning row, which CI diffs
/// across modes and thread counts to pin pruned ≡ exhaustive).
fn run_search(
    workload: &Option<String>,
    space: autoreconf::SearchSpaceChoice,
    mode: autoreconf::SearchMode,
    options: &ExperimentOptions,
    json_dir: &Option<String>,
    store_dir: &Option<String>,
) -> Result<(), String> {
    let outcomes = with_session(options, open_store(store_dir)?, |session| {
        experiments::search(session, workload.as_deref(), space, mode)
            .map_err(|e| format!("search failed: {e}"))
    })?;
    for outcome in &outcomes {
        println!("{}", outcome.render());
        write_json(json_dir, &format!("search_{}", outcome.workload), outcome);
        write_json(json_dir, &format!("search_best_{}", outcome.workload), &outcome.best);
    }
    Ok(())
}

fn run_store_action(action: &StoreAction, store_dir: &Option<String>) -> Result<(), String> {
    let store = require_store(store_dir)?;
    match action {
        StoreAction::Doctor { repair } => {
            let report = store.doctor(*repair).map_err(|e| format!("doctor failed: {e}"))?;
            print!("{}", report.render());
            if !report.is_clean() && !report.repaired {
                return Err("store is not clean (re-run with --repair to fix)".to_string());
            }
        }
        StoreAction::Stats => {
            let usage = store.usage();
            let manifest = store.manifest();
            println!("store {}: manifest clock {}", store.dir().display(), manifest.clock);
            println!("{:<10} {:>8} {:>14}", "kind", "entries", "file bytes");
            let mut entries = 0usize;
            let mut bytes = 0u64;
            for row in &usage {
                println!("{:<10} {:>8} {:>14}", row.kind, row.entries, row.file_bytes);
                entries += row.entries;
                bytes += row.file_bytes;
            }
            println!("{:<10} {:>8} {:>14}", "total", entries, bytes);
        }
        StoreAction::Gc { budget } => {
            let report = store.gc(*budget).map_err(|e| format!("gc failed: {e}"))?;
            println!("{}", report.render());
        }
        StoreAction::Pack { file } => {
            let stats = store
                .pack_to(std::path::Path::new(file))
                .map_err(|e| format!("pack failed: {e}"))?;
            println!(
                "packed {} entries ({} payload bytes, {} corrupt skipped) into {file}",
                stats.entries, stats.payload_bytes, stats.skipped_corrupt
            );
        }
        StoreAction::Unpack { file } => {
            let stats = store
                .unpack_from(std::path::Path::new(file))
                .map_err(|e| format!("unpack failed: {e}"))?;
            println!(
                "unpacked {} entries ({} payload bytes) from {file} into {}",
                stats.entries,
                stats.payload_bytes,
                store.dir().display()
            );
        }
    }
    Ok(())
}

/// Run the requested figure targets as views over one campaign session:
/// each workload is captured at most once, whichever targets read it.
fn run_figures(
    figures: &[String],
    options: &ExperimentOptions,
    json_dir: &Option<String>,
    store_dir: &Option<String>,
    gc_budget: Option<u64>,
) -> Result<(), String> {
    let wants = |name: &str| figures.iter().any(|f| f == name || f == "all");

    // resolve the store and GC budget *before* running anything: a budget
    // (flag or AUTORECONF_STORE_BUDGET) with nowhere to apply it — or a
    // malformed env value — must fail fast, not after a potentially
    // hour-long campaign, and never be silently ignored.  The store roots
    // the session only when the campaign target runs.
    let store = if wants("campaign") { open_store(store_dir)? } else { None };
    let budget = if wants("campaign") { resolve_gc_budget(gc_budget)? } else { None };
    if budget.is_some() && store.is_none() {
        return Err(
            "a GC budget (--gc-budget / AUTORECONF_STORE_BUDGET) requires a store \
             (--store or AUTORECONF_STORE)"
                .to_string(),
        );
    }

    let started = std::time::Instant::now();
    if wants("fig1") {
        println!("{}", experiments::fig1_parameter_table());
    }
    if wants("space") {
        println!("{}", experiments::space_summary());
    }
    with_session(options, store.clone(), |session| {
        if wants("fig2") {
            let r = experiments::fig2(session).expect("figure 2");
            println!("{}", r.render());
            write_json(json_dir, "fig2", &r);
        }
        if wants("fig3") {
            let r = experiments::fig3(session).expect("figure 3");
            println!("{}", r.render());
            write_json(json_dir, "fig3", &r);
        }
        if wants("fig4") {
            let r = experiments::fig4(session).expect("figure 4");
            println!("{}", r.render());
            write_json(json_dir, "fig4", &r);
        }
        if wants("fig5") {
            let r = experiments::fig5(session).expect("figure 5");
            println!("{}", r.render("Figure 5: Application runtime optimization"));
            write_json(json_dir, "fig5", &r);
        }
        if wants("fig6") {
            let r = experiments::fig6(session).expect("figure 6");
            println!("{}", r.render());
            write_json(json_dir, "fig6", &r);
        }
        if wants("fig7") {
            let r = experiments::fig7(session).expect("figure 7");
            println!("{}", r.render("Figure 7: Chip resource optimization"));
            write_json(json_dir, "fig7", &r);
        }
        if wants("campaign") {
            let r = experiments::campaign(session).expect("campaign");
            println!("{}", r.render());
            write_json(json_dir, "campaign", &r);
        }
        Ok(())
    })?;
    // the session closed with its pins, so the GC pass below sees only the
    // pins other processes hold
    if let (Some(store), Some(budget)) = (&store, budget) {
        let report = store.gc(budget).map_err(|e| format!("gc failed: {e}"))?;
        eprintln!("{}", report.render());
    }

    eprintln!("total experiment time: {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

fn main() {
    // a malformed AUTORECONF_THREADS must fail fast with a clean message —
    // not panic inside the first worker-pool setup, and never be silently
    // ignored (the same contract as every CLI flag)
    if let Err(message) = autoreconf::campaign::threads_env() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    // same fail-fast contract for the fault-injection plan and the lease
    // TTL override: a typo must not silently disable a crash schedule or
    // run a crash test at the 10 s default TTL
    if let Err(message) = autoreconf::faults::install_from_env() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    if let Err(message) = autoreconf::store::lease_ttl_env() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match &command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Store { action, store_dir } => run_store_action(action, store_dir),
        Command::Serve(args) => std::process::exit(autoreconf::service::run_cli(args)),
        Command::Population { source, tolerance_pct, options, json_dir, store_dir } => {
            run_population(source, *tolerance_pct, options, json_dir, store_dir)
        }
        Command::Search { workload, space, mode, options, json_dir, store_dir } => {
            run_search(workload, *space, *mode, options, json_dir, store_dir)
        }
        Command::Figures { figures, options, json_dir, store_dir, gc_budget, counters_file } => {
            let result = run_figures(figures, options, json_dir, store_dir, *gc_budget);
            // write the audit record even after a failed run — a crashed
            // process's compute still counts toward the duplication audit
            let counters = match counters_file {
                Some(path) => write_counters_file(path),
                None => Ok(()),
            };
            result.and(counters)
        }
    };
    if let Err(message) = result {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    fn parse_err(words: &[&str]) -> String {
        parse(words).expect_err("must be rejected")
    }

    #[test]
    fn defaults_to_all_targets() {
        match parse(&[]).unwrap() {
            Command::Figures { figures, options, gc_budget, .. } => {
                assert_eq!(figures, vec!["all"]);
                assert_eq!(options.scale, Scale::Small);
                assert_eq!(gc_budget, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_a_full_campaign_invocation() {
        let cmd = parse(&[
            "campaign", "--scale", "medium", "--threads", "4", "--json", "out", "--store",
            ".store", "--gc-budget", "64M", "--counters", "c.json",
        ])
        .unwrap();
        match cmd {
            Command::Figures { figures, options, json_dir, store_dir, gc_budget, counters_file } => {
                assert_eq!(figures, vec!["campaign"]);
                assert_eq!(options.scale, Scale::Medium);
                assert_eq!(options.threads, 4);
                assert_eq!(json_dir.as_deref(), Some("out"));
                assert_eq!(store_dir.as_deref(), Some(".store"));
                assert_eq!(gc_budget, Some(64 << 20));
                assert_eq!(counters_file.as_deref(), Some("c.json"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn serve_flags_go_to_the_daemon_parser() {
        assert_eq!(
            parse(&["serve", "--scale", "tiny", "--help"]).unwrap(),
            Command::Serve(vec!["--scale".to_string(), "tiny".to_string(), "--help".to_string()])
        );
    }

    #[test]
    fn population_subcommand_parses() {
        match parse(&["population", "--random", "64", "--seed", "7", "--tolerance", "2.5"])
            .unwrap()
        {
            Command::Population { source, tolerance_pct, options, json_dir, store_dir } => {
                assert_eq!(source, MixSource::Random { count: 64, seed: 7 });
                assert_eq!(tolerance_pct, 2.5);
                assert_eq!(options.scale, Scale::Small);
                assert_eq!(json_dir, None);
                assert_eq!(store_dir, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&[
            "population", "--mixes", "fleet.json", "--scale", "tiny", "--threads", "4",
            "--json", "out", "--store", "d",
        ])
        .unwrap()
        {
            Command::Population { source, tolerance_pct, options, json_dir, store_dir } => {
                assert_eq!(source, MixSource::File("fleet.json".to_string()));
                assert_eq!(tolerance_pct, 5.0, "tolerance defaults to 5%");
                assert_eq!(options.scale, Scale::Tiny);
                assert_eq!(options.threads, 4);
                assert_eq!(json_dir.as_deref(), Some("out"));
                assert_eq!(store_dir.as_deref(), Some("d"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // seed defaults to 0 when --random is given alone
        match parse(&["population", "--random", "8"]).unwrap() {
            Command::Population { source, .. } => {
                assert_eq!(source, MixSource::Random { count: 8, seed: 0 });
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert_eq!(parse(&["population", "--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn population_errors_are_loud() {
        assert!(parse_err(&["population"]).contains("one of --mixes FILE or --random N"));
        assert!(parse_err(&["population", "--mixes", "f.json", "--random", "4"])
            .contains("mutually exclusive"));
        assert!(parse_err(&["population", "--mixes", "f.json", "--seed", "1"])
            .contains("--seed only applies to --random"));
        assert!(parse_err(&["population", "--random", "0"]).contains("at least one mix"));
        assert!(parse_err(&["population", "--random", "many"]).contains("invalid --random"));
        assert!(parse_err(&["population", "--random", "4", "--seed", "x"])
            .contains("invalid --seed"));
        assert!(parse_err(&["population", "--random", "4", "--tolerance", "loose"])
            .contains("invalid --tolerance"));
        assert!(parse_err(&["population", "--random", "4", "--tolerance", "-1"])
            .contains("non-negative"));
        assert!(parse_err(&["population", "--random", "4", "--tolerance", "nan"])
            .contains("finite"));
        assert!(parse_err(&["population", "--mixes"]).contains("--mixes requires a value"));
        assert!(parse_err(&["population", "fig2"]).contains("population: unknown argument"));
    }

    #[test]
    fn search_subcommand_parses() {
        match parse(&["search"]).unwrap() {
            Command::Search { workload, space, mode, options, json_dir, store_dir } => {
                assert_eq!(workload, None, "default is every workload in the suite");
                assert_eq!(space, autoreconf::SearchSpaceChoice::Figure2);
                assert_eq!(mode, autoreconf::SearchMode::Pruned);
                assert_eq!(options.scale, Scale::Small);
                assert_eq!(json_dir, None);
                assert_eq!(store_dir, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&[
            "search", "--workload", "BLASTN", "--space", "expanded", "--mode", "exhaustive",
            "--scale", "tiny", "--threads", "4", "--json", "out", "--store", "d",
        ])
        .unwrap()
        {
            Command::Search { workload, space, mode, options, json_dir, store_dir } => {
                assert_eq!(workload.as_deref(), Some("BLASTN"));
                assert_eq!(space, autoreconf::SearchSpaceChoice::Expanded);
                assert_eq!(mode, autoreconf::SearchMode::Exhaustive);
                assert_eq!(options.scale, Scale::Tiny);
                assert_eq!(options.threads, 4);
                assert_eq!(json_dir.as_deref(), Some("out"));
                assert_eq!(store_dir.as_deref(), Some("d"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert_eq!(parse(&["search", "--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn search_errors_are_loud() {
        assert!(parse_err(&["search", "--space", "everything"]).contains("unknown search space"));
        assert!(parse_err(&["search", "--mode", "greedy"]).contains("unknown search mode"));
        assert!(parse_err(&["search", "--workload"]).contains("--workload requires a value"));
        assert!(parse_err(&["search", "--scale", "big"]).contains("unknown scale"));
        assert!(parse_err(&["search", "--threads", "all"]).contains("invalid --threads"));
        assert!(parse_err(&["search", "fig2"]).contains("search: unknown argument"));
    }

    #[test]
    fn counters_flag_requires_a_value() {
        assert!(parse_err(&["campaign", "--counters"]).contains("--counters requires a value"));
    }

    #[test]
    fn scale_errors_are_loud() {
        // a typo'd scale must not silently fall back to `small`
        assert!(parse_err(&["campaign", "--scale", "mediun"]).contains("unknown scale"));
        // a missing value must not be swallowed
        assert!(parse_err(&["campaign", "--scale"]).contains("--scale requires a value"));
        // a following flag is not a value
        assert!(parse_err(&["--scale", "--threads", "2"]).contains("--scale requires a value"));
    }

    #[test]
    fn threads_errors_are_loud() {
        assert!(parse_err(&["--threads", "two"]).contains("invalid --threads"));
        assert!(parse_err(&["--threads"]).contains("--threads requires a value"));
        assert!(parse_err(&["--threads", "-3"]).contains("invalid --threads"));
    }

    #[test]
    fn json_and_store_require_values() {
        assert!(parse_err(&["--json"]).contains("--json requires a value"));
        assert!(parse_err(&["--store"]).contains("--store requires a value"));
        assert!(parse_err(&["campaign", "--store", "--json", "x"])
            .contains("--store requires a value"));
    }

    #[test]
    fn gc_budget_errors_are_loud() {
        assert!(parse_err(&["campaign", "--gc-budget"]).contains("--gc-budget requires a value"));
        assert!(parse_err(&["campaign", "--gc-budget", "lots"]).contains("invalid byte count"));
        assert!(parse_err(&["campaign", "--gc-budget", "12Q"]).contains("invalid byte count"));
        // the flag must name a run that can apply it (before anything runs)
        assert!(parse_err(&["fig2", "--gc-budget", "64K"])
            .contains("only applies to the campaign target"));
        assert!(parse(&["campaign", "--gc-budget", "64K"]).is_ok());
        assert!(parse(&["--gc-budget", "64K"]).is_ok(), "bare invocation implies `all`");
    }

    #[test]
    fn unknown_targets_and_flags_are_rejected() {
        assert!(parse_err(&["fig9"]).contains("unknown experiment target"));
        assert!(parse_err(&["--frobnicate"]).contains("unknown flag"));
    }

    #[test]
    fn parse_bytes_supports_binary_suffixes() {
        assert_eq!(parse_bytes("0"), Ok(0));
        assert_eq!(parse_bytes("65536"), Ok(65536));
        assert_eq!(parse_bytes("64K"), Ok(64 << 10));
        assert_eq!(parse_bytes("16m"), Ok(16 << 20));
        assert_eq!(parse_bytes(" 2G "), Ok(2 << 30));
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("K").is_err());
        assert!(parse_bytes("1.5M").is_err());
        assert!(parse_bytes("999999999999G").is_err(), "overflow must error");
    }

    #[test]
    fn store_subcommands_parse() {
        assert_eq!(
            parse(&["store", "doctor"]).unwrap(),
            Command::Store { action: StoreAction::Doctor { repair: false }, store_dir: None }
        );
        assert_eq!(
            parse(&["store", "doctor", "--repair", "--store", "d"]).unwrap(),
            Command::Store {
                action: StoreAction::Doctor { repair: true },
                store_dir: Some("d".to_string())
            }
        );
        assert_eq!(
            parse(&["store", "gc", "--budget", "1M"]).unwrap(),
            Command::Store { action: StoreAction::Gc { budget: 1 << 20 }, store_dir: None }
        );
        assert_eq!(
            parse(&["store", "pack", "--file", "f.pack"]).unwrap(),
            Command::Store {
                action: StoreAction::Pack { file: "f.pack".to_string() },
                store_dir: None
            }
        );
        match parse(&["store", "stats"]).unwrap() {
            Command::Store { action: StoreAction::Stats, .. } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn store_subcommand_errors_are_loud() {
        assert!(parse_err(&["store"]).contains("missing action"));
        assert!(parse_err(&["store", "defrag"]).contains("unknown action"));
        assert!(parse_err(&["store", "gc"]).contains("--budget BYTES is required"));
        assert!(parse_err(&["store", "gc", "--budget"]).contains("--budget requires a value"));
        assert!(parse_err(&["store", "gc", "--budget", "huge"]).contains("invalid byte count"));
        assert!(parse_err(&["store", "pack"]).contains("--file FILE is required"));
        assert!(parse_err(&["store", "unpack"]).contains("--file FILE is required"));
        assert!(parse_err(&["store", "doctor", "--budget", "1"]).contains("unknown argument"));
    }

    #[test]
    fn help_is_reachable_from_both_grammars() {
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["store", "--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["store", "-h"]).unwrap(), Command::Help);
        assert_eq!(parse(&["store", "doctor", "-h"]).unwrap(), Command::Help);
    }

    #[test]
    fn store_flag_requires_the_campaign_target() {
        assert!(parse_err(&["fig2", "--store", "d"]).contains("only applies to the campaign"));
        assert!(parse(&["campaign", "--store", "d"]).is_ok());
        assert!(parse(&["--store", "d"]).is_ok(), "bare invocation implies `all`");
    }
}
