//! `search_expanded`: seeded design-space questions at `Scale::Small`.
//! Each question — a workload and objective weights — is asked of a fresh
//! `Campaign` session over a store that set-up filled with traces and
//! search-space cost tables, so every timed search misses its `search`
//! entry and runs the pruned funnel over the 24 192-candidate expanded
//! space (main).  The same question over the 28-candidate Figure 2 grid is
//! the control; re-asking the expanded question, now served from its
//! `search` entry, is the warm operation.

use std::collections::BTreeMap;
use std::time::Instant;

use autoreconf::experiments::ExperimentOptions;
use autoreconf::{
    candidates_enumerated, candidates_pruned_closed_form, candidates_walk_validated, ArtifactStore,
    Campaign, SearchMode, SearchOutcome, SearchSpace, SessionCounters, Weights,
};
use fpga_model::SynthesisModel;
use leon_sim::{trace_segments_walked, trace_walks_performed, Trace};
use workloads::{benchmark_suite, guest_instructions_executed, Scale};

use crate::campaign_cold::{figure2_configs, walk_probe};
use crate::report::{bench_key, json, Ctx, EndToEnd, Outcome, Suite, Tally};
use crate::spans::{Breakdown, Tracer};
use crate::stats::median;
use crate::stream::{search_questions, Question};

const SCALE: Scale = Scale::Small;
const SETUPS: usize = 3;
const PROBES: usize = 3;
/// Warm re-asks per question, on the session that answered it cold: each
/// is cheap, and more samples steady their median.
const WARM_REPEATS: usize = 3;
/// Weights of set-up's warm-up searches, outside every question's range,
/// so no question is answered by a warm-up entry.
const WARMUP: Weights = Weights {
    runtime: 1000.0,
    resources: 1000.0,
};

fn options(ctx: &Ctx) -> ExperimentOptions {
    ExperimentOptions {
        scale: SCALE,
        threads: ctx.threads,
        ..ExperimentOptions::default()
    }
}

fn engine(ctx: &Ctx, weights: Weights) -> Campaign {
    Campaign::new()
        .with_weights(weights)
        .with_measurement(options(ctx).measurement())
}

/// Drop every persisted search outcome, so the next question misses.
fn purge(store: &ArtifactStore) {
    for file in store.entries(Some("search")) {
        let _ = std::fs::remove_file(file);
    }
}

/// The two spaces every question is asked over: expanded (main), Figure 2
/// (control).
struct Spaces {
    expanded: SearchSpace,
    figure2: SearchSpace,
}

/// Set-up answers to one question: pruned and exhaustive, per space.
struct Reference {
    pruned: [String; 2],
    exhaustive: [String; 2],
}

struct Fixture<'s> {
    ctx: &'s Ctx,
    suite: &'s Suite,
    spaces: Spaces,
    store: ArtifactStore,
    questions: Vec<Question>,
    references: Vec<Reference>,
    setup_s: Vec<f64>,
}

/// Set-up, repeated [`SETUPS`] times: fill a store with every workload's
/// trace and both spaces' cost tables.  The references are computed once,
/// over the last store.
fn fixture<'s>(ctx: &'s Ctx, suite: &'s Suite) -> Fixture<'s> {
    let spaces = Spaces {
        expanded: SearchSpace::expanded(),
        figure2: SearchSpace::figure2(),
    };
    let mut setup_s = Vec::new();
    let mut store = None;
    for rep in 0..SETUPS {
        let start = Instant::now();
        let dir = ctx.dir.join(format!("store-{rep}"));
        let warm = ArtifactStore::open(&dir).expect("open set-up store");
        let session = engine(ctx, WARMUP)
            .with_store(warm.clone())
            .session(suite)
            .expect("set-up session");
        for app in 0..suite.len() {
            for space in [&spaces.expanded, &spaces.figure2] {
                session
                    .search(app, space, SearchMode::Pruned)
                    .expect("warm-up search");
            }
        }
        drop(session);
        purge(&warm);
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(old) = store.replace(warm) {
            let _ = std::fs::remove_dir_all(old.dir());
        }
    }
    let store = store.expect("at least one set-up");
    let questions = search_questions(ctx.seed, suite.len());
    let start = Instant::now();
    let references = questions
        .iter()
        .map(|q| {
            let session = engine(ctx, q.weights)
                .with_store(store.clone())
                .session(suite)
                .expect("reference session");
            let answer = |space: &SearchSpace, mode: SearchMode| {
                json(
                    &session
                        .search(q.app, space, mode)
                        .expect("reference search"),
                )
            };
            Reference {
                pruned: [
                    answer(&spaces.expanded, SearchMode::Pruned),
                    answer(&spaces.figure2, SearchMode::Pruned),
                ],
                exhaustive: [
                    answer(&spaces.expanded, SearchMode::Exhaustive),
                    answer(&spaces.figure2, SearchMode::Exhaustive),
                ],
            }
        })
        .collect();
    purge(&store);
    eprintln!(
        "references for {} questions built in {:.2} s",
        questions.len(),
        start.elapsed().as_secs_f64()
    );
    Fixture {
        ctx,
        suite,
        spaces,
        store,
        questions,
        references,
        setup_s,
    }
}

/// The part of a search outcome pruned and exhaustive search must agree on.
fn best(outcome_json: &str) -> String {
    let outcome: SearchOutcome =
        serde_json::from_str(outcome_json).expect("reference outcome parses");
    json(&outcome.best)
}

/// Share of (question, space) pairs whose pruned optimum differs from the
/// exhaustive one — the search's known mismatch, reported, not hidden.
fn mismatch_frac(f: &Fixture<'_>) -> f64 {
    let pairs = f
        .references
        .iter()
        .flat_map(|r| (0..2).map(move |k| (&r.pruned[k], &r.exhaustive[k])));
    let (mut total, mut differ) = (0, 0);
    for (pruned, exhaustive) in pairs {
        total += 1;
        differ += usize::from(best(pruned) != best(exhaustive));
    }
    differ as f64 / total as f64
}

/// One answer, the search counters it moved, and its time in ms.
type Asked = (Result<String, String>, SessionCounters, f64);

/// Ask one question of a fresh session, then re-ask it `reasks` times on
/// that session (the store serves those).  The first time covers opening
/// the session; no time covers dropping it.
fn ask(f: &Fixture<'_>, q: &Question, space: &SearchSpace, reasks: usize) -> Vec<Asked> {
    let mut begin = Instant::now();
    let session = match engine(f.ctx, q.weights)
        .with_store(f.store.clone())
        .session(f.suite)
    {
        Ok(session) => session,
        Err(e) => return vec![(Err(e.to_string()), SessionCounters::default(), 0.0)],
    };
    let mut asked = Vec::new();
    for _ in 0..=reasks {
        let before = session.counters();
        let answer = session
            .search(q.app, space, SearchMode::Pruned)
            .map(|o| json(&o))
            .map_err(|e| e.to_string());
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        let after = session.counters();
        let moved = SessionCounters {
            searches_solved: after.searches_solved - before.searches_solved,
            search_store_hits: after.search_store_hits - before.search_store_hits,
            ..SessionCounters::default()
        };
        asked.push((answer, moved, ms));
        begin = Instant::now();
    }
    asked
}

/// Count and check one question; its answer and time when it succeeded.
fn checked(
    tally: &mut Tally,
    asked: Asked,
    expected: &str,
    served_from_store: bool,
) -> Option<(String, f64)> {
    let (answer, counters, ms) = asked;
    tally.begin();
    match answer {
        Ok(answer) => {
            tally.verify(answer == expected, || {
                format!("search answer differs from its reference: {answer}")
            });
            let (solved, hits) = (counters.searches_solved, counters.search_store_hits);
            tally.verify((solved, hits) == if served_from_store { (0, 1) } else { (1, 0) }, || {
                format!("search solved {solved} and hit {hits}; expected served_from_store={served_from_store}")
            });
            Some((answer, ms))
        }
        Err(e) => {
            tally.fail("search", &e);
            None
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let suite = benchmark_suite(SCALE);
    let f = fixture(ctx, &suite);
    let mut tally = Tally::default();
    let mut e2e = EndToEnd {
        setup_s: f.setup_s.clone().into(),
        ..EndToEnd::default()
    };
    let guest_before = guest_instructions_executed();
    let start = Instant::now();
    let mut asked = 0;
    while asked < f.questions.len() || start.elapsed() < ctx.seconds {
        let i = asked % f.questions.len();
        let (q, r) = (&f.questions[i], &f.references[i]);
        asked += 1;
        purge(&f.store);
        let mut expanded = ask(&f, q, &f.spaces.expanded, WARM_REPEATS).into_iter();
        let first = expanded.next().expect("the first ask");
        if let Some((_, ms)) = checked(&mut tally, first, &r.pruned[0], false) {
            e2e.main_ms.push(i, ms);
        }
        for warm in expanded {
            if let Some((_, ms)) = checked(&mut tally, warm, &r.pruned[0], true) {
                // a warm answer is one JSON load whatever the question: one stratum
                e2e.warm_ms.push(0, ms);
            }
        }
        let control = ask(&f, q, &f.spaces.figure2, 0).remove(0);
        if let Some((_, ms)) = checked(&mut tally, control, &r.pruned[1], false) {
            e2e.control_ms.push(i, ms);
        }
    }
    e2e.peak_heap_mb = crate::heap::peak_mb();
    let guest = guest_instructions_executed() - guest_before;
    tally.verify(guest == 0, || {
        format!("searches executed {guest} guest instructions")
    });
    eprintln!(
        "pruned-vs-exhaustive mismatch share: {:.4}",
        mismatch_frac(&f)
    );
    purge(&f.store);
    Outcome {
        tally,
        e2e,
        layers: BTreeMap::new(),
    }
}

/// Per-question counts of one traced search.
#[derive(Default)]
struct Counts {
    enumerated: f64,
    pruned: f64,
    validated: f64,
    validated_ratio: f64,
    walk_passes: f64,
    walk_segments: f64,
    mb_read: f64,
    hit_ratio: f64,
}

/// A question split into its layers: open the session, load the trace
/// (`session.trace`: store read + decode), then the funnel (`search`).
fn traced_question(
    tracer: &Tracer,
    f: &Fixture<'_>,
    q: &Question,
) -> Result<(String, Counts), String> {
    let before = (
        candidates_enumerated(),
        candidates_pruned_closed_form(),
        candidates_walk_validated(),
        trace_walks_performed(),
        trace_segments_walked(),
        f.store.stats(),
    );
    let (answer, session) = tracer.op("search.question", |op| -> Result<_, String> {
        let session = tracer
            .span(op, "campaign.session", |_| {
                engine(f.ctx, q.weights)
                    .with_store(f.store.clone())
                    .session(f.suite)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span(op, "session.trace", |_| session.trace(q.app).map(|_| ()))
            .map_err(|e| e.to_string())?;
        let outcome = tracer
            .span(op, "search", |_| {
                session.search(q.app, &f.spaces.expanded, SearchMode::Pruned)
            })
            .map_err(|e| e.to_string())?;
        Ok((json(&outcome), session))
    })?;
    drop(session);
    let after = f.store.stats();
    let enumerated = (candidates_enumerated() - before.0) as f64;
    let validated = (candidates_walk_validated() - before.2) as f64;
    let lookups = (after.hits + after.misses) - (before.5.hits + before.5.misses);
    let counts = Counts {
        enumerated,
        pruned: (candidates_pruned_closed_form() - before.1) as f64,
        validated,
        validated_ratio: validated / enumerated.max(1.0),
        walk_passes: (trace_walks_performed() - before.3) as f64,
        walk_segments: (trace_segments_walked() - before.4) as f64,
        mb_read: (after.payload_bytes_read - before.5.payload_bytes_read) as f64 / 1e6,
        hit_ratio: (after.hits - before.5.hits) as f64 / lookups.max(1) as f64,
    };
    Ok((answer, counts))
}

/// Probes run after the timed questions: the closed-form synthesis pass
/// over every expanded candidate, one store read plus one decode of every
/// workload's serialised trace, and one batched Figure 2 walk per trace
/// (the funnel's validation walks run inside `search`, unseen from here).
fn probes(tracer: &Tracer, f: &Fixture<'_>, encoded: &[Vec<u8>]) {
    let model = SynthesisModel::default();
    let base = leon_sim::LeonConfig::base();
    let traces: Vec<Trace> = encoded
        .iter()
        .map(|bytes| Trace::from_bytes(bytes).expect("decode probe trace"))
        .collect();
    let traces: Vec<&Trace> = traces.iter().collect();
    let walked = figure2_configs(&base);
    let max_cycles = options(f.ctx).max_cycles;
    let space = &f.spaces.expanded;
    let configs: Vec<_> = space
        .candidates
        .iter()
        .map(|c| space.space.apply(&base, c))
        .collect();
    let probe = ArtifactStore::open(f.ctx.dir.join("probe")).expect("open probe store");
    for (app, bytes) in encoded.iter().enumerate() {
        probe
            .save("probe", bench_key("probe", app), bytes)
            .expect("save probe trace");
    }
    for _ in 0..PROBES {
        tracer.op("probe.synth", |op| {
            tracer.span(op, "synth", |_| {
                for config in &configs {
                    std::hint::black_box(model.synthesize(config));
                }
            })
        });
        for app in 0..encoded.len() {
            tracer.op("probe.read", |op| {
                let bytes = tracer.span(op, "store.read", |_| {
                    probe.load("probe", bench_key("probe", app))
                });
                let bytes = bytes.expect("probe entry present");
                std::hint::black_box(
                    tracer
                        .span(op, "codec.decode", |_| Trace::from_bytes(&bytes))
                        .expect("decode"),
                );
            });
        }
        walk_probe(tracer, &traces, &walked, max_cycles, f.ctx.threads);
    }
}

pub fn run_traced(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let suite = benchmark_suite(SCALE);
    let f = fixture(ctx, &suite);
    let mut tally = Tally::default();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counts = Vec::new();
    let guest_before = guest_instructions_executed();
    let start = Instant::now();
    let mut asked = 0;
    while asked < f.questions.len() || start.elapsed() < ctx.seconds {
        let i = asked % f.questions.len();
        let (q, r) = (&f.questions[i], &f.references[i]);
        purge(&f.store);
        // flip the parity every pass, so each question is asked both ways
        if (asked + asked / f.questions.len()).is_multiple_of(2) {
            let plain = ask(&f, q, &f.spaces.expanded, 0).remove(0);
            if let Some((_, ms)) = checked(&mut tally, plain, &r.pruned[0], false) {
                plain_ms.push(ms);
            }
        } else {
            tally.begin();
            let begin = Instant::now();
            match traced_question(tracer, &f, q) {
                Ok((answer, c)) => {
                    traced_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                    tally.verify(answer == r.pruned[0], || {
                        format!("traced search answer differs: {answer}")
                    });
                    counts.push(c);
                }
                Err(e) => tally.fail("traced search", &e),
            }
        }
        asked += 1;
    }
    let guest = guest_instructions_executed() - guest_before;
    tally.verify(guest == 0, || {
        format!("searches executed {guest} guest instructions")
    });
    purge(&f.store);
    let session = engine(ctx, WARMUP)
        .with_store(f.store.clone())
        .session(&suite)
        .expect("probe session");
    let encoded: Vec<Vec<u8>> = (0..suite.len())
        .map(|i| session.trace(i).expect("probe trace").trace.to_bytes())
        .collect();
    drop(session);
    probes(tracer, &f, &encoded);

    let b = Breakdown::of(&tracer.spans());
    eprint!("{}", b.render("search_expanded"));
    let col = |pick: fn(&Counts) -> f64| median(&counts.iter().map(pick).collect::<Vec<_>>());
    let overhead = median(&traced_ms) / median(&plain_ms) - 1.0;
    eprintln!(
        "  tracing overhead: traced {:.2} ms vs untraced {:.2} ms per question ({:+.2}%)",
        median(&traced_ms),
        median(&plain_ms),
        100.0 * overhead
    );
    let layers = BTreeMap::from([
        ("codec.decode_ms", b.ms("codec.decode")),
        ("store.read_ms", b.ms("store.read")),
        ("store.mb_read", col(|c| c.mb_read)),
        ("store.hit_ratio", col(|c| c.hit_ratio)),
        ("walk.ms", b.ms("walk")),
        ("walk.passes", col(|c| c.walk_passes)),
        ("walk.segments", col(|c| c.walk_segments)),
        ("synth.ms", b.ms("synth")),
        ("synth.calls", col(|c| c.enumerated)),
        ("search.funnel_ms", b.ms("search")),
        ("search.pruned_closed_form", col(|c| c.pruned)),
        ("search.walk_validated", col(|c| c.validated)),
        ("search.validated_ratio", col(|c| c.validated_ratio)),
        ("search.mismatch_frac", mismatch_frac(&f)),
        ("campaign.guest_instr", 0.0),
        ("trace.unattributed_frac", b.unattributed_frac()),
        ("trace.overhead_frac", overhead),
    ]);
    Outcome {
        tally,
        e2e: EndToEnd::default(),
        layers,
    }
}
