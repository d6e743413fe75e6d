//! The scaled-down exhaustive validation study of the paper's Section 5.
//!
//! The paper cannot enumerate the full configuration space (3.6 billion
//! configurations), so it validates the parameter-independence assumption on
//! the data-cache geometry sub-space — number of sets (ways) × set size —
//! where exhaustive enumeration (28 combinations) is feasible, and compares
//! the exhaustive optimum with the configuration chosen by the optimiser
//! (Figures 2, 3 and 4).

use fpga_model::SynthesisModel;
use leon_sim::{LeonConfig, ReplacementPolicy, SimError};
use serde::{Deserialize, Serialize};
use workloads::Workload;

/// One row of the exhaustive dcache sweep (a row of the paper's Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DcacheRow {
    /// Number of dcache sets (ways).
    pub ways: u8,
    /// Size of each set in KB.
    pub way_kb: u32,
    /// Measured runtime in cycles (0 when the configuration does not fit).
    pub cycles: u64,
    /// Measured runtime in seconds.
    pub seconds: f64,
    /// %LUTs (truncated, as in the paper's tables).
    pub lut_pct: u32,
    /// %BRAM (truncated).
    pub bram_pct: u32,
    /// Whether the configuration fits the device (rows that do not fit are
    /// excluded from the paper's Figure 2).
    pub fits: bool,
}

impl DcacheRow {
    /// Total dcache capacity in KB.
    pub fn total_kb(&self) -> u32 {
        self.ways as u32 * self.way_kb
    }
}

/// All candidate (ways, way-KB) combinations of the paper's sweep.
pub fn dcache_combinations() -> Vec<(u8, u32)> {
    let mut combos = Vec::new();
    for ways in 1..=4u8 {
        for way_kb in [1u32, 2, 4, 8, 16, 32, 64] {
            combos.push((ways, way_kb));
        }
    }
    combos
}

fn sweep_config(base: &LeonConfig, ways: u8, way_kb: u32) -> LeonConfig {
    let mut config = *base;
    config.dcache.ways = ways;
    config.dcache.way_kb = way_kb;
    if ways > 1 {
        // multi-way sweeps in the paper keep the default policy where
        // valid; random replacement is valid for any associativity
        config.dcache.replacement = ReplacementPolicy::Random;
    }
    config
}

/// Exhaustively evaluate every dcache geometry for `workload`.
///
/// The workload executes in full exactly once, on `base`, capturing its
/// execution trace; every feasible geometry is then retimed by trace replay
/// (dcache geometry cannot change the memory-access stream, so replay is
/// bit-identical to full simulation — the paper's Figure 2 numbers are
/// unchanged, only cheaper).  Configurations that do not fit the device are
/// reported with `fits = false` and are not timed (the paper simply omits
/// them).  `threads` fans the 28 retimings out over the campaign worker
/// pool (0 = one per available CPU).
pub fn dcache_exhaustive(
    workload: &dyn Workload,
    base: &LeonConfig,
    model: &SynthesisModel,
    max_cycles: u64,
    threads: usize,
) -> Result<Vec<DcacheRow>, SimError> {
    let (_, trace) = workloads::capture_verified(workload, base, max_cycles)?;
    dcache_exhaustive_traced(&trace, base, model, max_cycles, threads)
}

/// The sweep kernel given an already-captured trace: retime all 28
/// geometries without executing the workload at all.  A measurement session
/// captures each workload's trace once (e.g. in a campaign
/// [`crate::campaign::TraceSet`]) and every subsequent study over that
/// workload replays it.
///
/// The feasible geometries are retimed through the one-pass batched replay
/// engine ([`crate::campaign::replay_batch_indexed`]): every distinct
/// geometry is a behavior class, the memory stream is decoded once per span
/// of classes instead of once per configuration, and `threads` partitions
/// the *classes* over the worker pool.  Row order is the combination order,
/// the first error propagated is the lowest-indexed one, and the rows are
/// bit-identical at any thread count — and to full simulation
/// ([`dcache_exhaustive_full`]).
pub fn dcache_exhaustive_traced(
    trace: &leon_sim::Trace,
    base: &LeonConfig,
    model: &SynthesisModel,
    max_cycles: u64,
    threads: usize,
) -> Result<Vec<DcacheRow>, SimError> {
    let combos = dcache_combinations();
    let mut meta = Vec::with_capacity(combos.len());
    let mut feasible = Vec::new();
    for (ways, way_kb) in combos {
        let config = sweep_config(base, ways, way_kb);
        let report = model.synthesize(&config);
        if report.fits {
            feasible.push(config);
        }
        meta.push((ways, way_kb, config, report));
    }

    let retimed =
        crate::campaign::replay_batch_indexed(trace, &feasible, max_cycles, threads);
    let mut retimed = retimed.into_iter();

    let mut rows = Vec::with_capacity(meta.len());
    for (ways, way_kb, config, report) in meta {
        if !report.fits {
            rows.push(DcacheRow {
                ways,
                way_kb,
                cycles: 0,
                seconds: 0.0,
                lut_pct: report.lut_percent,
                bram_pct: report.bram_percent,
                fits: false,
            });
            continue;
        }
        let stats = retimed.next().expect("one retiming per feasible geometry")?;
        rows.push(DcacheRow {
            ways,
            way_kb,
            cycles: stats.cycles,
            seconds: config.cycles_to_seconds(stats.cycles),
            lut_pct: report.lut_percent,
            bram_pct: report.bram_percent,
            fits: true,
        });
    }
    Ok(rows)
}

/// Why a streamed sweep recompute failed: a replay error (propagated like
/// the in-memory sweep's) or a codec error from the stored trace (a caller
/// should fall back to the full-decode path, which detects and heals the
/// damaged entry).
#[derive(Debug)]
pub enum StreamedSweepError {
    /// A configuration's replay failed.
    Sim(SimError),
    /// The stored trace could not be streamed (truncated/corrupt segment).
    Codec(leon_sim::TraceCodecError),
}

impl std::fmt::Display for StreamedSweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamedSweepError::Sim(e) => write!(f, "{e}"),
            StreamedSweepError::Codec(e) => write!(f, "streamed trace: {e}"),
        }
    }
}

impl std::error::Error for StreamedSweepError {}

/// The sweep kernel over a *streamed* stored trace: identical rows to
/// [`dcache_exhaustive_traced`] — same combination order, same feasibility
/// filtering, same retimed cycles — but the trace is never fully
/// materialised.  [`leon_sim::replay_batch_streamed`] holds one segment in
/// memory at a time, so a warm `Scale::Large` sweep recompute runs in
/// O(segment + classes) peak memory instead of O(trace).  The walk is
/// serial; intra-trace parallelism needs the in-memory path.
pub fn dcache_exhaustive_traced_streamed(
    streamed: &leon_sim::StreamedTrace,
    base: &LeonConfig,
    model: &SynthesisModel,
    max_cycles: u64,
) -> Result<Vec<DcacheRow>, StreamedSweepError> {
    let combos = dcache_combinations();
    let mut meta = Vec::with_capacity(combos.len());
    let mut feasible = Vec::new();
    for (ways, way_kb) in combos {
        let config = sweep_config(base, ways, way_kb);
        let report = model.synthesize(&config);
        if report.fits {
            feasible.push(config);
        }
        meta.push((ways, way_kb, config, report));
    }

    let retimed = leon_sim::replay_batch_streamed(streamed, &feasible, max_cycles)
        .map_err(StreamedSweepError::Codec)?;
    let mut retimed = retimed.into_iter();

    let mut rows = Vec::with_capacity(meta.len());
    for (ways, way_kb, config, report) in meta {
        if !report.fits {
            rows.push(DcacheRow {
                ways,
                way_kb,
                cycles: 0,
                seconds: 0.0,
                lut_pct: report.lut_percent,
                bram_pct: report.bram_percent,
                fits: false,
            });
            continue;
        }
        let stats = retimed
            .next()
            .expect("one retiming per feasible geometry")
            .map_err(StreamedSweepError::Sim)?;
        rows.push(DcacheRow {
            ways,
            way_kb,
            cycles: stats.cycles,
            seconds: config.cycles_to_seconds(stats.cycles),
            lut_pct: report.lut_percent,
            bram_pct: report.bram_percent,
            fits: true,
        });
    }
    Ok(rows)
}

/// The pre-trace-engine sweep: one full cycle-accurate simulation per
/// feasible geometry.  Kept as the baseline the `replay_micro` benchmark
/// measures the trace-driven speedup against.
pub fn dcache_exhaustive_full(
    workload: &dyn Workload,
    base: &LeonConfig,
    model: &SynthesisModel,
    max_cycles: u64,
) -> Result<Vec<DcacheRow>, SimError> {
    let mut rows = Vec::new();
    for (ways, way_kb) in dcache_combinations() {
        let config = sweep_config(base, ways, way_kb);
        let report = model.synthesize(&config);
        if !report.fits {
            rows.push(DcacheRow {
                ways,
                way_kb,
                cycles: 0,
                seconds: 0.0,
                lut_pct: report.lut_percent,
                bram_pct: report.bram_percent,
                fits: false,
            });
            continue;
        }
        let run = workloads::run_verified(workload, &config, max_cycles)?;
        rows.push(DcacheRow {
            ways,
            way_kb,
            cycles: run.stats.cycles,
            seconds: run.seconds,
            lut_pct: report.lut_percent,
            bram_pct: report.bram_percent,
            fits: true,
        });
    }
    Ok(rows)
}

/// The feasible row with the lowest runtime ("a simple sort yields the
/// optimal configuration", Section 5).
///
/// Ties are broken deterministically: lowest total capacity, then lowest
/// row index.  The index makes the order strictly total, so the winner no
/// longer depends on enumeration order (the previous `(cycles, %BRAM,
/// total KB)` chain could tie across distinct rows — truncated %BRAM and
/// equal capacity — and `min_by` keeps the *last* minimal element, so a
/// reversed sweep could crown a different row).
pub fn best_runtime_row(rows: &[DcacheRow]) -> Option<&DcacheRow> {
    rows.iter()
        .enumerate()
        .filter(|(_, r)| r.fits)
        .min_by(|(ai, a), (bi, b)| {
            a.cycles.cmp(&b.cycles).then(a.total_kb().cmp(&b.total_kb())).then(ai.cmp(bi))
        })
        .map(|(_, r)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Arith, Blastn, Scale};

    #[test]
    fn sweep_covers_28_combinations_and_excludes_oversized_ones() {
        let w = Arith::scaled(Scale::Tiny);
        let rows =
            dcache_exhaustive(&w, &LeonConfig::base(), &SynthesisModel::default(), 100_000_000, 2)
                .unwrap();
        assert_eq!(rows.len(), 28);
        let feasible = rows.iter().filter(|r| r.fits).count();
        // the paper's Figure 2 lists 19 feasible rows
        assert_eq!(feasible, 19);
        assert!(rows.iter().filter(|r| !r.fits).all(|r| r.way_kb == 64 || r.total_kb() >= 48));
    }

    #[test]
    fn blastn_prefers_the_largest_feasible_cache() {
        let w = Blastn::scaled(Scale::Tiny);
        let rows =
            dcache_exhaustive(&w, &LeonConfig::base(), &SynthesisModel::default(), 200_000_000, 2)
                .unwrap();
        let best = best_runtime_row(&rows).unwrap();
        // the best runtime is no worse than the base configuration's
        let base_row = rows.iter().find(|r| r.ways == 1 && r.way_kb == 4).unwrap();
        assert!(best.cycles <= base_row.cycles);
        // and the largest feasible cache is at least as fast as the smallest
        let smallest = rows.iter().find(|r| r.ways == 1 && r.way_kb == 1).unwrap();
        let largest = rows.iter().find(|r| r.ways == 1 && r.way_kb == 32).unwrap();
        assert!(largest.cycles <= smallest.cycles);
    }

    #[test]
    fn replay_sweep_is_bit_identical_to_full_simulation() {
        let w = Blastn::scaled(Scale::Tiny);
        let fast =
            dcache_exhaustive(&w, &LeonConfig::base(), &SynthesisModel::default(), 200_000_000, 2)
                .unwrap();
        let slow = dcache_exhaustive_full(
            &w,
            &LeonConfig::base(),
            &SynthesisModel::default(),
            200_000_000,
        )
        .unwrap();
        assert_eq!(fast, slow, "trace replay must reproduce Figure 2 exactly");
    }

    #[test]
    fn best_runtime_row_tie_break_is_enumeration_order_independent() {
        let row = |ways: u8, way_kb: u32, cycles: u64, bram_pct: u32, fits: bool| DcacheRow {
            ways,
            way_kb,
            cycles,
            seconds: cycles as f64,
            lut_pct: 10,
            bram_pct,
            fits,
        };
        // runtime ties resolved by total capacity: the winner is the same
        // configuration whichever way the sweep happens to be enumerated
        // (the old (cycles, %BRAM, total KB) chain could leave fully tied
        // rows here — truncated %BRAM — and `min_by` kept the *last* one)
        let rows = vec![
            row(1, 4, 500, 9, false), // does not fit: never the winner
            row(1, 4, 100, 8, true),  // total 4 KB
            row(1, 2, 100, 8, true),  // total 2 KB → the winner
            row(2, 4, 100, 8, true),  // total 8 KB
            row(2, 2, 200, 4, true),  // slower, resources irrelevant
        ];
        let best = best_runtime_row(&rows).unwrap();
        assert_eq!((best.ways, best.way_kb), (1, 2));
        let reversed: Vec<DcacheRow> = rows.iter().rev().cloned().collect();
        let best_rev = best_runtime_row(&reversed).unwrap();
        assert_eq!((best_rev.ways, best_rev.way_kb), (1, 2));

        // rows fully tied on (cycles, total KB) — 1×2 KB vs 2×1 KB — pin to
        // the lowest index (the old chain crowned the *last* tied row)
        let tied = vec![row(1, 2, 100, 8, true), row(2, 1, 100, 8, true)];
        let best = best_runtime_row(&tied).unwrap();
        assert_eq!((best.ways, best.way_kb), (1, 2));

        // and nothing feasible means no winner
        assert!(best_runtime_row(&[row(1, 64, 1, 99, false)]).is_none());
    }

    #[test]
    fn arith_runtime_is_flat_across_the_sweep() {
        let w = Arith::scaled(Scale::Tiny);
        let rows =
            dcache_exhaustive(&w, &LeonConfig::base(), &SynthesisModel::default(), 100_000_000, 2)
                .unwrap();
        let feasible: Vec<_> = rows.iter().filter(|r| r.fits).collect();
        let first = feasible[0].cycles;
        assert!(feasible.iter().all(|r| r.cycles == first), "Arith is not data intensive");
    }
}
