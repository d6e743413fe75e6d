//! The one summary rule every metric of the benchmark goes through.

use std::collections::BTreeMap;

/// Order statistics of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// First quartile (linear interpolation between closest ranks).
    pub q1: f64,
    /// Third quartile (linear interpolation between closest ranks).
    pub q3: f64,
    /// 90th percentile by nearest rank, reported only when at least
    /// [`TAIL_SAMPLES`] samples lie beyond its rank.
    pub p90: Option<f64>,
}

/// Samples that must lie beyond a tail percentile's rank for it to be
/// reported: fewer make the tail a property of one or two samples.
pub const TAIL_SAMPLES: usize = 10;

/// Summarise `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        count: sorted.len(),
        median: interpolated(&sorted, 0.5),
        q1: interpolated(&sorted, 0.25),
        q3: interpolated(&sorted, 0.75),
        p90: tail(&sorted, 0.9),
    })
}

/// Quantile `q` of sorted samples, interpolating between the two closest
/// ranks (the median of an even count is the mean of the middle pair).
fn interpolated(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile `q` of sorted samples, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples rank above it.
fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Median of `samples`, or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// Samples of one metric, grouped into strata — kinds of operation whose
/// costs differ by design (one search question, one kind of hit).  The
/// metric's value is the mean of the strata's medians: a plain median of a
/// mix of differently priced kinds jumps between them as the mix shifts.
#[derive(Clone, Debug, Default)]
pub struct Samples(BTreeMap<usize, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, stratum: usize, value: f64) {
        self.0.entry(stratum).or_default().push(value);
    }

    /// Mean over strata of each stratum's median (0 without samples).
    pub fn value(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.values().map(|v| median(v)).sum::<f64>() / self.0.len() as f64
    }

    /// Every sample, strata pooled.
    pub fn pooled(&self) -> Vec<f64> {
        self.0.values().flatten().copied().collect()
    }

    pub fn strata(&self) -> usize {
        self.0.len()
    }
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Samples {
        let mut samples = Samples::default();
        for v in values {
            samples.push(0, v);
        }
        samples
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, resolved from a `.git`
/// directory in the working directory, else `unknown` (a source checkout
/// without git metadata).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // reversed, so the helper has to sort
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn empty_input_has_no_summary() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_and_quartiles_interpolate_between_ranks() {
        let s = summarize(&ramp(4)).unwrap();
        assert_eq!((s.count, s.median, s.q1, s.q3), (4, 2.5, 1.75, 3.25));
        let s = summarize(&ramp(5)).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (3.0, 2.0, 4.0));
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.p90), (7.0, 7.0, 7.0, None));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_its_rank() {
        // 99 samples: rank 90, only 9 beyond it
        assert_eq!(summarize(&ramp(99)).unwrap().p90, None);
        // 100 samples: rank 90, exactly 10 beyond it
        assert_eq!(summarize(&ramp(100)).unwrap().p90, Some(90.0));
        // 101 samples: rank ceil(90.9) = 91, 10 beyond it
        assert_eq!(summarize(&ramp(101)).unwrap().p90, Some(91.0));
        // 1000 samples: rank 900, 100 beyond it
        assert_eq!(summarize(&ramp(1000)).unwrap().p90, Some(900.0));
    }

    #[test]
    fn strata_weigh_equally_whatever_their_sample_counts() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 3.0] {
            s.push(0, v);
        }
        for v in [10.0; 50] {
            s.push(1, v);
        }
        // (median 2 + median 10) / 2, where the pooled median would be 10
        assert_eq!(s.value(), 6.0);
        assert_eq!((s.strata(), s.pooled().len()), (2, 53));
        assert_eq!(Samples::from(vec![4.0, 1.0, 3.0]).value(), 3.0);
        assert_eq!(Samples::default().value(), 0.0);
    }

    #[test]
    fn tail_rule_counts_ranks_not_distinct_values() {
        let mut samples = vec![1.0; 95];
        samples.extend(vec![2.0; 10]);
        // rank ceil(94.5) = 95 → 10 samples beyond, all equal to 2.0
        assert_eq!(summarize(&samples).unwrap().p90, Some(1.0));
    }
}
