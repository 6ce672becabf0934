//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 * n)`. A tail
//! is reported as the highest percentile on the ladder p50, p90, p99,
//! p99.9, … that still has at least [`TAIL_MIN_BEYOND`] samples strictly
//! above its rank, together with that rank and the sample count, so a
//! "p99" is never read off a handful of samples.

/// Samples a tail percentile must leave beyond its rank.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps p = 99 at n = 1000 on rank 990, not 991.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The median of `values` (the mean of the two middle samples when the
/// count is even).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.9`.
    pub pct: f64,
    /// The sample at that percentile's rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
}

/// The highest percentile on the ladder p50, p90, p99, p99.9, … with at
/// least [`TAIL_MIN_BEYOND`] samples strictly beyond its rank, over `n`
/// samples whose 1-based rank `r` holds `at(r)`; `None` when even the
/// median lacks that many (fewer than 20 samples).
pub fn tail_by_rank(n: usize, at: impl Fn(usize) -> f64) -> Option<Tail> {
    // Percentile 100 * (1 - 1/d) for d = 2, 10, 100, …: its nearest rank
    // leaves exactly floor(n / d) samples beyond it. Integer arithmetic
    // keeps p99 from drifting a rank through float rounding.
    let mut best = None;
    let mut d = 2usize;
    while n / d >= TAIL_MIN_BEYOND {
        best = Some(Tail {
            pct: 100.0 * (1.0 - 1.0 / d as f64),
            value: at(n - n / d),
            n,
        });
        d = if d == 2 { 10 } else { d * 10 };
    }
    best
}

/// Nanosecond latencies in fixed memory, so a faster system does not
/// grow the benchmark's own footprint: 1 ns bins below 2^16 ns, then
/// power-of-two bins (a sample there reads as its bin's upper bound).
/// The bins are written at creation, so the pages they occupy count in
/// the resident set whichever bins the samples later hit.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    fine: Vec<u32>,
    coarse: [u64; 64],
    n: usize,
    sum_ns: u64,
}

const FINE_BINS: u64 = 1 << 16;

impl Default for LatencyHist {
    fn default() -> Self {
        // Writing the zeros (not `vec![0; n]`, whose fresh pages stay
        // untouched until a sample lands on them) is the point here.
        #[allow(clippy::slow_vector_initialization)]
        let fine = {
            let mut fine = Vec::with_capacity(FINE_BINS as usize);
            fine.resize(FINE_BINS as usize, 0);
            fine
        };
        Self {
            fine,
            coarse: [0; 64],
            n: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        if ns < FINE_BINS {
            self.fine[ns as usize] += 1;
        } else {
            self.coarse[64 - (ns - 1).leading_zeros() as usize] += 1;
        }
        self.n += 1;
        self.sum_ns += ns;
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(&other.coarse) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sum of all samples, ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The sample at 1-based rank `r` (ascending), ns.
    pub fn at_rank(&self, r: usize) -> f64 {
        let mut seen = 0usize;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += c as usize;
            if seen >= r {
                return ns as f64;
            }
        }
        for (bit, &c) in self.coarse.iter().enumerate() {
            seen += c as usize;
            if seen >= r {
                return 2f64.powi(bit as i32);
            }
        }
        f64::INFINITY
    }

    /// The nearest-rank percentile `p`, ns.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.is_empty(), "percentile of no samples");
        self.at_rank(rank(self.n, p))
    }

    /// The [`tail_by_rank`] of the recorded samples, ns.
    pub fn tail(&self) -> Option<Tail> {
        tail_by_rank(self.n, |r| self.at_rank(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn percentile(sorted: &[f64], p: f64) -> f64 {
        sorted[rank(sorted.len(), p) - 1]
    }

    fn tail(sorted: &[f64]) -> Option<Tail> {
        tail_by_rank(sorted.len(), |r| sorted[r - 1])
    }

    fn sorted(mut values: Vec<f64>) -> Vec<f64> {
        values.sort_by(f64::total_cmp);
        values
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        // 19 samples: the median's rank is 10, leaving only 9 beyond.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: the median (rank 10) leaves exactly 10 beyond.
        let t = tail(&ramp(20)).expect("p50 qualifies");
        assert_eq!((t.pct, t.value, t.n), (50.0, 10.0, 20));
        // 100 samples: p90 (rank 90) leaves 10; p99 (rank 99) leaves 1.
        let t = tail(&ramp(100)).expect("p90 qualifies");
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        // 1000 samples: p99 (rank 990) leaves exactly 10.
        let t = tail(&ramp(1000)).expect("p99 qualifies");
        assert!((t.pct - 99.0).abs() < 1e-9, "{t:?}");
        assert_eq!(t.value, 990.0);
        // 999 samples: p99's rank is 990, leaving 9 — back off to p90.
        let t = tail(&ramp(999)).expect("p90 qualifies");
        assert!((t.pct - 90.0).abs() < 1e-9, "{t:?}");
        // 100k samples: p99.99 (rank 99 990) leaves exactly 10.
        let t = tail(&ramp(100_000)).expect("p99.99 qualifies");
        assert!((t.pct - 99.99).abs() < 1e-6, "{t:?}");
        assert_eq!(t.n, 100_000);
    }

    #[test]
    fn histogram_ranks_match_sorted_samples() {
        let samples: Vec<u64> = (0..5000u64)
            .map(|i| (i * 7919) % 3000 + (i % 3) * 70_000)
            .collect();
        let mut h = LatencyHist::default();
        let mut half = LatencyHist::default();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                h.record(s)
            } else {
                half.record(s)
            }
        }
        h.merge(&half);
        assert_eq!(h.len(), samples.len());
        assert_eq!(h.sum_ns(), samples.iter().sum::<u64>());
        let exact = sorted(samples.iter().map(|&s| s as f64).collect());
        for p in [0.0, 10.0, 30.0, 33.0] {
            assert_eq!(h.percentile(p), percentile(&exact, p), "p{p}");
        }
        // Above 2^16 ns a sample reads as its power-of-two bin's bound.
        assert_eq!(h.percentile(100.0), 2f64.powi(18));
        let t = h.tail().expect("5000 samples have a p99");
        assert_eq!((t.pct.round(), t.n), (99.0, 5000));
    }

    #[test]
    fn tail_of_nothing_is_none() {
        assert_eq!(tail(&[]), None);
    }
}
