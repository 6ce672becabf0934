//! A dependency-free micro-benchmark harness.
//!
//! Replaces Criterion so the workspace builds hermetically: std
//! [`Instant`] timing, automatic iteration-count calibration, a warmup
//! pass, and a median-of-N report (the median is robust to the scheduler
//! hiccups that dominate short runs). Wall-clock measurement only — no
//! statistics files, no HTML — which is all the paper-figure work needs.
//!
//! ```no_run
//! use dap_bench::timing::{black_box, Harness};
//! let mut h = Harness::new("demo");
//! h.bench("add", || black_box(2u64) + black_box(3u64));
//! h.finish();
//! ```

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Samples per benchmark; the median of these is reported.
const SAMPLES: usize = 11;
/// Target wall-clock time per sample when calibrating iteration counts.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);

/// A group of timed micro-benchmarks sharing a printed header.
pub struct Harness {
    group: &'static str,
    ran: usize,
}

impl Harness {
    /// Starts a named benchmark group.
    pub fn new(group: &'static str) -> Self {
        println!("== bench group: {group}");
        Self { group, ran: 0 }
    }

    /// Times `f`, calibrating the iteration count so each sample runs for
    /// roughly `TARGET_SAMPLE`, then reports the median ns/iteration
    /// over `SAMPLES` samples. The calibration pass doubles as warmup.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let mut iters: u64 = 1;
        loop {
            let elapsed = Self::time(iters, &mut f);
            if elapsed >= TARGET_SAMPLE || iters >= 1 << 30 {
                break;
            }
            // Jump toward the target in one or two steps.
            let scale =
                (TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).clamp(2.0, 1024.0);
            iters = (iters as f64 * scale) as u64;
        }
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| Self::time(iters, &mut f).as_nanos() as f64 / iters as f64)
            .collect();
        self.report(name, &mut samples, iters);
    }

    /// Like [`Harness::bench`] but rebuilds fresh state with `setup`
    /// before every timed call — for consuming benchmarks (e.g. running a
    /// whole simulation). Setup time is excluded from the measurement.
    pub fn bench_with_setup<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S) -> R,
    ) {
        // One warmup execution, untimed.
        black_box(run(setup()));
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let state = setup();
                let start = Instant::now();
                black_box(run(state));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        self.report(name, &mut samples, 1);
    }

    fn time<R>(iters: u64, f: &mut impl FnMut() -> R) -> Duration {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }

    fn report(&mut self, name: &str, samples: &mut [f64], iters: u64) {
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        let lo = samples[0];
        let hi = samples[samples.len() - 1];
        println!(
            "{:<44} {:>14} ns/iter  [{} .. {}]  ({iters} iters x {SAMPLES} samples)",
            format!("{}/{name}", self.group),
            format_ns(median),
            format_ns(lo),
            format_ns(hi),
        );
        self.ran += 1;
    }

    /// Prints the group footer. Call once after the last benchmark.
    pub fn finish(self) {
        println!("== {}: {} benchmarks done", self.group, self.ran);
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}m", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}k", ns / 1e3)
    } else {
        format!("{ns:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_scales_with_iteration_count() {
        let mut work = || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i) * 17);
            }
            acc
        };
        let one = Harness::time(100, &mut work);
        let ten = Harness::time(10_000, &mut work);
        assert!(ten > one, "10000 iterations must take longer than 100");
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(12.34), "12.3");
        assert_eq!(format_ns(12_340.0), "12.34k");
        assert_eq!(format_ns(12_340_000.0), "12.34m");
    }
}
