//! Degradation seam: measured bandwidth inputs for re-solving Eq. 4.
//!
//! The solvers in this crate normally derive their per-window budgets from
//! the *nominal* source bandwidths in [`DapConfig`] — a fixed `B_i` per
//! source. Real parts throttle under thermal load, lose channels, and
//! suffer refresh storms, so the delivered bandwidth can sit far below
//! nominal exactly when partitioning matters most. [`EffectiveBandwidth`]
//! carries the *measured* per-source rates; feeding it to an embedding's
//! controller (`DapController::set_effective_bandwidth` in `dap-core`,
//! the re-solve path in `dapd`) re-derives the window budget
//! (and `K = B_MS$ / B_MM`) so every subsequent window boundary solves
//! Eq. 4 against what the sources actually deliver.
//!
//! A source delivering zero bandwidth ("dark" — e.g. every channel
//! outaged) is representable: its budget becomes zero, its Eq. 4 ideal
//! fraction becomes exactly zero, and rebuilding the credit bank drains
//! any credits that would have steered traffic toward it.

use crate::config::DapConfig;
use crate::ratio::Ratio;
use crate::window::WindowBudget;

/// `K` substitute when main memory is dark: large enough that the solver
/// steers essentially everything cache-side, small enough that scaled
/// credit arithmetic (`(K.num + K.den) * 63`) stays far from overflow.
const K_MM_DARK: u32 = 1024;

/// Measured per-source delivered bandwidth, in GB/s.
///
/// Mirrors the bandwidth fields of [`DapConfig`]; a value of `0.0` means
/// the source is currently dark. Values are what the *device* can deliver
/// under current conditions (post-throttle, post-outage), not an
/// instantaneous traffic observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveBandwidth {
    /// Memory-side cache delivered bandwidth in GB/s (for Alloy this is
    /// the TAD-adjusted figure, like [`DapConfig::cache_gbps`]).
    pub cache_gbps: f64,
    /// Per-direction channel bandwidth for split-channel caches; `None`
    /// for single-bus architectures.
    pub split_channel_gbps: Option<f64>,
    /// Main memory delivered bandwidth in GB/s.
    pub mm_gbps: f64,
}

impl EffectiveBandwidth {
    /// The nominal (fault-free) rates of `config`.
    pub fn nominal(config: &DapConfig) -> Self {
        Self {
            cache_gbps: config.cache_gbps,
            split_channel_gbps: config.split_channel_gbps,
            mm_gbps: config.mm_gbps,
        }
    }

    /// Nominal rates scaled by per-target degradation factors in `[0, 1]`
    /// (so architecture-specific adjustments baked into the config — like
    /// Alloy's 2/3 TAD factor — are preserved).
    pub fn scaled(config: &DapConfig, cache_scale: f64, mm_scale: f64) -> Self {
        let clamp = |s: f64| s.clamp(0.0, 1.0);
        Self {
            cache_gbps: config.cache_gbps * clamp(cache_scale),
            split_channel_gbps: config.split_channel_gbps.map(|g| g * clamp(cache_scale)),
            mm_gbps: config.mm_gbps * clamp(mm_scale),
        }
    }

    /// Whether the memory-side cache is delivering no bandwidth.
    pub fn cache_dark(&self) -> bool {
        self.cache_gbps <= 0.0
    }

    /// Whether main memory is delivering no bandwidth.
    pub fn mm_dark(&self) -> bool {
        self.mm_gbps <= 0.0
    }

    /// Derives the per-window budgets for these measured rates, taking
    /// window length, efficiency, and CPU clock from `config`. Unlike
    /// [`DapConfig::budget`] this tolerates zero rates (a dark source gets
    /// a zero budget, not a panic).
    pub fn budget(&self, config: &DapConfig) -> WindowBudget {
        // A config without split channels ignores any split rate; a config
        // *with* them falls back to the cache rate if none was measured.
        let split = match (config.split_channel_gbps, self.split_channel_gbps) {
            (None, _) => None,
            (Some(_), Some(measured)) => Some(measured),
            (Some(_), None) => Some(self.cache_gbps),
        };
        WindowBudget::from_effective_gbps(
            self.cache_gbps,
            split,
            self.mm_gbps,
            config.cpu_ghz,
            config.window_cycles,
            config.efficiency,
        )
    }
}

/// `K = B_MS$ / B_MM` for possibly-degraded rates.
///
/// * cache dark → `0/1` (no access belongs cache-side);
/// * main memory dark → `K_MM_DARK``/1` (everything belongs cache-side);
/// * otherwise the ratio, clamped into a range [`Ratio::approximate`]
///   can always represent.
pub fn degraded_k(cache_gbps: f64, mm_gbps: f64) -> Ratio {
    if cache_gbps <= 0.0 {
        return Ratio::new(0, 1);
    }
    if mm_gbps <= 0.0 {
        return Ratio::new(K_MM_DARK, 1);
    }
    let k = (cache_gbps / mm_gbps).clamp(1.0 / 16.0, f64::from(K_MM_DARK));
    Ratio::approximate(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_matches_config() {
        let config = DapConfig::hbm_ddr4();
        let eff = EffectiveBandwidth::nominal(&config);
        assert_eq!(eff.cache_gbps, 102.4);
        assert_eq!(eff.mm_gbps, 38.4);
        assert_eq!(eff.budget(&config), config.budget());
    }

    #[test]
    fn scaling_preserves_alloy_tad_factor() {
        let config = DapConfig::alloy_hbm_ddr4();
        let eff = EffectiveBandwidth::scaled(&config, 0.5, 1.0);
        assert!((eff.cache_gbps - 102.4 * 2.0 / 3.0 * 0.5).abs() < 1e-9);
        assert_eq!(eff.mm_gbps, 38.4);
    }

    #[test]
    fn dark_cache_budget_is_zero_with_k_zero() {
        let config = DapConfig::hbm_ddr4();
        let eff = EffectiveBandwidth::scaled(&config, 0.0, 1.0);
        assert!(eff.cache_dark());
        let b = eff.budget(&config);
        assert_eq!(b.cache_budget, 0);
        assert_eq!(b.k.numerator(), 0);
        assert!(b.mm_budget > 0);
    }

    #[test]
    fn dark_mm_gets_huge_k() {
        let k = degraded_k(102.4, 0.0);
        assert_eq!((k.numerator(), k.denominator()), (K_MM_DARK, 1));
    }

    #[test]
    fn mild_degradation_shifts_k() {
        // Halving the cache rate halves K: 102.4/2 / 38.4 = 4/3.
        let k = degraded_k(51.2, 38.4);
        let v = f64::from(k.numerator()) / f64::from(k.denominator());
        assert!((v - 51.2 / 38.4).abs() / (51.2 / 38.4) <= 0.05, "k = {v}");
    }

    #[test]
    fn split_channel_budget_follows_measured_rate() {
        let config = DapConfig::edram_ddr4();
        let eff = EffectiveBandwidth::scaled(&config, 0.5, 1.0);
        let b = eff.budget(&config);
        // 51.2/2 = 25.6 GB/s per direction @4GHz, W=64, E=0.75 -> 4.
        assert_eq!(b.cache_channel_budget, 4);
    }
}
