//! Zero-measured-bandwidth windows through the degradation seam.
//!
//! A window that measures a source at zero bandwidth ("dark") must
//! produce an *exactly*-zero Eq. 4 fraction and a zero access budget for
//! that source — never a NaN, an infinity, or a panic — and the other
//! sources' arithmetic must be unperturbed. The arithmetic lives in
//! `dap-decide`; the tests reach it through `dap_decide::` paths.

use dap_decide::bandwidth::{delivered_bandwidth, optimal_fractions, BandwidthSource};
use dap_decide::config::DapConfig;
use dap_decide::degrade::{degraded_k, EffectiveBandwidth};

#[test]
fn dark_mm_fraction_is_exactly_zero_not_nan() {
    let sources = [
        BandwidthSource::from_gbps("MSC", 102.4),
        BandwidthSource::from_gbps("MM", 0.0),
    ];
    let f = optimal_fractions(&sources);
    assert_eq!(f[0], 1.0, "live source takes the whole stream");
    assert_eq!(f[1], 0.0, "dark source fraction must be exactly zero");
    assert!(f.iter().all(|x| x.is_finite()), "no NaN/inf: {f:?}");
}

#[test]
fn dark_cache_fraction_is_exactly_zero_not_nan() {
    let sources = [
        BandwidthSource::from_gbps("MSC", 0.0),
        BandwidthSource::from_gbps("MM", 38.4),
    ];
    let f = optimal_fractions(&sources);
    assert_eq!(f, vec![0.0, 1.0]);
    assert!(f.iter().all(|x| x.is_finite()));
}

#[test]
fn delivered_bandwidth_skips_zero_fraction_sources() {
    // With the dark source at fraction zero, delivered bandwidth is
    // whatever the live source sustains — the 0/0 division never runs.
    let sources = [
        BandwidthSource::from_gbps("MSC", 102.4),
        BandwidthSource::from_gbps("MM", 0.0),
    ];
    let b = delivered_bandwidth(&sources, &optimal_fractions(&sources));
    let gbps = b * 64.0 / 1e9;
    assert!((gbps - 102.4).abs() < 1e-6, "delivered {gbps} GB/s");
    assert!(b.is_finite());
}

#[test]
fn dark_mm_window_budget_is_zero_and_k_is_finite() {
    let config = DapConfig::hbm_ddr4();
    let eff = EffectiveBandwidth::scaled(&config, 1.0, 0.0);
    assert!(eff.mm_dark());
    let b = eff.budget(&config);
    assert_eq!(b.mm_budget, 0, "dark MM gets a zero access budget");
    assert_eq!(b.cache_budget, 19, "cache budget unperturbed");
    // K = B_MS$/B_MM has no finite value when MM is dark; the seam
    // substitutes a large finite ratio instead of dividing by zero.
    assert_eq!(b.k.denominator(), 1);
    assert!(b.k.numerator() >= 64, "K steers everything cache-side");
    assert!(b.k.as_f64().is_finite());
}

#[test]
fn dark_cache_window_budget_is_zero_and_k_is_zero() {
    let config = DapConfig::hbm_ddr4();
    let eff = EffectiveBandwidth::scaled(&config, 0.0, 1.0);
    assert!(eff.cache_dark());
    let b = eff.budget(&config);
    assert_eq!(b.cache_budget, 0);
    assert_eq!(b.cache_channel_budget, 0);
    assert_eq!(b.mm_budget, 7, "MM budget unperturbed");
    assert_eq!((b.k.numerator(), b.k.denominator()), (0, 1));
}

#[test]
fn both_sources_dark_is_representable_without_panic() {
    let config = DapConfig::hbm_ddr4();
    let eff = EffectiveBandwidth::scaled(&config, 0.0, 0.0);
    let b = eff.budget(&config);
    assert_eq!(b.cache_budget, 0);
    assert_eq!(b.mm_budget, 0);
    // Cache-dark wins the K tie-break: zero accesses belong cache-side.
    assert_eq!((b.k.numerator(), b.k.denominator()), (0, 1));
    assert_eq!(degraded_k(0.0, 0.0), b.k);
}

#[test]
fn vanishing_but_nonzero_rates_stay_finite() {
    // Just-above-dark rates must not overflow the ratio approximation or
    // the budget floor arithmetic.
    let config = DapConfig::hbm_ddr4();
    for scale in [1e-3, 1e-6, 1e-9] {
        let eff = EffectiveBandwidth::scaled(&config, scale, scale);
        let b = eff.budget(&config);
        assert!(b.k.as_f64().is_finite(), "scale {scale}");
        let k = degraded_k(eff.cache_gbps, eff.mm_gbps).as_f64();
        assert!(k.is_finite() && k > 0.0, "scale {scale} k {k}");
    }
}
