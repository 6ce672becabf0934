//! End-to-end behavioural tests of the simulator: the phenomena the paper
//! depends on must emerge from the model before any experiment is
//! meaningful.

use mem_sim::mscache::PlacementGoal;
use mem_sim::trace::{ChaseTrace, StrideTrace, TraceSource};
use mem_sim::{CacheKind, DapPolicy, System, SystemConfig};

fn rate_traces(
    cores: usize,
    make: impl Fn(u64) -> Box<dyn TraceSource>,
) -> Vec<Box<dyn TraceSource>> {
    // Rate mode: one copy per core in a disjoint address region. The
    // stride is not a power of two so cores do not alias onto the same
    // cache sets (real physical layouts are page-randomized).
    (0..cores)
        .map(|i| make(0x1000_0000 + (i as u64) * ((1 << 32) + 0x31_1000)))
        .collect()
}

/// A bandwidth-hungry streaming workload: low gap, large footprint.
fn streaming(cores: usize, footprint: u64) -> Vec<Box<dyn TraceSource>> {
    rate_traces(cores, |base| {
        Box::new(StrideTrace::new(base, 2, footprint, 0.2))
    })
}

#[test]
fn single_core_streaming_hits_the_sectored_cache() {
    // Footprint (12 MB) exceeds the 8 MB L3 yet fits the 256 MB cache:
    // after the first pass installs it, reads hit the memory-side cache.
    let mut sys = System::new(SystemConfig::sectored_dram_cache(1), streaming(1, 12 << 20));
    let r = sys.run(2_000_000);
    assert!(r.stats.demand_reads > 0);
    let hit = r.stats.ms_hit_ratio();
    assert!(hit > 0.6, "streaming should mostly hit after warmup: {hit}");
}

#[test]
fn cache_misses_when_footprint_exceeds_capacity() {
    // Footprint 4x the 256 MB scaled cache: hit rate must collapse.
    let config = SystemConfig::sectored_dram_cache(1);
    let mut sys = System::new(config, streaming(1, 1 << 30));
    let r = sys.run(300_000);
    assert!(
        r.stats.ms_hit_ratio() < 0.6,
        "thrashing footprint should miss: {}",
        r.stats.ms_hit_ratio()
    );
}

#[test]
fn eight_core_streaming_saturates_cache_bandwidth() {
    // Eight bandwidth-hungry cores: the baseline leaves main memory nearly
    // idle while the cache bus saturates — the paper's Figure 1/8 setup.
    let mut sys = System::new(SystemConfig::sectored_dram_cache(8), streaming(8, 4 << 20));
    let r = sys.run(600_000);
    let frac = r.stats.mm_cas_fraction();
    assert!(
        frac < 0.30,
        "baseline main-memory CAS fraction should be small: {frac}"
    );
}

#[test]
fn dap_raises_mm_cas_fraction_toward_optimal() {
    let baseline = {
        let mut sys = System::new(SystemConfig::sectored_dram_cache(8), streaming(8, 4 << 20));
        sys.run(600_000)
    };
    let dap = {
        let policy = DapPolicy::new(dap_core::DapConfig::hbm_ddr4());
        let mut sys = System::with_policy(
            SystemConfig::sectored_dram_cache(8),
            streaming(8, 4 << 20),
            Box::new(policy),
        );
        sys.run(600_000)
    };
    let (b, d) = (
        baseline.stats.mm_cas_fraction(),
        dap.stats.mm_cas_fraction(),
    );
    assert!(
        d > b,
        "DAP must move traffic to main memory: baseline {b}, dap {d}"
    );
    assert!(
        d > 0.10 && d < 0.45,
        "DAP CAS fraction should approach the optimal 0.27: got {d}"
    );
    assert!(dap.dap_decisions.expect("dap ran").total_decisions() > 0);
}

#[test]
fn dap_improves_bandwidth_bound_throughput() {
    let run = |with_dap: bool| {
        let config = SystemConfig::sectored_dram_cache(8);
        let traces = streaming(8, 4 << 20);
        let mut sys = if with_dap {
            let policy = DapPolicy::new(dap_core::DapConfig::hbm_ddr4());
            System::with_policy(config, traces, Box::new(policy))
        } else {
            System::new(config, traces)
        };
        sys.run(600_000).total_ipc()
    };
    let (base, dap) = (run(false), run(true));
    assert!(
        dap > base * 1.02,
        "DAP should speed up a bandwidth-bound workload: base {base}, dap {dap}"
    );
}

#[test]
fn dap_harmless_on_low_bandwidth_workload() {
    // A pointer chase with long gaps is latency-bound: DAP should seldom
    // partition and must not hurt.
    let make = || -> Vec<Box<dyn TraceSource>> {
        (0..8)
            .map(|i| {
                Box::new(ChaseTrace::new(
                    0x1000_0000 + (i as u64) * (1 << 32),
                    30,
                    4 << 20,
                )) as Box<dyn TraceSource>
            })
            .collect()
    };
    let base = System::new(SystemConfig::sectored_dram_cache(8), make()).run(120_000);
    let policy = DapPolicy::new(dap_core::DapConfig::hbm_ddr4());
    let dap = System::with_policy(
        SystemConfig::sectored_dram_cache(8),
        make(),
        Box::new(policy),
    )
    .run(120_000);
    let (b, d) = (base.total_ipc(), dap.total_ipc());
    assert!(
        d > b * 0.97,
        "DAP must not hurt latency-bound work: base {b}, dap {d}"
    );
}

#[test]
fn no_cache_system_serves_everything_from_mm() {
    let mut sys = System::new(SystemConfig::no_cache(1), streaming(1, 8 << 20));
    let r = sys.run(100_000);
    assert_eq!(r.stats.ms_cas, 0);
    assert!(r.stats.mm_cas > 0);
}

#[test]
fn alloy_cache_end_to_end() {
    let mut sys = System::new(SystemConfig::alloy_cache(8), streaming(8, 4 << 20));
    let r = sys.run(600_000);
    // Direct-mapped conflicts and write-no-allocate cap the Alloy hit rate
    // well below the sectored cache's.
    assert!(
        r.stats.ms_hit_ratio() > 0.35,
        "alloy hit rate: {}",
        r.stats.ms_hit_ratio()
    );
    // TAD reads mean the cache CAS count exceeds demand reads alone.
    assert!(r.stats.ms_cas > 0);
}

#[test]
fn alloy_dap_beats_alloy_baseline_under_pressure() {
    let run = |with_dap: bool| {
        let mut config = SystemConfig::alloy_cache(8);
        if let CacheKind::Alloy { bear, .. } = &mut config.cache {
            *bear = true; // DAP's DBC design builds on the BEAR presence bit
        }
        let traces = streaming(8, 4 << 20);
        let mut sys = if with_dap {
            let policy = DapPolicy::new(dap_core::DapConfig::alloy_hbm_ddr4());
            System::with_policy(config, traces, Box::new(policy))
        } else {
            System::new(config, traces)
        };
        sys.run(600_000)
    };
    let base = run(false);
    let dap = run(true);
    assert!(
        dap.stats.mm_cas_fraction() > base.stats.mm_cas_fraction(),
        "alloy DAP must shift CAS to main memory"
    );
}

#[test]
fn edram_cache_end_to_end_with_dap() {
    let run = |with_dap: bool| {
        let config = SystemConfig::edram_cache(8, 256);
        // 8 x 384 KB streams: past the scaled 2 MB L3, within the scaled
        // 4 MB eDRAM.
        let traces = streaming(8, 384 << 10);
        let mut sys = if with_dap {
            let policy = DapPolicy::new(dap_core::DapConfig::edram_ddr4());
            System::with_policy(config, traces, Box::new(policy))
        } else {
            System::new(config, traces)
        };
        sys.run(600_000)
    };
    let base = run(false);
    let dap = run(true);
    assert!(base.stats.ms_hit_ratio() > 0.5);
    assert!(
        dap.total_ipc() > base.total_ipc() * 0.95,
        "eDRAM DAP should not collapse performance: base {}, dap {}",
        base.total_ipc(),
        dap.total_ipc()
    );
}

#[test]
fn mpki_reflects_workload_locality() {
    let chase: Vec<Box<dyn TraceSource>> =
        vec![Box::new(ChaseTrace::new(0x1000_0000, 5, 64 << 20))];
    let small: Vec<Box<dyn TraceSource>> =
        vec![Box::new(StrideTrace::new(0x1000_0000, 5, 1 << 20, 0.0))];
    // Enough instructions that the 1 MB loop revisits its footprint many
    // times (it fits in L3), while the 64 MB chase keeps missing.
    let r_chase = System::new(SystemConfig::sectored_dram_cache(1), chase).run(600_000);
    let r_small = System::new(SystemConfig::sectored_dram_cache(1), small).run(600_000);
    assert!(
        r_chase.l3_mpki() > r_small.l3_mpki() * 2.0,
        "chase {} vs small {}",
        r_chase.l3_mpki(),
        r_small.l3_mpki()
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sys = System::new(SystemConfig::sectored_dram_cache(2), streaming(2, 4 << 20));
        sys.run(50_000)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.per_core[0].cycles, b.per_core[0].cycles);
}

#[test]
fn flat_tier_deterministic_across_runs() {
    // Each placement epoch migrates hundreds of pages; the order they
    // are issued in moves every later DRAM timing, so it must not come
    // from hash-map iteration.
    let run = || {
        let config = SystemConfig::flat_tier(8, PlacementGoal::BandwidthOptimal);
        let traces = workloads::rate_mode(workloads::spec("parboil-lbm").unwrap(), 8);
        System::new(config, traces).run(40_000)
    };
    let first = run();
    for _ in 0..3 {
        let again = run();
        assert_eq!(first.stats, again.stats);
        assert_eq!(first.per_core, again.per_core);
    }
}
