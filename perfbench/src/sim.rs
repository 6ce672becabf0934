//! `sim-sectored`: the cycle simulator on the paper's headline
//! configuration — an 8-core system with a sectored DRAM cache under DAP
//! — over three rate-8 cells that use its layers differently: `mcf`
//! (read-dominated pointer chase), `parboil-lbm` (streaming, 45% writes)
//! and `milc` (core-bound).

use std::rc::Rc;
use std::time::Instant;

use experiments::runner::build_policy;
use experiments::PolicyKind;
use mem_sim::trace::TraceSource;
use mem_sim::{AccessProfiler, RunResult, SimStats, SubsystemTelemetry, System, SystemConfig};
use workloads::rng::SplitMix64;
use workloads::CloneTrace;

use crate::report::Report;
use crate::span::Tracer;
use crate::stats::median;
use crate::timed::{Tally, TimedPolicy, TimedTrace};
use crate::yardstick::{rescale, Yardstick, WALK_NOMINAL_S};
use crate::{affinity, procfs, DEFAULT_SEED};

/// The three cells, in the order every round runs them.
pub const CELLS: [&str; 3] = ["mcf", "parboil-lbm", "milc"];
/// Cores per cell (rate-8 mode).
pub const CORES: usize = 8;
/// Instructions each core retires per cell.
pub const INSTRUCTIONS: u64 = 200_000;
/// `RunResult` digests of the three cells at [`DEFAULT_SEED`] and
/// [`INSTRUCTIONS`]; a simulator change that moves any simulated count
/// changes them.
const PINNED: [u64; 3] = [
    0x6036_0276_85ed_1244,
    0xcce8_1cd5_be2e_fb04,
    0x7434_9617_ed47_ec45,
];
/// Rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// `workloads::rate_mode`'s per-core address layout: cores own disjoint
/// regions `CORE_STRIDE` apart.
const CORE_STRIDE: u64 = (1 << 36) + 0x31_1000;

/// The cell's eight trace generators, derived from the workload seed:
/// the same seed gives the same traces.
pub fn traces(bench: &str, seed: u64) -> Vec<CloneTrace> {
    let spec = workloads::spec(bench).expect("cell names are in the workload table");
    // Instances seed each generator's RNG; keep them small enough that
    // the generators' synthetic PCs cannot overflow.
    let first = (SplitMix64::new(seed).next_u64() >> 32) * CORES as u64;
    (0..CORES as u64)
        .map(|i| CloneTrace::new(spec, 0x1000_0000 + i * CORE_STRIDE, first + i))
        .collect()
}

/// A cell's `System` with DAP; `taps` wraps the trace generators and the
/// policy in timing wrappers.
pub fn build(bench: &str, seed: u64, taps: Option<(&Rc<Tally>, &Rc<Tally>)>) -> System {
    let config = SystemConfig::sectored_dram_cache(CORES);
    let policy = build_policy(PolicyKind::Dap, &config).expect("DAP runs on a sectored cache");
    let traces = traces(bench, seed).into_iter();
    match taps {
        None => System::with_policy(
            config,
            traces
                .map(|t| Box::new(t) as Box<dyn TraceSource>)
                .collect(),
            policy,
        ),
        Some((trace, policy_tally)) => System::with_policy(
            config,
            traces
                .map(|t| Box::new(TimedTrace::new(t, Rc::clone(trace))) as Box<dyn TraceSource>)
                .collect(),
            Box::new(TimedPolicy::new(policy, Rc::clone(policy_tally))),
        ),
    }
}

/// FNV-1a over every simulated count of a run: per-core instructions and
/// cycles, every `SimStats` counter and every DAP decision counter.
pub fn digest(r: &RunResult) -> u64 {
    let s: &SimStats = &r.stats;
    let d = r.dap_decisions.unwrap_or_default();
    let mut words: Vec<u64> = r
        .per_core
        .iter()
        .flat_map(|c| [c.instructions, c.cycles])
        .collect();
    words.extend([
        s.demand_reads,
        s.demand_writes,
        s.ms_read_hits,
        s.ms_read_misses,
        s.ms_write_hits,
        s.ms_write_misses,
        s.ms_cas,
        s.mm_cas,
        s.fills,
        s.fills_bypassed,
        s.writes_bypassed,
        s.forced_read_misses,
        s.speculative_forced,
        s.speculative_wasted,
        s.write_throughs,
        s.ms_dirty_evictions,
        s.tag_cache_lookups,
        s.tag_cache_misses,
        s.metadata_cas,
        s.footprint_prefetches,
        s.l3_accesses,
        s.l3_misses,
        s.read_latency_sum,
        s.read_latency_count,
        u64::from(r.dap_decisions.is_some()),
        d.fwb,
        d.wb,
        d.ifrm,
        d.sfrm,
        d.write_through,
        d.windows_partitioned,
        d.windows_total,
        d.bandwidth_resolves,
    ]);
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// One cell run: construction time, run time and result.
struct CellRun {
    build_s: f64,
    run_s: f64,
    result: RunResult,
}

fn run_cell(bench: &str, seed: u64) -> CellRun {
    let t0 = Instant::now();
    let mut system = build(bench, seed, None);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let result = system.run(INSTRUCTIONS);
    CellRun {
        build_s,
        run_s: t1.elapsed().as_secs_f64(),
        result,
    }
}

/// Checks a cell's digest against the pinned one (default seed only) and
/// against the same cell's first run in this process.
fn check_cell(report: &mut Report, cell: usize, seed: u64, d: u64, first: &mut [Option<u64>; 3]) {
    let bench = CELLS[cell];
    let ok_pinned = seed != DEFAULT_SEED || d == PINNED[cell];
    report.check(ok_pinned, || {
        format!("{bench}: digest {d:#018x} != pinned {:#018x}", PINNED[cell])
    });
    let expected = *first[cell].get_or_insert(d);
    report.check(d == expected, || {
        format!("{bench}: digest {d:#018x} differs from this run's first {expected:#018x}")
    });
    if !ok_pinned || d != expected {
        report.failed += 1;
    }
}

/// The untraced workload: one untimed warm-up round at the default seed
/// (checked against the pinned digests), then rounds of the three cells
/// at `seed` until `seconds` have passed. Each cell's construction and
/// run times are rescaled by the mean of the yardstick measurements
/// taken just before and just after it (see [`crate::yardstick`]).
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    // The simulator is single-threaded: pin it, and measure the
    // yardstick on its CPU.
    let cpu = match affinity::allowed_cpus() {
        Ok(cpus) => cpus[0],
        Err(e) => {
            report.check(false, || format!("cannot read CPU affinity: {e}"));
            return report;
        }
    };
    if let Err(e) = affinity::pin(0, cpu) {
        report.check(false, || format!("cannot pin to CPU {cpu}: {e}"));
        return report;
    }
    let mut yard = Yardstick::on(&[cpu]);
    let mut warm_first = [None; 3];
    for (i, bench) in CELLS.iter().enumerate() {
        let c = run_cell(bench, DEFAULT_SEED);
        report.attempted += 1;
        check_cell(
            &mut report,
            i,
            DEFAULT_SEED,
            digest(&c.result),
            &mut warm_first,
        );
    }
    let mut first = [None; 3];
    let mut round_s = Vec::new();
    let mut build_s = Vec::new();
    let mut cell_s = Vec::new();
    let start = Instant::now();
    let mut before = yard.measure();
    while round_s.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let (mut run, mut built) = (0.0, 0.0);
        for (i, bench) in CELLS.iter().enumerate() {
            let c = run_cell(bench, seed);
            let after = yard.measure();
            let y = (before + after) / 2.0;
            before = after;
            report.attempted += 1;
            check_cell(&mut report, i, seed, digest(&c.result), &mut first);
            let run_s = rescale(c.run_s, y, WALK_NOMINAL_S);
            run += run_s;
            built += rescale(c.build_s, y, WALK_NOMINAL_S);
            cell_s.push(run_s);
        }
        round_s.push(run);
        build_s.push(built);
    }
    report.metric("ops_per_s", CELLS.len() as f64 / median(&round_s), "1/s");
    report.metric("op_p50_ms", median(&cell_s) * 1e3, "ms");
    report.metric("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0), "MB");
    report.metric("setup_s", median(&build_s), "s");
    report
}

/// Simulated instructions of one cell.
fn cell_instructions() -> f64 {
    (CORES as u64 * INSTRUCTIONS) as f64
}

/// The traced pass, cell by cell: an untraced run, a run with simulator
/// telemetry attached, a traced run with both timing wrappers and the
/// instrumented kernel (its result must be bit-identical to the
/// untraced one), then the untraced and telemetry runs again. Each cell
/// time compared is the mean of its two runs, which bracket the traced
/// run, so host drift cancels to first order.
///
/// Layer times subtract the timing wrappers' own cost, calibrated on
/// empty calls: per call, the part inside the timed interval from the
/// layer's time and the whole cost from the traced wall time.
pub fn traced(seed: u64, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let timer = Tally::calibrate();
    let mut yard = Yardstick::on(&[affinity::allowed_cpus().map_or(0, |c| c[0])]);
    let yard_s: Vec<f64> = (0..5).map(|_| yard.measure()).collect();
    report.metric("host.yardstick_ms", median(&yard_s) * 1e3, "ms");
    let mut untraced_s = 0.0;
    let mut telemetry_s = 0.0;
    let mut traced_s = 0.0;
    let (mut epochs, mut skipped) = (0u64, 0u64);
    let (mut trace_ns, mut trace_ops, mut policy_ns, mut policy_calls) = (0u64, 0u64, 0u64, 0u64);
    let mut stats = SimStats::default();
    let mut dap = dap_core::DecisionStats::default();
    tracer.span("sim-sectored", None, |tracer, root| {
        for bench in CELLS {
            let plain = run_cell(bench, seed);
            let telemetry = run_with_telemetry(bench, seed);
            let trace = Tally::new();
            let policy = Tally::new();
            let mut system = build(bench, seed, Some((&trace, &policy)));
            let ((result, kernel), span) =
                tracer.span(format!("cell.{bench}"), Some(root), |t, id| {
                    let out = system.run_kernel_instrumented(INSTRUCTIONS);
                    t.aggregate(id, "workloads.next_op", trace.ns(), trace.calls());
                    t.aggregate(id, "mem-sim.policy", policy.ns(), policy.calls());
                    out
                });
            let plain_again = run_cell(bench, seed);
            let telemetry_again = run_with_telemetry(bench, seed);
            let plain_s = (plain.run_s + plain_again.run_s) / 2.0;
            untraced_s += plain_s;
            telemetry_s += (telemetry.0 + telemetry_again.0) / 2.0;
            for (what, other) in [
                ("traced", &result),
                ("repeated", &plain_again.result),
                ("telemetry", &telemetry.1),
                ("repeated telemetry", &telemetry_again.1),
            ] {
                report.attempted += 1;
                let same = *other == plain.result;
                report.check(same, || {
                    format!("{bench}: {what} RunResult differs from the untraced one")
                });
                report.failed += u64::from(!same);
            }
            traced_s += tracer.dur_ns(span) as f64 / 1e9;
            epochs += kernel.epochs;
            skipped += kernel.skipped_quanta;
            trace_ns += trace.ns();
            trace_ops += trace.calls();
            policy_ns += policy.ns();
            policy_calls += policy.calls();
            add_stats(&mut stats, &result.stats);
            if let Some(d) = result.dap_decisions {
                dap.fwb += d.fwb;
                dap.wb += d.wb;
                dap.ifrm += d.ifrm;
                dap.sfrm += d.sfrm;
                dap.windows_partitioned += d.windows_partitioned;
            }
            report.metric(
                format!("cell.{bench}.minstr_per_s"),
                cell_instructions() / plain_s / 1e6,
                "M/s",
            );
        }
    });

    let untraced_ns = untraced_s * 1e9;
    let calls = trace_ops + policy_calls;
    let wall_ns = traced_s * 1e9 - calls as f64 * timer.wall_ns;
    let trace_ns = trace_ns as f64 - trace_ops as f64 * timer.inside_ns;
    let policy_ns = policy_ns as f64 - policy_calls as f64 * timer.inside_ns;
    let windows = (epochs + skipped).max(1) as f64;
    report.metric(
        "sim_minstr_per_s",
        CELLS.len() as f64 * cell_instructions() / untraced_s / 1e6,
        "M/s",
    );
    report.metric("kernel.epochs", epochs as f64, "count");
    report.metric("kernel.skipped_quanta", skipped as f64, "count");
    report.metric("kernel.skip_ratio", skipped as f64 / windows, "ratio");
    report.metric("kernel.host_ns_per_window", untraced_ns / windows, "ns");
    report.metric("trace.ops", trace_ops as f64, "count");
    report.metric("trace.ns_per_op", trace_ns / trace_ops.max(1) as f64, "ns");
    report.metric("trace.share", trace_ns / wall_ns, "ratio");
    report.metric("policy.calls", policy_calls as f64, "count");
    report.metric(
        "policy.ns_per_call",
        policy_ns / policy_calls.max(1) as f64,
        "ns",
    );
    report.metric("policy.share", policy_ns / wall_ns, "ratio");
    report.metric("tracing.timer_ns_per_call", timer.wall_ns, "ns");
    report.metric("dap.decisions", dap.total_decisions() as f64, "count");
    report.metric("dap.fwb", dap.fwb as f64, "count");
    report.metric("dap.wb", dap.wb as f64, "count");
    report.metric("dap.ifrm", dap.ifrm as f64, "count");
    report.metric("dap.sfrm", dap.sfrm as f64, "count");
    report.metric(
        "dap.windows_partitioned",
        dap.windows_partitioned as f64,
        "count",
    );
    report.metric(
        "memside.share",
        (wall_ns - trace_ns - policy_ns) / wall_ns,
        "ratio",
    );
    report.metric(
        "sim.host_ns_per_access",
        untraced_ns / trace_ops.max(1) as f64,
        "ns",
    );
    report.metric("mscache.hit_ratio", stats.ms_hit_ratio(), "ratio");
    report.metric(
        "mscache.tag_cache_miss_ratio",
        stats.tag_cache_miss_ratio(),
        "ratio",
    );
    report.metric(
        "mscache.fills_bypassed",
        stats.fills_bypassed as f64,
        "count",
    );
    report.metric("dram.mm_cas_fraction", stats.mm_cas_fraction(), "ratio");
    report.metric(
        "dram.avg_read_latency_cycles",
        stats.avg_read_latency(),
        "cycles",
    );
    report.metric(
        "telemetry.overhead_pct",
        (telemetry_s / untraced_s - 1.0) * 100.0,
        "%",
    );
    report.metric(
        "tracing.sim-sectored.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );
    report
}

/// A cell run with simulator telemetry and a fixed-interval access
/// profiler attached: its run seconds and result.
fn run_with_telemetry(bench: &str, seed: u64) -> (f64, RunResult) {
    let registry = dap_telemetry::MetricsRegistry::new();
    let mut system = build(bench, seed, None);
    system.attach_telemetry(SubsystemTelemetry::new(&registry));
    if let Some(profiler) = AccessProfiler::new(64, 64) {
        system.attach_profiler(profiler);
    }
    let t0 = Instant::now();
    let result = system.run(INSTRUCTIONS);
    (t0.elapsed().as_secs_f64(), result)
}

/// Adds the counters the per-layer ratios are computed from.
fn add_stats(sum: &mut SimStats, s: &SimStats) {
    sum.ms_read_hits += s.ms_read_hits;
    sum.ms_read_misses += s.ms_read_misses;
    sum.ms_write_hits += s.ms_write_hits;
    sum.ms_write_misses += s.ms_write_misses;
    sum.tag_cache_lookups += s.tag_cache_lookups;
    sum.tag_cache_misses += s.tag_cache_misses;
    sum.fills_bypassed += s.fills_bypassed;
    sum.ms_cas += s.ms_cas;
    sum.mm_cas += s.mm_cas;
    sum.read_latency_sum += s.read_latency_sum;
    sum.read_latency_count += s.read_latency_count;
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::runner::build_policy;

    /// A tiny run with and without the timing wrappers must give the
    /// same `RunResult`, on policies that exercise the defaulted hooks
    /// too (SBD cleans sectors, BATMAN disables sets).
    #[test]
    fn wrappers_leave_results_bit_identical() {
        let config = SystemConfig::sectored_dram_cache(2);
        for kind in [PolicyKind::Dap, PolicyKind::Sbd, PolicyKind::Batman] {
            let make_traces = || {
                let mut t = traces("parboil-lbm", 7);
                t.truncate(1);
                t.extend(traces("mcf", 7).into_iter().take(1));
                t
            };
            let policy = || build_policy(kind, &config).expect("policy builds");
            let plain = System::with_policy(
                config.clone(),
                make_traces()
                    .into_iter()
                    .map(|t| Box::new(t) as Box<dyn TraceSource>)
                    .collect(),
                policy(),
            )
            .run(20_000);
            let trace = Tally::new();
            let calls = Tally::new();
            let wrapped = System::with_policy(
                config.clone(),
                make_traces()
                    .into_iter()
                    .map(|t| {
                        Box::new(TimedTrace::new(t, Rc::clone(&trace))) as Box<dyn TraceSource>
                    })
                    .collect(),
                Box::new(TimedPolicy::new(policy(), Rc::clone(&calls))),
            )
            .run(20_000);
            assert_eq!(plain, wrapped, "{kind:?}");
            assert!(trace.calls() > 0 && calls.calls() > 0, "{kind:?}");
        }
    }

    #[test]
    fn seeds_change_traces_and_repeat_exactly() {
        let op = |seed| traces("mcf", seed)[3].next_op();
        assert_eq!(op(5), op(5));
        assert_ne!(op(5), op(6));
    }

    #[test]
    fn digest_sees_every_count() {
        let r = RunResult::default();
        let mut s = r.clone();
        s.stats.read_latency_count = 1;
        assert_ne!(digest(&r), digest(&s));
        let mut d = r.clone();
        d.dap_decisions = Some(dap_core::DecisionStats::default());
        assert_ne!(digest(&r), digest(&d));
    }
}
