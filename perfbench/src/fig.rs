//! `fig14-alloy`: regenerating the paper's Fig. 14 (12 bandwidth-
//! sensitive rate-8 mixes × {Alloy, Alloy+BEAR, Alloy+BEAR+DAP}, plus
//! the alone runs) on the parallel executor. The figure uses the paper's
//! fixed mixes, so this workload does not depend on the seed.

use std::time::Instant;

use experiments::exec::set_thread_override;
use experiments::figures::fig14_alloy;
use experiments::{run_mix, PolicyKind};
use mem_sim::{CacheKind, RunResult, SystemConfig};
use workloads::{bandwidth_sensitive, rate_mix};

use crate::report::Report;
use crate::span::Tracer;
use crate::stats::median;
use crate::yardstick::{rescale, Yardstick, WALK_NOMINAL_S};

/// Instructions per core for every cell of the figure.
pub const BUDGET: u64 = 30_000;
/// Executor threads (the benchmark assumes a 2-vCPU box and uses two
/// threads everywhere, so runs compare across machines).
pub const THREADS: usize = 2;
/// Figures a run makes at least, however short `--seconds` is.
const MIN_FIGURES: usize = 3;
/// The figure as rendered at [`BUDGET`]; any change to a simulated count
/// behind it changes the text.
const PINNED: &str = include_str!("../pinned/fig14_alloy_30000.txt");

/// Renders Fig. 14 and checks it against the pinned copy; returns the
/// host seconds it took.
fn figure(report: &mut Report) -> f64 {
    let t0 = Instant::now();
    let text = fig14_alloy(BUDGET).to_string();
    let seconds = t0.elapsed().as_secs_f64();
    report.attempted += 1;
    let same = text == PINNED;
    report.check(same, || {
        format!("fig14-alloy: rendered figure differs from pinned copy:\n{text}")
    });
    report.failed += u64::from(!same);
    seconds
}

/// The untraced workload: executor set-up and one warm-up figure, then
/// figures until `seconds` have passed. Every figure is bracketed by
/// yardstick measurements and its time rescaled by their mean (see
/// [`crate::yardstick`]).
pub fn run(seconds: f64) -> Report {
    println!("fig14-alloy uses the paper's fixed mixes: it does not depend on --seed");
    let mut report = Report::default();
    let mut yard = match crate::affinity::allowed_cpus() {
        Ok(cpus) => Yardstick::on(&cpus[..cpus.len().min(THREADS)]),
        Err(e) => {
            report.check(false, || format!("cannot read CPU affinity: {e}"));
            return report;
        }
    };
    let mut before = yard.measure();
    let t0 = Instant::now();
    set_thread_override(THREADS);
    figure(&mut report);
    let setup_wall = t0.elapsed().as_secs_f64();
    let mut after = yard.measure();
    let setup_s = rescale(setup_wall, (before + after) / 2.0, WALK_NOMINAL_S);
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_FIGURES || start.elapsed().as_secs_f64() < seconds {
        before = after;
        let wall = figure(&mut report);
        after = yard.measure();
        times.push(rescale(wall, (before + after) / 2.0, WALK_NOMINAL_S));
    }
    report.metric("ops_per_s", 1.0 / median(&times), "1/s");
    report.metric("op_p50_ms", median(&times) * 1e3, "ms");
    report.metric(
        "peak_rss_mb",
        crate::procfs::peak_rss_mb().unwrap_or(0.0),
        "MB",
    );
    report.metric("setup_s", setup_s, "s");
    report
}

/// Fig. 14's 36 mix cells, in the figure's order.
fn cells() -> Vec<(String, SystemConfig, PolicyKind, workloads::Mix)> {
    let alloy = SystemConfig::alloy_cache(8);
    let mut bear = alloy.clone();
    if let CacheKind::Alloy { bear: b, .. } = &mut bear.cache {
        *b = true;
    }
    let variants = [
        ("alloy", alloy, PolicyKind::Baseline),
        ("alloy+bear", bear.clone(), PolicyKind::Baseline),
        ("alloy+bear+dap", bear, PolicyKind::Dap),
    ];
    let mut out = Vec::new();
    for spec in bandwidth_sensitive() {
        for (name, config, kind) in &variants {
            out.push((
                format!("{}/{name}", spec.name),
                config.clone(),
                *kind,
                rate_mix(spec, 8),
            ));
        }
    }
    out
}

/// The traced pass: a warm-up figure, then the figure's 36 mix cells
/// replayed serially through `run_mix` — once untraced and once with a
/// span per cell — between two untraced parallel figures whose mean is
/// `figure_s`. The two replays must agree.
pub fn traced(tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    set_thread_override(THREADS);
    figure(&mut report);
    let figure_before = figure(&mut report);
    let cells = cells();

    let t0 = Instant::now();
    let plain: Vec<RunResult> = cells
        .iter()
        .map(|(_, config, kind, mix)| run_mix(config, *kind, mix, BUDGET))
        .collect();
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut cell_s = Vec::new();
    let (_, root) = tracer.span("fig14-alloy.replay", None, |tracer, root| {
        for (i, (label, config, kind, mix)) in cells.iter().enumerate() {
            let (result, span) = tracer.span(format!("exec.cell.{label}"), Some(root), |_, _| {
                run_mix(config, *kind, mix, BUDGET)
            });
            cell_s.push(tracer.dur_ns(span) as f64 / 1e9);
            report.attempted += 1;
            let same = result == plain[i];
            report.check(same, || {
                format!("fig14-alloy: traced replay of {label} differs from the untraced one")
            });
            report.failed += u64::from(!same);
        }
    });
    let traced_s = tracer.dur_ns(root) as f64 / 1e9;
    let figure_s = (figure_before + figure(&mut report)) / 2.0;

    let sum: f64 = cell_s.iter().sum();
    let p50 = median(&cell_s);
    let max = cell_s.iter().copied().fold(0.0, f64::max);
    report.metric("figure_s", figure_s, "s");
    report.metric("exec.cells", cell_s.len() as f64, "count");
    report.metric("exec.cell_p50_s", p50, "s");
    report.metric("exec.cell_max_s", max, "s");
    report.metric("exec.straggler_ratio", max / p50, "ratio");
    report.metric(
        "exec.parallel_efficiency",
        sum / (THREADS as f64 * figure_s),
        "ratio",
    );
    report.metric(
        "tracing.fig14-alloy.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );
    report
}
