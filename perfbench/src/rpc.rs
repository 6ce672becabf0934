//! `dapd-rpc`: the daemon's serving path. An in-process `dapd::Server`
//! listens on a Unix socket; [`CONNS`] client connections, each on its
//! own thread, run closed loops of `get_route` then `report_served`
//! (the chosen backend "serves" at its nominal rate, with the same
//! fractional-nanosecond carry `dapctl loadgen` uses). Connection 0 also
//! fetches `snapshot_stats` every [`STATS_EVERY`] decisions, as an ops
//! scrape would.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dap_telemetry::labeled;
use dapd::wire::{decode_frame, encode_frame, Message};
use dapd::{Client, Engine, EngineConfig, Server, ServerHandle};
use workloads::{Request, RequestStream};

use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{median, LatencyHist};
use crate::yardstick::{pingpong, rescale, PINGPONG_NOMINAL_S};
use crate::{affinity, out_dir, procfs};

/// Client connections (one thread each).
pub const CONNS: usize = 2;
/// Connection 0 fetches a stats snapshot every this many decisions.
pub const STATS_EVERY: u64 = 1_000;
/// Warm-up decisions per connection in each set-up.
const WARMUP_PER_CONN: u64 = 20_000;
/// Independent set-ups per run; the last one serves the timed window.
const SETUPS: usize = 3;
/// Pieces the timed window is cut into, with a ping-pong between each.
const CHUNKS: usize = 8;
/// Throughput is the median over slices of this length.
const SLICE_S: f64 = 0.25;
/// Tenants in the stock engine configuration.
const TENANTS: u16 = 2;
/// The clone whose request shapes drive the daemon.
const CLONE: &str = "mcf";
/// Allowed distance of the routed HBM byte share from the Eq. 4 optimum.
const SHARE_TOLERANCE: f64 = 0.02;
/// Every `dapd_rejected_total` cause the server counts.
const REJECT_CAUSES: [&str; 6] = [
    "overloaded",
    "deadline",
    "garbage",
    "frame_budget",
    "byte_budget",
    "unknown_id",
];

/// The Eq. 4 optimum share of bytes for backend 0 (HBM):
/// `B_hbm / (B_hbm + B_ddr4)` at nominal rates, 102.4 / 140.8 = 0.727.
fn hbm_optimum() -> f64 {
    let c = EngineConfig::hbm_ddr4_pair();
    let total: f64 = c.backends.iter().map(|b| b.nominal_gbps).sum();
    c.backends[0].nominal_gbps / total
}

/// The request stream of connection `conn`, derived from the seed.
fn requests(seed: u64, conn: usize) -> RequestStream {
    let spec = workloads::spec(CLONE).expect("the clone is in the workload table");
    RequestStream::from_spec(spec, TENANTS, seed.wrapping_add(conn as u64))
}

/// Synthetic service: the chosen backend delivers at its nominal rate.
/// Whole nanoseconds are reported and the fraction carried, because a
/// 64-byte block takes under a nanosecond at HBM rates.
#[derive(Debug, Clone)]
struct Service {
    nominal: Vec<f64>,
    carry_ns: Vec<f64>,
}

impl Service {
    fn new() -> Self {
        let nominal: Vec<f64> = EngineConfig::hbm_ddr4_pair()
            .backends
            .iter()
            .map(|b| b.nominal_gbps)
            .collect();
        let carry_ns = vec![0.0; nominal.len()];
        Self { nominal, carry_ns }
    }

    /// Busy nanoseconds to report for `bytes` served by `backend`.
    fn serve(&mut self, backend: usize, bytes: u32) -> u32 {
        // One byte per nanosecond is 1 GB/s.
        self.carry_ns[backend] += f64::from(bytes) / self.nominal[backend];
        let nanos = self.carry_ns[backend] as u32;
        self.carry_ns[backend] -= f64::from(nanos);
        nanos
    }
}

/// Per-call timings of one connection's timed window.
#[derive(Debug, Default)]
struct Samples {
    /// Route + report round trips.
    rtt: LatencyHist,
    /// `get_route` calls (traced windows only).
    route: LatencyHist,
    /// `report_served` calls (traced windows only).
    report: LatencyHist,
    /// `snapshot_stats` calls.
    stats: LatencyHist,
    /// Decisions completed in each [`SLICE_S`] slice of the window.
    slices: Vec<u64>,
}

/// One client connection with its request stream and tallies.
struct Conn {
    index: usize,
    /// The CPU this connection's client thread and server worker run on.
    cpu: usize,
    client: Client,
    stream: RequestStream,
    service: Service,
    routed: Vec<u64>,
    attempted: u64,
    failed: u64,
    acked_routes: u64,
    since_stats: u64,
    errors: Vec<String>,
}

impl Conn {
    fn connect(path: &Path, index: usize, seed: u64, cpu: usize) -> io::Result<Self> {
        Ok(Self {
            index,
            cpu,
            client: Client::connect_unix(path)?,
            stream: requests(seed, index),
            service: Service::new(),
            routed: vec![0; 2],
            attempted: 0,
            failed: 0,
            acked_routes: 0,
            since_stats: 0,
            errors: Vec::new(),
        })
    }

    /// Counts a failed decision and keeps its error.
    fn fail(&mut self, what: &str, e: io::Error) {
        self.failed += 1;
        self.note(what, e);
    }

    /// Keeps the first few errors for the report.
    fn note(&mut self, what: &str, e: io::Error) {
        if self.errors.len() < 5 {
            self.errors
                .push(format!("connection {}: {what}: {e}", self.index));
        }
    }

    /// One decision: route, then report the service time. Returns the
    /// round trip, or `None` if either call failed.
    fn decide(&mut self, samples: Option<&mut Samples>) -> Option<Duration> {
        let Request { tenant, bytes } = self.stream.next_request();
        self.attempted += 1;
        let t0 = Instant::now();
        let d = match self.client.get_route(tenant, bytes) {
            Ok(d) => d,
            Err(e) => {
                self.fail("get_route", e);
                return None;
            }
        };
        let t1 = samples.as_ref().map(|_| Instant::now());
        self.acked_routes += 1;
        let Some(routed) = self.routed.get_mut(d.backend) else {
            self.fail(
                "get_route",
                io::Error::other(format!("unknown backend {}", d.backend)),
            );
            return None;
        };
        *routed += u64::from(bytes);
        let nanos = self.service.serve(d.backend, bytes);
        if let Err(e) = self.client.report_served(d.backend as u8, bytes, nanos) {
            self.fail("report_served", e);
            return None;
        }
        let t2 = Instant::now();
        if let (Some(s), Some(t1)) = (samples, t1) {
            s.route.record((t1 - t0).as_nanos() as u64);
            s.report.record((t2 - t1).as_nanos() as u64);
        }
        Some(t2 - t0)
    }

    /// Connection 0's periodic stats scrape; returns its duration.
    fn maybe_scrape(&mut self) -> Option<Duration> {
        if self.index != 0 {
            return None;
        }
        self.since_stats += 1;
        if self.since_stats < STATS_EVERY {
            return None;
        }
        self.since_stats = 0;
        let t0 = Instant::now();
        match self.client.snapshot_stats() {
            Ok(text) if text.contains("dapd_decisions_total") => Some(t0.elapsed()),
            Ok(_) => {
                self.note(
                    "snapshot_stats",
                    io::Error::other("stats without decisions"),
                );
                None
            }
            Err(e) => {
                self.note("snapshot_stats", e);
                None
            }
        }
    }

    /// Pins the calling thread to this connection's CPU.
    fn pin_here(&mut self) {
        if let Err(e) = affinity::pin(0, self.cpu) {
            self.note("pin client thread", e);
        }
    }

    /// Runs `n` decisions (warm-up).
    fn warm(&mut self, n: u64) {
        self.pin_here();
        for _ in 0..n {
            self.decide(None);
            self.maybe_scrape();
        }
    }

    /// Runs decisions until `stop`, recording timings.
    fn window(&mut self, stop: &AtomicBool, traced: bool) -> Samples {
        self.pin_here();
        let mut s = Samples::default();
        let start = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            let rtt = self.decide(traced.then_some(&mut s));
            if let Some(rtt) = rtt {
                s.rtt.record(rtt.as_nanos() as u64);
                let slice = (start.elapsed().as_secs_f64() / SLICE_S) as usize;
                if s.slices.len() <= slice {
                    s.slices.resize(slice + 1, 0);
                }
                s.slices[slice] += 1;
            }
            if let Some(d) = self.maybe_scrape() {
                s.stats.record(d.as_nanos() as u64);
            }
        }
        s
    }
}

/// Process-level counters read at both ends of a window while the
/// connection threads are alive.
#[derive(Debug, Clone, Copy)]
struct OsReading {
    cpu_s: f64,
    ctx: u64,
}

impl OsReading {
    fn now() -> Self {
        Self {
            cpu_s: procfs::cpu_seconds().unwrap_or(0.0),
            ctx: procfs::ctx_switches().unwrap_or(0),
        }
    }
}

/// What one timed window produced.
struct Window {
    samples: Vec<Samples>,
    seconds: f64,
    os: (OsReading, OsReading),
}

impl Window {
    fn decisions(&self) -> u64 {
        self.samples.iter().map(|s| s.rtt.len() as u64).sum()
    }

    /// Decisions per second in each whole slice of the window.
    fn slice_rates(&self) -> Vec<f64> {
        let whole = ((self.seconds / SLICE_S) as usize).max(1);
        (0..whole)
            .map(|i| {
                self.samples
                    .iter()
                    .map(|s| s.slices.get(i).copied().unwrap_or(0))
                    .sum::<u64>() as f64
                    / SLICE_S
            })
            .collect()
    }

    /// Median over the window's whole slices of decisions per second.
    fn decisions_per_s(&self) -> f64 {
        median(&self.slice_rates())
    }

    /// One kind of call, merged over the connections.
    fn merged(&self, pick: impl Fn(&Samples) -> &LatencyHist) -> LatencyHist {
        let mut all = LatencyHist::default();
        for s in &self.samples {
            all.merge(pick(s));
        }
        all
    }
}

/// The thread the daemon's accept loop spawns for a new connection: the
/// one live thread not in `before`.
fn new_thread(before: &BTreeSet<i32>) -> io::Result<i32> {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        let fresh: Vec<i32> = affinity::threads()?.difference(before).copied().collect();
        match fresh[..] {
            [tid] => return Ok(tid),
            [] => std::thread::sleep(Duration::from_millis(1)),
            _ => return Err(io::Error::other("more than one new thread per connection")),
        }
    }
    Err(io::Error::other(
        "the daemon spawned no worker for a connection",
    ))
}

/// A running daemon with its connected clients.
struct Instance {
    handle: ServerHandle,
    conns: Vec<Conn>,
}

impl Instance {
    /// Binds, spawns and connects.
    fn start(index: usize, seed: u64) -> io::Result<Self> {
        // A path relative to the working directory keeps the socket
        // address short however deep the checkout is.
        let path: PathBuf = out_dir().join(format!("rpc-{}-{index}.sock", std::process::id()));
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let engine = Engine::new(EngineConfig::hbm_ddr4_pair())
            .map_err(|e| io::Error::other(format!("engine: {e}")))?;
        let cpus = affinity::allowed_cpus()?;
        let handle = Server::bind_unix(&path, engine)?.spawn()?;
        let conns = (0..CONNS)
            .map(|c| {
                let cpu = cpus[c % cpus.len()];
                let before = affinity::threads()?;
                let conn = Conn::connect(&path, c, seed, cpu)?;
                affinity::pin(new_thread(&before)?, cpu)?;
                Ok(conn)
            })
            .collect::<io::Result<Vec<_>>>();
        match conns {
            Ok(conns) => Ok(Self { handle, conns }),
            Err(e) => {
                handle.request_stop();
                let _ = handle.join();
                Err(e)
            }
        }
    }

    /// Warm-up: every connection runs `n` decisions in parallel.
    fn warm(&mut self, n: u64) {
        std::thread::scope(|scope| {
            for conn in &mut self.conns {
                scope.spawn(move || conn.warm(n));
            }
        });
    }

    /// A timed window of `seconds` over all connections at once.
    fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let stop = AtomicBool::new(false);
        let barrier = Barrier::new(self.conns.len() + 1);
        let (samples, os) = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let (stop, barrier) = (&stop, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        conn.window(stop, traced)
                    })
                })
                .collect();
            barrier.wait();
            let before = OsReading::now();
            std::thread::sleep(Duration::from_secs_f64(seconds));
            let after = OsReading::now();
            stop.store(true, Ordering::Relaxed);
            let samples: Vec<Samples> = workers
                .into_iter()
                .map(|w| w.join().expect("connection threads do not panic"))
                .collect();
            (samples, (before, after))
        });
        Window {
            samples,
            seconds,
            os,
        }
    }

    /// Checks the daemon's books, closes the connections and stops it.
    fn finish(self, report: &mut Report) -> Counts {
        let Self { handle, conns } = self;
        let counts = handle.with_engine(|e| Counts {
            decisions: e.counter("dapd_decisions_total").value(),
            rejects: REJECT_CAUSES
                .iter()
                .map(|c| {
                    e.counter(&labeled("dapd_rejected_total", &[("cause", c)]))
                        .value()
                })
                .sum(),
            shed: e.counter("dapd_shed_total").value(),
            conserves: e.ledger().conserves(),
            routed: e
                .config()
                .backends
                .iter()
                .map(|b| {
                    e.counter(&labeled("dapd_routed_bytes_total", &[("backend", &b.name)]))
                        .value()
                })
                .collect(),
        });
        let acked: u64 = conns.iter().map(|c| c.acked_routes).sum();
        let mut client_routed = vec![0u64; counts.routed.len()];
        for c in &conns {
            report.attempted += c.attempted;
            report.failed += c.failed;
            for e in &c.errors {
                report.check(false, || e.clone());
            }
            for (sum, r) in client_routed.iter_mut().zip(&c.routed) {
                *sum += r;
            }
        }
        report.check(counts.rejects == 0 && counts.shed == 0, || {
            format!(
                "dapd: {} rejects and {} sheds (want none)",
                counts.rejects, counts.shed
            )
        });
        report.check(counts.decisions == acked, || {
            format!(
                "dapd: dapd_decisions_total {} != {acked} routes acknowledged",
                counts.decisions
            )
        });
        report.check(counts.conserves, || {
            "dapd: tenant ledger does not conserve credit".into()
        });
        report.check(client_routed == counts.routed, || {
            format!(
                "dapd: clients routed {client_routed:?} bytes, daemon counted {:?}",
                counts.routed
            )
        });
        let share = counts.hbm_share();
        report.check((share - hbm_optimum()).abs() <= SHARE_TOLERANCE, || {
            format!(
                "dapd: routed HBM byte share {share:.4} is not within {SHARE_TOLERANCE} \
                 of the Eq. 4 optimum {:.4}",
                hbm_optimum()
            )
        });
        // Closing the clients first lets each worker see EOF and exit
        // at once instead of waiting out its read deadline.
        drop(conns);
        handle.request_stop();
        if let Err(e) = handle.join() {
            report.check(false, || format!("dapd: join failed: {e}"));
        }
        counts
    }
}

/// The daemon's own books at the end of an instance.
struct Counts {
    decisions: u64,
    rejects: u64,
    shed: u64,
    conserves: bool,
    routed: Vec<u64>,
}

impl Counts {
    fn hbm_share(&self) -> f64 {
        let total: u64 = self.routed.iter().sum();
        self.routed[0] as f64 / total.max(1) as f64
    }
}

/// Set-up: bind, spawn, connect and warm up. Timed as one unit.
fn set_up(index: usize, seed: u64, report: &mut Report) -> Option<(Instance, f64)> {
    let t0 = Instant::now();
    match Instance::start(index, seed) {
        Ok(mut inst) => {
            inst.warm(WARMUP_PER_CONN);
            Some((inst, t0.elapsed().as_secs_f64()))
        }
        Err(e) => {
            report.check(false, || format!("dapd: set-up {index} failed: {e}"));
            None
        }
    }
}

/// The untraced workload: [`SETUPS`] set-ups (all but the last are
/// checked and shut down), then `seconds` of timed windows on the last,
/// in [`CHUNKS`] pieces with a ping-pong measurement before each and
/// after the last. Times and rates are rescaled by the median ping-pong
/// (see [`crate::yardstick`]).
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let cpus = match affinity::allowed_cpus() {
        Ok(cpus) => cpus[..cpus.len().min(CONNS)].to_vec(),
        Err(e) => {
            report.check(false, || format!("cannot read CPU affinity: {e}"));
            return report;
        }
    };
    let mut setup_s = Vec::new();
    let mut last: Option<Instance> = None;
    for k in 0..SETUPS {
        let Some((inst, s)) = set_up(k, seed, &mut report) else {
            if let Some(prev) = last {
                prev.finish(&mut report);
            }
            return report;
        };
        setup_s.push(s);
        if let Some(prev) = last.replace(inst) {
            prev.finish(&mut report);
        }
    }
    let mut inst = last.expect("at least one set-up");
    let mut pingpongs = Vec::new();
    let mut rtt = LatencyHist::default();
    let mut slices = Vec::new();
    for _ in 0..CHUNKS {
        pingpongs.push(pingpong(&cpus));
        // Fold each piece in and drop it, so only one piece's samples
        // are resident at a time.
        let w = inst.window(seconds / CHUNKS as f64, false);
        rtt.merge(&w.merged(|s| &s.rtt));
        slices.extend(w.slice_rates());
    }
    pingpongs.push(pingpong(&cpus));
    inst.finish(&mut report);
    let pingpongs = match pingpongs.into_iter().collect::<io::Result<Vec<f64>>>() {
        Ok(p) => p,
        Err(e) => {
            report.check(false, || format!("ping-pong failed: {e}"));
            return report;
        }
    };
    report.check(!rtt.is_empty(), || "dapd: no decision completed".into());
    if rtt.is_empty() {
        return report;
    }
    let measured = median(&pingpongs);
    let scale = |wall: f64| rescale(wall, measured, PINGPONG_NOMINAL_S);
    report.metric("ops_per_s", 1.0 / scale(1.0 / median(&slices)), "1/s");
    report.metric("op_p50_ms", scale(rtt.percentile(50.0) / 1e9) * 1e3, "ms");
    report.metric("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0), "MB");
    report.metric("setup_s", scale(median(&setup_s)), "s");
    report
}

/// The `q`-quantile of a power-of-two histogram (bucket 0 holds 0..=1,
/// bucket `b` holds `(2^(b-1), 2^b]`), interpolated linearly inside its
/// bucket.
pub fn hist_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    for (b, &c) in counts.iter().enumerate() {
        let next = seen + c as f64;
        if c > 0 && next >= target {
            let hi = 2f64.powi(b as i32);
            let lo = if b == 0 { 0.0 } else { hi / 2.0 };
            return lo + (hi - lo) * ((target - seen) / c as f64).clamp(0.0, 1.0);
        }
        seen = next;
    }
    2f64.powi(counts.len() as i32 - 1)
}

/// In-process engine cost on the workload's request stream, no socket:
/// route + report for every request, then route alone and report alone
/// on fresh engines.
struct EngineCosts {
    route_ns: f64,
    report_ns: f64,
    resolves_per_kdecision: f64,
    hbm_fraction: f64,
}

fn engine_costs(seed: u64) -> Result<EngineCosts, String> {
    const N: usize = 200_000;
    let reqs: Vec<Request> = requests(seed, 0).take(N).collect();
    let fresh = || Engine::new(EngineConfig::hbm_ddr4_pair()).map_err(|e| e.to_string());

    let mut engine = fresh()?;
    let mut service = Service::new();
    let mut reports = Vec::with_capacity(N);
    for r in &reqs {
        let d = engine.route(r.tenant, r.bytes).map_err(|e| e.to_string())?;
        let nanos = service.serve(d.backend, r.bytes);
        engine
            .report_served(d.backend as u8, r.bytes, nanos)
            .map_err(|e| e.to_string())?;
        reports.push((d.backend as u8, r.bytes, nanos));
    }
    let resolves = engine.counter("dapd_resolves_total").value();
    let routed: Vec<u64> = engine
        .config()
        .backends
        .iter()
        .map(|b| {
            engine
                .counter(&labeled("dapd_routed_bytes_total", &[("backend", &b.name)]))
                .value()
        })
        .collect();

    let mut engine = fresh()?;
    let t0 = Instant::now();
    for r in &reqs {
        black_box(engine.route(r.tenant, r.bytes).map_err(|e| e.to_string())?);
    }
    let route_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    let mut engine = fresh()?;
    let t0 = Instant::now();
    for &(source, bytes, nanos) in &reports {
        engine
            .report_served(source, bytes, nanos)
            .map_err(|e| e.to_string())?;
    }
    let report_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    Ok(EngineCosts {
        route_ns,
        report_ns,
        resolves_per_kdecision: resolves as f64 * 1e3 / N as f64,
        hbm_fraction: routed[0] as f64 / routed.iter().sum::<u64>().max(1) as f64,
    })
}

/// Wire codec cost per frame on the workload's own frame mix: per
/// decision a `GetRoute`, `Route`, `ReportServed` and `Ack`, and per
/// [`STATS_EVERY`] decisions a `SnapshotStats` and its `Stats` reply.
struct WireCosts {
    encode_ns: f64,
    decode_ns: f64,
    decision_bytes: f64,
    stats_bytes: f64,
}

fn wire_costs(seed: u64, stats_text: String) -> Result<WireCosts, String> {
    const REPEATS: usize = 20;
    let mut stream = requests(seed, 0);
    let mut service = Service::new();
    let mut msgs = Vec::new();
    for i in 0..STATS_EVERY as usize {
        let r = stream.next_request();
        let backend = i % 2;
        msgs.push(Message::GetRoute {
            tenant: r.tenant,
            bytes: r.bytes,
        });
        msgs.push(Message::Route {
            source: backend as u8,
            window: (i / 64) as u32,
        });
        msgs.push(Message::ReportServed {
            source: backend as u8,
            bytes: r.bytes,
            latency_ns: service.serve(backend, r.bytes),
        });
        msgs.push(Message::Ack);
    }
    let decision_bytes =
        msgs.iter().map(|m| encode_frame(m).len()).sum::<usize>() as f64 / STATS_EVERY as f64;
    let stats = [Message::SnapshotStats, Message::Stats(stats_text)];
    let stats_bytes = stats.iter().map(|m| encode_frame(m).len()).sum::<usize>() as f64;
    msgs.extend(stats);

    let frames = (msgs.len() * REPEATS) as f64;
    let t0 = Instant::now();
    for _ in 0..REPEATS {
        for m in &msgs {
            black_box(encode_frame(black_box(m)));
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / frames;

    let encoded: Vec<Vec<u8>> = msgs.iter().map(encode_frame).collect();
    let t0 = Instant::now();
    for _ in 0..REPEATS {
        for buf in &encoded {
            black_box(decode_frame(black_box(buf)).map_err(|e| e.to_string())?);
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / frames;
    for (m, buf) in msgs.iter().zip(&encoded) {
        let (back, used) = decode_frame(buf).map_err(|e| e.to_string())?;
        if &back != m || used != buf.len() {
            return Err(format!("wire: {m:?} did not round-trip"));
        }
    }
    Ok(WireCosts {
        encode_ns,
        decode_ns,
        decision_bytes,
        stats_bytes,
    })
}

/// The traced pass: one set-up, then an untraced window (the daemon's
/// own decision histogram and `/proc` readings come from it), a traced
/// window timing each client call, and a second untraced window; the
/// two untraced windows bracket the traced one for the overhead. Then
/// the engine and the wire codec are measured in process on the same
/// request stream.
pub fn traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let window_s = (seconds / 6.0).max(1.0);
    match affinity::allowed_cpus().and_then(|cpus| pingpong(&cpus[..cpus.len().min(CONNS)])) {
        Ok(p) => report.metric("host.pingpong_us", p * 1e6, "us"),
        Err(e) => report.check(false, || format!("ping-pong failed: {e}")),
    }
    let Some((mut inst, _)) = set_up(0, seed, &mut report) else {
        return report;
    };
    let hist = |inst: &Instance| {
        inst.handle
            .with_engine(|e| e.histogram("dapd_decision_ns").bucket_counts())
    };
    let before = hist(&inst);
    let plain = inst.window(window_s, false);
    let after = hist(&inst);
    let decide: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    let (timed, root) = tracer.span("dapd-rpc.traced_window", None, |_, _| {
        inst.window(window_s, true)
    });
    let plain_again = inst.window(window_s, false);
    let stats_text = inst.handle.stats_text();
    let reconnects: u64 = inst.conns.iter().map(|c| c.client.reconnects()).sum();
    let stats_calls = timed.samples[0].stats.len() as f64;
    let counts = inst.finish(&mut report);

    for (c, s) in timed.samples.iter().enumerate() {
        let n = |h: &LatencyHist| h.len() as u64;
        let conn = tracer.aggregate(
            root,
            format!("dapd::client.conn{c}"),
            tracer.dur_ns(root),
            n(&s.rtt),
        );
        tracer.aggregate(conn, "get_route", s.route.sum_ns(), n(&s.route));
        tracer.aggregate(conn, "report_served", s.report.sum_ns(), n(&s.report));
        tracer.aggregate(conn, "snapshot_stats", s.stats.sum_ns(), n(&s.stats));
    }

    let rtt = plain.merged(|s| &s.rtt);
    report.check(!rtt.is_empty() && timed.decisions() > 0, || {
        "dapd: a traced-pass window completed no decision".into()
    });
    if rtt.is_empty() || timed.decisions() == 0 {
        return report;
    }
    let engine = match engine_costs(seed) {
        Ok(e) => e,
        Err(e) => {
            report.check(false, || format!("dapd engine: {e}"));
            return report;
        }
    };
    let wire = match wire_costs(seed, stats_text) {
        Ok(w) => w,
        Err(e) => {
            report.check(false, || format!("dapd wire: {e}"));
            return report;
        }
    };

    let decisions = plain.decisions() as f64;
    let us = |h: &LatencyHist, p: f64| {
        if h.is_empty() {
            0.0
        } else {
            h.percentile(p) / 1e3
        }
    };
    let rtt_p50_us = us(&rtt, 50.0);
    let decide_p50_ns = hist_quantile(&decide, 0.5);
    let rtt_tail = rtt.tail().expect("a window has at least 20 decisions");
    let route = timed.merged(|s| &s.route);
    let report_calls = timed.merged(|s| &s.report);
    let stats = timed.merged(|s| &s.stats);
    let stats_per_decision = stats_calls / timed.decisions() as f64;
    let (os0, os1) = plain.os;

    report.metric("decisions_per_s", plain.decisions_per_s(), "1/s");
    report.metric("rtt_p50_us", rtt_p50_us, "us");
    report.metric("rtt_p99_us", us(&rtt, 99.0), "us");
    report.metric("client.route_p50_us", us(&route, 50.0), "us");
    report.metric("client.route_p99_us", us(&route, 99.0), "us");
    report.metric("client.report_p50_us", us(&report_calls, 50.0), "us");
    report.metric("client.report_p99_us", us(&report_calls, 99.0), "us");
    report.metric("client.stats_p50_us", us(&stats, 50.0), "us");
    report.metric("client.rtt_tail_us", rtt_tail.value / 1e3, "us");
    report.metric("client.rtt_tail_pct", rtt_tail.pct, "percentile");
    report.metric("client.rtt_samples", rtt_tail.n as f64, "count");
    report.metric("client.reconnects", reconnects as f64, "count");
    report.metric("server.decide_p50_ns", decide_p50_ns, "ns");
    report.metric("server.decide_p99_ns", hist_quantile(&decide, 0.99), "ns");
    report.metric("server.lock_wait_ns", decide_p50_ns - engine.route_ns, "ns");
    report.metric("server.rejects", counts.rejects as f64, "count");
    report.metric("server.shed", counts.shed as f64, "count");
    report.metric("engine.route_ns", engine.route_ns, "ns");
    report.metric("engine.report_ns", engine.report_ns, "ns");
    report.metric(
        "engine.resolves_per_kdecision",
        engine.resolves_per_kdecision,
        "count",
    );
    report.metric("engine.hbm_fraction", engine.hbm_fraction, "ratio");
    report.metric("wire.encode_ns", wire.encode_ns, "ns");
    report.metric("wire.decode_ns", wire.decode_ns, "ns");
    report.metric(
        "wire.frames_per_decision",
        4.0 + 2.0 * stats_per_decision,
        "count",
    );
    report.metric(
        "wire.bytes_per_decision",
        wire.decision_bytes + wire.stats_bytes * stats_per_decision,
        "B",
    );
    report.metric(
        "os.cpu_us_per_decision",
        (os1.cpu_s - os0.cpu_s) * 1e6 / decisions,
        "us",
    );
    report.metric(
        "os.ctx_switches_per_decision",
        os1.ctx.saturating_sub(os0.ctx) as f64 / decisions,
        "count",
    );
    report.metric(
        "transport.residual_us",
        rtt_p50_us - decide_p50_ns / 1e3 - 4.0 * (wire.encode_ns + wire.decode_ns) / 1e3,
        "us",
    );
    report.metric(
        "tracing.dapd-rpc.overhead_pct",
        ((plain.decisions_per_s() + plain_again.decisions_per_s()) / 2.0 / timed.decisions_per_s()
            - 1.0)
            * 100.0,
        "%",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        // 100 samples in (512, 1024]: the median sits mid-bucket.
        let mut counts = vec![0u64; 64];
        counts[10] = 100;
        assert_eq!(hist_quantile(&counts, 0.5), 768.0);
        assert_eq!(hist_quantile(&counts, 1.0), 1024.0);
        counts[11] = 100;
        assert_eq!(hist_quantile(&counts, 0.5), 1024.0);
        assert_eq!(hist_quantile(&counts, 0.75), 1536.0);
        assert_eq!(hist_quantile(&[0; 64], 0.5), 0.0);
    }

    #[test]
    fn service_carries_fractional_nanoseconds() {
        let mut s = Service::new();
        // 64 B at 102.4 GB/s is 0.625 ns: reported as 0, 1, 0, 1, …
        let total: u32 = (0..1000).map(|_| s.serve(0, 64)).sum();
        assert_eq!(total, 625);
    }

    #[test]
    fn optimum_is_the_papers_split() {
        assert!((hbm_optimum() - 0.727).abs() < 1e-3);
    }
}
