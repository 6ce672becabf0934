//! Seeded chaos soak for the hardened daemon.
//!
//! A deterministic in-process proxy sits between `Client` and `Server`
//! on Unix sockets and injects faults from a seed: mid-stream byte
//! corruption, partial writes (split + flush + delay), connection
//! drops, and stalls longer than both ends' deadlines. Fault positions
//! are *absolute byte offsets* per connection per direction, so OS read
//! chunking cannot change which bytes are faulted — the same seed
//! replays the same abuse.
//!
//! The soak runs at two seeds, the pinned [`SEED`] and [`COLLAPSE_SEED`],
//! and drives a loadgen-shaped workload through the proxy,
//! tolerating per-call failures (that is the client's contract under
//! chaos: typed errors, never hangs or panics), then asserts the things
//! that must survive *any* amount of transport abuse:
//!
//! * the daemon never dies — it sheds over-cap bursts with
//!   `Reject(Overloaded)` and keeps serving;
//! * a clean client afterwards converges to the measured Eq. 4 optimum
//!   (f_hbm = 102.4 / 140.8 ≈ 0.727), i.e. chaos never poisons the
//!   bandwidth estimator permanently;
//! * the `TenantLedger` conservation invariant holds exactly;
//! * every fault class actually fired (the harness isn't vacuous), and
//!   the server counted deadline/garbage closes in its metrics;
//! * the proxy's flight ring, dumped post-soak, names every injected
//!   fault class and its drop accounting is *exact* (`dropped` =
//!   `total - capacity` once the ring wraps), and the daemon's own
//!   flight ring recorded both `resolve` and `reject` events.

use dap_telemetry::flight::{parse_flight_dump, FlightKind, FlightRecorder};
use dapd::{Client, Engine, EngineConfig, Message, RejectCode, RetryPolicy, Server, ServerConfig};
use std::io::{BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use workloads::rng::SplitMix64;
use workloads::{spec, RequestStream};

const SEED: u64 = 0x000C_4A05_5EED;
/// A second soak seed. Here one corrupted but decodable `ReportServed`
/// measures ddr4 at nearly zero; without the engine's probe floor the
/// router would never send it traffic again.
const COLLAPSE_SEED: u64 = 4;
/// The soaks time stalls against deadlines, so they run one at a time.
static SOAK: Mutex<()> = Mutex::new(());
/// Server-side read/write deadline: short so the soak runs fast.
const SERVER_DEADLINE: Duration = Duration::from_millis(300);
/// Client per-operation socket timeout; below the stall length so a
/// stall surfaces as `TimedOut` at the client.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_millis(250);
/// How long a stall fault pauses the pump — past both deadlines.
const STALL: Duration = Duration::from_millis(400);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// XOR one byte in flight.
    Corrupt,
    /// Write up to the offset, flush, pause briefly: a partial write.
    Split,
    /// Stop forwarding and close both sides.
    Drop,
    /// Pause the pump past every deadline, then continue.
    Stall,
}

#[derive(Debug, Clone, Copy)]
struct Fault {
    /// Absolute byte offset in this direction's stream.
    offset: u64,
    kind: FaultKind,
}

#[derive(Default)]
struct FaultCounters {
    corruptions: AtomicU64,
    splits: AtomicU64,
    drops: AtomicU64,
    stalls: AtomicU64,
}

impl FaultCounters {
    fn total(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
            + self.splits.load(Ordering::Relaxed)
            + self.drops.load(Ordering::Relaxed)
            + self.stalls.load(Ordering::Relaxed)
    }
}

/// The per-connection fault plans, derived purely from (seed, index):
/// client→server gets two partial writes, then a killing fault cycling
/// corrupt/drop/stall, then an unconditional drop as backstop (a
/// corrupted byte sometimes decodes as a *valid* different message, so
/// corruption alone does not guarantee the connection dies — and every
/// connection must die for the next plan in the cycle to run).
/// Every fourth connection also corrupts one server→client reply byte.
fn plans(index: u64, seed: u64) -> (Vec<Fault>, Vec<Fault>) {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let split_a = 40 + rng.below(160);
    let split_b = split_a + 60 + rng.below(200);
    let kill_at = split_b + 300 + rng.below(400);
    let kill = match index % 3 {
        0 => FaultKind::Corrupt,
        1 => FaultKind::Drop,
        _ => FaultKind::Stall,
    };
    let c2s = vec![
        Fault {
            offset: split_a,
            kind: FaultKind::Split,
        },
        Fault {
            offset: split_b,
            kind: FaultKind::Split,
        },
        Fault {
            offset: kill_at,
            kind: kill,
        },
        Fault {
            offset: kill_at + 800,
            kind: FaultKind::Drop,
        },
    ];
    let s2c = if index % 4 == 3 {
        vec![Fault {
            offset: 60 + rng.below(600),
            kind: FaultKind::Corrupt,
        }]
    } else {
        Vec::new()
    };
    (c2s, s2c)
}

/// Forwards bytes `src` → `dst`, applying `faults` at their absolute
/// offsets. Returns when either side closes or a Drop fault fires;
/// both sides are shut down on exit so the paired pump unblocks too.
/// Ring capacity for the proxy's flight recorder: small enough that a
/// soak wraps it many times over, so the drop-accounting assertion is
/// exercised for real.
const PROXY_FLIGHT_CAPACITY: usize = 128;

fn pump(
    mut src: UnixStream,
    mut dst: UnixStream,
    faults: Vec<Fault>,
    counters: Arc<FaultCounters>,
    flight: Arc<FlightRecorder>,
) {
    let mut pos: u64 = 0;
    let mut next = 0usize;
    let mut buf = [0u8; 256];
    'forward: loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = buf[..n].to_vec();
        let mut written = 0usize;
        while next < faults.len() && faults[next].offset < pos + n as u64 {
            let at = (faults[next].offset - pos) as usize;
            let fault_vals = [faults[next].offset as i64, 0, 0, 0, 0, 0];
            match faults[next].kind {
                FaultKind::Corrupt => {
                    chunk[at] ^= 0x20;
                    counters.corruptions.fetch_add(1, Ordering::Relaxed);
                    flight.record(FlightKind::Fault, "corrupt", fault_vals);
                }
                FaultKind::Split => {
                    if dst.write_all(&chunk[written..=at]).is_err() {
                        break 'forward;
                    }
                    let _ = dst.flush();
                    thread::sleep(Duration::from_millis(1));
                    written = at + 1;
                    counters.splits.fetch_add(1, Ordering::Relaxed);
                    flight.record(FlightKind::Fault, "split", fault_vals);
                }
                FaultKind::Stall => {
                    if dst.write_all(&chunk[written..at]).is_err() {
                        break 'forward;
                    }
                    let _ = dst.flush();
                    written = at;
                    counters.stalls.fetch_add(1, Ordering::Relaxed);
                    flight.record(FlightKind::Fault, "stall", fault_vals);
                    thread::sleep(STALL);
                }
                FaultKind::Drop => {
                    let _ = dst.write_all(&chunk[written..at]);
                    counters.drops.fetch_add(1, Ordering::Relaxed);
                    flight.record(FlightKind::Fault, "drop", fault_vals);
                    break 'forward;
                }
            }
            next += 1;
        }
        if written < chunk.len() && dst.write_all(&chunk[written..]).is_err() {
            break;
        }
        pos += n as u64;
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// A chaos proxy: accepts on `listen`, forwards to `upstream`, faulting
/// each connection per its seeded plan.
struct Proxy {
    stop: Arc<AtomicBool>,
    acceptor: thread::JoinHandle<()>,
    counters: Arc<FaultCounters>,
    flight: Arc<FlightRecorder>,
    path: PathBuf,
}

impl Proxy {
    fn spawn(listen: &Path, upstream: &Path, seed: u64) -> Proxy {
        let listener = UnixListener::bind(listen).expect("proxy bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(FaultCounters::default());
        let flight = Arc::new(FlightRecorder::new(PROXY_FLIGHT_CAPACITY));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let flight = Arc::clone(&flight);
            let upstream = upstream.to_path_buf();
            thread::spawn(move || {
                let mut index: u64 = 0;
                let mut pumps = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let server = match UnixStream::connect(&upstream) {
                                Ok(s) => s,
                                Err(_) => continue, // upstream gone: drop the client
                            };
                            let (c2s, s2c) = plans(index, seed);
                            index += 1;
                            let (ca, cb) = (client.try_clone().unwrap(), client);
                            let (sa, sb) = (server.try_clone().unwrap(), server);
                            let up = (Arc::clone(&counters), Arc::clone(&flight));
                            let down = (Arc::clone(&counters), Arc::clone(&flight));
                            pumps.push(thread::spawn(move || pump(ca, sa, c2s, up.0, up.1)));
                            pumps.push(thread::spawn(move || pump(sb, cb, s2c, down.0, down.1)));
                            pumps.retain(|p| !p.is_finished());
                        }
                        Err(_) => thread::sleep(Duration::from_millis(2)),
                    }
                }
                // Deadlines on both real endpoints bound every pump.
                for p in pumps {
                    let _ = p.join();
                }
            })
        };
        Proxy {
            stop,
            acceptor,
            counters,
            flight,
            path: listen.to_path_buf(),
        }
    }

    fn shutdown(self) -> (Arc<FaultCounters>, Arc<FlightRecorder>) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
        let _ = std::fs::remove_file(&self.path);
        (self.counters, self.flight)
    }
}

/// Loadgen-shaped driver: route, then report synthetic service at
/// `rates`, tolerating per-call errors (`chaos` mode) or demanding
/// success (`clean` mode). Returns per-backend routed bytes and the
/// number of successfully acked reports.
fn drive(
    client: &mut Client,
    stream: &mut RequestStream,
    carry_ns: &mut [f64],
    rates: &[f64],
    requests: u32,
    tolerate_errors: bool,
) -> (Vec<u64>, u64) {
    let mut routed = vec![0u64; rates.len()];
    let mut acked = 0u64;
    for _ in 0..requests {
        let r = stream.next_request();
        let d = match client.get_route(r.tenant, r.bytes) {
            Ok(d) => d,
            Err(e) if tolerate_errors => {
                // Typed failure, never a hang: that is the contract.
                let _ = e;
                continue;
            }
            Err(e) => panic!("clean-mode route failed: {e}"),
        };
        if d.backend >= rates.len() {
            // A corrupted reply smuggled in an out-of-range backend;
            // report_served would be rejected, so just skip.
            assert!(tolerate_errors, "corrupt route outside chaos");
            continue;
        }
        routed[d.backend] += u64::from(r.bytes);
        carry_ns[d.backend] += f64::from(r.bytes) / rates[d.backend];
        let nanos = carry_ns[d.backend] as u32;
        carry_ns[d.backend] -= f64::from(nanos);
        match client.report_served(d.backend as u8, r.bytes, nanos) {
            Ok(()) => acked += 1,
            Err(e) if tolerate_errors => {
                let _ = e;
            }
            Err(e) => panic!("clean-mode report failed: {e}"),
        }
    }
    (routed, acked)
}

fn counter_value(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .map(|v| v.trim().parse().unwrap())
        .unwrap_or(0)
}

#[test]
fn seeded_chaos_soak_converges_and_conserves() {
    soak(SEED);
}

#[test]
fn seeded_chaos_soak_converges_and_conserves_at_seed_4() {
    soak(COLLAPSE_SEED);
}

fn soak(seed: u64) {
    let _serial = SOAK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let dir = std::env::temp_dir();
    let tag = format!("{}-{seed:x}", std::process::id());
    let server_path = dir.join(format!("dapd-chaos-srv-{tag}.sock"));
    let proxy_path = dir.join(format!("dapd-chaos-proxy-{tag}.sock"));
    let _ = std::fs::remove_file(&server_path);
    let _ = std::fs::remove_file(&proxy_path);

    let config = EngineConfig::hbm_ddr4_pair();
    let resolve_every = config.resolve_every;
    let nominal: Vec<f64> = config.backends.iter().map(|b| b.nominal_gbps).collect();
    let engine = Engine::new(config).expect("stock config");
    let handle = Server::bind_unix(&server_path, engine)
        .expect("bind")
        .with_config(ServerConfig {
            read_deadline: SERVER_DEADLINE,
            write_deadline: SERVER_DEADLINE,
            max_connections: 8,
            ..ServerConfig::default()
        })
        .expect("config")
        .spawn()
        .expect("spawn");
    let proxy = Proxy::spawn(&proxy_path, &server_path, seed);

    // Phase 1 — chaos. Drive a loadgen-shaped workload through the
    // faulting proxy. Per-call errors are expected; hangs and panics are
    // not, and the daemon must survive.
    let mut chaos_client = Client::connect_unix_with(
        &proxy_path,
        RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            deadline: Duration::from_secs(10),
            io_timeout: Some(CLIENT_IO_TIMEOUT),
            seed: seed ^ 1,
        },
    )
    .expect("connect through proxy");
    let mut stream = RequestStream::from_spec(spec("mcf").expect("mcf exists"), 2, seed ^ 2);
    let mut carry_ns = vec![0.0f64; nominal.len()];
    let (_, chaos_acked) = drive(
        &mut chaos_client,
        &mut stream,
        &mut carry_ns,
        &nominal,
        4_000,
        true,
    );
    let reconnects = chaos_client.reconnects();
    drop(chaos_client);
    let (counters, proxy_flight) = proxy.shutdown();

    // The harness must not be vacuous: every fault class fired, many
    // times, and the client lived through them by reconnecting.
    assert!(
        counters.total() >= 100,
        "expected hundreds of faults, got {} (corrupt {} split {} drop {} stall {})",
        counters.total(),
        counters.corruptions.load(Ordering::Relaxed),
        counters.splits.load(Ordering::Relaxed),
        counters.drops.load(Ordering::Relaxed),
        counters.stalls.load(Ordering::Relaxed),
    );
    for (name, c) in [
        ("corruptions", &counters.corruptions),
        ("splits", &counters.splits),
        ("drops", &counters.drops),
        ("stalls", &counters.stalls),
    ] {
        assert!(c.load(Ordering::Relaxed) > 0, "no {name} injected");
    }
    assert!(reconnects > 0, "chaos without a single reconnect");
    assert!(
        chaos_acked > 1_000,
        "only {chaos_acked} acked reports under chaos"
    );

    // The proxy's flight ring is the black box for the soak: its dump
    // must name every injected fault class, and — because the ring is
    // far smaller than the fault count — its drop accounting must be
    // exact: dropped = total - capacity once wrapped, and the dump's
    // meta line must agree with the live recorder.
    let dump = proxy_flight.dump_jsonl("chaos-proxy");
    let (dumped_dropped, events) = parse_flight_dump(&dump).expect("valid flight dump");
    let total = proxy_flight.total();
    assert!(
        total > PROXY_FLIGHT_CAPACITY as u64,
        "soak too small to wrap the {PROXY_FLIGHT_CAPACITY}-slot ring (total {total})"
    );
    assert_eq!(events.len(), PROXY_FLIGHT_CAPACITY, "ring not full");
    assert_eq!(
        dumped_dropped,
        total - PROXY_FLIGHT_CAPACITY as u64,
        "inexact drop accounting"
    );
    assert_eq!(dumped_dropped, proxy_flight.dropped(), "meta/live disagree");
    for class in ["corrupt", "split", "drop", "stall"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cause").and_then(|c| c.as_str()) == Some(class)),
            "fault class {class:?} missing from flight dump:\n{dump}"
        );
    }
    // Events must be oldest-first by sequence number, with no gaps.
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e.get("seq").and_then(|s| s.as_u64()).expect("seq"))
        .collect();
    for w in seqs.windows(2) {
        assert_eq!(w[1], w[0] + 1, "flight dump not contiguous: {seqs:?}");
    }
    assert_eq!(seqs[0], dumped_dropped, "oldest surviving seq != dropped");

    // Phase 2 — overload burst straight at the daemon: fill the
    // connection cap with idle peers, then verify extras are shed with
    // a typed Overloaded reject and the daemon stays up.
    let pins: Vec<UnixStream> = (0..8)
        .map(|_| UnixStream::connect(&server_path).expect("pin"))
        .collect();
    thread::sleep(Duration::from_millis(100)); // let workers spawn
    for _ in 0..3 {
        let extra = UnixStream::connect(&server_path).expect("extra");
        extra
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        match dapd::wire::read_frame(&mut BufReader::new(extra)) {
            Ok(Some(Message::Reject(RejectCode::Overloaded))) => {}
            other => panic!("expected Overloaded shed, got {other:?}"),
        }
    }
    drop(pins);

    // Phase 3 — clean convergence. A direct, fault-free client must pull
    // the router back to the measured Eq. 4 optimum: chaos may not leave
    // the estimator or the ledger in a wedged state.
    let mut clean = Client::connect_unix(&server_path).expect("direct connect");
    drive(
        &mut clean,
        &mut stream,
        &mut carry_ns,
        &nominal,
        resolve_every * 2,
        false,
    );
    let (routed, _) = drive(
        &mut clean,
        &mut stream,
        &mut carry_ns,
        &nominal,
        resolve_every * 40,
        false,
    );
    let f_hbm = routed[0] as f64 / routed.iter().sum::<u64>() as f64;
    let eq4 = 102.4 / (102.4 + 38.4);
    assert!(
        (f_hbm - eq4).abs() < 0.02,
        "post-chaos hbm fraction {f_hbm}, Eq. 4 wants {eq4}"
    );

    // The server counted its side of the abuse.
    let stats = clean.snapshot_stats().expect("stats");
    assert!(
        counter_value(&stats, "dapd_shed_total") >= 3,
        "shed burst not counted: {stats}"
    );
    assert!(
        counter_value(&stats, "dapd_rejected_total{cause=\"overloaded\"}") >= 3,
        "overloaded rejects not counted"
    );
    assert!(
        counter_value(&stats, "dapd_rejected_total{cause=\"deadline\"}") >= 1,
        "stalls never tripped the server deadline"
    );
    assert!(
        counter_value(&stats, "dapd_rejected_total{cause=\"garbage\"}") >= 1,
        "corruption never registered as garbage"
    );

    // Exact credit conservation survived every fault, and the daemon's
    // own flight ring holds both sides of the story: window re-solves
    // and the rejects the abuse provoked.
    handle.with_engine(|e| {
        assert!(e.ledger().conserves(), "ledger conservation violated");
        assert_eq!(e.ledger().overdraft(), 0, "ledger overdraft");
        let kinds: Vec<FlightKind> = e.flight().snapshot().iter().map(|ev| ev.kind).collect();
        assert!(
            kinds.contains(&FlightKind::Resolve),
            "no resolve events in daemon flight ring"
        );
        assert!(
            kinds.contains(&FlightKind::Reject) || kinds.contains(&FlightKind::Shed),
            "no reject/shed events in daemon flight ring: {kinds:?}"
        );
    });

    clean.shutdown().expect("clean shutdown");
    handle.join().expect("daemon exits cleanly");
    assert!(!server_path.exists(), "socket cleaned up");
}

/// Same seed, same faults: two runs of the plan generator agree, so a
/// soak failure reproduces exactly.
#[test]
fn fault_plans_are_deterministic() {
    for index in 0..32 {
        let (a_c2s, a_s2c) = plans(index, SEED);
        let (b_c2s, b_s2c) = plans(index, SEED);
        assert_eq!(a_c2s.len(), b_c2s.len());
        for (x, y) in a_c2s.iter().zip(&b_c2s) {
            assert_eq!(x.offset, y.offset);
            assert_eq!(x.kind, y.kind);
        }
        assert_eq!(a_s2c.len(), b_s2c.len());
        for (x, y) in a_s2c.iter().zip(&b_s2c) {
            assert_eq!(x.offset, y.offset);
            assert_eq!(x.kind, y.kind);
        }
        // Offsets strictly increase, so the pump applies them in order.
        for w in a_c2s.windows(2) {
            assert!(w[0].offset < w[1].offset);
        }
    }
}
