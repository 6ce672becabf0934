//! Crash-safe flight recorder: a bounded ring of decision-relevant events.
//!
//! Each component keeps a [`FlightRecorder`] holding the last N
//! structured events — window re-solves with their measured-bandwidth
//! inputs and fraction outputs, rejects with cause, injected faults,
//! lease claims/steals — so that *why the controller just did that* is
//! answerable after a crash, not only while a scrape endpoint is up.
//!
//! Recording is allocation-free: the ring is preallocated at
//! construction and an event is a fixed-size value ([`FlightEvent`]:
//! sequence number, kind, a `&'static str` cause, and six `i64`
//! payload slots), so the hot path is a mutex acquire plus a copy.
//! When the ring is full the oldest event is overwritten and the drop
//! is accounted exactly: `total() - len()` events have been lost, and
//! the dump header records that number.
//!
//! Dumps are JSONL via the in-tree [`crate::json`] writer: a meta line
//! (`{"schema":"dap-flight","version":1,...}`) followed by one event
//! object per line, oldest first. Dumps happen on panic (via
//! [`install_panic_dump`]), on `SIGUSR1` (wired in `dapctl serve`), on
//! a reject-rate spike (wired in `dapd::Server`), and on demand via
//! `GET /debug/flight`.
//!
//! Under the `telemetry-off` feature [`FlightRecorder::record`] is a
//! no-op and dumps contain only the meta line, so the recorder
//! compiles away from figure runs with byte-identical output —
//! the same contract as the profiler.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::json::{obj, Json};

/// Default ring capacity: enough to cover several resolve windows of
/// context around a crash without measurable memory cost.
pub const FLIGHT_CAPACITY_DEFAULT: usize = 256;

/// Schema tag on the first line of every flight dump.
pub const FLIGHT_SCHEMA: &str = "dap-flight";

/// What kind of decision-relevant event happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A window re-solve: inputs (measured bandwidths) and outputs
    /// (weights, budget, k).
    Resolve,
    /// A request rejected at a fault boundary; `cause` names the reject
    /// class.
    Reject,
    /// A connection shed at the admission boundary.
    Shed,
    /// An injected or observed fault crossing (chaos harness, I/O
    /// errors); `cause` names the fault class.
    Fault,
    /// A lease claim in the sharded explorer.
    LeaseClaim,
    /// A lease stolen from an expired holder.
    LeaseSteal,
    /// A grid cell quarantined after repeated failures.
    Quarantine,
    /// A worker process restarted by the fleet supervisor.
    WorkerRestart,
    /// A free-form operator mark.
    Mark,
}

impl FlightKind {
    /// Stable lowercase name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Resolve => "resolve",
            FlightKind::Reject => "reject",
            FlightKind::Shed => "shed",
            FlightKind::Fault => "fault",
            FlightKind::LeaseClaim => "lease_claim",
            FlightKind::LeaseSteal => "lease_steal",
            FlightKind::Quarantine => "quarantine",
            FlightKind::WorkerRestart => "worker_restart",
            FlightKind::Mark => "mark",
        }
    }
}

/// Number of `i64` payload slots per event.
pub const FLIGHT_VALS: usize = 6;

/// One recorded event. `vals` is a fixed payload whose meaning depends
/// on `kind`; recorders document their layout at the record site (e.g.
/// a `Resolve` from `dapd` stores window, per-source effective MB/s,
/// the first source's weight in ppm, the window budget, and k·1000).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic per-recorder sequence number, starting at 0.
    pub seq: u64,
    /// Event class.
    pub kind: FlightKind,
    /// Static cause/source tag (`""` when the kind says it all).
    pub cause: &'static str,
    /// Fixed payload slots; unused slots are 0.
    pub vals: [i64; FLIGHT_VALS],
}

struct Ring {
    events: Vec<FlightEvent>,
    head: usize,
    total: u64,
}

/// Bounded, allocation-free ring of [`FlightEvent`]s. Cloning the
/// containing [`Arc`] shares the ring; recording from many threads is
/// serialized by a mutex (the critical section is a fixed-size copy).
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
}

fn lock_ring(ring: &Mutex<Ring>) -> std::sync::MutexGuard<'_, Ring> {
    ring.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = lock_ring(&self.ring);
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("total", &ring.total)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` events
    /// (preallocated; `capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Mutex::new(Ring {
                events: Vec::with_capacity(capacity),
                head: 0,
                total: 0,
            }),
            capacity,
        }
    }

    /// Creates a recorder with [`FLIGHT_CAPACITY_DEFAULT`] capacity.
    pub fn with_default_capacity() -> Arc<Self> {
        Arc::new(Self::new(FLIGHT_CAPACITY_DEFAULT))
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event. No-op (and allocation-free either way) under
    /// `telemetry-off`.
    pub fn record(&self, kind: FlightKind, cause: &'static str, vals: [i64; FLIGHT_VALS]) {
        #[cfg(not(feature = "telemetry-off"))]
        {
            let mut ring = lock_ring(&self.ring);
            let seq = ring.total;
            ring.total += 1;
            let event = FlightEvent {
                seq,
                kind,
                cause,
                vals,
            };
            if ring.events.len() < self.capacity {
                ring.events.push(event);
            } else {
                let head = ring.head;
                ring.events[head] = event;
                ring.head = (head + 1) % self.capacity;
            }
        }
        #[cfg(feature = "telemetry-off")]
        let _ = (kind, cause, vals);
    }

    /// Events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        lock_ring(&self.ring).total
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        lock_ring(&self.ring).events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events lost to ring overwrite: `total() - len()`, exactly.
    pub fn dropped(&self) -> u64 {
        let ring = lock_ring(&self.ring);
        ring.total - ring.events.len() as u64
    }

    /// Retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let ring = lock_ring(&self.ring);
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(&ring.events[ring.head..]);
        out.extend_from_slice(&ring.events[..ring.head]);
        out
    }

    /// Renders the dump: a meta line then one JSON object per event,
    /// oldest first. `component` names the recorder in the meta line.
    pub fn dump_jsonl(&self, component: &str) -> String {
        let events = self.snapshot();
        let total = self.total();
        let dropped = total - events.len() as u64;
        let mut out = obj([
            ("schema", Json::Str(FLIGHT_SCHEMA.to_string())),
            ("version", Json::Num(1.0)),
            ("component", Json::Str(component.to_string())),
            ("capacity", Json::Num(self.capacity as f64)),
            ("total", Json::Num(total as f64)),
            ("dropped", Json::Num(dropped as f64)),
        ])
        .to_string_compact();
        out.push('\n');
        for event in &events {
            let vals = event.vals.iter().map(|&v| Json::Num(v as f64)).collect();
            out.push_str(
                &obj([
                    ("seq", Json::Num(event.seq as f64)),
                    ("kind", Json::Str(event.kind.as_str().to_string())),
                    ("cause", Json::Str(event.cause.to_string())),
                    ("vals", Json::Arr(vals)),
                ])
                .to_string_compact(),
            );
            out.push('\n');
        }
        out
    }

    /// Writes [`dump_jsonl`](Self::dump_jsonl) to `path` atomically
    /// (tmp + rename), creating parent directories.
    pub fn dump_to(&self, path: &Path, component: &str) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(self.dump_jsonl(component).as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// Validates a flight dump: the meta line carries the
/// [`FLIGHT_SCHEMA`] tag and every following line parses as a JSON
/// event object. Returns `(dropped, events)` on success.
pub fn parse_flight_dump(text: &str) -> Result<(u64, Vec<Json>), String> {
    let mut lines = text.lines();
    let meta_line = lines.next().ok_or("empty flight dump")?;
    let meta = crate::json::parse(meta_line).map_err(|e| format!("meta line: {e}"))?;
    if meta.get("schema").and_then(Json::as_str) != Some(FLIGHT_SCHEMA) {
        return Err(format!("meta line is not {FLIGHT_SCHEMA:?}: {meta_line}"));
    }
    let dropped = meta
        .get("dropped")
        .and_then(Json::as_u64)
        .ok_or("meta line missing dropped")?;
    let mut events = Vec::new();
    for (idx, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let event = crate::json::parse(line).map_err(|e| format!("event {}: {e}", idx + 1))?;
        for key in ["seq", "kind", "cause", "vals"] {
            if event.get(key).is_none() {
                return Err(format!("event {} missing {key:?}: {line}", idx + 1));
            }
        }
        events.push(event);
    }
    Ok((dropped, events))
}

/// Installs a panic hook that dumps `recorder` to `path` before
/// delegating to the previously installed hook, so a crashing process
/// leaves its last-N decisions on disk. Safe to call once per process;
/// later installs chain.
pub fn install_panic_dump(recorder: Arc<FlightRecorder>, path: PathBuf, component: &'static str) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = recorder.dump_to(&path, component);
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(recorder: &FlightRecorder, i: i64) {
        recorder.record(FlightKind::Mark, "test", [i, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn ring_retains_newest_and_accounts_drops_exactly() {
        let recorder = FlightRecorder::new(8);
        for i in 0..20 {
            ev(&recorder, i);
        }
        if !crate::enabled() {
            assert_eq!(recorder.total(), 0);
            return;
        }
        assert_eq!(recorder.total(), 20);
        assert_eq!(recorder.len(), 8);
        assert_eq!(recorder.dropped(), 12);
        let seqs: Vec<u64> = recorder.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn dump_parses_and_meta_matches_ring_state() {
        let recorder = FlightRecorder::new(4);
        for i in 0..6 {
            ev(&recorder, i);
        }
        let dump = recorder.dump_jsonl("unit");
        let (dropped, events) = parse_flight_dump(&dump).unwrap();
        if crate::enabled() {
            assert_eq!(dropped, 2);
            assert_eq!(events.len(), 4);
            assert_eq!(events[0].get("kind").and_then(Json::as_str), Some("mark"));
            assert_eq!(events[0].get("seq").and_then(Json::as_u64), Some(2));
        } else {
            assert_eq!(dropped, 0);
            assert!(events.is_empty());
        }
    }

    #[test]
    fn dump_to_writes_atomically() {
        let dir = std::env::temp_dir().join(format!("dap-flight-{}", std::process::id()));
        let path = dir.join("flight.jsonl");
        let recorder = FlightRecorder::new(4);
        ev(&recorder, 1);
        recorder.dump_to(&path, "unit").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        parse_flight_dump(&text).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kinds_have_stable_names() {
        assert_eq!(FlightKind::Resolve.as_str(), "resolve");
        assert_eq!(FlightKind::LeaseSteal.as_str(), "lease_steal");
        assert_eq!(FlightKind::WorkerRestart.as_str(), "worker_restart");
    }
}
