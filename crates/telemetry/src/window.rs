//! The window-trace recorder: a bounded ring buffer of controller
//! snapshots with optional spill-to-writer.
//!
//! A [`WindowTraceRecorder`] implements `dap_core`'s
//! [`TelemetrySink`] and captures every
//! [`WindowSnapshot`] the controller emits. Memory stays bounded: once
//! `capacity` windows are held, the oldest record is either written to
//! the spill writer as a JSONL line (when one was supplied) or dropped.
//! Both outcomes are counted so exports can state exactly what the ring
//! retained.

use std::io::{self, Write};
use std::sync::Mutex;

use dap_core::{ProfileWindow, TelemetrySink, WindowSnapshot};

#[cfg(not(feature = "telemetry-off"))]
use crate::export::window_jsonl_line;

/// Default ring capacity — at W=64 cycles per window this retains the
/// last ~4M cycles of controller behaviour in ~25 MB.
pub const DEFAULT_CAPACITY: usize = 65_536;

struct Inner {
    ring: std::collections::VecDeque<WindowSnapshot>,
    capacity: usize,
    spill: Option<Box<dyn Write + Send>>,
    spilled: u64,
    dropped: u64,
    spill_error: Option<io::Error>,
    violations: u64,
    /// Profiler cycle-attribution rollups, bounded by the same capacity
    /// as the snapshot ring (oldest dropped and counted on overflow).
    profile: std::collections::VecDeque<ProfileWindow>,
    profile_dropped: u64,
}

/// Locks the recorder's state, recovering from poisoning: the state is
/// plain counters and copyable snapshots — consistent after any
/// interrupted mutation — so one panicked simulation thread must not
/// cascade a panic into every later telemetry call.
fn lock_unpoisoned(inner: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    inner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bounded, thread-safe recorder of per-window controller snapshots.
///
/// Attach one to a `DapController` (via `attach_sink`) or to a policy
/// through the `mem-sim` layer; afterwards [`take`](Self::take) or
/// [`trace`](Self::trace) yields the retained [`WindowTrace`].
pub struct WindowTraceRecorder {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for WindowTraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_unpoisoned(&self.inner);
        f.debug_struct("WindowTraceRecorder")
            .field("recorded", &inner.ring.len())
            .field("capacity", &inner.capacity)
            .field("spilled", &inner.spilled)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl Default for WindowTraceRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl WindowTraceRecorder {
    /// Creates a recorder retaining at most `capacity` windows; overflow
    /// records are dropped (and counted).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        Self {
            inner: Mutex::new(Inner {
                ring: std::collections::VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                spill: None,
                spilled: 0,
                dropped: 0,
                spill_error: None,
                violations: 0,
                profile: std::collections::VecDeque::new(),
                profile_dropped: 0,
            }),
        }
    }

    /// Creates a recorder that, once `capacity` windows are held, writes
    /// the oldest record to `spill` as one JSONL line instead of dropping
    /// it. Write errors are remembered (see [`spill_error`](Self::spill_error))
    /// and the affected records counted as dropped; recording never panics
    /// from inside the simulation loop.
    pub fn with_spill(capacity: usize, spill: Box<dyn Write + Send>) -> Self {
        let recorder = Self::new(capacity);
        lock_unpoisoned(&recorder.inner).spill = Some(spill);
        recorder
    }

    /// Number of windows currently held in the ring.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).ring.len()
    }

    /// Whether no windows have been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first spill-write error encountered, if any.
    pub fn spill_error(&self) -> Option<io::ErrorKind> {
        lock_unpoisoned(&self.inner)
            .spill_error
            .as_ref()
            .map(io::Error::kind)
    }

    /// Checked-mode audit violations reported through this sink so far
    /// (see [`dap_core::audit`]); reset by [`take`](Self::take).
    pub fn violations(&self) -> u64 {
        lock_unpoisoned(&self.inner).violations
    }

    /// Removes and returns everything recorded so far, leaving the
    /// recorder empty (overflow counters and profile rollups are reset
    /// too).
    pub fn take(&self) -> WindowTrace {
        let mut inner = lock_unpoisoned(&self.inner);
        let trace = WindowTrace {
            records: inner.ring.drain(..).collect(),
            spilled: inner.spilled,
            dropped: inner.dropped,
        };
        inner.spilled = 0;
        inner.dropped = 0;
        inner.violations = 0;
        inner.profile.clear();
        inner.profile_dropped = 0;
        trace
    }

    /// Profiler cycle-attribution rollups retained so far, oldest first
    /// (see [`dap_core::ProfileWindow`]); cleared by [`take`](Self::take).
    pub fn profile_windows(&self) -> Vec<ProfileWindow> {
        lock_unpoisoned(&self.inner)
            .profile
            .iter()
            .copied()
            .collect()
    }

    /// Profile rollups lost to the bounded ring's overflow.
    pub fn profile_dropped(&self) -> u64 {
        lock_unpoisoned(&self.inner).profile_dropped
    }

    /// Returns a copy of everything recorded so far without clearing.
    pub fn trace(&self) -> WindowTrace {
        let inner = lock_unpoisoned(&self.inner);
        WindowTrace {
            records: inner.ring.iter().copied().collect(),
            spilled: inner.spilled,
            dropped: inner.dropped,
        }
    }
}

impl TelemetrySink for WindowTraceRecorder {
    fn record_window(&self, snapshot: &WindowSnapshot) {
        #[cfg(feature = "telemetry-off")]
        {
            let _ = snapshot;
        }
        #[cfg(not(feature = "telemetry-off"))]
        {
            let mut inner = lock_unpoisoned(&self.inner);
            if inner.ring.len() >= inner.capacity {
                // invariant: new() rejects capacity zero, so a full ring
                // always has a front element to evict.
                let oldest = inner.ring.pop_front().expect("capacity is non-zero");
                let spill_ok = inner.spill_error.is_none();
                let mut new_error = None;
                let wrote = match inner.spill.as_mut() {
                    Some(writer) if spill_ok => {
                        let mut line = window_jsonl_line(&oldest);
                        line.push('\n');
                        match writer.write_all(line.as_bytes()) {
                            Ok(()) => true,
                            Err(e) => {
                                new_error = Some(e);
                                false
                            }
                        }
                    }
                    _ => false,
                };
                if let Some(e) = new_error {
                    inner.spill_error = Some(e);
                }
                if wrote {
                    inner.spilled += 1;
                } else {
                    inner.dropped += 1;
                }
            }
            inner.ring.push_back(*snapshot);
        }
    }

    fn record_violation(&self, violation: &dap_core::AuditViolation) {
        let _ = violation;
        #[cfg(not(feature = "telemetry-off"))]
        {
            lock_unpoisoned(&self.inner).violations += 1;
        }
    }

    fn record_profile_window(&self, window: &ProfileWindow) {
        #[cfg(feature = "telemetry-off")]
        {
            let _ = window;
        }
        #[cfg(not(feature = "telemetry-off"))]
        {
            let mut inner = lock_unpoisoned(&self.inner);
            if inner.profile.len() >= inner.capacity {
                inner.profile.pop_front();
                inner.profile_dropped += 1;
            }
            inner.profile.push_back(*window);
        }
    }
}

/// The retained output of a [`WindowTraceRecorder`]: the in-ring records
/// plus counts of what overflowed.
#[derive(Debug, Default, Clone)]
pub struct WindowTrace {
    /// Retained snapshots, oldest first.
    pub records: Vec<WindowSnapshot>,
    /// Overflowed records successfully written to the spill writer.
    pub spilled: u64,
    /// Overflowed records lost (no spill writer, or a spill write failed).
    pub dropped: u64,
}

impl WindowTrace {
    /// Total windows observed, retained or not.
    pub fn windows_observed(&self) -> u64 {
        self.records.len() as u64 + self.spilled + self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_core::{
        telemetry::sectored_fractions, Ratio, SectoredPlan, TechniqueCounts, WindowStats,
    };
    use std::sync::{Arc, Mutex as StdMutex};

    fn snapshot(index: u64) -> WindowSnapshot {
        WindowSnapshot {
            window_index: index,
            end_cycle: (index + 1) * 64,
            stats: WindowStats {
                cache_accesses: 10,
                mm_accesses: 3,
                ..Default::default()
            },
            partitioned: false,
            granted: TechniqueCounts::default(),
            applied: TechniqueCounts::default(),
            fractions: sectored_fractions(
                &WindowStats::default(),
                &SectoredPlan::default(),
                Ratio::new(11, 4),
            ),
        }
    }

    #[test]
    fn records_in_order_up_to_capacity() {
        let recorder = WindowTraceRecorder::new(4);
        for i in 0..3 {
            recorder.record_window(&snapshot(i));
        }
        let trace = recorder.trace();
        if crate::enabled() {
            assert_eq!(trace.records.len(), 3);
            assert_eq!(
                trace
                    .records
                    .iter()
                    .map(|r| r.window_index)
                    .collect::<Vec<_>>(),
                vec![0, 1, 2]
            );
            assert_eq!(trace.windows_observed(), 3);
        } else {
            assert!(trace.records.is_empty());
        }
    }

    #[test]
    fn overflow_without_spill_drops_oldest() {
        let recorder = WindowTraceRecorder::new(2);
        for i in 0..5 {
            recorder.record_window(&snapshot(i));
        }
        let trace = recorder.take();
        if crate::enabled() {
            assert_eq!(
                trace
                    .records
                    .iter()
                    .map(|r| r.window_index)
                    .collect::<Vec<_>>(),
                vec![3, 4]
            );
            assert_eq!(trace.dropped, 3);
            assert_eq!(trace.spilled, 0);
            assert_eq!(trace.windows_observed(), 5);
        }
        // take() resets the counters.
        assert_eq!(recorder.trace().dropped, 0);
    }

    #[test]
    fn overflow_with_spill_writes_jsonl_lines() {
        if !crate::enabled() {
            return;
        }
        #[derive(Clone)]
        struct Shared(Arc<StdMutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = Shared(Arc::new(StdMutex::new(Vec::new())));
        let recorder = WindowTraceRecorder::with_spill(2, Box::new(sink.clone()));
        for i in 0..4 {
            recorder.record_window(&snapshot(i));
        }
        let trace = recorder.trace();
        assert_eq!(trace.spilled, 2);
        assert_eq!(trace.dropped, 0);
        let written = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"window\":0"));
        assert!(lines[1].contains("\"window\":1"));
        assert!(recorder.spill_error().is_none());
    }

    #[test]
    fn spill_errors_degrade_to_drops() {
        if !crate::enabled() {
            return;
        }
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let recorder = WindowTraceRecorder::with_spill(1, Box::new(Failing));
        for i in 0..3 {
            recorder.record_window(&snapshot(i));
        }
        let trace = recorder.trace();
        assert_eq!(trace.spilled, 0);
        assert_eq!(trace.dropped, 2);
        assert_eq!(recorder.spill_error(), Some(io::ErrorKind::BrokenPipe));
    }

    #[test]
    #[should_panic(expected = "ring capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = WindowTraceRecorder::new(0);
    }

    #[test]
    fn profile_windows_are_retained_bounded_and_cleared_by_take() {
        let recorder = WindowTraceRecorder::new(2);
        for i in 0..3u64 {
            recorder.record_profile_window(&ProfileWindow {
                window_index: i,
                samples: 1 + i,
                cache_queue_wait: 10 * i,
                ..Default::default()
            });
        }
        if crate::enabled() {
            let retained = recorder.profile_windows();
            assert_eq!(
                retained.iter().map(|w| w.window_index).collect::<Vec<_>>(),
                vec![1, 2],
                "oldest rollup evicted at capacity"
            );
            assert_eq!(recorder.profile_dropped(), 1);
            let _ = recorder.take();
        }
        assert!(recorder.profile_windows().is_empty());
        assert_eq!(recorder.profile_dropped(), 0);
    }

    #[test]
    fn violations_are_counted_and_reset_by_take() {
        let recorder = WindowTraceRecorder::new(2);
        let violation = dap_core::AuditViolation {
            window_index: 0,
            invariant: dap_core::Invariant::FractionConservation,
            source: "solved",
            expected: 1.0,
            actual: 0.9,
            detail: "test".into(),
        };
        recorder.record_violation(&violation);
        recorder.record_violation(&violation);
        if crate::enabled() {
            assert_eq!(recorder.violations(), 2);
            let _ = recorder.take();
        }
        assert_eq!(recorder.violations(), 0);
    }
}
