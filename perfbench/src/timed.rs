//! Timing wrappers for the simulator's two public seams: a
//! [`TraceSource`] wrapper around each trace generator and a
//! [`Partitioner`] wrapper around the built policy. Each forwards every
//! call unchanged, adds its host time and call count to a shared
//! [`Tally`], and so leaves the simulated result bit-identical.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use dap_core::{DecisionStats, TelemetrySink};
use mem_sim::clock::Cycle;
use mem_sim::trace::{TraceOp, TraceSource};
use mem_sim::{Observation, Partitioner, ReadContext, ReadRoute, WriteRoute};

/// Host time and call count of one layer. Shared through `Rc` because
/// the simulator owns the wrappers for the whole run.
#[derive(Debug, Default)]
pub struct Tally {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Tally {
    /// A shareable empty tally.
    pub fn new() -> Rc<Self> {
        Rc::new(Self::default())
    }

    /// Total host nanoseconds inside the layer.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Calls into the layer.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// The wrappers' own cost per call, from a million empty timed calls.
    pub fn calibrate() -> TimerCost {
        const N: u64 = 1_000_000;
        let tally = Tally::default();
        let t0 = Instant::now();
        for _ in 0..N {
            tally.time(|| std::hint::black_box(()));
        }
        TimerCost {
            wall_ns: t0.elapsed().as_nanos() as f64 / N as f64,
            inside_ns: tally.ns() as f64 / N as f64,
        }
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

/// What one timed call costs beyond the call itself.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// Whole cost per call, ns.
    pub wall_ns: f64,
    /// The part that falls inside the timed interval, ns.
    pub inside_ns: f64,
}

/// A [`TraceSource`] that times every `next_op`.
pub struct TimedTrace<T> {
    inner: T,
    tally: Rc<Tally>,
}

impl<T> TimedTrace<T> {
    /// Wraps `inner`, adding to `tally`.
    pub fn new(inner: T, tally: Rc<Tally>) -> Self {
        Self { inner, tally }
    }
}

impl<T: TraceSource> TraceSource for TimedTrace<T> {
    fn next_op(&mut self) -> TraceOp {
        let inner = &mut self.inner;
        self.tally.time(|| inner.next_op())
    }
}

/// A [`Partitioner`] that times every hook, the defaulted ones included.
/// It overrides every trait method: a method left to its default would
/// answer the baseline instead of asking the wrapped policy.
pub struct TimedPolicy {
    inner: Box<dyn Partitioner>,
    tally: Rc<Tally>,
}

impl TimedPolicy {
    /// Wraps `inner`, adding to `tally`.
    pub fn new(inner: Box<dyn Partitioner>, tally: Rc<Tally>) -> Self {
        Self { inner, tally }
    }
}

impl Partitioner for TimedPolicy {
    fn tick(&mut self, now: Cycle) {
        let p = &mut self.inner;
        self.tally.time(|| p.tick(now))
    }
    fn observe(&mut self, event: Observation, now: Cycle) {
        let p = &mut self.inner;
        self.tally.time(|| p.observe(event, now))
    }
    fn route_read(&mut self, ctx: &ReadContext) -> ReadRoute {
        let p = &mut self.inner;
        self.tally.time(|| p.route_read(ctx))
    }
    fn force_clean_hit(&mut self, ctx: &ReadContext) -> bool {
        let p = &mut self.inner;
        self.tally.time(|| p.force_clean_hit(ctx))
    }
    fn route_write(&mut self, block: u64, now: Cycle, hit: bool) -> WriteRoute {
        let p = &mut self.inner;
        self.tally.time(|| p.route_write(block, now, hit))
    }
    fn allow_fill(&mut self, block: u64, now: Cycle) -> bool {
        let p = &mut self.inner;
        self.tally.time(|| p.allow_fill(block, now))
    }
    fn set_enabled(&mut self, set: u64, now: Cycle) -> bool {
        let p = &mut self.inner;
        self.tally.time(|| p.set_enabled(set, now))
    }
    fn take_newly_disabled_sets(&mut self) -> Vec<u64> {
        let p = &mut self.inner;
        self.tally.time(|| p.take_newly_disabled_sets())
    }
    fn take_sectors_to_clean(&mut self) -> Vec<u64> {
        let p = &mut self.inner;
        self.tally.time(|| p.take_sectors_to_clean())
    }
    fn dap_decisions(&self) -> Option<DecisionStats> {
        self.tally.time(|| self.inner.dap_decisions())
    }
    fn window_cycles(&self) -> Option<u32> {
        self.tally.time(|| self.inner.window_cycles())
    }
    fn attach_dap_sink(&mut self, sink: Arc<dyn TelemetrySink>) {
        let p = &mut self.inner;
        self.tally.time(|| p.attach_dap_sink(sink))
    }
    fn note_bandwidth_scale(&mut self, cache_scale: f64, mm_scale: f64, now: Cycle) {
        let p = &mut self.inner;
        self.tally
            .time(|| p.note_bandwidth_scale(cache_scale, mm_scale, now))
    }
    fn audited_totals(&self) -> Option<(u64, u64)> {
        self.tally.time(|| self.inner.audited_totals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Records each hook it receives and answers with a value no default
    /// returns, so a hook the wrapper fails to forward shows twice: as a
    /// missing name and as a default answer.
    struct Probe(Rc<RefCell<Vec<&'static str>>>);

    impl Probe {
        fn hit(&self, name: &'static str) {
            self.0.borrow_mut().push(name);
        }
    }

    impl Partitioner for Probe {
        fn tick(&mut self, _now: Cycle) {
            self.hit("tick");
        }
        fn observe(&mut self, _event: Observation, _now: Cycle) {
            self.hit("observe");
        }
        fn route_read(&mut self, _ctx: &ReadContext) -> ReadRoute {
            self.hit("route_read");
            ReadRoute::Speculative
        }
        fn force_clean_hit(&mut self, _ctx: &ReadContext) -> bool {
            self.hit("force_clean_hit");
            true
        }
        fn route_write(&mut self, _block: u64, _now: Cycle, _hit: bool) -> WriteRoute {
            self.hit("route_write");
            WriteRoute::Both
        }
        fn allow_fill(&mut self, _block: u64, _now: Cycle) -> bool {
            self.hit("allow_fill");
            false
        }
        fn set_enabled(&mut self, _set: u64, _now: Cycle) -> bool {
            self.hit("set_enabled");
            false
        }
        fn take_newly_disabled_sets(&mut self) -> Vec<u64> {
            self.hit("take_newly_disabled_sets");
            vec![7]
        }
        fn take_sectors_to_clean(&mut self) -> Vec<u64> {
            self.hit("take_sectors_to_clean");
            vec![9]
        }
        fn dap_decisions(&self) -> Option<DecisionStats> {
            self.hit("dap_decisions");
            Some(DecisionStats {
                fwb: 3,
                ..DecisionStats::default()
            })
        }
        fn window_cycles(&self) -> Option<u32> {
            self.hit("window_cycles");
            Some(128)
        }
        fn attach_dap_sink(&mut self, _sink: Arc<dyn TelemetrySink>) {
            self.hit("attach_dap_sink");
        }
        fn note_bandwidth_scale(&mut self, _cache_scale: f64, _mm_scale: f64, _now: Cycle) {
            self.hit("note_bandwidth_scale");
        }
        fn audited_totals(&self) -> Option<(u64, u64)> {
            self.hit("audited_totals");
            Some((1, 2))
        }
    }

    struct Quiet;

    impl TelemetrySink for Quiet {
        fn record_window(&self, _snapshot: &dap_core::WindowSnapshot) {}
    }

    #[test]
    fn policy_wrapper_forwards_every_hook() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let tally = Tally::new();
        let mut p = TimedPolicy::new(Box::new(Probe(Rc::clone(&log))), Rc::clone(&tally));
        let ctx = ReadContext {
            block: 1,
            core: 0,
            now: 5,
            cache_wait: 0,
            mm_wait: 0,
        };
        p.tick(1);
        p.observe(Observation::MmAccess, 1);
        assert_eq!(p.route_read(&ctx), ReadRoute::Speculative);
        assert!(p.force_clean_hit(&ctx));
        assert_eq!(p.route_write(1, 1, true), WriteRoute::Both);
        assert!(!p.allow_fill(1, 1));
        assert!(!p.set_enabled(1, 1));
        assert_eq!(p.take_newly_disabled_sets(), vec![7]);
        assert_eq!(p.take_sectors_to_clean(), vec![9]);
        assert_eq!(p.dap_decisions().map(|d| d.fwb), Some(3));
        assert_eq!(p.window_cycles(), Some(128));
        p.attach_dap_sink(Arc::new(Quiet));
        p.note_bandwidth_scale(0.5, 1.0, 1);
        assert_eq!(p.audited_totals(), Some((1, 2)));
        assert_eq!(
            *log.borrow(),
            [
                "tick",
                "observe",
                "route_read",
                "force_clean_hit",
                "route_write",
                "allow_fill",
                "set_enabled",
                "take_newly_disabled_sets",
                "take_sectors_to_clean",
                "dap_decisions",
                "window_cycles",
                "attach_dap_sink",
                "note_bandwidth_scale",
                "audited_totals",
            ]
        );
        assert_eq!(tally.calls(), 14);
    }

    #[test]
    fn trace_wrapper_forwards_and_counts() {
        let tally = Tally::new();
        let mut plain = mem_sim::trace::StrideTrace::new(0, 3, 1 << 16, 0.25);
        let mut timed = TimedTrace::new(plain.clone(), Rc::clone(&tally));
        for _ in 0..1000 {
            assert_eq!(timed.next_op(), plain.next_op());
        }
        assert_eq!(tally.calls(), 1000);
    }
}
