//! The access-partitioning policy seam.
//!
//! A [`Partitioner`] is consulted by the memory subsystem at every point
//! where traffic can be steered between the memory-side cache and main
//! memory. The baseline ([`NoPartitioning`]) always picks the cache; DAP
//! ([`DapPolicy`]) consumes credit counters; the related proposals (SBD,
//! BATMAN — see the `policies` crate) implement the same trait.

use crate::clock::Cycle;
use dap_core::{DapConfig, DapController, DecisionStats, EffectiveBandwidth, Technique};

/// What a policy may decide for a demand read *before* the tag lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRoute {
    /// Proceed with the normal cache lookup.
    Lookup,
    /// Send the read to main memory in parallel with the lookup (SFRM).
    /// If the block turns out dirty in the cache, the main-memory response
    /// is dropped and the read is re-served from the cache.
    Speculative,
    /// Serve directly from main memory without touching the cache (SBD
    /// steering). The subsystem falls back to the cache if the block is
    /// dirty there.
    SteerMainMemory,
}

/// Where a demand write should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteRoute {
    /// Write into the memory-side cache (the baseline behaviour).
    Cache,
    /// Write to main memory instead, invalidating any cached copy (WB).
    MainMemory,
    /// Write to the cache *and* mirror to main memory (write-through).
    Both,
}

/// Events the subsystem reports to the policy for window accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// A demand read arrived at the memory subsystem (one per read,
    /// regardless of routing) — lets hit-rate-tracking policies (BATMAN)
    /// compute clean ratios.
    DemandRead,
    /// An access demanded from the memory-side cache.
    CacheAccess {
        /// Whether it used the write direction (fills, writes).
        write: bool,
    },
    /// An access demanded from main memory.
    MmAccess,
    /// A demand read missed in the memory-side cache.
    ReadMiss,
    /// A demand write arrived at the memory-side cache.
    WriteDemand,
    /// A demand read hit a clean line (IFRM candidate).
    CleanHit,
}

/// Decision context offered to read-routing hooks.
#[derive(Debug, Clone, Copy)]
pub struct ReadContext {
    /// The block address being read.
    pub block: u64,
    /// The requesting core (for thread-aware policies).
    pub core: usize,
    /// Current cycle.
    pub now: Cycle,
    /// Estimated queueing delay at the memory-side cache.
    pub cache_wait: Cycle,
    /// Estimated queueing delay at main memory.
    pub mm_wait: Cycle,
}

/// An access-partitioning policy.
///
/// All hooks have baseline defaults, so a policy only overrides the
/// decisions it cares about. Implementations must be deterministic given
/// the call sequence (the simulator is reproducible).
pub trait Partitioner {
    /// Advances the policy's notion of time (window rolling).
    fn tick(&mut self, _now: Cycle) {}

    /// Reports an accounting event.
    fn observe(&mut self, _event: Observation, _now: Cycle) {}

    /// Routes a demand read before its tag lookup.
    fn route_read(&mut self, _ctx: &ReadContext) -> ReadRoute {
        ReadRoute::Lookup
    }

    /// Decides whether a *clean* read hit is served by the cache (`false`)
    /// or forced to main memory (`true`, IFRM).
    fn force_clean_hit(&mut self, _ctx: &ReadContext) -> bool {
        false
    }

    /// Routes a demand write. `hit` says whether the block is present in
    /// the cache.
    fn route_write(&mut self, _block: u64, _now: Cycle, _hit: bool) -> WriteRoute {
        WriteRoute::Cache
    }

    /// Decides whether a read-miss fill is allocated (`true`) or dropped
    /// (`false`, FWB).
    fn allow_fill(&mut self, _block: u64, _now: Cycle) -> bool {
        true
    }

    /// Whether a cache set is enabled (BATMAN disables sets to modulate the
    /// hit rate). Disabled sets behave as misses and are not filled.
    fn set_enabled(&mut self, _set: u64, _now: Cycle) -> bool {
        true
    }

    /// Sets newly disabled since the last call; the subsystem flushes their
    /// dirty blocks to main memory.
    fn take_newly_disabled_sets(&mut self) -> Vec<u64> {
        Vec::new()
    }

    /// Sectors/pages the policy wants cleaned (dirty blocks written back to
    /// main memory but kept resident) — SBD's Dirty List evictions.
    fn take_sectors_to_clean(&mut self) -> Vec<u64> {
        Vec::new()
    }

    /// DAP decision statistics, when the policy is DAP.
    fn dap_decisions(&self) -> Option<DecisionStats> {
        None
    }

    /// The policy's accounting-window length in cycles, when it runs a
    /// windowed controller (the access profiler aligns its rollups to
    /// it). `None` (the default) for window-less policies.
    fn window_cycles(&self) -> Option<u32> {
        None
    }

    /// Attaches a window-trace sink to the policy's DAP controller, when
    /// it has one. Non-DAP policies ignore the sink (the default).
    fn attach_dap_sink(&mut self, _sink: std::sync::Arc<dyn dap_core::TelemetrySink>) {}

    /// Reports the measured fraction of nominal bandwidth each source is
    /// currently delivering, in `[0, 1]` (the subsystem calls this at
    /// fault-schedule boundaries). Policies that only know nominal rates
    /// ignore it (the default); degradation-aware DAP re-derives its
    /// window budget — and hence Eq. 4's ideal fractions — from it.
    fn note_bandwidth_scale(&mut self, _cache_scale: f64, _mm_scale: f64, _now: Cycle) {}

    /// Lifetime `(cache, mm)` access totals the policy has accumulated
    /// from [`Observation::CacheAccess`]/[`Observation::MmAccess`], when
    /// the policy runs a checked-mode DAP controller. The subsystem's
    /// served-access conservation audit compares this against its own
    /// channel-side tally; `None` (the default) skips the check.
    fn audited_totals(&self) -> Option<(u64, u64)> {
        None
    }
}

/// The baseline policy: everything goes to the memory-side cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPartitioning;

impl Partitioner for NoPartitioning {}

/// DAP as a [`Partitioner`]: wraps a [`DapController`] and spends its
/// credits at the corresponding decision points.
#[derive(Debug, Clone)]
pub struct DapPolicy {
    controller: DapController,
    /// SFRM only pays off when tags are off-die or behind a tag cache;
    /// eDRAM (on-die tags) and Alloy (hit/miss predictor) disable it.
    enable_sfrm: bool,
    /// Whether measured-bandwidth reports re-derive the window budget
    /// (static Eq. 4 DAP ignores them).
    measured: bool,
}

impl DapPolicy {
    /// Creates a DAP policy from a controller configuration.
    pub fn new(config: DapConfig) -> Self {
        let enable_sfrm = config.architecture == dap_core::CacheArchitecture::SingleBus;
        Self {
            controller: DapController::new(config),
            enable_sfrm,
            measured: false,
        }
    }

    /// Creates a degradation-aware DAP policy: every
    /// [`note_bandwidth_scale`] report re-derives the window budget
    /// (and `K`) from the measured rates, so Eq. 4 is solved against
    /// delivered rather than nominal bandwidth.
    ///
    /// [`note_bandwidth_scale`]: Partitioner::note_bandwidth_scale
    pub fn with_measured_bandwidth(config: DapConfig) -> Self {
        Self {
            measured: true,
            ..Self::new(config)
        }
    }

    /// Access to the wrapped controller (diagnostics).
    pub fn controller(&self) -> &DapController {
        &self.controller
    }
}

impl Partitioner for DapPolicy {
    fn tick(&mut self, now: Cycle) {
        self.controller.tick(now);
    }

    fn observe(&mut self, event: Observation, _now: Cycle) {
        match event {
            Observation::DemandRead => {}
            Observation::CacheAccess { write } => self.controller.note_cache_access(write),
            Observation::MmAccess => self.controller.note_mm_access(),
            Observation::ReadMiss => self.controller.note_read_miss(),
            Observation::WriteDemand => self.controller.note_write(),
            Observation::CleanHit => self.controller.note_clean_read_hit(),
        }
    }

    fn route_read(&mut self, _ctx: &ReadContext) -> ReadRoute {
        if self.enable_sfrm
            && self
                .controller
                .try_apply(Technique::SpeculativeForcedReadMiss)
        {
            ReadRoute::Speculative
        } else {
            ReadRoute::Lookup
        }
    }

    fn force_clean_hit(&mut self, _ctx: &ReadContext) -> bool {
        self.controller.try_apply(Technique::InformedForcedReadMiss)
    }

    fn route_write(&mut self, _block: u64, _now: Cycle, hit: bool) -> WriteRoute {
        // Write-through is Alloy's clean-block maintenance; write bypass is
        // the sectored/eDRAM technique.
        if self.controller.try_apply(Technique::WriteThrough) {
            return WriteRoute::Both;
        }
        if hit && self.controller.try_apply(Technique::WriteBypass) {
            return WriteRoute::MainMemory;
        }
        WriteRoute::Cache
    }

    fn allow_fill(&mut self, _block: u64, _now: Cycle) -> bool {
        !self.controller.try_apply(Technique::FillWriteBypass)
    }

    fn dap_decisions(&self) -> Option<DecisionStats> {
        Some(*self.controller.decisions())
    }

    fn window_cycles(&self) -> Option<u32> {
        Some(self.controller.config().window_cycles)
    }

    fn attach_dap_sink(&mut self, sink: std::sync::Arc<dyn dap_core::TelemetrySink>) {
        self.controller.attach_sink(sink);
    }

    fn audited_totals(&self) -> Option<(u64, u64)> {
        self.controller.audited_totals()
    }

    fn note_bandwidth_scale(&mut self, cache_scale: f64, mm_scale: f64, _now: Cycle) {
        if self.measured {
            // Scaling the controller's own nominal rates keeps the
            // architecture adjustments baked into its config (e.g.
            // Alloy's 2/3 TAD factor) in the measured figure.
            let effective =
                EffectiveBandwidth::scaled(self.controller.config(), cache_scale, mm_scale);
            self.controller.set_effective_bandwidth(Some(effective));
        }
    }
}

/// Thread-aware DAP (the extension Section IV-A sketches): IFRM
/// preferentially bypasses the clean hits of *latency-insensitive* threads.
///
/// A thread's latency sensitivity is estimated from its demand rate: cores
/// issuing many memory requests per window are throughput/MLP-oriented and
/// tolerate the main memory's extra latency, while low-rate cores are
/// serialized on each load. While IFRM credits are plentiful everyone may
/// be forced; once credits run low, only the busiest half of the cores are.
#[derive(Debug, Clone)]
pub struct ThreadAwareDap {
    inner: DapPolicy,
    cores: usize,
    /// Demand reads per core in the current epoch.
    epoch_counts: Vec<u64>,
    /// Demand-rate ranks from the previous epoch (true = busy half).
    busy: Vec<bool>,
    epoch_total: u64,
}

impl ThreadAwareDap {
    /// Demand reads per rank-refresh epoch.
    const EPOCH: u64 = 4096;

    /// Creates the policy for a `cores`-core system.
    pub fn new(config: DapConfig, cores: usize) -> Self {
        Self {
            inner: DapPolicy::new(config),
            cores,
            epoch_counts: vec![0; cores],
            busy: vec![true; cores],
            epoch_total: 0,
        }
    }

    /// Whether a core currently ranks in the busy (latency-insensitive)
    /// half.
    pub fn is_busy(&self, core: usize) -> bool {
        self.busy.get(core).copied().unwrap_or(true)
    }

    fn note_demand(&mut self, core: usize) {
        if let Some(c) = self.epoch_counts.get_mut(core) {
            *c += 1;
        }
        self.epoch_total += 1;
        if self.epoch_total >= Self::EPOCH {
            let mut order: Vec<usize> = (0..self.cores).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(self.epoch_counts[i]));
            for (rank, &core) in order.iter().enumerate() {
                self.busy[core] = rank < self.cores.div_ceil(2);
            }
            self.epoch_counts.iter_mut().for_each(|c| *c = 0);
            self.epoch_total = 0;
        }
    }
}

impl Partitioner for ThreadAwareDap {
    fn tick(&mut self, now: Cycle) {
        self.inner.tick(now);
    }

    fn observe(&mut self, event: Observation, now: Cycle) {
        self.inner.observe(event, now);
    }

    fn route_read(&mut self, ctx: &ReadContext) -> ReadRoute {
        self.note_demand(ctx.core);
        self.inner.route_read(ctx)
    }

    fn force_clean_hit(&mut self, ctx: &ReadContext) -> bool {
        let remaining = self
            .inner
            .controller()
            .credits_remaining(Technique::InformedForcedReadMiss);
        // Low on credits: reserve the remaining forced misses for the
        // latency-insensitive (busy) threads.
        if remaining <= 4 && !self.is_busy(ctx.core) {
            return false;
        }
        self.inner.force_clean_hit(ctx)
    }

    fn route_write(&mut self, block: u64, now: Cycle, hit: bool) -> WriteRoute {
        self.inner.route_write(block, now, hit)
    }

    fn allow_fill(&mut self, block: u64, now: Cycle) -> bool {
        self.inner.allow_fill(block, now)
    }

    fn dap_decisions(&self) -> Option<DecisionStats> {
        self.inner.dap_decisions()
    }

    fn window_cycles(&self) -> Option<u32> {
        self.inner.window_cycles()
    }

    fn attach_dap_sink(&mut self, sink: std::sync::Arc<dyn dap_core::TelemetrySink>) {
        self.inner.attach_dap_sink(sink);
    }

    fn note_bandwidth_scale(&mut self, cache_scale: f64, mm_scale: f64, now: Cycle) {
        self.inner.note_bandwidth_scale(cache_scale, mm_scale, now);
    }

    fn audited_totals(&self) -> Option<(u64, u64)> {
        self.inner.audited_totals()
    }
}

#[cfg(test)]
#[path = "policy_tests.rs"]
mod tests;
