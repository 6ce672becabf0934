//! The simulated machine: cores, private L1/L2, shared L3, stride
//! prefetchers, and the MSHR merge window in front of the memory
//! subsystem.

use crate::cache::{ReplacementKind, SetAssocCache};
use crate::clock::Cycle;
use crate::config::SystemConfig;
use crate::core_model::CoreModel;
use crate::hash::FastMap;
use crate::policy::{NoPartitioning, Partitioner};
use crate::prefetch::StridePrefetcher;
use crate::trace::TraceSource;

use super::subsystem::{MemAccessKind, MemorySubsystem};

/// Prefetches are dropped once the target queues back up this far — they
/// may only consume spare bandwidth, never add to saturation.
const PREFETCH_PRESSURE_LIMIT: Cycle = 1200;

/// The simulated machine.
pub struct System {
    pub(super) config: SystemConfig,
    pub(super) cores: Vec<CoreModel>,
    pub(super) traces: Vec<Box<dyn TraceSource>>,
    l1: Vec<SetAssocCache<()>>,
    l2: Vec<SetAssocCache<()>>,
    prefetchers: Vec<StridePrefetcher>,
    l3: SetAssocCache<()>,
    mshr: FastMap<u64, Cycle>,
    mshr_cleanup_at: usize,
    /// Reused between accesses so the prefetcher's candidate list never
    /// allocates in steady state.
    prefetch_buf: Vec<u64>,
    pub(super) mem: MemorySubsystem,
}

impl System {
    /// Builds a system with the baseline (no partitioning) policy.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != config.cores`.
    pub fn new(config: SystemConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        Self::with_policy(config, traces, Box::new(NoPartitioning))
    }

    /// Builds a system with an explicit partitioning policy.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != config.cores`.
    pub fn with_policy(
        config: SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: Box<dyn Partitioner>,
    ) -> Self {
        assert_eq!(traces.len(), config.cores, "one trace per core");
        let mem = MemorySubsystem::new(&config, policy);
        Self {
            cores: (0..config.cores)
                .map(|_| CoreModel::new(config.width, config.rob))
                .collect(),
            traces,
            l1: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1.0, config.l1.1, ReplacementKind::Lru))
                .collect(),
            l2: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l2.0, config.l2.1, ReplacementKind::Lru))
                .collect(),
            prefetchers: (0..config.cores)
                .map(|_| StridePrefetcher::new(config.prefetch_degree))
                .collect(),
            l3: SetAssocCache::new(config.l3.0, config.l3.1, ReplacementKind::Lru),
            mshr: FastMap::default(),
            mshr_cleanup_at: 8192,
            prefetch_buf: Vec::new(),
            mem,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The memory subsystem (diagnostics).
    pub fn memory(&self) -> &MemorySubsystem {
        &self.mem
    }

    /// Attaches simulator-side telemetry (queue-occupancy and
    /// channel-utilization recording) to the memory subsystem.
    pub fn attach_telemetry(&mut self, telemetry: crate::telemetry::SubsystemTelemetry) {
        self.mem.attach_telemetry(telemetry);
    }

    /// Forwards a DAP window-trace sink to the partitioning policy
    /// (no-op when the policy has no DAP controller).
    pub fn attach_dap_sink(&mut self, sink: std::sync::Arc<dyn dap_core::TelemetrySink>) {
        self.mem.attach_dap_sink(sink);
    }

    /// Replaces the memory subsystem's access profiler (fixed-interval
    /// sampling for tests and tools).
    pub fn attach_profiler(&mut self, profiler: crate::profile::AccessProfiler) {
        self.mem.attach_profiler(profiler);
    }

    /// Removes the memory subsystem's access profiler (overhead tools
    /// that need telemetry without profiling).
    pub fn detach_profiler(&mut self) {
        self.mem.detach_profiler();
    }

    /// A demand load at cycle `t`; returns its completion cycle.
    pub(super) fn load(&mut self, core: usize, block: u64, pc: u64, t: Cycle) -> Cycle {
        let (_, _, l1_lat) = self.config.l1;
        let (_, _, l2_lat) = self.config.l2;
        if self.l1[core].lookup(block) {
            return t + l1_lat;
        }
        if self.l2[core].lookup(block) {
            self.install_l1(core, block, t, false);
            return t + l2_lat;
        }
        let mut prefetches = std::mem::take(&mut self.prefetch_buf);
        if self.config.prefetch_degree > 0 {
            self.prefetchers[core].observe_into(block, &mut prefetches);
        } else {
            prefetches.clear();
        }
        let done = self.access_l3(block, core, pc, t + l2_lat, MemAccessKind::DemandRead);
        self.install_l2(core, block, t);
        self.install_l1(core, block, t, false);
        for &p in &prefetches {
            self.prefetch(p, core, pc, t);
        }
        self.prefetch_buf = prefetches;
        done
    }

    /// A demand store at cycle `t` (fire-and-forget for the core).
    pub(super) fn store(&mut self, core: usize, block: u64, pc: u64, t: Cycle) {
        if let Some(slot) = self.l1[core].lookup_slot(block) {
            self.l1[core].mark_dirty_slot(slot);
            return;
        }
        if self.l2[core].lookup(block) {
            self.install_l1(core, block, t, true);
            return;
        }
        let mut prefetches = std::mem::take(&mut self.prefetch_buf);
        if self.config.prefetch_degree > 0 {
            self.prefetchers[core].observe_into(block, &mut prefetches);
        } else {
            prefetches.clear();
        }
        let (_, _, l2_lat) = self.config.l2;
        let _ = self.access_l3(block, core, pc, t + l2_lat, MemAccessKind::Rfo);
        self.install_l2(core, block, t);
        self.install_l1(core, block, t, true);
        for &p in &prefetches {
            self.prefetch(p, core, pc, t);
        }
        self.prefetch_buf = prefetches;
    }

    fn access_l3(
        &mut self,
        block: u64,
        core: usize,
        pc: u64,
        t: Cycle,
        kind: MemAccessKind,
    ) -> Cycle {
        let (_, _, l3_lat) = self.config.l3;
        if kind != MemAccessKind::Prefetch {
            self.mem.stats_mut().l3_accesses += 1;
        }
        // An in-flight miss for this block (demand or prefetch) means the
        // data is not in the array yet: merge and wait for its completion.
        if let Some(&c) = self.mshr.get(&block) {
            if c > t {
                if kind != MemAccessKind::Prefetch {
                    self.mem.stats_mut().l3_misses += 1;
                }
                return c;
            }
        }
        if self.l3.lookup(block) {
            return t + l3_lat;
        }
        if kind != MemAccessKind::Prefetch {
            self.mem.stats_mut().l3_misses += 1;
        }
        let done = self.mem_read_insert(block, core, pc, t + l3_lat, kind);
        self.install_l3(block, t);
        done
    }

    /// Issues a memory read and records it in the MSHR.
    ///
    /// Both callers have already probed the MSHR for this block at an
    /// earlier-or-equal cycle and found no outstanding miss, so any entry
    /// still present here is stale (completed at or before `t`) and is
    /// simply overwritten — no second merge check is needed.
    fn mem_read_insert(
        &mut self,
        block: u64,
        core: usize,
        pc: u64,
        t: Cycle,
        kind: MemAccessKind,
    ) -> Cycle {
        let done = self.mem.read(block, core, pc, t, kind);
        self.mshr.insert(block, done);
        if self.mshr.len() > self.mshr_cleanup_at {
            // This clean-up is part of the simulated model, not a pure
            // host-side optimization: core issue times are not monotone, so
            // an entry completed by `t` can still be outstanding for a core
            // probing at an earlier cycle, and dropping it changes whether
            // that later miss merges. When the clean-up runs — this
            // threshold and its growth rule included — therefore shapes
            // simulated results; changing it means re-pinning them.
            self.mshr.retain(|_, &mut c| c > t);
            // If most entries are still outstanding (saturated memory),
            // grow the threshold instead of re-scanning per insert.
            self.mshr_cleanup_at = (self.mshr.len() * 2).max(8192);
        }
        done
    }

    fn prefetch(&mut self, block: u64, core: usize, pc: u64, t: Cycle) {
        if self.l3.contains(block) || self.mshr.get(&block).map(|&c| c > t).unwrap_or(false) {
            return;
        }
        // Prefetches only consume spare bandwidth; drop them once the
        // memory queues back up.
        if self.mem.queue_pressure(block, t) > PREFETCH_PRESSURE_LIMIT {
            return;
        }
        let _ = self.mem_read_insert(block, core, pc, t, MemAccessKind::Prefetch);
        self.install_l3(block, t);
    }

    // Writeback timestamps use the *access time* `t` of the triggering
    // operation, never a core's retire frontier — retire frontiers race one
    // full miss latency ahead and a single future-stamped write drain would
    // catapult the channel's bus reservation for every later request.

    // Every install below runs on a path where the target cache has just
    // missed on `block` with no intervening insert of it (installs into
    // *other* levels and memory reads cannot add lines here), so the
    // presence re-scan inside `insert` is skipped via `insert_absent`.

    fn install_l3(&mut self, block: u64, t: Cycle) {
        if let Some(ev) = self.l3.insert_absent(block, (), false) {
            if ev.dirty {
                self.mem.write(ev.key, t);
            }
        }
    }

    fn install_l2(&mut self, core: usize, block: u64, t: Cycle) {
        if let Some(ev) = self.l2[core].insert_absent(block, (), false) {
            if ev.dirty && !self.l3.mark_dirty(ev.key) {
                self.mem.write(ev.key, t);
            }
        }
    }

    fn install_l1(&mut self, core: usize, block: u64, t: Cycle, dirty: bool) {
        if let Some(ev) = self.l1[core].insert_absent(block, (), dirty) {
            if ev.dirty && !self.l2[core].mark_dirty(ev.key) && !self.l3.mark_dirty(ev.key) {
                self.mem.write(ev.key, t);
            }
        }
    }
}
