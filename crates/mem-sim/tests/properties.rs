//! Property-style invariants of the simulator substrate.
//!
//! Hermetic replacement for the former `proptest` suite: each property is
//! a loop over cases drawn from the in-tree seeded PRNG
//! ([`workloads::rng::SplitMix64`]), so the exact case set is fixed
//! forever and reproduces identically offline on every platform.

use mem_sim::cache::{Eviction, ReplacementKind, SetAssocCache};
use mem_sim::dram::{DramConfig, DramModule};
use mem_sim::mscache::{BlockState, SectoredDramCache};
use workloads::rng::SplitMix64;

const CASES: u64 = 128;

/// DRAM read completions are causal (after the request) and the bus
/// reservation never runs backward.
#[test]
fn dram_completions_are_causal() {
    let mut rng = SplitMix64::new(0x51_0001);
    for _ in 0..CASES {
        let len = rng.range_u64(1, 200) as usize;
        let mut m = DramModule::new(DramConfig::hbm_102(), 4000.0);
        let mut now = 0u64;
        for _ in 0..len {
            let b = rng.below(1 << 22);
            now += rng.below(50);
            let done = m.read_block(b, now);
            assert!(done > now, "completion {done} must be after request {now}");
            assert!(done - now < 100_000, "latency must stay bounded");
        }
    }
}

/// The channel never serves more bandwidth than its peak: N same-row
/// reads need at least N bursts of bus time.
#[test]
fn dram_bandwidth_never_exceeds_peak() {
    let mut rng = SplitMix64::new(0x51_0002);
    for _ in 0..CASES {
        let n = rng.range_u64(1, 2000);
        let mut m = DramModule::new(DramConfig::hbm_102(), 4000.0);
        let mut last = 0;
        for b in 0..n {
            last = last.max(m.read_block(b, 0));
        }
        // 102.4 GB/s @ 4 GHz = 0.4 blocks/cycle peak.
        let min_cycles = (n as f64 / 0.4).floor() as u64;
        assert!(
            last >= min_cycles.saturating_sub(200),
            "{n} blocks in {last} cycles beats peak bandwidth"
        );
    }
}

/// Cache directory: a just-inserted key is present; an invalidated key
/// is absent; occupancy never exceeds capacity.
#[test]
fn set_assoc_invariants() {
    let mut rng = SplitMix64::new(0x51_0003);
    let set_choices = [4u64, 16, 64];
    let way_choices = [1usize, 2, 4, 8, 16];
    for _ in 0..CASES {
        let len = rng.range_u64(1, 300) as usize;
        let sets = set_choices[rng.index(set_choices.len())];
        let ways = way_choices[rng.index(way_choices.len())];
        let mut c: SetAssocCache<u8> = SetAssocCache::new(sets, ways, ReplacementKind::Lru);
        for i in 0..len {
            let k = rng.below(4096);
            if i % 5 == 4 {
                c.invalidate(k);
                assert!(!c.contains(k));
            } else {
                c.insert(k, 0, i % 2 == 0);
                assert!(c.contains(k), "key {k} vanished right after insert");
            }
            assert!(c.occupancy() <= (sets as usize) * ways);
        }
    }
}

/// Reference LRU directory for [`lru_matches_stamp_reference`]: every
/// line carries the global tick of its last touch and the victim of a
/// full set is the line with the smallest stamp (ties to the lowest way).
/// Invalid ways are filled lowest first; invalidation leaves stamps stale.
struct StampLru {
    sets: u64,
    ways: usize,
    /// `(key, dirty, payload)` of each valid line, at `set * ways + way`.
    lines: Vec<Option<(u64, bool, u32)>>,
    last_use: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl StampLru {
    fn new(sets: u64, ways: usize) -> Self {
        let n = sets as usize * ways;
        Self {
            sets,
            ways,
            lines: vec![None; n],
            last_use: vec![0; n],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let base = (key % self.sets) as usize * self.ways;
        base..base + self.ways
    }

    fn find(&self, key: u64) -> Option<usize> {
        self.set_range(key)
            .find(|&i| matches!(self.lines[i], Some((k, _, _)) if k == key))
    }

    fn touch(&mut self, i: usize) {
        self.tick += 1;
        self.last_use[i] = self.tick;
    }

    fn lookup(&mut self, key: u64) -> bool {
        match self.find(key) {
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn insert(&mut self, key: u64, payload: u32, dirty: bool) -> Option<(u64, bool, u32)> {
        if let Some(i) = self.find(key) {
            let (_, was_dirty, _) = self.lines[i].expect("found line is valid");
            self.lines[i] = Some((key, was_dirty || dirty, payload));
            self.touch(i);
            return None;
        }
        let range = self.set_range(key);
        let victim = match range.clone().find(|&i| self.lines[i].is_none()) {
            Some(free) => free,
            None => range.min_by_key(|&i| self.last_use[i]).expect("ways > 0"),
        };
        let evicted = self.lines[victim].take();
        self.lines[victim] = Some((key, dirty, payload));
        self.touch(victim);
        evicted
    }

    fn touch_key(&mut self, key: u64) {
        if let Some(i) = self.find(key) {
            self.touch(i);
        }
    }

    fn mark_dirty(&mut self, key: u64) -> bool {
        match self.find(key) {
            Some(i) => {
                if let Some(line) = self.lines[i].as_mut() {
                    line.1 = true;
                }
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, key: u64) -> Option<(u64, bool, u32)> {
        self.find(key).and_then(|i| self.lines[i].take())
    }

    fn invalidate_set(&mut self, set: u64) -> Vec<(u64, bool, u32)> {
        let base = set as usize * self.ways;
        (base..base + self.ways)
            .filter_map(|i| self.lines[i].take())
            .collect()
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }
}

fn triple(e: Eviction<u32>) -> (u64, bool, u32) {
    (e.key, e.dirty, e.payload)
}

/// The LRU directory evicts exactly what the stamp-based reference evicts
/// (key, dirty bit and payload, in order) and agrees on hit/miss counts
/// and occupancy, over every LRU associativity and power-of-two and other
/// set counts, under a random mix of every state-changing operation.
#[test]
fn lru_matches_stamp_reference() {
    let mut rng = SplitMix64::new(0x51_0006);
    let set_choices = [1u64, 3, 4, 5, 7, 16, 24, 64];
    let mut cases = 0;
    for ways in 1..=16usize {
        for _ in 0..16 {
            cases += 1;
            let sets = set_choices[rng.index(set_choices.len())];
            let lines = sets * ways as u64;
            // A key space a few times the capacity keeps sets full.
            let key_space = lines * rng.range_u64(2, 5);
            let mut c: SetAssocCache<u32> = SetAssocCache::new(sets, ways, ReplacementKind::Lru);
            let mut r = StampLru::new(sets, ways);
            let len = rng.range_u64(100, 1500);
            for step in 0..len {
                let k = rng.below(key_space);
                let payload = step as u32;
                let dirty = rng.chance(0.3);
                let ctx = format!("sets {sets} ways {ways} step {step} key {k}");
                match rng.below(100) {
                    0..=34 => assert_eq!(
                        c.insert(k, payload, dirty).map(triple),
                        r.insert(k, payload, dirty),
                        "insert: {ctx}"
                    ),
                    35..=69 => {
                        let hit = c.lookup_slot(k).is_some();
                        assert_eq!(hit, r.lookup(k), "lookup: {ctx}");
                        if !hit {
                            assert_eq!(
                                c.insert_absent(k, payload, dirty).map(triple),
                                r.insert(k, payload, dirty),
                                "insert_absent: {ctx}"
                            );
                        }
                    }
                    70..=81 => {
                        if let Some(slot) = c.peek_slot(k) {
                            c.touch_slot(slot);
                        }
                        r.touch_key(k);
                    }
                    82..=89 => assert_eq!(c.mark_dirty(k), r.mark_dirty(k), "mark_dirty: {ctx}"),
                    90..=97 => assert_eq!(
                        c.invalidate(k).map(triple),
                        r.invalidate(k),
                        "invalidate: {ctx}"
                    ),
                    _ => {
                        let set = rng.below(sets);
                        let got: Vec<_> = c.invalidate_set(set).into_iter().map(triple).collect();
                        assert_eq!(got, r.invalidate_set(set), "invalidate_set {set}: {ctx}");
                    }
                }
                assert_eq!(c.occupancy(), r.occupancy(), "occupancy: {ctx}");
            }
            assert_eq!(
                c.hit_miss_counts(),
                (r.hits, r.misses),
                "sets {sets} ways {ways}"
            );
        }
    }
    assert_eq!(cases, 16 * 16);
}

/// Eviction keys always reconstruct to a previously inserted key.
#[test]
fn evictions_return_real_keys() {
    let mut rng = SplitMix64::new(0x51_0004);
    for _ in 0..CASES {
        let len = rng.range_u64(1, 300) as usize;
        let mut c: SetAssocCache<()> = SetAssocCache::new(8, 2, ReplacementKind::Nru);
        let mut inserted = std::collections::HashSet::new();
        for _ in 0..len {
            let k = rng.below(10_000);
            if let Some(ev) = c.insert(k, (), false) {
                assert!(
                    inserted.contains(&ev.key),
                    "evicted key {} was never inserted",
                    ev.key
                );
            }
            inserted.insert(k);
        }
    }
}

/// Sectored cache state machine: write -> hit; invalidate -> miss;
/// dirty blocks always reported on eviction exactly once.
#[test]
fn sectored_state_machine() {
    let mut rng = SplitMix64::new(0x51_0005);
    for _ in 0..CASES {
        let len = rng.range_u64(1, 300) as usize;
        let mut c = SectoredDramCache::new(
            1 << 22, // 4 MB
            4096,
            4,
            DramConfig::hbm_102(),
            4000.0,
            true,
        );
        for _ in 0..len {
            let block = rng.below(1 << 14);
            let dirty = rng.chance(0.5);
            if !c.sector_present(block) {
                let _ = c.allocate(block, 0);
            }
            assert!(c.write_data(block, 0, dirty));
            let expect = if dirty {
                BlockState::DirtyHit
            } else {
                c.state(block)
            };
            assert_ne!(c.state(block), BlockState::Miss);
            if dirty {
                assert_eq!(c.state(block), expect);
            }
            c.invalidate_block(block);
            assert_eq!(c.state(block), BlockState::Miss);
        }
    }
}

#[test]
fn dram_modules_are_deterministic() {
    let run = || {
        let mut m = DramModule::new(DramConfig::ddr4_2400(), 4000.0);
        let mut acc = 0u64;
        for i in 0..5_000u64 {
            acc = acc.wrapping_add(m.read_block(i.wrapping_mul(2654435761) % (1 << 20), i * 3));
            if i % 3 == 0 {
                m.write_block(i % (1 << 20), i * 3);
            }
        }
        m.flush_writes(1 << 20);
        (acc, m.stats())
    };
    assert_eq!(run(), run());
}
