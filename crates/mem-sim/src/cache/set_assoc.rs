//! A generic set-associative cache directory.
//!
//! Keys are abstract line indices (block addresses, sector indices, DBC
//! stretch ids, ...). Each line can carry a payload `P` — footprint bit
//! vectors, dirty-bit vectors, tag-cache metadata — which is returned to the
//! caller on eviction so writeback side effects can be modeled.
//!
//! # Layout
//!
//! Line state is kept in struct-of-arrays form: tags and payloads in flat
//! parallel arrays indexed `set * ways + way`, and the per-set metadata as
//! one 64-bit word each: a valid way-mask, a dirty way-mask and a
//! replacement word. A probe therefore touches one mask word plus the tag
//! lane — two cache lines for a 16-way set instead of the eight an
//! array-of-structs layout costs — and the dirty state is read and updated
//! with single bit operations. This is the layout the simulator's hot loops
//! (L1/L2/L3 probes, sector directory, SRAM tag cache, Alloy DBC) scan
//! millions of times per second.
//!
//! The replacement word depends on the policy:
//!
//! - **NRU**: a way-mask of reference bits.
//! - **LRU**: the set's recency order, one 4-bit way index per rank with
//!   rank 0 (the low nibble) the most recently used, stored XOR
//!   [`IDENTITY_ORDER`]. A zeroed word is therefore the valid order
//!   "way `r` at rank `r`", so the array needs no initialization and its
//!   pages stay lazily faulted. A touch moves one way to rank 0 and the
//!   victim is read from rank `ways - 1`, both in O(1); LRU is limited to
//!   16 ways so the order fits one word.

use super::replacement::ReplacementKind;

/// The identity recency order (way `r` at rank `r`), XOR-ed into every
/// stored LRU word so that zero encodes it.
const IDENTITY_ORDER: u64 = 0xFEDC_BA98_7654_3210;

/// One in each nibble.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// Most ways an LRU set can have: its order packs 4-bit way indices into
/// one 64-bit word.
const MAX_LRU_WAYS: usize = 16;

/// Rank of `way` in the recency order `order`: a SWAR search for the one
/// nibble equal to `way`. Nibbles at ranks at or above the set's way count
/// hold their own rank (see [`IDENTITY_ORDER`]), so they never match.
#[inline]
fn rank_of(order: u64, way: u64) -> u32 {
    let x = order ^ (way * NIBBLE_ONES);
    // High bit of each zero nibble of `x`; a borrow can only add false
    // positives above the lowest zero nibble, which is the one we want.
    let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
    debug_assert!(zero != 0, "way missing from recency order");
    zero.trailing_zeros() / 4
}

/// `order` with the way at `rank` moved to rank 0, ranks below it shifted
/// up by one.
#[inline]
fn move_to_front(order: u64, rank: u32) -> u64 {
    let shift = 4 * rank;
    let way = (order >> shift) & 0xF;
    let above = order & (u64::MAX << shift << 4);
    let below = order & !(u64::MAX << shift);
    above | below << 4 | way
}

/// Elements per 4 KB page (at least 1, for oversized `T`).
fn page_stride<T>() -> usize {
    (4096 / std::mem::size_of::<T>().max(1)).max(1)
}

/// Touches one element per page of a zero-filled allocation so its
/// backing pages are faulted in up front (see [`SetAssocCache::new`]).
/// `black_box` keeps the self-assignment from being optimized away.
fn prefault<T: Copy>(v: &mut [T]) {
    for i in (0..v.len()).step_by(page_stride::<T>()) {
        v[i] = std::hint::black_box(v[i]);
    }
}

/// A line evicted by [`SetAssocCache::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<P> {
    /// The key the evicted line was inserted under.
    pub key: u64,
    /// Whether the line was dirty.
    pub dirty: bool,
    /// The line's payload.
    pub payload: P,
}

/// An opaque handle to a resident line, returned by the slot-returning
/// probe/insert variants so follow-up metadata updates (dirty marking,
/// payload access) skip the repeated tag scan.
///
/// A `Slot` is invalidated by any subsequent `insert`/`invalidate` on the
/// same cache; using a stale slot is a logic error (debug-asserted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// A set-associative cache directory with LRU or NRU replacement.
///
/// ```
/// use mem_sim::cache::{ReplacementKind, SetAssocCache};
/// let mut c: SetAssocCache<()> = SetAssocCache::new(4, 2, ReplacementKind::Lru);
/// assert!(c.insert(42, (), false).is_none());
/// assert!(c.lookup(42));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P> {
    sets: u64,
    /// `log2(sets)` when `sets` is a power of two (the common geometry):
    /// set/tag extraction becomes mask+shift instead of two divisions.
    set_shift: Option<u32>,
    ways: usize,
    /// Tag of each line (`set * ways + way`); meaningful only where the
    /// set's valid mask has the way's bit.
    tags: Vec<u64>,
    /// Payload of each line.
    payloads: Vec<P>,
    /// Per-set way masks: bit `w` set means way `w` holds a valid line.
    valid: Vec<u64>,
    /// Per-set way masks: bit `w` set means way `w` is dirty.
    dirty: Vec<u64>,
    /// Per-set replacement words: NRU reference bits, or the LRU recency
    /// order XOR [`IDENTITY_ORDER`] (see the module docs).
    repl: Vec<u64>,
    policy: ReplacementKind,
    hits: u64,
    misses: u64,
}

impl<P: Default + Clone> SetAssocCache<P> {
    /// Creates an empty cache with `sets x ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, `ways` exceeds 64 (way
    /// metadata is tracked in 64-bit masks), or an LRU cache has more than
    /// 16 ways (its recency order packs 4-bit ranks into one word).
    pub fn new(sets: u64, ways: usize, policy: ReplacementKind) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        assert!(ways <= 64, "way metadata is tracked in 64-bit masks");
        assert!(
            policy != ReplacementKind::Lru || ways <= MAX_LRU_WAYS,
            "LRU supports at most {MAX_LRU_WAYS} ways (4-bit ranks in a 64-bit order), got {ways}"
        );
        let lines = (sets as usize) * ways;
        let mut cache = Self {
            sets,
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            ways,
            tags: vec![0; lines],
            payloads: vec![P::default(); lines],
            valid: vec![0; sets as usize],
            dirty: vec![0; sets as usize],
            repl: vec![0; sets as usize],
            policy,
            hits: 0,
            misses: 0,
        };
        // A multi-megabyte directory allocated with `vec![0; n]` maps
        // copy-on-write zero pages; left alone, the page faults land on
        // the first simulated accesses that touch each page — i.e. inside
        // the measured hot loop, where they show up as multi-millisecond
        // warmup noise in short benchmark cells. Touch one element per
        // page now, at construction, where setup cost belongs.
        prefault(&mut cache.tags);
        for i in (0..cache.payloads.len()).step_by(page_stride::<P>()) {
            let line = std::mem::take(&mut cache.payloads[i]);
            cache.payloads[i] = std::hint::black_box(line);
        }
        prefault(&mut cache.valid);
        cache
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Lifetime (hits, misses) counts from `lookup`/`lookup_payload`.
    pub fn hit_miss_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Mask with one bit per way.
    #[inline]
    fn ways_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    #[inline]
    fn split(&self, key: u64) -> (usize, u64) {
        match self.set_shift {
            Some(sh) => ((key & (self.sets - 1)) as usize, key >> sh),
            None => ((key % self.sets) as usize, key / self.sets),
        }
    }

    /// Reconstructs the key of the line at `idx`.
    #[inline]
    fn key_of(&self, idx: usize) -> u64 {
        self.tags[idx] * self.sets + (idx / self.ways) as u64
    }

    /// Finds `key`'s line index, scanning only valid ways in way order.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let (set, tag) = self.split(key);
        let base = set * self.ways;
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if self.tags[base + way] == tag {
                return Some(base + way);
            }
            mask &= mask - 1;
        }
        None
    }

    /// Touches `idx` for replacement. Under LRU it moves the line's way to
    /// rank 0 of the set's recency order; touching the way already at rank
    /// 0 writes nothing, so a 1-way directory never writes its order array
    /// and its zeroed pages are never faulted in. Under NRU it sets the
    /// line's reference bit exactly as the paper's single-bit scheme
    /// requires: when every valid line is referenced, all bits except the
    /// touched line's clear.
    #[inline]
    fn touch(&mut self, idx: usize) {
        let set = idx / self.ways;
        let way = idx % self.ways;
        match self.policy {
            ReplacementKind::Lru => {
                let order = self.repl[set] ^ IDENTITY_ORDER;
                let rank = rank_of(order, way as u64);
                if rank != 0 {
                    self.repl[set] = move_to_front(order, rank) ^ IDENTITY_ORDER;
                }
            }
            ReplacementKind::Nru => {
                let bit = 1u64 << way;
                let wm = self.ways_mask();
                self.repl[set] |= bit;
                // Every way is either invalid or referenced: clear the others.
                if (self.repl[set] | !self.valid[set]) & wm == wm {
                    self.repl[set] = bit;
                }
            }
        }
    }

    /// Probes for `key`, updating replacement state and hit/miss counters.
    pub fn lookup(&mut self, key: u64) -> bool {
        self.lookup_slot(key).is_some()
    }

    /// [`Self::lookup`], returning the hit line's [`Slot`] so follow-up
    /// metadata updates skip a second tag scan.
    pub fn lookup_slot(&mut self, key: u64) -> Option<Slot> {
        match self.find(key) {
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                Some(Slot(i))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Probes for `key` and returns mutable access to its payload on a hit.
    pub fn lookup_payload(&mut self, key: u64) -> Option<&mut P> {
        match self.find(key) {
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                Some(&mut self.payloads[i])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks presence without perturbing replacement state or counters.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Returns the hit line's [`Slot`] without perturbing replacement
    /// state or counters.
    pub fn peek_slot(&self, key: u64) -> Option<Slot> {
        self.find(key).map(Slot)
    }

    /// Returns the payload without perturbing replacement state.
    pub fn peek(&self, key: u64) -> Option<&P> {
        self.find(key).map(|i| &self.payloads[i])
    }

    /// Returns the payload mutably without perturbing replacement state.
    pub fn peek_mut(&mut self, key: u64) -> Option<&mut P> {
        self.find(key).map(|i| &mut self.payloads[i])
    }

    /// Whether the line holding `key` is dirty.
    pub fn is_dirty(&self, key: u64) -> bool {
        match self.find(key) {
            Some(i) => self.dirty[i / self.ways] >> (i % self.ways) & 1 == 1,
            None => false,
        }
    }

    /// Marks the line holding `key` dirty; returns `false` if absent.
    pub fn mark_dirty(&mut self, key: u64) -> bool {
        if let Some(i) = self.find(key) {
            self.dirty[i / self.ways] |= 1 << (i % self.ways);
            true
        } else {
            false
        }
    }

    /// Reads the payload of a line found earlier (via a slot-returning
    /// probe) without a second tag scan.
    pub fn slot_payload(&self, slot: Slot) -> &P {
        debug_assert!(
            self.valid[slot.0 / self.ways] >> (slot.0 % self.ways) & 1 == 1,
            "stale slot"
        );
        &self.payloads[slot.0]
    }

    /// Mutable access to the payload of a line found earlier.
    pub fn slot_payload_mut(&mut self, slot: Slot) -> &mut P {
        debug_assert!(
            self.valid[slot.0 / self.ways] >> (slot.0 % self.ways) & 1 == 1,
            "stale slot"
        );
        &mut self.payloads[slot.0]
    }

    /// Whether the line at `slot` is dirty.
    pub fn slot_is_dirty(&self, slot: Slot) -> bool {
        self.dirty[slot.0 / self.ways] >> (slot.0 % self.ways) & 1 == 1
    }

    /// Marks a line found earlier (via a slot-returning probe) dirty.
    pub fn mark_dirty_slot(&mut self, slot: Slot) {
        debug_assert!(
            self.valid[slot.0 / self.ways] >> (slot.0 % self.ways) & 1 == 1,
            "stale slot"
        );
        self.dirty[slot.0 / self.ways] |= 1 << (slot.0 % self.ways);
    }

    /// Clears the dirty bit of a line found earlier.
    pub fn clear_dirty_slot(&mut self, slot: Slot) {
        debug_assert!(
            self.valid[slot.0 / self.ways] >> (slot.0 % self.ways) & 1 == 1,
            "stale slot"
        );
        self.dirty[slot.0 / self.ways] &= !(1 << (slot.0 % self.ways));
    }

    /// Updates replacement state for a line found earlier, exactly as a
    /// `lookup` hit on it would (without the hit/miss counting).
    pub fn touch_slot(&mut self, slot: Slot) {
        debug_assert!(
            self.valid[slot.0 / self.ways] >> (slot.0 % self.ways) & 1 == 1,
            "stale slot"
        );
        self.touch(slot.0);
    }

    /// Inserts `key`, evicting a victim if the set is full. If `key` is
    /// already present its payload and dirty bit are replaced (dirty is
    /// OR-ed) and no eviction occurs.
    pub fn insert(&mut self, key: u64, payload: P, dirty: bool) -> Option<Eviction<P>> {
        self.insert_slot(key, payload, dirty).0
    }

    /// [`Self::insert`], also returning the filled line's [`Slot`] so the
    /// caller can read the post-insert metadata (e.g. the sticky dirty
    /// bit) without another tag scan.
    pub fn insert_slot(
        &mut self,
        key: u64,
        payload: P,
        dirty: bool,
    ) -> (Option<Eviction<P>>, Slot) {
        if let Some(i) = self.find(key) {
            self.payloads[i] = payload;
            if dirty {
                self.dirty[i / self.ways] |= 1 << (i % self.ways);
            }
            self.touch(i);
            return (None, Slot(i));
        }
        self.insert_absent_slot(key, payload, dirty)
    }

    /// [`Self::insert`] for a key the caller has just proven absent (a
    /// preceding `lookup`/`contains` miss with no intervening insert):
    /// skips the presence scan and goes straight to victim selection.
    ///
    /// Calling this with a resident key is a logic error (debug-asserted)
    /// that would duplicate the line.
    pub fn insert_absent(&mut self, key: u64, payload: P, dirty: bool) -> Option<Eviction<P>> {
        self.insert_absent_slot(key, payload, dirty).0
    }

    /// [`Self::insert_absent`], also returning the filled line's [`Slot`].
    pub fn insert_absent_slot(
        &mut self,
        key: u64,
        payload: P,
        dirty: bool,
    ) -> (Option<Eviction<P>>, Slot) {
        debug_assert!(self.find(key).is_none(), "insert_absent on resident key");
        let (set, tag) = self.split(key);
        let base = set * self.ways;
        let free = !self.valid[set] & self.ways_mask();
        // Prefer an invalid way.
        let victim = if free != 0 {
            base + free.trailing_zeros() as usize
        } else {
            self.pick_victim(base)
        };
        let vbit = 1u64 << (victim % self.ways);
        let evicted = if self.valid[set] & vbit != 0 {
            Some(Eviction {
                key: self.key_of(victim),
                dirty: self.dirty[set] & vbit != 0,
                payload: std::mem::take(&mut self.payloads[victim]),
            })
        } else {
            None
        };
        self.tags[victim] = tag;
        self.valid[set] |= vbit;
        if dirty {
            self.dirty[set] |= vbit;
        } else {
            self.dirty[set] &= !vbit;
        }
        if self.policy == ReplacementKind::Nru {
            self.repl[set] &= !vbit;
        }
        self.payloads[victim] = payload;
        self.touch(victim);
        (evicted, Slot(victim))
    }

    fn pick_victim(&self, base: usize) -> usize {
        let set = base / self.ways;
        match self.policy {
            // The way at the last rank: every way of a full set has been
            // touched since it was filled, so it is the least recently used.
            ReplacementKind::Lru => {
                let order = self.repl[set] ^ IDENTITY_ORDER;
                base + ((order >> (4 * (self.ways - 1))) & 0xF) as usize
            }
            ReplacementKind::Nru => {
                let unref = !self.repl[set] & self.ways_mask();
                if unref != 0 {
                    base + unref.trailing_zeros() as usize
                } else {
                    base
                }
            }
        }
    }

    /// Invalidates `key`; returns the evicted line if it was present.
    /// (The LRU order and NRU bits are left stale, exactly as a real
    /// directory's replacement state would be.)
    pub fn invalidate(&mut self, key: u64) -> Option<Eviction<P>> {
        let i = self.find(key)?;
        let set = i / self.ways;
        let bit = 1u64 << (i % self.ways);
        self.valid[set] &= !bit;
        let dirty = self.dirty[set] & bit != 0;
        self.dirty[set] &= !bit;
        Some(Eviction {
            key,
            dirty,
            payload: std::mem::take(&mut self.payloads[i]),
        })
    }

    /// Invalidates every line in set `set_index` (used by BATMAN's set
    /// disabling), returning the dirty lines that must be written back.
    pub fn invalidate_set(&mut self, set_index: u64) -> Vec<Eviction<P>> {
        assert!(set_index < self.sets, "set index out of range");
        let set = set_index as usize;
        let base = set * self.ways;
        let mut out = Vec::new();
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            let bit = 1u64 << way;
            out.push(Eviction {
                key: self.key_of(base + way),
                dirty: self.dirty[set] & bit != 0,
                payload: std::mem::take(&mut self.payloads[base + way]),
            });
            mask &= mask - 1;
        }
        self.valid[set] = 0;
        self.dirty[set] = 0;
        out
    }

    /// Peeks every valid line in `key`'s set without perturbing replacement
    /// state: (reconstructed key, dirty, payload reference).
    pub fn peek_set(&self, key: u64) -> Vec<(u64, bool, &P)> {
        let (set, _) = self.split(key);
        let base = set * self.ways;
        let mut out = Vec::new();
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            out.push((
                self.key_of(base + way),
                self.dirty[set] >> way & 1 == 1,
                &self.payloads[base + way],
            ));
            mask &= mask - 1;
        }
        out
    }

    /// Number of valid lines (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: u64, ways: usize, policy: ReplacementKind) -> SetAssocCache<u32> {
        SetAssocCache::new(sets, ways, policy)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = cache(16, 4, ReplacementKind::Lru);
        c.insert(100, 7, false);
        assert!(c.lookup(100));
        assert_eq!(c.peek(100), Some(&7));
        assert_eq!(c.hit_miss_counts(), (1, 0));
    }

    #[test]
    fn miss_on_absent() {
        let mut c = cache(16, 4, ReplacementKind::Lru);
        assert!(!c.lookup(100));
        assert_eq!(c.hit_miss_counts(), (0, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = cache(1, 2, ReplacementKind::Lru);
        c.insert(0, 0, false);
        c.insert(1, 1, false);
        c.lookup(0); // 1 is now LRU
        let ev = c.insert(2, 2, false).expect("eviction");
        assert_eq!(ev.key, 1);
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
    }

    #[test]
    fn eviction_reconstructs_key() {
        let mut c = cache(8, 1, ReplacementKind::Lru);
        c.insert(3 + 8 * 5, 0, true); // set 3, tag 5
        let ev = c.insert(3 + 8 * 9, 0, false).expect("conflict eviction");
        assert_eq!(ev.key, 3 + 8 * 5);
        assert!(ev.dirty);
    }

    #[test]
    fn nru_prefers_unreferenced_victim() {
        let mut c = cache(1, 4, ReplacementKind::Nru);
        for k in 0..4 {
            c.insert(k, k as u32, false);
        }
        // Touch 0..3 except 2.
        c.lookup(0);
        c.lookup(1);
        c.lookup(3);
        let ev = c.insert(10, 10, false).expect("eviction");
        assert_eq!(ev.key, 2, "the not-recently-used line is the victim");
    }

    #[test]
    fn nru_clears_bits_when_all_referenced() {
        let mut c = cache(1, 2, ReplacementKind::Nru);
        c.insert(0, 0, false);
        c.insert(1, 1, false);
        c.lookup(0);
        c.lookup(1); // all referenced: bits clear except line 1
        let ev = c.insert(2, 2, false).expect("eviction");
        assert_eq!(ev.key, 0);
    }

    #[test]
    fn reinsert_updates_payload_and_ors_dirty() {
        let mut c = cache(4, 2, ReplacementKind::Lru);
        c.insert(5, 1, true);
        assert!(c.insert(5, 2, false).is_none());
        assert_eq!(c.peek(5), Some(&2));
        assert!(c.is_dirty(5), "dirty bit must be sticky across re-insert");
    }

    #[test]
    fn invalidate_returns_dirty_state() {
        let mut c = cache(4, 2, ReplacementKind::Lru);
        c.insert(5, 1, false);
        c.mark_dirty(5);
        let ev = c.invalidate(5).expect("line present");
        assert!(ev.dirty);
        assert!(!c.contains(5));
    }

    #[test]
    fn invalidate_set_flushes_everything() {
        let mut c = cache(2, 2, ReplacementKind::Lru);
        c.insert(0, 0, true); // set 0
        c.insert(2, 1, false); // set 0
        c.insert(1, 2, false); // set 1
        let evs = c.invalidate_set(0);
        assert_eq!(evs.len(), 2);
        assert!(c.contains(1));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn fills_all_ways_before_evicting() {
        let mut c = cache(2, 4, ReplacementKind::Lru);
        for i in 0..4 {
            assert!(
                c.insert(i * 2, 0, false).is_none(),
                "way {i} should be free"
            );
        }
        assert!(c.insert(8, 0, false).is_some());
    }

    #[test]
    fn insert_absent_matches_insert() {
        // Drive two caches with the same stream; one uses the fused
        // absent-insert after a lookup miss. State must stay identical.
        let mut plain = cache(8, 2, ReplacementKind::Lru);
        let mut fused = cache(8, 2, ReplacementKind::Lru);
        let mut x = 7u64;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 64;
            let d = i % 3 == 0;
            let ev_a = if plain.lookup(k) {
                None
            } else {
                plain.insert(k, i as u32, d)
            };
            let ev_b = match fused.lookup_slot(k) {
                Some(_) => None,
                None => fused.insert_absent(k, i as u32, d),
            };
            assert_eq!(ev_a, ev_b);
        }
        assert_eq!(plain.hit_miss_counts(), fused.hit_miss_counts());
        assert_eq!(plain.occupancy(), fused.occupancy());
    }

    #[test]
    fn slot_dirty_marking_matches_keyed_marking() {
        let mut a = cache(4, 4, ReplacementKind::Lru);
        let mut b = cache(4, 4, ReplacementKind::Lru);
        a.insert(9, 0, false);
        b.insert(9, 0, false);
        a.lookup(9);
        a.mark_dirty(9);
        let slot = b.lookup_slot(9).expect("hit");
        b.mark_dirty_slot(slot);
        assert_eq!(a.is_dirty(9), b.is_dirty(9));
        let (_, slot) = b.insert_absent_slot(13, 1, false);
        b.mark_dirty_slot(slot);
        assert!(b.is_dirty(13));
    }

    #[test]
    fn sixty_four_ways_is_the_mask_limit() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(2, 64, ReplacementKind::Nru);
        for k in 0..128 {
            c.insert(k, (), false);
        }
        assert_eq!(c.occupancy(), 128);
        assert!(c.insert(128, (), false).is_some());
    }

    #[test]
    #[should_panic(expected = "64-bit masks")]
    fn more_than_sixty_four_ways_is_rejected() {
        let _: SetAssocCache<()> = SetAssocCache::new(1, 65, ReplacementKind::Lru);
    }

    #[test]
    #[should_panic(expected = "LRU supports at most 16 ways")]
    fn lru_above_sixteen_ways_is_rejected() {
        let _: SetAssocCache<()> = SetAssocCache::new(1, 17, ReplacementKind::Lru);
    }
}
