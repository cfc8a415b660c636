//! A banked set-associative arena: every bank of a replicated structure
//! (one MD1 per node, one L1 per node, one LLC slice per node, ...) lives
//! in ONE contiguous allocation, addressed by `(bank, set, way)` arithmetic.
//!
//! Semantically each bank is an independent [`crate::SetAssoc`]: it has its
//! own LRU use-tick and the same hashed/plain set indexing, so replacing a
//! `Vec<SetAssoc<V>>` (or per-node struct fields) with one [`Banked`] arena
//! is behavior-preserving down to the exact victim choices — simulation
//! output stays byte-identical. What changes is the memory layout: the hot
//! path walks a single flat slice instead of chasing `Vec<Vec<...>>`
//! indirections, mirroring how D2M's own LI scheme keeps metadata lookups
//! pointer-free in hardware.
//!
//! Storage is split structure-of-arrays: the per-slot scan record (key +
//! recency tick, 16 bytes) lives apart from the value payload, so the
//! associative scans (`way_of`, victim selection, `is_mru`) stride over a
//! dense tag array — the software analogue of a hardware tag array sitting
//! next to a data array — instead of skipping over value bytes.

use d2m_common::rng::SimRng;

/// Per-slot scan record. `last_use == 0` means the slot is empty — ticks
/// start at 1, so an occupied slot always has a nonzero tick.
#[derive(Clone, Copy, Debug)]
struct SlotMeta {
    key: u64,
    last_use: u64,
}

const EMPTY: SlotMeta = SlotMeta {
    key: 0,
    last_use: 0,
};

/// A fixed geometry of `banks × sets × ways` slots in one contiguous arena,
/// mapping `u64` keys to `V` values within each `(bank, set)`.
#[derive(Clone, Debug)]
pub struct Banked<V> {
    banks: usize,
    sets: usize,
    ways: usize,
    /// Scan records, `(bank * sets + set) * ways + way` indexed.
    meta: Vec<SlotMeta>,
    /// Value payloads, same indexing. `vals[i].is_some()` ⇔
    /// `meta[i].last_use != 0`.
    vals: Vec<Option<V>>,
    /// One LRU clock per bank — identical tick sequences to per-bank
    /// `SetAssoc` instances, which is what keeps replacement byte-identical.
    ticks: Vec<u64>,
    hashed: bool,
}

impl<V> Banked<V> {
    /// Creates an empty arena with plain low-bit set indexing.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `banks`/`ways` is zero.
    pub fn new(banks: usize, sets: usize, ways: usize) -> Self {
        Self::build(banks, sets, ways, false)
    }

    /// Creates an arena whose [`Self::set_index`] XOR-folds the key (the
    /// skewed indexing used by the metadata stores).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `banks`/`ways` is zero.
    pub fn with_hashed_index(banks: usize, sets: usize, ways: usize) -> Self {
        Self::build(banks, sets, ways, true)
    }

    fn build(banks: usize, sets: usize, ways: usize, hashed: bool) -> Self {
        assert!(banks > 0, "banks must be nonzero");
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        let n = banks * sets * ways;
        let mut vals = Vec::with_capacity(n);
        vals.resize_with(n, || None);
        Self {
            banks,
            sets,
            ways,
            meta: vec![EMPTY; n],
            vals,
            ticks: vec![0; banks],
            hashed,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of sets per bank.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Set index for a key: low bits, or an XOR-fold of the whole key for
    /// arenas built with [`Self::with_hashed_index`]. Identical to
    /// [`crate::SetAssoc::set_index`].
    #[inline]
    pub fn set_index(&self, key: u64) -> usize {
        let k = if self.hashed {
            key ^ (key >> 10) ^ (key >> 21) ^ (key >> 34)
        } else {
            key
        };
        (k as usize) & (self.sets - 1)
    }

    /// Flat offset of `(bank, set)`'s first way — the whole point of the
    /// arena: one multiply-add instead of two pointer dereferences.
    #[inline]
    fn base(&self, bank: usize, set: usize) -> usize {
        debug_assert!(bank < self.banks, "bank {bank} out of range");
        debug_assert!(set < self.sets, "set {set} out of range");
        (bank * self.sets + set) * self.ways
    }

    #[inline]
    fn bump(&mut self, bank: usize) -> u64 {
        self.ticks[bank] += 1;
        self.ticks[bank]
    }

    /// Finds the way holding `key` in `(bank, set)`, if present. No LRU
    /// update. A dense scan over the 16-byte records only.
    #[inline]
    pub fn way_of(&self, bank: usize, set: usize, key: u64) -> Option<usize> {
        let b = self.base(bank, set);
        self.meta[b..b + self.ways]
            .iter()
            .position(|m| m.last_use != 0 && m.key == key)
    }

    /// Keyed lookup with LRU touch. Returns the value if present.
    pub fn get(&mut self, bank: usize, set: usize, key: u64) -> Option<&V> {
        let way = self.way_of(bank, set, key)?;
        self.touch(bank, set, way);
        let b = self.base(bank, set);
        self.vals[b + way].as_ref()
    }

    /// Keyed mutable lookup with LRU touch.
    pub fn get_mut(&mut self, bank: usize, set: usize, key: u64) -> Option<&mut V> {
        let way = self.way_of(bank, set, key)?;
        self.touch(bank, set, way);
        let b = self.base(bank, set);
        self.vals[b + way].as_mut()
    }

    /// Keyed lookup without LRU update.
    pub fn peek(&self, bank: usize, set: usize, key: u64) -> Option<&V> {
        let way = self.way_of(bank, set, key)?;
        let b = self.base(bank, set);
        self.vals[b + way].as_ref()
    }

    /// Direct slot read: `(key, value)` at `(bank, set, way)` if occupied.
    #[inline]
    pub fn at(&self, bank: usize, set: usize, way: usize) -> Option<(u64, &V)> {
        assert!(way < self.ways, "way {way} out of range");
        let i = self.base(bank, set) + way;
        let key = self.meta[i].key;
        self.vals[i].as_ref().map(|v| (key, v))
    }

    /// Direct mutable slot access (no LRU update; pair with [`Self::touch`]).
    #[inline]
    pub fn at_mut(&mut self, bank: usize, set: usize, way: usize) -> Option<(u64, &mut V)> {
        assert!(way < self.ways, "way {way} out of range");
        let i = self.base(bank, set) + way;
        let key = self.meta[i].key;
        self.vals[i].as_mut().map(|v| (key, v))
    }

    /// Marks `(bank, set, way)` most-recently used.
    pub fn touch(&mut self, bank: usize, set: usize, way: usize) {
        let t = self.bump(bank);
        let i = self.base(bank, set) + way;
        let m = &mut self.meta[i];
        if m.last_use != 0 {
            m.last_use = t;
        }
    }

    /// True if `(bank, set, way)` is the most-recently-used valid entry of
    /// its set.
    pub fn is_mru(&self, bank: usize, set: usize, way: usize) -> bool {
        let b = self.base(bank, set);
        let me = self.meta[b + way];
        if me.last_use == 0 {
            return false;
        }
        self.meta[b..b + self.ways]
            .iter()
            .all(|m| m.last_use <= me.last_use)
    }

    /// Inserts at an explicit `(bank, set, way)`, returning any evicted
    /// `(key, value)`.
    pub fn insert_at(
        &mut self,
        bank: usize,
        set: usize,
        way: usize,
        key: u64,
        value: V,
    ) -> Option<(u64, V)> {
        assert!(way < self.ways, "way {way} out of range");
        let t = self.bump(bank);
        let i = self.base(bank, set) + way;
        let old_key = self.meta[i].key;
        self.meta[i] = SlotMeta { key, last_use: t };
        self.vals[i].replace(value).map(|v| (old_key, v))
    }

    /// Removes and returns the entry at `(bank, set, way)`.
    pub fn remove(&mut self, bank: usize, set: usize, way: usize) -> Option<(u64, V)> {
        assert!(way < self.ways, "way {way} out of range");
        let i = self.base(bank, set) + way;
        let key = self.meta[i].key;
        self.meta[i] = EMPTY;
        self.vals[i].take().map(|v| (key, v))
    }

    /// LRU victim way: the first invalid way if any, otherwise the
    /// least-recently-used way. Scans records only — empty slots (tick 0)
    /// naturally win the minimum.
    pub fn victim_way(&self, bank: usize, set: usize) -> usize {
        let b = self.base(bank, set);
        let mut victim = 0;
        let mut best = u64::MAX;
        for (w, m) in self.meta[b..b + self.ways].iter().enumerate() {
            if m.last_use < best {
                best = m.last_use;
                victim = w;
            }
        }
        victim
    }

    /// Random victim way among valid entries (invalid ways still win first).
    pub fn victim_way_random(&self, bank: usize, set: usize, rng: &mut SimRng) -> usize {
        let b = self.base(bank, set);
        for (w, m) in self.meta[b..b + self.ways].iter().enumerate() {
            if m.last_use == 0 {
                return w;
            }
        }
        rng.below(self.ways as u64) as usize
    }

    /// Cost-biased victim: picks the valid way minimizing
    /// `(cost(key, value), last_use)`; invalid ways win outright.
    pub fn victim_way_with_cost<F>(&self, bank: usize, set: usize, cost: F) -> usize
    where
        F: Fn(u64, &V) -> u64,
    {
        let b = self.base(bank, set);
        let mut victim = 0;
        let mut best = (u64::MAX, u64::MAX);
        for (w, m) in self.meta[b..b + self.ways].iter().enumerate() {
            if m.last_use == 0 {
                return w;
            }
            let v = self.vals[b + w].as_ref().expect("meta/vals in sync");
            let c = (cost(m.key, v), m.last_use);
            if c < best {
                best = c;
                victim = w;
            }
        }
        victim
    }

    /// Iterates over the occupied slots of one bank as
    /// `(set, way, key, &value)`.
    pub fn iter_bank(&self, bank: usize) -> impl Iterator<Item = (usize, usize, u64, &V)> {
        let b = self.base(bank, 0);
        let n = self.sets * self.ways;
        self.meta[b..b + n]
            .iter()
            .zip(&self.vals[b..b + n])
            .enumerate()
            .filter_map(move |(i, (m, v))| {
                v.as_ref().map(|v| (i / self.ways, i % self.ways, m.key, v))
            })
    }

    /// Iterates over the occupied slots of one `(bank, set)` as
    /// `(way, key, &value)`.
    pub fn iter_set(&self, bank: usize, set: usize) -> impl Iterator<Item = (usize, u64, &V)> {
        let b = self.base(bank, set);
        self.meta[b..b + self.ways]
            .iter()
            .zip(&self.vals[b..b + self.ways])
            .enumerate()
            .filter_map(|(w, (m, v))| v.as_ref().map(|v| (w, m.key, v)))
    }

    /// Number of occupied slots in `(bank, set)`.
    pub fn set_occupancy(&self, bank: usize, set: usize) -> usize {
        let b = self.base(bank, set);
        self.meta[b..b + self.ways]
            .iter()
            .filter(|m| m.last_use != 0)
            .count()
    }

    /// Total occupied slots across all banks.
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|m| m.last_use != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetAssoc;

    /// The load-bearing property: one `Banked` arena makes exactly the same
    /// hit/miss/victim decisions as independent per-bank `SetAssoc`s under
    /// an interleaved access stream.
    #[test]
    fn banked_matches_independent_set_assocs() {
        let banks = 4;
        let mut arena: Banked<u64> = Banked::with_hashed_index(banks, 8, 2);
        let mut split: Vec<SetAssoc<u64>> = (0..banks)
            .map(|_| SetAssoc::with_hashed_index(8, 2))
            .collect();
        let mut rng = SimRng::from_label(7, "banked-equiv");
        for i in 0..4000u64 {
            let bank = rng.below(banks as u64) as usize;
            let key = rng.below(200);
            let set = arena.set_index(key);
            assert_eq!(set, split[bank].set_index(key));
            match rng.below(3) {
                0 => {
                    let va = arena.victim_way(bank, set);
                    let vs = split[bank].victim_way(set);
                    assert_eq!(va, vs, "victim diverged at step {i}");
                    let ea = arena.insert_at(bank, set, va, key, i);
                    let es = split[bank].insert_at(set, vs, key, i);
                    assert_eq!(ea, es);
                }
                1 => {
                    let wa = arena.way_of(bank, set, key);
                    let ws = split[bank].way_of(set, key);
                    assert_eq!(wa, ws);
                    if let Some(w) = wa {
                        arena.touch(bank, set, w);
                        split[bank].touch(set, w);
                        assert_eq!(arena.is_mru(bank, set, w), split[bank].is_mru(set, w));
                    }
                }
                _ => {
                    let va = arena.victim_way_with_cost(bank, set, |_, v| *v % 5);
                    let vs = split[bank].victim_way_with_cost(set, |_, v| *v % 5);
                    assert_eq!(va, vs, "cost victim diverged at step {i}");
                }
            }
        }
        for (bank, sa) in split.iter().enumerate() {
            let a: Vec<_> = arena
                .iter_bank(bank)
                .map(|(s, w, k, v)| (s, w, k, *v))
                .collect();
            let s: Vec<_> = sa.iter().map(|(s, w, k, v)| (s, w, k, *v)).collect();
            assert_eq!(a, s);
        }
    }

    #[test]
    fn banks_have_independent_lru_clocks() {
        let mut c: Banked<u64> = Banked::new(2, 1, 2);
        c.insert_at(0, 0, 0, 1, 1);
        c.insert_at(0, 0, 1, 2, 2);
        // Bank 1 activity must not disturb bank 0's recency order.
        for i in 0..10 {
            c.insert_at(1, 0, (i % 2) as usize, 50 + i, i);
        }
        c.touch(0, 0, 0);
        assert_eq!(c.victim_way(0, 0), 1);
        assert!(c.is_mru(0, 0, 0));
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut c: Banked<&'static str> = Banked::new(2, 2, 2);
        c.insert_at(1, 1, 1, 42, "hello");
        assert_eq!(c.at(1, 1, 1), Some((42, &"hello")));
        assert_eq!(c.at(1, 1, 0), None);
        assert_eq!(c.at(0, 1, 1), None, "other bank is untouched");
        assert_eq!(c.peek(1, 1, 42), Some(&"hello"));
        assert_eq!(c.get(1, 1, 42), Some(&"hello"));
        *c.get_mut(1, 1, 42).unwrap() = "world";
        assert_eq!(c.remove(1, 1, 1), Some((42, "world")));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn removed_slot_is_not_found_by_its_old_key() {
        // A stale key in an emptied record must not produce a phantom hit —
        // occupancy is part of the scan predicate.
        let mut c: Banked<u64> = Banked::new(1, 1, 2);
        c.insert_at(0, 0, 0, 0, 10); // key 0 == the EMPTY sentinel key
        assert_eq!(c.way_of(0, 0, 0), Some(0));
        c.remove(0, 0, 0);
        assert_eq!(c.way_of(0, 0, 0), None);
        assert_eq!(c.at(0, 0, 0), None);
    }

    #[test]
    fn iter_set_and_occupancy_scope_to_bank() {
        let mut c: Banked<u64> = Banked::new(3, 2, 2);
        c.insert_at(2, 0, 0, 1, 10);
        c.insert_at(2, 0, 1, 2, 20);
        c.insert_at(0, 0, 0, 3, 30);
        assert_eq!(c.set_occupancy(2, 0), 2);
        assert_eq!(c.set_occupancy(1, 0), 0);
        assert_eq!(c.iter_set(2, 0).count(), 2);
        assert_eq!(c.iter_bank(2).count(), 2);
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    fn random_victim_prefers_invalid_ways() {
        let mut rng = SimRng::from_label(1, "banked-victim");
        let mut c: Banked<u64> = Banked::new(1, 1, 4);
        c.insert_at(0, 0, 0, 1, 1);
        assert_eq!(c.victim_way_random(0, 0, &mut rng), 1);
        for w in 1..4 {
            c.insert_at(0, 0, w, w as u64 + 1, 0);
        }
        for _ in 0..50 {
            assert!(c.victim_way_random(0, 0, &mut rng) < 4);
        }
    }

    #[test]
    #[should_panic(expected = "way")]
    fn at_rejects_out_of_range_way() {
        let c: Banked<u64> = Banked::new(1, 2, 2);
        let _ = c.at(0, 0, 2);
    }
}
