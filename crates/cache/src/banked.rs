//! The one cache-array core: a banked set-associative arena. Every bank of
//! a replicated structure (one MD1 per node, one L1 per node, one LLC slice
//! per node, ...) lives in ONE contiguous allocation, addressed by
//! `(bank, set, way)` arithmetic; [`crate::SetAssoc`] is the same core with
//! one bank.
//!
//! Each set has its own LRU clock and every bank the same hashed/plain set
//! indexing, so one [`Banked`] arena makes exactly the victim choices that
//! independent per-bank arrays would, and simulation output does not depend
//! on how a structure is banked. The hot path walks a single flat slice
//! instead of chasing `Vec<Vec<...>>` indirections, mirroring how D2M's own
//! LI scheme keeps metadata lookups pointer-free in hardware.
//!
//! Storage is split structure-of-arrays into keys, recency ticks and value
//! payloads, so `way_of` strides over keys alone and the victim and MRU
//! scans over ticks alone — the software analogue of a hardware tag array
//! sitting next to a data array. The key alone says whether a slot is
//! occupied: the empty key `u64::MAX` marks an empty slot (its tick is then
//! 0, and ticks start at 1). Payload slots are never initialized up front,
//! so building an array writes only its keys; a payload is read only behind
//! a key other than the empty key, which only [`Banked::insert_at`] stores,
//! in the same call that writes the payload.
//!
//! Replacement state is one byte per slot: a `u8` tick, bumped from a `u8`
//! clock of the slot's own `(bank, set)`. Every choice the array makes (the
//! LRU victim, the MRU test, the `(cost, tick)` victim) compares ticks
//! within one set, so a clock per set orders them exactly as a clock per
//! bank or per array would. The bump that would pass 255 first renumbers
//! the set: its nonzero ticks become `1..=k` in tick order, and its clock
//! becomes `k`. This changes no decision. Each bump of a set's clock writes
//! at most one slot of that set, so its occupied ticks are distinct, and
//! renumbering keeps their order; every later tick is larger than all
//! renumbered ones, as it would have been. Renumbering ranks at most
//! `ways` ticks in a stack buffer, so it allocates nothing. Arrays have at
//! most [`CacheGeometry::MAX_WAYS`] ways (`MachineConfig::validate` checks
//! every configured structure): a renumbered set then uses at most 64 of
//! the 255 tick values, and at least 191 bumps pass before the set
//! renumbers again.

use std::mem::MaybeUninit;

use d2m_common::config::CacheGeometry;

/// Key of an empty slot. [`Banked::insert_at`] rejects it, so a key
/// compare alone tells a hit from an empty way.
const EMPTY_KEY: u64 = u64::MAX;

/// A fixed geometry of `banks × sets × ways` slots in one contiguous arena,
/// mapping `u64` keys to `V` values within each `(bank, set)`.
#[derive(Clone, Debug)]
pub struct Banked<V: Copy> {
    banks: usize,
    sets: usize,
    ways: usize,
    /// Keys, `(bank * sets + set) * ways + way` indexed; [`EMPTY_KEY`] in
    /// an empty slot.
    keys: Vec<u64>,
    /// Recency ticks, same indexing; 0 in an empty slot — ticks start at 1,
    /// so an occupied slot always has a nonzero tick.
    ticks: Vec<u8>,
    /// Value payloads, same indexing. Initialized exactly where `keys` is
    /// not [`EMPTY_KEY`]; read only through [`Self::slot`] and
    /// [`Self::slot_mut`].
    vals: Box<[MaybeUninit<V>]>,
    /// One LRU clock per `(bank, set)`, `bank * sets + set` indexed: every
    /// choice compares ticks within one set, so replacement is independent
    /// of banking.
    clocks: Vec<u8>,
    hashed: bool,
}

impl<V: Copy> Banked<V> {
    /// Creates an empty arena with plain low-bit set indexing.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `banks` or `ways` is zero, or
    /// `ways` is above [`CacheGeometry::MAX_WAYS`].
    pub fn new(banks: usize, sets: usize, ways: usize) -> Self {
        Self::build(banks, sets, ways, false)
    }

    /// Creates an arena whose [`Self::set_index`] XOR-folds the key — the
    /// skewed indexing used by the metadata stores so that regular
    /// region-stride patterns do not collapse onto a few sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `banks` or `ways` is zero, or
    /// `ways` is above [`CacheGeometry::MAX_WAYS`].
    pub fn with_hashed_index(banks: usize, sets: usize, ways: usize) -> Self {
        Self::build(banks, sets, ways, true)
    }

    fn build(banks: usize, sets: usize, ways: usize, hashed: bool) -> Self {
        assert!(banks > 0, "banks must be nonzero");
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        assert!(
            ways <= CacheGeometry::MAX_WAYS,
            "ways must be at most {} (one-byte LRU ticks), got {ways}",
            CacheGeometry::MAX_WAYS
        );
        let n = banks * sets * ways;
        Self {
            banks,
            sets,
            ways,
            keys: vec![EMPTY_KEY; n],
            ticks: vec![0; n],
            vals: Box::new_uninit_slice(n),
            clocks: vec![0; banks * sets],
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
    /// arenas built with [`Self::with_hashed_index`].
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

    /// Next tick of `(bank, set)`'s clock.
    #[inline]
    fn bump(&mut self, bank: usize, set: usize) -> u8 {
        let c = bank * self.sets + set;
        if self.clocks[c] == u8::MAX {
            self.renumber(bank, set);
        }
        self.clocks[c] += 1;
        self.clocks[c]
    }

    /// Renumbers `(bank, set)`'s nonzero ticks `1..=k` in tick order and
    /// sets its clock to `k`, so the clock can count on without passing
    /// `u8::MAX`. The order of the ticks, the only thing any choice reads,
    /// is kept (see the module docs).
    #[cold]
    #[inline(never)]
    fn renumber(&mut self, bank: usize, set: usize) {
        let b = self.base(bank, set);
        let ticks = &mut self.ticks[b..b + self.ways];
        let mut buf = [0u8; CacheGeometry::MAX_WAYS];
        let mut k = 0;
        for (w, &t) in ticks.iter().enumerate() {
            if t != 0 {
                buf[k] = w as u8;
                k += 1;
            }
        }
        let order = &mut buf[..k];
        order.sort_unstable_by_key(|&w| ticks[w as usize]);
        for (rank, &w) in order.iter().enumerate() {
            ticks[w as usize] = rank as u8 + 1;
        }
        self.clocks[bank * self.sets + set] = k as u8;
    }

    /// `(key, value)` of flat slot `i` if it is occupied.
    #[inline]
    #[allow(unsafe_code)]
    fn slot(&self, i: usize) -> Option<(u64, &V)> {
        let key = self.keys[i];
        if key == EMPTY_KEY {
            return None;
        }
        // SAFETY: `keys` and `vals` are private to this module. `build`
        // fills every key with `EMPTY_KEY`, `remove` resets a key to it, and
        // only `insert_at` stores any other key, after writing the slot's
        // payload in the same call. So an occupied key means an initialized
        // payload.
        Some((key, unsafe { self.vals[i].assume_init_ref() }))
    }

    /// Mutable twin of [`Self::slot`].
    #[inline]
    #[allow(unsafe_code)]
    fn slot_mut(&mut self, i: usize) -> Option<(u64, &mut V)> {
        let key = self.keys[i];
        if key == EMPTY_KEY {
            return None;
        }
        // SAFETY: as in `slot`: an occupied key means an initialized payload.
        Some((key, unsafe { self.vals[i].assume_init_mut() }))
    }

    /// Finds the way holding `key` in `(bank, set)`, if present. No LRU
    /// update. A dense scan over the set's keys only.
    #[inline]
    pub fn way_of(&self, bank: usize, set: usize, key: u64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY_KEY, "the empty-slot key is never stored");
        let b = self.base(bank, set);
        self.keys[b..b + self.ways].iter().position(|&k| k == key)
    }

    /// Keyed lookup with LRU touch. Returns the value if present.
    pub fn get(&mut self, bank: usize, set: usize, key: u64) -> Option<&V> {
        let way = self.way_of(bank, set, key)?;
        self.touch(bank, set, way);
        self.slot(self.base(bank, set) + way).map(|(_, v)| v)
    }

    /// Keyed mutable lookup with LRU touch.
    pub fn get_mut(&mut self, bank: usize, set: usize, key: u64) -> Option<&mut V> {
        let way = self.way_of(bank, set, key)?;
        self.touch(bank, set, way);
        self.slot_mut(self.base(bank, set) + way).map(|(_, v)| v)
    }

    /// Keyed lookup without LRU update.
    pub fn peek(&self, bank: usize, set: usize, key: u64) -> Option<&V> {
        let way = self.way_of(bank, set, key)?;
        self.slot(self.base(bank, set) + way).map(|(_, v)| v)
    }

    /// Direct slot read: `(key, value)` at `(bank, set, way)` if occupied.
    #[inline]
    pub fn at(&self, bank: usize, set: usize, way: usize) -> Option<(u64, &V)> {
        assert!(way < self.ways, "way {way} out of range");
        self.slot(self.base(bank, set) + way)
    }

    /// Direct mutable slot access (no LRU update; pair with [`Self::touch`]).
    #[inline]
    pub fn at_mut(&mut self, bank: usize, set: usize, way: usize) -> Option<(u64, &mut V)> {
        assert!(way < self.ways, "way {way} out of range");
        self.slot_mut(self.base(bank, set) + way)
    }

    /// Marks `(bank, set, way)` most-recently used.
    pub fn touch(&mut self, bank: usize, set: usize, way: usize) {
        let t = self.bump(bank, set);
        let i = self.base(bank, set) + way;
        if self.ticks[i] != 0 {
            self.ticks[i] = t;
        }
    }

    /// True if `(bank, set, way)` is the most-recently-used valid entry of
    /// its set.
    ///
    /// D2M's replication heuristic replicates data read from the MRU
    /// position of a remote NS-LLC slice (§IV-C).
    pub fn is_mru(&self, bank: usize, set: usize, way: usize) -> bool {
        let b = self.base(bank, set);
        let me = self.ticks[b + way];
        me != 0 && self.ticks[b..b + self.ways].iter().all(|&t| t <= me)
    }

    /// Inserts at an explicit `(bank, set, way)`, returning any evicted
    /// `(key, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or `key` is `u64::MAX`, the key that
    /// marks an empty slot.
    pub fn insert_at(
        &mut self,
        bank: usize,
        set: usize,
        way: usize,
        key: u64,
        value: V,
    ) -> Option<(u64, V)> {
        assert!(way < self.ways, "way {way} out of range");
        assert_ne!(key, EMPTY_KEY, "u64::MAX is the empty-slot key");
        let t = self.bump(bank, set);
        let i = self.base(bank, set) + way;
        let old = self.slot(i).map(|(k, &v)| (k, v));
        self.vals[i] = MaybeUninit::new(value);
        self.keys[i] = key;
        self.ticks[i] = t;
        old
    }

    /// Removes and returns the entry at `(bank, set, way)`.
    pub fn remove(&mut self, bank: usize, set: usize, way: usize) -> Option<(u64, V)> {
        assert!(way < self.ways, "way {way} out of range");
        let i = self.base(bank, set) + way;
        let old = self.slot(i).map(|(k, &v)| (k, v));
        self.keys[i] = EMPTY_KEY;
        self.ticks[i] = 0;
        old
    }

    /// LRU victim way: the first invalid way if any, otherwise the
    /// least-recently-used way. Scans ticks only — empty slots (tick 0)
    /// naturally win the minimum, and strict `<` keeps the first one.
    pub fn victim_way(&self, bank: usize, set: usize) -> usize {
        let b = self.base(bank, set);
        let mut victim = 0;
        let mut best = u8::MAX;
        for (w, &t) in self.ticks[b..b + self.ways].iter().enumerate() {
            if t < best {
                best = t;
                victim = w;
            }
        }
        victim
    }

    /// Cost-biased victim: picks the valid way minimizing
    /// `(cost(key, value), tick)`; invalid ways win outright.
    ///
    /// The metadata stores use this to prefer evicting regions with few
    /// tracked cachelines (MD2, paper §II-A) or no presence bits (MD3).
    pub fn victim_way_with_cost<F>(&self, bank: usize, set: usize, cost: F) -> usize
    where
        F: Fn(u64, &V) -> u64,
    {
        let b = self.base(bank, set);
        let mut victim = 0;
        let mut best = (u64::MAX, u8::MAX);
        for w in 0..self.ways {
            let Some((key, v)) = self.slot(b + w) else {
                return w;
            };
            let c = (cost(key, v), self.ticks[b + w]);
            if c < best {
                best = c;
                victim = w;
            }
        }
        victim
    }

    /// Iterates over the occupied slots of one bank as
    /// `(set, way, key, &value)`, in set-then-way order.
    pub fn iter_bank(&self, bank: usize) -> impl Iterator<Item = (usize, usize, u64, &V)> {
        let b = self.base(bank, 0);
        (0..self.sets * self.ways).filter_map(move |i| {
            self.slot(b + i)
                .map(|(k, v)| (i / self.ways, i % self.ways, k, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetAssoc;
    use d2m_common::rng::SimRng;

    /// The load-bearing property: one N-bank arena makes exactly the same
    /// hit/miss/victim decisions as N single-bank `SetAssoc` views under an
    /// interleaved access stream, so banking a structure never changes
    /// replacement.
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

    /// Replacement state with `u64` ticks that never need renumbering: the
    /// order `Banked` must keep when a set's `u8` clock reaches the limit.
    struct U64Lru {
        ways: usize,
        slots: Vec<Option<(u64, u64)>>,
        ticks: Vec<u64>,
        clock: u64,
    }

    impl U64Lru {
        fn new(sets: usize, ways: usize) -> Self {
            Self {
                ways,
                slots: vec![None; sets * ways],
                ticks: vec![0; sets * ways],
                clock: 0,
            }
        }

        fn insert_at(&mut self, set: usize, way: usize, key: u64, v: u64) -> Option<(u64, u64)> {
            self.clock += 1;
            let i = set * self.ways + way;
            self.ticks[i] = self.clock;
            self.slots[i].replace((key, v))
        }

        fn touch(&mut self, set: usize, way: usize) {
            self.clock += 1;
            let i = set * self.ways + way;
            if self.slots[i].is_some() {
                self.ticks[i] = self.clock;
            }
        }

        fn remove(&mut self, set: usize, way: usize) -> Option<(u64, u64)> {
            let i = set * self.ways + way;
            self.ticks[i] = 0;
            self.slots[i].take()
        }

        fn victim_way(&self, set: usize) -> usize {
            let ticks = &self.ticks[set * self.ways..][..self.ways];
            let min = ticks.iter().min().unwrap();
            ticks.iter().position(|t| t == min).unwrap()
        }

        fn victim_way_with_cost(&self, set: usize, cost: impl Fn(u64) -> u64) -> usize {
            let b = set * self.ways;
            if let Some(w) = self.slots[b..b + self.ways]
                .iter()
                .position(Option::is_none)
            {
                return w;
            }
            let key = |w: usize| (cost(self.slots[b + w].unwrap().1), self.ticks[b + w]);
            (0..self.ways).min_by_key(|&w| key(w)).unwrap()
        }

        fn is_mru(&self, set: usize, way: usize) -> bool {
            let ticks = &self.ticks[set * self.ways..][..self.ways];
            ticks[way] != 0 && ticks.iter().all(|&t| t <= ticks[way])
        }

        fn occupied(&self) -> Vec<(usize, usize, u64, u64)> {
            let w = self.ways;
            let slots = self.slots.iter().enumerate();
            slots
                .filter_map(|(i, s)| s.map(|(k, v)| (i / w, i % w, k, v)))
                .collect()
        }
    }

    /// Sets of 4, 8 and 32 ways, in two banks, are driven past clock 255
    /// thousands of times by ordinary operations, so `bump` renumbers them
    /// again and again, full and part-empty. Every victim, cost-victim and
    /// MRU answer of the touched set, and every bank's contents, must match
    /// a reference whose `u64` ticks never renumber.
    #[test]
    fn per_set_renumbering_keeps_every_choice() {
        let mut renumbers = 0;
        for ways in [4, 8, 32] {
            let sets = 4;
            let mut arena: Banked<u64> = Banked::new(2, sets, ways);
            let mut refs = [U64Lru::new(sets, ways), U64Lru::new(sets, ways)];
            let mut rng = SimRng::from_label(ways as u64, "banked-renumber");
            let keys = (sets * ways * 3 / 2) as u64;
            for i in 0..200_000u64 {
                let bank = (rng.below(4) == 0) as usize;
                let r = &mut refs[bank];
                let key = rng.below(keys);
                let set = arena.set_index(key);
                let clock_before = arena.clocks[bank * sets + set];
                match rng.below(16) {
                    0..=5 => {
                        let way = arena.victim_way(bank, set);
                        assert_eq!(way, r.victim_way(set), "{ways}-way victim, step {i}");
                        let old = arena.insert_at(bank, set, way, key, i);
                        assert_eq!(old, r.insert_at(set, way, key, i));
                    }
                    6..=14 => {
                        let way = rng.below(ways as u64) as usize;
                        arena.touch(bank, set, way);
                        r.touch(set, way);
                    }
                    _ => {
                        let way = rng.below(ways as u64) as usize;
                        assert_eq!(arena.remove(bank, set, way), r.remove(set, way));
                    }
                }
                if arena.clocks[bank * sets + set] < clock_before {
                    renumbers += 1;
                }
                let cost = |v: u64| v % 3;
                assert_eq!(
                    arena.victim_way_with_cost(bank, set, |_, v| cost(*v)),
                    r.victim_way_with_cost(set, cost),
                    "{ways}-way cost victim, step {i}"
                );
                let mru = (0..ways).find(|&w| r.is_mru(set, w));
                for w in 0..ways {
                    let want = mru == Some(w);
                    assert_eq!(arena.is_mru(bank, set, w), want, "{ways}-way MRU, step {i}");
                }
                if i % 4096 == 0 {
                    for (bank, r) in refs.iter().enumerate() {
                        let got: Vec<_> = arena
                            .iter_bank(bank)
                            .map(|(s, w, k, v)| (s, w, k, *v))
                            .collect();
                        assert_eq!(got, r.occupied(), "{ways}-way bank {bank}, step {i}");
                    }
                }
            }
        }
        assert!(renumbers > 2000, "only {renumbers} renumberings");
    }

    #[test]
    #[should_panic(expected = "ways must be at most 64")]
    fn build_rejects_more_ways_than_byte_ticks_can_order() {
        let _: Banked<u64> = Banked::new(1, 1, CacheGeometry::MAX_WAYS + 1);
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
        assert_eq!(c.iter_bank(1).count(), 0);
    }

    #[test]
    fn removed_slot_is_not_found_by_its_old_key() {
        // Removal must reset the slot's key, since the scan compares keys
        // only: a stale key would be a phantom hit.
        let mut c: Banked<u64> = Banked::new(1, 1, 2);
        c.insert_at(0, 0, 0, 0, 10);
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
        let set0 = |bank| c.iter_bank(bank).filter(|&(set, ..)| set == 0).count();
        assert_eq!(set0(2), 2);
        assert_eq!(set0(1), 0);
        assert_eq!(c.iter_bank(2).count(), 2);
        assert_eq!(
            (0..3).map(|bank| c.iter_bank(bank).count()).sum::<usize>(),
            3
        );
    }

    #[test]
    fn remove_then_way_of_misses() {
        // Removing one bank's entry must make its key miss there while the
        // same key in another bank, and the set's other way, still hit.
        let mut c: Banked<u64> = Banked::new(2, 1, 2);
        c.insert_at(0, 0, 0, 7, 70);
        c.insert_at(0, 0, 1, 8, 80);
        c.insert_at(1, 0, 1, 7, 71);
        assert_eq!(c.remove(0, 0, 0), Some((7, 70)));
        assert_eq!(c.way_of(0, 0, 7), None);
        assert_eq!(c.peek(0, 0, 7), None);
        assert_eq!(c.way_of(0, 0, 8), Some(1));
        assert_eq!(c.way_of(1, 0, 7), Some(1));
        assert_eq!(c.victim_way(0, 0), 0, "the emptied way is the victim");
    }

    #[test]
    #[should_panic(expected = "empty-slot key")]
    fn insert_rejects_the_empty_slot_key() {
        let mut c: Banked<u64> = Banked::new(1, 1, 2);
        c.insert_at(0, 0, 0, u64::MAX, 1);
    }

    #[test]
    #[should_panic(expected = "way")]
    fn at_rejects_out_of_range_way() {
        let c: Banked<u64> = Banked::new(1, 2, 2);
        let _ = c.at(0, 0, 2);
    }
}
