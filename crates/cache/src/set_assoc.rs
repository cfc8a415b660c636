//! A set-associative array with explicit way control: the single-bank view
//! of the [`Banked`] core, with the bank argument dropped.
//!
//! The core backs every table in the simulator:
//!
//! * **Baseline caches** use keyed lookup ([`SetAssoc::get`]) — the
//!   associative tag search whose energy the baselines pay.
//! * **D2M data arrays** use only direct `(set, way)` addressing
//!   ([`SetAssoc::at`], [`SetAssoc::insert_at`]) — they have no tags, and the
//!   type makes that discipline auditable (the D2M crate never calls `get`).
//! * **Metadata stores** use keyed lookup plus *cost-biased* victim selection
//!   ([`SetAssoc::victim_way_with_cost`]) to implement the paper's
//!   region-aware replacement (prefer evicting regions with few tracked
//!   lines / unset PB bits).
//!
//! Replacement is true LRU per set via a use-tick, which is deterministic
//! and cheap. Storage, occupancy and the uninitialized payload slots are
//! the core's; see [`crate::banked`].

use crate::banked::Banked;

/// A set-associative array mapping `u64` keys to `V` values.
#[derive(Clone, Debug)]
pub struct SetAssoc<V: Copy>(Banked<V>);

impl<V: Copy> SetAssoc<V> {
    /// Creates an empty array with plain low-bit set indexing.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self(Banked::new(1, sets, ways))
    }

    /// Creates an array whose [`Self::set_index`] XOR-folds the key, as
    /// [`Banked::with_hashed_index`].
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn with_hashed_index(sets: usize, ways: usize) -> Self {
        Self(Banked::with_hashed_index(1, sets, ways))
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.0.sets()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.0.ways()
    }

    /// Set index for a key: see [`Banked::set_index`].
    #[inline]
    pub fn set_index(&self, key: u64) -> usize {
        self.0.set_index(key)
    }

    /// Finds the way holding `key` in `set`, if present. No LRU update.
    #[inline]
    pub fn way_of(&self, set: usize, key: u64) -> Option<usize> {
        self.0.way_of(0, set, key)
    }

    /// Keyed lookup with LRU touch. Returns the value if present.
    #[inline]
    pub fn get(&mut self, set: usize, key: u64) -> Option<&V> {
        self.0.get(0, set, key)
    }

    /// Keyed mutable lookup with LRU touch.
    #[inline]
    pub fn get_mut(&mut self, set: usize, key: u64) -> Option<&mut V> {
        self.0.get_mut(0, set, key)
    }

    /// Keyed lookup without LRU update.
    #[inline]
    pub fn peek(&self, set: usize, key: u64) -> Option<&V> {
        self.0.peek(0, set, key)
    }

    /// Direct slot read: `(key, value)` at `(set, way)` if occupied.
    #[inline]
    pub fn at(&self, set: usize, way: usize) -> Option<(u64, &V)> {
        self.0.at(0, set, way)
    }

    /// Direct mutable slot access (no LRU update; pair with [`Self::touch`]).
    #[inline]
    pub fn at_mut(&mut self, set: usize, way: usize) -> Option<(u64, &mut V)> {
        self.0.at_mut(0, set, way)
    }

    /// Marks `(set, way)` most-recently used.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        self.0.touch(0, set, way)
    }

    /// True if `(set, way)` is the most-recently-used valid entry of its set.
    #[inline]
    pub fn is_mru(&self, set: usize, way: usize) -> bool {
        self.0.is_mru(0, set, way)
    }

    /// Inserts at an explicit `(set, way)`, returning any evicted `(key, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or `key` is `u64::MAX`, the key that
    /// marks an empty slot.
    #[inline]
    pub fn insert_at(&mut self, set: usize, way: usize, key: u64, value: V) -> Option<(u64, V)> {
        self.0.insert_at(0, set, way, key, value)
    }

    /// Removes and returns the entry at `(set, way)`.
    #[inline]
    pub fn remove(&mut self, set: usize, way: usize) -> Option<(u64, V)> {
        self.0.remove(0, set, way)
    }

    /// LRU victim way: the first invalid way if any, otherwise the
    /// least-recently-used way.
    #[inline]
    pub fn victim_way(&self, set: usize) -> usize {
        self.0.victim_way(0, set)
    }

    /// Cost-biased victim: see [`Banked::victim_way_with_cost`].
    #[inline]
    pub fn victim_way_with_cost<F>(&self, set: usize, cost: F) -> usize
    where
        F: Fn(u64, &V) -> u64,
    {
        self.0.victim_way_with_cost(0, set, cost)
    }

    /// Iterates over all occupied slots as `(set, way, key, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, u64, &V)> {
        self.0.iter_bank(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(sets: usize, ways: usize, n: u64) -> SetAssoc<u64> {
        let mut c = SetAssoc::new(sets, ways);
        for k in 0..n {
            let set = c.set_index(k);
            let way = c.victim_way(set);
            c.insert_at(set, way, k, k * 10);
        }
        c
    }

    #[test]
    fn insert_then_get() {
        let mut c: SetAssoc<u64> = SetAssoc::new(4, 2);
        let set = c.set_index(5);
        let way = c.victim_way(set);
        assert!(c.insert_at(set, way, 5, 50).is_none());
        assert_eq!(c.get(set, 5), Some(&50));
        assert_eq!(c.peek(set, 5), Some(&50));
        assert_eq!(c.get(set, 9), None);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 2);
        c.insert_at(0, 0, 1, 1);
        c.insert_at(0, 1, 2, 2);
        let _ = c.get(0, 1); // key 1 is now MRU, key 2 LRU? no: touching 1 makes 2 LRU
        assert_eq!(c.victim_way(0), 1);
        let _ = c.get(0, 2);
        assert_eq!(c.victim_way(0), 0);
    }

    #[test]
    fn invalid_way_preferred_as_victim() {
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 4);
        c.insert_at(0, 0, 1, 1);
        c.insert_at(0, 2, 3, 3);
        assert_eq!(c.victim_way(0), 1);
    }

    #[test]
    fn cost_biased_victim_prefers_low_cost() {
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 3);
        c.insert_at(0, 0, 1, 100); // high cost
        c.insert_at(0, 1, 2, 1); // low cost
        c.insert_at(0, 2, 3, 100);
        assert_eq!(c.victim_way_with_cost(0, |_, v| *v), 1);
    }

    #[test]
    fn cost_tie_broken_by_lru() {
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 2);
        c.insert_at(0, 0, 1, 5);
        c.insert_at(0, 1, 2, 5);
        c.touch(0, 0); // way 1 becomes LRU
        assert_eq!(c.victim_way_with_cost(0, |_, v| *v), 1);
    }

    #[test]
    fn remove_and_occupancy() {
        let mut c = filled(4, 2, 8);
        assert_eq!(c.iter().count(), 8);
        let (k, v) = c.remove(0, 0).unwrap();
        assert_eq!(v, k * 10);
        assert_eq!(c.iter().count(), 7);
        assert_eq!(c.iter().filter(|&(set, ..)| set == 0).count(), 1);
    }

    #[test]
    fn removed_slot_is_not_found_by_its_old_key() {
        // Removal must reset the slot's key, since the scan compares keys
        // only: a stale key would be a phantom hit.
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 2);
        c.insert_at(0, 0, 0, 10);
        assert_eq!(c.way_of(0, 0), Some(0));
        c.remove(0, 0);
        assert_eq!(c.way_of(0, 0), None);
        assert_eq!(c.at(0, 0), None);
    }

    #[test]
    fn direct_addressing_roundtrip() {
        let mut c: SetAssoc<&'static str> = SetAssoc::new(2, 2);
        c.insert_at(1, 1, 42, "hello");
        assert_eq!(c.at(1, 1), Some((42, &"hello")));
        assert_eq!(c.at(1, 0), None);
        let (k, v) = c.at_mut(1, 1).unwrap();
        assert_eq!(k, 42);
        *v = "world";
        assert_eq!(c.at(1, 1), Some((42, &"world")));
    }

    #[test]
    fn mru_tracking() {
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 3);
        c.insert_at(0, 0, 1, 1);
        c.insert_at(0, 1, 2, 2);
        assert!(c.is_mru(0, 1));
        assert!(!c.is_mru(0, 0));
        c.touch(0, 0);
        assert!(c.is_mru(0, 0));
        assert!(!c.is_mru(0, 2)); // empty slot is never MRU
    }

    #[test]
    fn remove_then_way_of_misses() {
        // Every key of a full set, removed in turn: each removal must make
        // exactly that key miss while the others still hit at their ways.
        let mut c = filled(1, 4, 4);
        for k in 0..4 {
            let way = c.way_of(0, k).expect("resident");
            assert_eq!(c.remove(0, way), Some((k, k * 10)));
            assert_eq!(c.way_of(0, k), None, "key {k} still found after remove");
            assert_eq!(c.peek(0, k), None);
            for other in k + 1..4 {
                assert!(c.way_of(0, other).is_some(), "key {other} lost");
            }
        }
        assert_eq!(c.victim_way(0), 0, "an emptied set refills from way 0");
    }

    #[test]
    #[should_panic(expected = "empty-slot key")]
    fn insert_rejects_the_empty_slot_key() {
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 2);
        c.insert_at(0, 0, u64::MAX, 1);
    }

    #[test]
    fn iter_set_and_iter() {
        let c = filled(4, 2, 8);
        assert_eq!(c.iter().count(), 8);
        assert_eq!(c.iter().filter(|&(set, ..)| set == 1).count(), 2);
        for (set, _way, key, _v) in c.iter() {
            assert_eq!(c.set_index(key), set);
        }
    }

    #[test]
    fn eviction_returns_old_entry() {
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 1);
        c.insert_at(0, 0, 1, 10);
        let old = c.insert_at(0, 0, 2, 20);
        assert_eq!(old, Some((1, 10)));
        assert_eq!(c.peek(0, 2), Some(&20));
    }

    #[test]
    #[should_panic(expected = "way")]
    fn at_rejects_out_of_range_way() {
        let c: SetAssoc<u64> = SetAssoc::new(2, 2);
        let _ = c.at(0, 2);
    }

    #[test]
    fn hashed_indexing_spreads_regular_strides() {
        // Keys a power-of-two stride apart collapse onto one set with plain
        // indexing but must fan out with the hashed variant.
        let plain: SetAssoc<u64> = SetAssoc::new(64, 4);
        let hashed: SetAssoc<u64> = SetAssoc::with_hashed_index(64, 4);
        let keys: Vec<u64> = (0..256).map(|i| i * 64).collect();
        let plain_sets: std::collections::HashSet<_> =
            keys.iter().map(|k| plain.set_index(*k)).collect();
        let hashed_sets: std::collections::HashSet<_> =
            keys.iter().map(|k| hashed.set_index(*k)).collect();
        assert_eq!(plain_sets.len(), 1, "plain indexing collapses the stride");
        assert!(
            hashed_sets.len() >= 8,
            "hashed indexing spreads it: {}",
            hashed_sets.len()
        );
    }

    #[test]
    fn hashed_indexing_is_consistent_for_lookup() {
        let mut c: SetAssoc<u64> = SetAssoc::with_hashed_index(64, 4);
        for k in [3u64, 999, 123_456_789] {
            let set = c.set_index(k);
            let way = c.victim_way(set);
            c.insert_at(set, way, k, k * 2);
            assert_eq!(c.peek(c.set_index(k), k), Some(&(k * 2)));
        }
    }
}
