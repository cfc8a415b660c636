//! Differential model test for the cache-array core.
//!
//! A seeded generator drives [`Banked`] and a naive reference model — per
//! set, a `Vec<Option<(key, tick, value)>>` with one LRU clock per bank —
//! through random operations, and compares the two after every operation:
//! the operation's own result, then every way of the touched set (`at`,
//! `is_mru`, both victim choices) and every bank's `iter_bank`.
//!
//! Values are unique per insert and `remove` leaves the old payload's
//! bytes in place, so a path that read the payload of an empty slot would
//! return a stale value where the model returns nothing, and fail here.

use d2m_cache::Banked;
use d2m_common::rng::SimRng;

/// One slot of the model: `(key, tick, value)` when occupied.
type Slot = Option<(u64, u64, u64)>;

/// The reference: the obvious implementation of the documented semantics.
struct Model {
    sets: usize,
    ways: usize,
    hashed: bool,
    /// `bank * sets + set` indexed; each set holds `ways` slots.
    slots: Vec<Vec<Slot>>,
    clocks: Vec<u64>,
}

impl Model {
    fn new(banks: usize, sets: usize, ways: usize, hashed: bool) -> Self {
        Self {
            sets,
            ways,
            hashed,
            slots: vec![vec![None; ways]; banks * sets],
            clocks: vec![0; banks],
        }
    }

    fn set_index(&self, key: u64) -> usize {
        let k = if self.hashed {
            key ^ (key >> 10) ^ (key >> 21) ^ (key >> 34)
        } else {
            key
        };
        (k % self.sets as u64) as usize
    }

    fn set(&mut self, bank: usize, set: usize) -> &mut Vec<Slot> {
        &mut self.slots[bank * self.sets + set]
    }

    fn tick(&mut self, bank: usize) -> u64 {
        self.clocks[bank] += 1;
        self.clocks[bank]
    }

    fn way_of(&mut self, bank: usize, set: usize, key: u64) -> Option<usize> {
        self.set(bank, set)
            .iter()
            .position(|s| matches!(s, Some((k, ..)) if *k == key))
    }

    fn touch(&mut self, bank: usize, set: usize, way: usize) {
        let t = self.tick(bank);
        if let Some((_, tick, _)) = &mut self.set(bank, set)[way] {
            *tick = t;
        }
    }

    /// `get` and `get_mut`: the value, after an LRU touch of its way.
    fn get(&mut self, bank: usize, set: usize, key: u64) -> Option<&mut u64> {
        let way = self.way_of(bank, set, key)?;
        self.touch(bank, set, way);
        self.set(bank, set)[way].as_mut().map(|(_, _, v)| v)
    }

    fn at(&mut self, bank: usize, set: usize, way: usize) -> Option<(u64, u64)> {
        self.set(bank, set)[way].map(|(k, _, v)| (k, v))
    }

    fn insert_at(
        &mut self,
        bank: usize,
        set: usize,
        way: usize,
        key: u64,
        value: u64,
    ) -> Option<(u64, u64)> {
        let t = self.tick(bank);
        self.set(bank, set)[way]
            .replace((key, t, value))
            .map(|(k, _, v)| (k, v))
    }

    fn remove(&mut self, bank: usize, set: usize, way: usize) -> Option<(u64, u64)> {
        self.set(bank, set)[way].take().map(|(k, _, v)| (k, v))
    }

    fn is_mru(&mut self, bank: usize, set: usize, way: usize) -> bool {
        let s = self.set(bank, set);
        match s[way] {
            None => false,
            Some((_, me, _)) => s.iter().flatten().all(|&(_, t, _)| t <= me),
        }
    }

    /// First empty way, else the way minimizing `(cost, tick)`, first on a
    /// tie; `victim_way` is the same with a constant cost.
    fn victim_with_cost(
        &mut self,
        bank: usize,
        set: usize,
        cost: impl Fn(u64, u64) -> u64,
    ) -> usize {
        let s = self.set(bank, set);
        if let Some(empty) = s.iter().position(Option::is_none) {
            return empty;
        }
        // `min_by_key` keeps the first of equal minima.
        (0..s.len())
            .min_by_key(|&w| {
                let (k, t, v) = s[w].expect("a full set");
                (cost(k, v), t)
            })
            .expect("ways is nonzero")
    }

    fn iter_bank(&self, bank: usize) -> Vec<(usize, usize, u64, u64)> {
        let mut out = Vec::new();
        for set in 0..self.sets {
            for (way, s) in self.slots[bank * self.sets + set].iter().enumerate() {
                if let Some((k, _, v)) = *s {
                    out.push((set, way, k, v));
                }
            }
        }
        out
    }
}

/// A cost that is not monotone in the key or the value, so the cost-biased
/// victim differs from the LRU one.
fn cost(key: u64, value: u64) -> u64 {
    (key.wrapping_mul(0x9e37_79b9) ^ value) % 3
}

/// Compares every way of `(bank, set)` and every bank's occupied slots.
fn assert_same(arr: &Banked<u64>, model: &mut Model, bank: usize, set: usize, step: &str) {
    for way in 0..model.ways {
        assert_eq!(
            arr.at(bank, set, way).map(|(k, &v)| (k, v)),
            model.at(bank, set, way),
            "{step}: slot ({bank}, {set}, {way})"
        );
        assert_eq!(
            arr.is_mru(bank, set, way),
            model.is_mru(bank, set, way),
            "{step}: is_mru ({bank}, {set}, {way})"
        );
    }
    assert_eq!(
        arr.victim_way(bank, set),
        model.victim_with_cost(bank, set, |_, _| 0),
        "{step}: victim_way ({bank}, {set})"
    );
    assert_eq!(
        arr.victim_way_with_cost(bank, set, |k, &v| cost(k, v)),
        model.victim_with_cost(bank, set, cost),
        "{step}: victim_way_with_cost ({bank}, {set})"
    );
    for b in 0..arr.banks() {
        let got: Vec<_> = arr.iter_bank(b).map(|(s, w, k, &v)| (s, w, k, v)).collect();
        assert_eq!(got, model.iter_bank(b), "{step}: iter_bank({b})");
    }
}

/// Runs `steps` random operations on one geometry, comparing after each.
fn run(seed: u64, banks: usize, sets: usize, ways: usize, hashed: bool, steps: u64) {
    let label = format!("array-model/{banks}x{sets}x{ways}/{hashed}");
    let mut rng = SimRng::from_label(seed, &label);
    let mut arr: Banked<u64> = if hashed {
        Banked::with_hashed_index(banks, sets, ways)
    } else {
        Banked::new(banks, sets, ways)
    };
    let mut model = Model::new(banks, sets, ways, hashed);
    // Twice as many distinct keys as slots per bank: sets fill, conflict
    // and evict, and most lookups of a recent key hit.
    let key_space = (2 * sets * ways) as u64;
    for i in 0..steps {
        let bank = rng.below(banks as u64) as usize;
        let key = rng.below(key_space);
        let set = arr.set_index(key);
        assert_eq!(set, model.set_index(key), "set_index({key})");
        let way = rng.below(ways as u64) as usize;
        let value = 1000 + i;
        let op = rng.below(13);
        let step = format!("{label} seed {seed} step {i} op {op}");
        match op {
            0..=2 => {
                // Inserts dominate; most go where a cache would put them.
                let way = match rng.below(3) {
                    0 => way,
                    _ => arr
                        .way_of(bank, set, key)
                        .unwrap_or(arr.victim_way(bank, set)),
                };
                assert_eq!(
                    arr.insert_at(bank, set, way, key, value),
                    model.insert_at(bank, set, way, key, value),
                    "{step}: insert_at"
                );
            }
            3 => assert_eq!(
                arr.remove(bank, set, way),
                model.remove(bank, set, way),
                "{step}: remove"
            ),
            4 => assert_eq!(
                arr.get(bank, set, key).copied(),
                model.get(bank, set, key).copied(),
                "{step}: get"
            ),
            5 => {
                let got = arr.get_mut(bank, set, key).map(|v| {
                    *v = value;
                    value
                });
                let want = model.get(bank, set, key).map(|v| {
                    *v = value;
                    value
                });
                assert_eq!(got, want, "{step}: get_mut");
            }
            6 => assert_eq!(
                arr.peek(bank, set, key).copied(),
                model
                    .way_of(bank, set, key)
                    .and_then(|w| model.at(bank, set, w))
                    .map(|(_, v)| v),
                "{step}: peek"
            ),
            7 => assert_eq!(
                arr.at(bank, set, way).map(|(k, &v)| (k, v)),
                model.at(bank, set, way),
                "{step}: at"
            ),
            8 => {
                let got = arr.at_mut(bank, set, way).map(|(k, v)| {
                    *v = value;
                    k
                });
                let want = model.set(bank, set)[way].as_mut().map(|(k, _, v)| {
                    *v = value;
                    *k
                });
                assert_eq!(got, want, "{step}: at_mut");
            }
            9 => {
                arr.touch(bank, set, way);
                model.touch(bank, set, way);
            }
            10 => assert_eq!(
                arr.is_mru(bank, set, way),
                model.is_mru(bank, set, way),
                "{step}: is_mru"
            ),
            11 => assert_eq!(
                arr.way_of(bank, set, key),
                model.way_of(bank, set, key),
                "{step}: way_of"
            ),
            _ => {
                // An empty slot's payload must never surface: remove a whole
                // set, then every way must read as empty.
                for w in 0..ways {
                    assert_eq!(
                        arr.remove(bank, set, w),
                        model.remove(bank, set, w),
                        "{step}: remove way {w}"
                    );
                }
            }
        }
        assert_same(&arr, &mut model, bank, set, &step);
    }
}

#[test]
fn banked_core_matches_reference_model() {
    for seed in [1, 42] {
        for &(banks, sets) in &[(1, 16), (8, 4)] {
            for ways in [4, 8, 16, 32] {
                for hashed in [false, true] {
                    run(seed, banks, sets, ways, hashed, 1500);
                }
            }
        }
    }
}

#[test]
fn fresh_arrays_read_as_empty() {
    // Nothing has been written to a new array's payload slots: every
    // read path must answer from the keys alone.
    for hashed in [false, true] {
        let mut arr: Banked<[u64; 2]> = if hashed {
            Banked::with_hashed_index(8, 4, 16)
        } else {
            Banked::new(8, 4, 16)
        };
        for bank in 0..8 {
            assert_eq!(arr.iter_bank(bank).count(), 0);
            for set in 0..4 {
                assert_eq!(arr.victim_way(bank, set), 0);
                assert_eq!(arr.victim_way_with_cost(bank, set, |_, v| v[0]), 0);
                for way in 0..16 {
                    assert!(arr.at(bank, set, way).is_none());
                    assert!(arr.at_mut(bank, set, way).is_none());
                    assert!(!arr.is_mru(bank, set, way));
                    assert!(arr.remove(bank, set, way).is_none());
                }
                assert!(arr.get(bank, set, 7).is_none());
                assert!(arr.get_mut(bank, set, 7).is_none());
                assert!(arr.peek(bank, set, 7).is_none());
            }
        }
    }
}
