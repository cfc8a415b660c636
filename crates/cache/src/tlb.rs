//! TLB model.
//!
//! The baselines consult a TLB1 before every L1 access; D2M replaces TLB1
//! with the virtually-tagged MD1 and only needs a TLB2 on the MD2 path
//! (paper §II-A). Translation itself is the deterministic bijection from
//! [`d2m_common::addr::translate`]; the TLB only models reach, so the
//! hierarchy sees realistic hit/miss behaviour and energy.

use d2m_common::addr::{translate, Asid, PAddr, VAddr};

use crate::set_assoc::SetAssoc;

/// Small set-associative TLB keyed by `(asid, virtual page)`.
#[derive(Clone, Debug)]
pub struct Tlb {
    arr: SetAssoc<()>,
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            arr: SetAssoc::new(sets, ways),
        }
    }

    fn key(asid: Asid, va: VAddr) -> u64 {
        (va.vpage() << 16) ^ asid.0 as u64
    }

    /// Translates `va`, filling the TLB on a miss.
    ///
    /// Returns `(paddr, hit)`.
    pub fn access(&mut self, asid: Asid, va: VAddr) -> (PAddr, bool) {
        let key = Self::key(asid, va);
        let set = self.arr.set_index(key);
        let hit = self.arr.get(set, key).is_some();
        if !hit {
            let way = self.arr.victim_way(set);
            self.arr.insert_at(set, way, key, ());
        }
        (translate(asid, va), hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut tlb = Tlb::new(16, 4);
        let va = VAddr::new(0x1234_5000);
        let (p1, h1) = tlb.access(Asid(0), va);
        assert!(!h1);
        let (p2, h2) = tlb.access(Asid(0), VAddr::new(0x1234_5040));
        assert!(h2, "same page must hit");
        assert_eq!(p1.raw() >> 12, p2.raw() >> 12);
        let (_, h3) = tlb.access(Asid(0), VAddr::new(0x1234_6000));
        assert!(!h3, "the next page must miss");
    }

    #[test]
    fn distinct_asids_do_not_alias() {
        let mut tlb = Tlb::new(16, 4);
        let va = VAddr::new(0x9000);
        let _ = tlb.access(Asid(1), va);
        let (_, h) = tlb.access(Asid(2), va);
        assert!(!h, "different ASID must miss");
    }

    #[test]
    fn capacity_misses_occur() {
        let mut tlb = Tlb::new(1, 2);
        for page in 0..4u64 {
            let _ = tlb.access(Asid(0), VAddr::new(page << 12));
        }
        // Revisit the first page: evicted by now.
        let (_, h) = tlb.access(Asid(0), VAddr::new(0));
        assert!(!h);
    }
}
