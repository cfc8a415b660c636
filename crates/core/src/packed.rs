//! Hardware-width packed region metadata: 16 six-bit LIs in two `u64`s.
//!
//! The paper's storage argument (§III-A) prices a region's metadata at
//! `PB(8) + 16×LI(6) = 104 bits`. [`PackedLiArray`] stores the LI portion at
//! exactly that density — eight 6-bit lanes per word, two words per region —
//! instead of a `[Li; 16]` enum array (~3 bytes per LI plus padding). Every
//! per-line access is a branch-free shift/mask using the Table I encoding
//! from [`Li::pack`]/[`Li::unpack`], and the bulk queries the replacement,
//! prune, and invariant paths need (resident-line counts, validity tests)
//! are SWAR bit tricks over the two words rather than 16-iteration enum
//! scans.
//!
//! Lane values are whatever [`Li::pack`] produces, so
//! [`PackedLiArray::set`] always stores the canonical `INVALID` symbol
//! (`0b011_001`); the SWAR predicates nevertheless classify the six reserved
//! symbols (`0b011_010..=0b011_111`) as invalid, exactly like
//! [`Li::unpack`], so raw injection via [`PackedLiArray::set_raw`]
//! (corruption tests) behaves identically to the old enum arrays.

use d2m_common::addr::LINES_PER_REGION;

use crate::li::{Li, LiEncoding};

/// Bits per LI lane (Table I).
const LANE_BITS: usize = 6;
/// Lanes stored per `u64` word. Only `8 × 6 = 48` bits of each word are
/// used; the top 16 bits stay zero.
const LANES_PER_WORD: usize = 8;
/// Bit 0 of every lane: bits 0, 6, 12, …, 42.
const LANE_LSB: u64 = 0x0000_0410_4104_1041;
/// The canonical packed encoding of [`Li::Invalid`] (`0b011_001`).
const INVALID_BITS: u64 = 0b011_001;
/// The packed encoding of [`Li::Mem`] (`0b011_000`), identical under both
/// encodings.
const MEM_BITS: u64 = 0b011_000;

/// A region's 16 location-information entries, bit-packed at the paper's
/// hardware width (96 bits in two words).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedLiArray {
    /// Lines 0..8 in `words[0]`, lines 8..16 in `words[1]`, 6 bits each.
    words: [u64; 2],
}

impl PackedLiArray {
    /// All 16 lanes [`Li::Invalid`] (the MD3 "private region" state).
    pub const INVALID: Self = Self {
        words: [INVALID_BITS * LANE_LSB; 2],
    };

    /// All 16 lanes [`Li::Mem`] (the fresh-region state handed out by a D4
    /// MD3 allocation).
    pub const MEM: Self = Self {
        words: [MEM_BITS * LANE_LSB; 2],
    };

    /// An array with every lane set to `li`.
    ///
    /// # Panics
    ///
    /// Panics if `li` is not representable under `enc` (see [`Li::pack`]).
    pub fn filled(li: Li, enc: LiEncoding) -> Self {
        let bits = li.pack(enc).expect("LI representable under the encoding") as u64;
        Self {
            words: [bits * LANE_LSB; 2],
        }
    }

    /// Builds from a plain enum array.
    ///
    /// # Panics
    ///
    /// Panics if any element is not representable under `enc`.
    pub fn from_array(lis: &[Li; LINES_PER_REGION], enc: LiEncoding) -> Self {
        let mut out = Self::INVALID;
        for (off, li) in lis.iter().enumerate() {
            out.set(off, *li, enc);
        }
        out
    }

    /// Expands to a plain enum array (checking/debug paths).
    pub fn to_array(&self, enc: LiEncoding) -> [Li; LINES_PER_REGION] {
        let mut out = [Li::Invalid; LINES_PER_REGION];
        for (off, slot) in out.iter_mut().enumerate() {
            *slot = self.get(off, enc);
        }
        out
    }

    /// The raw 6-bit lane for line `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off >= 16`.
    #[inline]
    pub fn get_raw(&self, off: usize) -> u8 {
        assert!(off < LINES_PER_REGION, "line offset {off} out of range");
        let w = self.words[off / LANES_PER_WORD];
        ((w >> ((off % LANES_PER_WORD) * LANE_BITS)) & 0x3f) as u8
    }

    /// Overwrites the raw 6-bit lane for line `off` (corruption injection in
    /// tests; [`Self::set`] is the typed path).
    ///
    /// # Panics
    ///
    /// Panics if `off >= 16` or `bits >= 64`.
    #[inline]
    pub fn set_raw(&mut self, off: usize, bits: u8) {
        assert!(off < LINES_PER_REGION, "line offset {off} out of range");
        assert!(bits < 64, "LI is a 6-bit field");
        let w = &mut self.words[off / LANES_PER_WORD];
        let sh = (off % LANES_PER_WORD) * LANE_BITS;
        *w = (*w & !(0x3f << sh)) | ((bits as u64) << sh);
    }

    /// The LI for line `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off >= 16`.
    #[inline]
    pub fn get(&self, off: usize, enc: LiEncoding) -> Li {
        Li::unpack(self.get_raw(off), enc)
    }

    /// Stores the LI for line `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off >= 16` or `li` is not representable under `enc`
    /// (a way index out of field range, or an LLC variant of the other
    /// encoding — states the enum array could hold but the 6-bit hardware
    /// field cannot).
    #[inline]
    pub fn set(&mut self, off: usize, li: Li, enc: LiEncoding) {
        let bits = li.pack(enc).expect("LI representable under the encoding");
        self.set_raw(off, bits);
    }

    /// Whether line `off`'s LI is valid (not [`Li::Invalid`], including the
    /// reserved symbols that decode as invalid).
    ///
    /// # Panics
    ///
    /// Panics if `off >= 16`.
    #[inline]
    pub fn is_valid(&self, off: usize) -> bool {
        let v = self.get_raw(off);
        !(0b011_001..0b100_000).contains(&v)
    }

    /// Bit 0 of each lane set iff the lane's top three bits are `001` or
    /// `010` (L1/L2 — node-local).
    #[inline]
    fn lanes_node_local(w: u64) -> u64 {
        ((w >> 3) ^ (w >> 4)) & !(w >> 5) & LANE_LSB
    }

    /// Bit 0 of each lane set iff the lane's top bit is set (an LLC way).
    #[inline]
    fn lanes_llc(w: u64) -> u64 {
        (w >> 5) & LANE_LSB
    }

    /// Bit 0 of each lane set iff the lane decodes as [`Li::Invalid`]:
    /// `011SSS` with `SSS != 0` (the canonical symbol and the six reserved
    /// ones).
    #[inline]
    fn lanes_invalid(w: u64) -> u64 {
        let low = w | (w >> 1) | (w >> 2);
        !(w >> 5) & (w >> 4) & (w >> 3) & low & LANE_LSB
    }

    /// Compresses per-lane LSB flags (stride 6) into a contiguous 8-bit
    /// mask.
    #[inline]
    fn gather(mut lanes: u64) -> u16 {
        let mut m = 0u16;
        for k in 0..LANES_PER_WORD {
            m |= ((lanes & 1) as u16) << k;
            lanes >>= LANE_BITS;
        }
        m
    }

    /// Number of lines resident in the node (L1 or L2) — the MD2
    /// region-aware replacement cost, as two SWAR popcounts.
    #[inline]
    pub fn count_node_local(&self) -> u32 {
        Self::lanes_node_local(self.words[0]).count_ones()
            + Self::lanes_node_local(self.words[1]).count_ones()
    }

    /// Number of lines pointing into the LLC — the MD3 replacement cost.
    #[inline]
    pub fn count_llc_resident(&self) -> u32 {
        Self::lanes_llc(self.words[0]).count_ones() + Self::lanes_llc(self.words[1]).count_ones()
    }

    /// Number of valid lines.
    #[inline]
    pub fn count_valid(&self) -> u32 {
        LINES_PER_REGION as u32
            - Self::lanes_invalid(self.words[0]).count_ones()
            - Self::lanes_invalid(self.words[1]).count_ones()
    }

    /// True if every lane is invalid (an MD3 entry for a private region).
    #[inline]
    pub fn all_invalid(&self) -> bool {
        Self::lanes_invalid(self.words[0]) == LANE_LSB
            && Self::lanes_invalid(self.words[1]) == LANE_LSB
    }

    /// True if any lane is valid.
    #[inline]
    pub fn any_valid(&self) -> bool {
        !self.all_invalid()
    }

    /// Bit `n` set iff line `n`'s LI is valid.
    #[inline]
    pub fn valid_mask(&self) -> u16 {
        !(Self::gather(Self::lanes_invalid(self.words[0]))
            | (Self::gather(Self::lanes_invalid(self.words[1])) << 8))
    }

    /// Bit `n` set iff line `n` is node-local (L1/L2).
    #[inline]
    pub fn node_local_mask(&self) -> u16 {
        Self::gather(Self::lanes_node_local(self.words[0]))
            | (Self::gather(Self::lanes_node_local(self.words[1])) << 8)
    }
}

impl Default for PackedLiArray {
    fn default() -> Self {
        Self::INVALID
    }
}

impl std::fmt::Debug for PackedLiArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Raw lanes: encoding-independent, and unambiguous for corrupt
        // patterns.
        write!(f, "PackedLiArray[")?;
        for off in 0..LINES_PER_REGION {
            if off > 0 {
                write!(f, " ")?;
            }
            write!(f, "{:02x}", self.get_raw(off))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2m_common::addr::NodeId;
    use d2m_common::rng::SimRng;

    const ENCODINGS: [LiEncoding; 2] = [LiEncoding::FarSide, LiEncoding::NearSide];

    #[test]
    fn constants_match_per_lane_packing() {
        for off in 0..LINES_PER_REGION {
            assert_eq!(
                PackedLiArray::INVALID.get(off, LiEncoding::FarSide),
                Li::Invalid
            );
            assert_eq!(PackedLiArray::MEM.get(off, LiEncoding::NearSide), Li::Mem);
        }
        assert!(PackedLiArray::INVALID.all_invalid());
        assert!(!PackedLiArray::INVALID.any_valid());
        assert!(PackedLiArray::MEM.any_valid());
        assert_eq!(PackedLiArray::MEM.valid_mask(), 0xffff);
        assert_eq!(PackedLiArray::default(), PackedLiArray::INVALID);
    }

    /// Satellite requirement: every one of the 64 six-bit patterns, under
    /// both encodings, must survive a `set`/`get` round trip at the `Li`
    /// level and a `set_raw`/`get` trip at the decode level, at every line
    /// offset.
    #[test]
    fn exhaustive_six_bit_round_trip() {
        for enc in ENCODINGS {
            for bits in 0u8..64 {
                let li = Li::unpack(bits, enc);
                for off in 0..LINES_PER_REGION {
                    let mut arr = PackedLiArray::MEM;
                    arr.set(off, li, enc);
                    assert_eq!(arr.get(off, enc), li, "bits {bits:#08b} off {off}");
                    // Canonical re-pack: reserved symbols collapse to the
                    // canonical Invalid lane, everything else is identity.
                    assert_eq!(arr.get_raw(off), li.pack(enc).unwrap());

                    // Raw injection must decode exactly like Li::unpack.
                    let mut raw = PackedLiArray::INVALID;
                    raw.set_raw(off, bits);
                    assert_eq!(raw.get_raw(off), bits);
                    assert_eq!(raw.get(off, enc), li);
                    assert_eq!(raw.is_valid(off), li.is_valid());
                    // Neighbours are untouched.
                    for other in (0..LINES_PER_REGION).filter(|o| *o != off) {
                        assert_eq!(raw.get(other, enc), Li::Invalid);
                    }
                }
            }
        }
    }

    /// Every representable LI value for `enc` (mirrors `li.rs`'s exhaustive
    /// test helper).
    fn all_lis(enc: LiEncoding) -> Vec<Li> {
        let mut lis = Vec::new();
        lis.extend((0u8..8).map(|n| Li::Node(NodeId::new(n))));
        lis.extend((0u8..8).map(|way| Li::L1 { way }));
        lis.extend((0u8..8).map(|way| Li::L2 { way }));
        lis.push(Li::Mem);
        lis.push(Li::Invalid);
        match enc {
            LiEncoding::FarSide => lis.extend((0u8..32).map(|way| Li::LlcFs { way })),
            LiEncoding::NearSide => {
                for n in 0u8..8 {
                    for way in 0u8..4 {
                        lis.push(Li::LlcNs {
                            node: NodeId::new(n),
                            way,
                        });
                    }
                }
            }
        }
        lis
    }

    /// Satellite requirement: a seeded randomized mutation/query sequence
    /// driven in lockstep against a reference `[Li; 16]`, same pattern as
    /// the `Banked` vs `SetAssoc` equivalence test from the arena PR.
    #[test]
    fn randomized_equivalence_with_enum_array() {
        for enc in ENCODINGS {
            let lis = all_lis(enc);
            let mut rng = SimRng::from_label(0xd2a5, "packed-li-equiv");
            let mut packed = PackedLiArray::INVALID;
            let mut reference = [Li::Invalid; LINES_PER_REGION];
            for step in 0..20_000u32 {
                let off = rng.below(LINES_PER_REGION as u64) as usize;
                match rng.below(4) {
                    0 | 1 => {
                        let li = lis[rng.below(lis.len() as u64) as usize];
                        packed.set(off, li, enc);
                        reference[off] = li;
                    }
                    2 => {
                        packed.set(off, Li::Invalid, enc);
                        reference[off] = Li::Invalid;
                    }
                    _ => {
                        let bits = rng.below(64) as u8;
                        packed.set_raw(off, bits);
                        reference[off] = Li::unpack(bits, enc);
                    }
                }
                // Point queries.
                assert_eq!(packed.get(off, enc), reference[off], "step {step}");
                // Bulk queries must match the enum-array scans they replace.
                assert_eq!(
                    packed.count_node_local() as usize,
                    reference.iter().filter(|l| l.is_node_local()).count(),
                    "step {step}"
                );
                assert_eq!(
                    packed.count_llc_resident() as usize,
                    reference.iter().filter(|l| l.is_llc()).count(),
                    "step {step}"
                );
                assert_eq!(
                    packed.count_valid() as usize,
                    reference.iter().filter(|l| l.is_valid()).count(),
                    "step {step}"
                );
                assert_eq!(
                    packed.any_valid(),
                    reference.iter().any(|l| l.is_valid()),
                    "step {step}"
                );
                assert_eq!(
                    packed.all_invalid(),
                    reference.iter().all(|l| !l.is_valid()),
                    "step {step}"
                );
                let want_valid: u16 = reference
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.is_valid())
                    .map(|(i, _)| 1u16 << i)
                    .sum();
                assert_eq!(packed.valid_mask(), want_valid, "step {step}");
                let want_local: u16 = reference
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.is_node_local())
                    .map(|(i, _)| 1u16 << i)
                    .sum();
                assert_eq!(packed.node_local_mask(), want_local, "step {step}");
            }
            // Full-array conversions agree at the end of the run.
            assert_eq!(packed.to_array(enc), reference);
            assert_eq!(
                PackedLiArray::from_array(&packed.to_array(enc), enc),
                packed
            );
        }
    }

    #[test]
    fn packed_array_is_two_words() {
        // The §III-A storage claim, enforced: 16 LIs live in 128 bits.
        assert_eq!(std::mem::size_of::<PackedLiArray>(), 16);
    }

    #[test]
    #[should_panic(expected = "line offset")]
    fn get_raw_rejects_out_of_range_offset() {
        let _ = PackedLiArray::INVALID.get_raw(16);
    }

    #[test]
    #[should_panic(expected = "6-bit")]
    fn set_raw_rejects_wide_bits() {
        let mut arr = PackedLiArray::INVALID;
        arr.set_raw(0, 64);
    }

    #[test]
    #[should_panic(expected = "representable")]
    fn set_rejects_wrong_encoding() {
        let mut arr = PackedLiArray::INVALID;
        arr.set(0, Li::LlcFs { way: 0 }, LiEncoding::NearSide);
    }
}
