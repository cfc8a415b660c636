//! Strongly-typed addresses and cache geometry.
//!
//! The paper's geometry is fixed throughout the evaluation: 64-byte
//! cachelines grouped into *regions* of 16 adjacent cachelines (1 KB).
//! Metadata (Location Information) is kept per region with one LI entry per
//! cacheline, so most of the simulator operates on [`RegionAddr`] +
//! a 4-bit in-region line offset.
//!
//! Newtypes distinguish virtual from physical addresses ([`VAddr`] /
//! [`PAddr`]) and line- from region-granular addresses so they cannot be
//! mixed up silently (C-NEWTYPE).

use std::fmt;

/// Bytes per cacheline (64 B in the paper).
pub const LINE_BYTES: usize = 64;
/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;
/// Cachelines per metadata region (16 in the paper, i.e. 1 KB regions).
pub const LINES_PER_REGION: usize = 16;
/// log2 of [`LINES_PER_REGION`].
pub const REGION_LINE_SHIFT: u32 = 4;
/// Bytes per region (1 KB).
pub const REGION_BYTES: usize = LINE_BYTES * LINES_PER_REGION;
/// log2 of [`REGION_BYTES`].
pub const REGION_SHIFT: u32 = LINE_SHIFT + REGION_LINE_SHIFT;
/// Bytes per (small) page, used by the TLB models.
pub const PAGE_BYTES: usize = 4096;
/// log2 of [`PAGE_BYTES`].
pub const PAGE_SHIFT: u32 = 12;

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<$name> for u64 {
            fn from(a: $name) -> u64 {
                a.0
            }
        }
    };
}

addr_newtype!(
    /// A byte-granular *virtual* address as issued by a core.
    VAddr
);
addr_newtype!(
    /// A byte-granular *physical* address after translation.
    PAddr
);
addr_newtype!(
    /// A line-granular physical address (`PAddr >> 6`).
    LineAddr
);
addr_newtype!(
    /// A region-granular physical address (`PAddr >> 10`).
    RegionAddr
);
addr_newtype!(
    /// A region-granular *virtual* address, used to tag MD1 entries.
    VRegionAddr
);

impl VAddr {
    /// The virtual region this address falls in (MD1 tag granularity).
    #[inline]
    pub const fn vregion(self) -> VRegionAddr {
        VRegionAddr::new(self.0 >> REGION_SHIFT)
    }

    /// The 4-bit line offset within the region.
    #[inline]
    pub const fn region_offset(self) -> LineOffset {
        LineOffset(((self.0 >> LINE_SHIFT) & (LINES_PER_REGION as u64 - 1)) as u8)
    }

    /// The virtual page number (4 KB pages).
    #[inline]
    pub const fn vpage(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }
}

impl PAddr {
    /// The physical line this address falls in.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr::new(self.0 >> LINE_SHIFT)
    }

    /// The physical region this address falls in.
    #[inline]
    pub const fn region(self) -> RegionAddr {
        RegionAddr::new(self.0 >> REGION_SHIFT)
    }
}

impl LineAddr {
    /// The region containing this line.
    #[inline]
    pub const fn region(self) -> RegionAddr {
        RegionAddr::new(self.0 >> REGION_LINE_SHIFT)
    }

    /// The 4-bit offset of this line within its region.
    #[inline]
    pub const fn region_offset(self) -> LineOffset {
        LineOffset((self.0 & (LINES_PER_REGION as u64 - 1)) as u8)
    }

    /// The first byte address of this line.
    #[inline]
    pub const fn base(self) -> PAddr {
        PAddr::new(self.0 << LINE_SHIFT)
    }
}

impl RegionAddr {
    /// The line at `offset` within this region.
    #[inline]
    pub const fn line(self, offset: LineOffset) -> LineAddr {
        LineAddr::new((self.0 << REGION_LINE_SHIFT) | offset.0 as u64)
    }

    /// Iterator over all 16 lines of this region.
    pub fn lines(self) -> impl Iterator<Item = LineAddr> {
        (0..LINES_PER_REGION as u8).map(move |o| self.line(LineOffset(o)))
    }

    /// The first byte address of this region.
    #[inline]
    pub const fn base(self) -> PAddr {
        PAddr::new(self.0 << REGION_SHIFT)
    }
}

/// A 4-bit line offset within a region (0..16).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LineOffset(u8);

impl LineOffset {
    /// Creates an offset.
    ///
    /// # Panics
    ///
    /// Panics if `off >= 16`.
    #[inline]
    pub fn new(off: u8) -> Self {
        assert!(
            (off as usize) < LINES_PER_REGION,
            "line offset {off} out of range"
        );
        Self(off)
    }

    /// All 16 offsets in order.
    pub fn all() -> impl Iterator<Item = LineOffset> {
        (0..LINES_PER_REGION as u8).map(LineOffset)
    }

    /// The raw offset value.
    #[inline]
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl From<LineOffset> for usize {
    fn from(o: LineOffset) -> usize {
        o.0 as usize
    }
}

impl fmt::Display for LineOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies one of the (up to 8) nodes of the chip.
///
/// The paper's LI encoding reserves 3 bits for node IDs, so values must stay
/// below [`NodeId::MAX_NODES`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u8);

impl NodeId {
    /// The maximum number of nodes representable in the 6-bit LI encoding.
    pub const MAX_NODES: usize = 8;

    /// Creates a node id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 8` (the LI encoding has 3 node-id bits).
    #[inline]
    pub fn new(id: u8) -> Self {
        assert!(
            (id as usize) < Self::MAX_NODES,
            "node id {id} exceeds the 3-bit LI encoding"
        );
        Self(id)
    }

    /// The node id held in the low 3 bits of `bits`; the other bits are
    /// ignored, so no id is out of range and nothing is checked.
    #[inline]
    pub const fn from_low_bits(bits: u8) -> Self {
        Self(bits & (Self::MAX_NODES as u8 - 1))
    }

    /// The raw index.
    #[inline]
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Index usable for array access.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over the first `n` node ids.
    pub fn first(n: usize) -> impl Iterator<Item = NodeId> {
        assert!(n <= Self::MAX_NODES);
        (0..n as u8).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// An address-space identifier; multiprogrammed (Server) workloads give each
/// node its own ASID so their physical footprints are disjoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Asid(pub u16);

/// Deterministic, page-granular virtual→physical translation.
///
/// The reproduction does not model an OS page table; instead translation is
/// a fixed bijection per ASID: each address space's pages are relocated by a
/// per-ASID offset, **preserving virtual contiguity** (the transparent-
/// huge-page / contiguous-allocation behaviour real systems exhibit, and
/// what the paper's "malicious" power-of-two stride patterns rely on), while
/// distinct ASIDs land on disjoint physical ranges and never alias.
#[inline]
pub fn translate(asid: Asid, va: VAddr) -> PAddr {
    // Place each address space in its own 2^36-page physical window: spaces
    // are disjoint by construction and never alias (virtual footprints stay
    // far below 2^36 pages).
    let ppage = va.vpage() | ((asid.0 as u64) << 36);
    PAddr::new((ppage << PAGE_SHIFT) | (va.raw() & (PAGE_BYTES as u64 - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_region_roundtrip() {
        let pa = PAddr::new(0xdead_beef);
        let line = pa.line();
        assert_eq!(line.region(), pa.region());
        assert_eq!(line.region().line(line.region_offset()), line);
    }

    #[test]
    fn geometry_constants() {
        assert_eq!(LINE_BYTES, 64);
        assert_eq!(LINES_PER_REGION, 16);
        assert_eq!(REGION_BYTES, 1024);
        assert_eq!(1u64 << REGION_SHIFT, REGION_BYTES as u64);
    }

    #[test]
    fn region_lines_enumerates_16_consecutive() {
        let r = RegionAddr::new(7);
        let lines: Vec<_> = r.lines().collect();
        assert_eq!(lines.len(), 16);
        assert_eq!(lines[0].raw(), 7 * 16);
        assert_eq!(lines[15].raw(), 7 * 16 + 15);
        for l in &lines {
            assert_eq!(l.region(), r);
        }
    }

    #[test]
    fn vaddr_offset_matches_paddr_offset_under_translation() {
        // Translation is page-granular and pages are larger than regions, so
        // the line offset within a region must be preserved.
        let va = VAddr::new(0x1234_5678);
        let pa = translate(Asid(3), va);
        assert_eq!(va.region_offset().raw(), pa.line().region_offset().raw());
    }

    #[test]
    fn translation_is_deterministic_and_asid_disjoint() {
        let va = VAddr::new(0xabcd_ef00);
        assert_eq!(translate(Asid(1), va), translate(Asid(1), va));
        assert_ne!(translate(Asid(1), va), translate(Asid(2), va));
    }

    #[test]
    fn translation_preserves_page_offset() {
        let va = VAddr::new(0x7fff_1abc);
        let pa = translate(Asid(0), va);
        assert_eq!(va.raw() & 0xfff, pa.raw() & 0xfff);
    }

    #[test]
    #[should_panic(expected = "node id")]
    fn node_id_bounds() {
        let _ = NodeId::new(8);
    }

    #[test]
    fn line_offset_all() {
        assert_eq!(LineOffset::all().count(), 16);
    }

    #[test]
    fn node_id_from_low_bits_ignores_the_rest() {
        assert_eq!(NodeId::from_low_bits(0b1010_1101), NodeId::new(5));
        for id in 0..8 {
            assert_eq!(NodeId::from_low_bits(id), NodeId::new(id));
        }
    }

    #[test]
    fn debug_formats_are_nonempty() {
        assert!(!format!("{:?}", PAddr::new(0)).is_empty());
        assert!(!format!("{:?}", NodeId::new(0)).is_empty());
        assert!(!format!("{:?}", LineOffset::new(0)).is_empty());
    }
}
