//! Location Information (LI) — the paper's Table I, plus the near-side
//! reinterpretation of §IV-B.
//!
//! Each cacheline's location is a 6-bit pointer:
//!
//! | bits     | meaning                         |
//! |----------|---------------------------------|
//! | `000NNN` | master in remote node `NNN`     |
//! | `001WWW` | in local L1, way `WWW`          |
//! | `010WWW` | in local L2, way `WWW`          |
//! | `011SSS` | one of eight symbols (`MEM`, `INVALID`, six reserved) |
//! | `1WWWWW` | far-side LLC, way `WWWWW` (32 ways) |
//!
//! With a near-side LLC the last row is reinterpreted as `1NNNWW`: node
//! `NNN`'s slice, way `WW` (4 ways × 8 nodes = the same 32 ways). The 6-bit
//! cost per cacheline — versus ~30 bits for an address tag — is the paper's
//! headline storage argument.

use d2m_common::addr::NodeId;

/// A cacheline's location, as tracked by the metadata hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Li {
    /// The master is in a remote node's private hierarchy (tracked by node
    /// id only, so nodes can move lines between their own levels freely).
    Node(NodeId),
    /// In the local L1, at the given way.
    L1 {
        /// Way within the L1 set.
        way: u8,
    },
    /// In the local L2, at the given way. Table I defines the encoding,
    /// but no D2M data array here is an L2 (the evaluated variants have
    /// none, Figure 4), so the protocol rejects it as
    /// [`crate::ProtocolError::UnexpectedLi`] wherever it meets one.
    L2 {
        /// Way within the L2 set.
        way: u8,
    },
    /// The master is main memory.
    Mem,
    /// No location is being tracked (used by MD3 for private regions, whose
    /// authoritative LIs live in the owner's MD1/MD2).
    #[default]
    Invalid,
    /// Far-side LLC at the given way (0..32).
    LlcFs {
        /// Way within the far-side LLC set.
        way: u8,
    },
    /// Near-side LLC: `node`'s slice at the given way (0..4).
    LlcNs {
        /// Slice owner.
        node: NodeId,
        /// Way within the slice set.
        way: u8,
    },
}

/// Whether the 6-bit encoding uses the far-side or near-side interpretation
/// of the `1…` row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LiEncoding {
    /// `1WWWWW`: 32-way far-side LLC.
    FarSide,
    /// `1NNNWW`: 8 slices × 4 ways.
    NearSide,
}

/// Errors from [`Li::pack`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PackLiError {
    /// A way index exceeded its field width.
    WayOutOfRange,
    /// A far-side variant was packed with the near-side encoding or vice
    /// versa.
    WrongEncoding,
}

impl std::fmt::Display for PackLiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackLiError::WayOutOfRange => write!(f, "way index exceeds the LI field width"),
            PackLiError::WrongEncoding => {
                write!(f, "LLC variant does not match the selected LI encoding")
            }
        }
    }
}

impl std::error::Error for PackLiError {}

const SYM_MEM: u8 = 0;
const SYM_INVALID: u8 = 1;

impl Li {
    /// Packs into the 6-bit hardware encoding.
    ///
    /// # Errors
    ///
    /// Returns [`PackLiError`] if a way index does not fit its field or the
    /// LLC variant does not match `enc`.
    pub fn pack(self, enc: LiEncoding) -> Result<u8, PackLiError> {
        let check = |v: u8, bits: u32| {
            if u32::from(v) < (1 << bits) {
                Ok(v)
            } else {
                Err(PackLiError::WayOutOfRange)
            }
        };
        match self {
            Li::Node(n) => Ok(n.raw()), // 000NNN
            Li::L1 { way } => Ok(0b001_000 | check(way, 3)?),
            Li::L2 { way } => Ok(0b010_000 | check(way, 3)?),
            Li::Mem => Ok(0b011_000 | SYM_MEM),
            Li::Invalid => Ok(0b011_000 | SYM_INVALID),
            Li::LlcFs { way } => match enc {
                LiEncoding::FarSide => Ok(0b100_000 | check(way, 5)?),
                LiEncoding::NearSide => Err(PackLiError::WrongEncoding),
            },
            Li::LlcNs { node, way } => match enc {
                LiEncoding::NearSide => Ok(0b100_000 | (node.raw() << 2) | check(way, 2)?),
                LiEncoding::FarSide => Err(PackLiError::WrongEncoding),
            },
        }
    }

    /// Unpacks a 6-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `bits >= 64` (not a 6-bit value).
    pub fn unpack(bits: u8, enc: LiEncoding) -> Li {
        assert!(bits < 64, "LI is a 6-bit field");
        match bits >> 3 {
            0b000 => Li::Node(NodeId::new(bits & 0b111)),
            0b001 => Li::L1 { way: bits & 0b111 },
            0b010 => Li::L2 { way: bits & 0b111 },
            0b011 => match bits & 0b111 {
                SYM_MEM => Li::Mem,
                _ => Li::Invalid,
            },
            _ => match enc {
                LiEncoding::FarSide => Li::LlcFs {
                    way: bits & 0b11111,
                },
                LiEncoding::NearSide => Li::LlcNs {
                    node: NodeId::new((bits >> 2) & 0b111),
                    way: bits & 0b11,
                },
            },
        }
    }

    /// True if this LI points at data cached inside the local node (L1/L2).
    pub fn is_node_local(self) -> bool {
        matches!(self, Li::L1 { .. } | Li::L2 { .. })
    }

    /// True if this LI points at an LLC slot (far- or near-side).
    pub fn is_llc(self) -> bool {
        matches!(self, Li::LlcFs { .. } | Li::LlcNs { .. })
    }

    /// True if the location is tracked at all.
    pub fn is_valid(self) -> bool {
        !matches!(self, Li::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_encodings() {
        // The exact rows of Table I.
        assert_eq!(
            Li::Node(NodeId::new(5)).pack(LiEncoding::FarSide),
            Ok(0b000_101)
        );
        assert_eq!(Li::L1 { way: 7 }.pack(LiEncoding::FarSide), Ok(0b001_111));
        assert_eq!(Li::L2 { way: 3 }.pack(LiEncoding::FarSide), Ok(0b010_011));
        assert_eq!(Li::Mem.pack(LiEncoding::FarSide), Ok(0b011_000));
        assert_eq!(
            Li::LlcFs { way: 31 }.pack(LiEncoding::FarSide),
            Ok(0b111_111)
        );
        // §IV-B reinterpretation: 1NNNWW.
        assert_eq!(
            Li::LlcNs {
                node: NodeId::new(6),
                way: 2
            }
            .pack(LiEncoding::NearSide),
            Ok(0b1_110_10)
        );
    }

    #[test]
    fn pack_rejects_out_of_range_ways() {
        assert_eq!(
            Li::L1 { way: 8 }.pack(LiEncoding::FarSide),
            Err(PackLiError::WayOutOfRange)
        );
        assert_eq!(
            Li::LlcFs { way: 32 }.pack(LiEncoding::FarSide),
            Err(PackLiError::WayOutOfRange)
        );
        assert_eq!(
            Li::LlcNs {
                node: NodeId::new(0),
                way: 4
            }
            .pack(LiEncoding::NearSide),
            Err(PackLiError::WayOutOfRange)
        );
    }

    #[test]
    fn pack_rejects_wrong_encoding() {
        assert_eq!(
            Li::LlcFs { way: 0 }.pack(LiEncoding::NearSide),
            Err(PackLiError::WrongEncoding)
        );
        assert_eq!(
            Li::LlcNs {
                node: NodeId::new(0),
                way: 0
            }
            .pack(LiEncoding::FarSide),
            Err(PackLiError::WrongEncoding)
        );
    }

    #[test]
    fn invalid_symbol_roundtrips() {
        let bits = Li::Invalid.pack(LiEncoding::FarSide).unwrap();
        assert_eq!(Li::unpack(bits, LiEncoding::FarSide), Li::Invalid);
        assert!(!Li::Invalid.is_valid());
    }

    #[test]
    fn reserved_symbols_decode_as_invalid() {
        for s in 2..8u8 {
            assert_eq!(Li::unpack(0b011_000 | s, LiEncoding::FarSide), Li::Invalid);
        }
    }

    #[test]
    fn predicates() {
        assert!(Li::L1 { way: 0 }.is_node_local());
        assert!(!Li::Mem.is_node_local());
        assert!(Li::LlcFs { way: 1 }.is_llc());
        assert!(Li::LlcNs {
            node: NodeId::new(1),
            way: 1
        }
        .is_llc());
        assert!(!Li::Node(NodeId::new(1)).is_llc());
    }

    /// Every representable LI value for `enc` (exhaustive, replacing the
    /// former proptest sampling — the whole space is tiny).
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

    #[test]
    fn pack_unpack_roundtrip_farside() {
        for li in all_lis(LiEncoding::FarSide) {
            let bits = li.pack(LiEncoding::FarSide).unwrap();
            assert!(bits < 64, "{li:?} must fit 6 bits");
            assert_eq!(Li::unpack(bits, LiEncoding::FarSide), li);
        }
    }

    #[test]
    fn pack_unpack_roundtrip_nearside() {
        for li in all_lis(LiEncoding::NearSide) {
            let bits = li.pack(LiEncoding::NearSide).unwrap();
            assert!(bits < 64, "{li:?} must fit 6 bits");
            assert_eq!(Li::unpack(bits, LiEncoding::NearSide), li);
        }
    }

    #[test]
    fn every_6bit_value_decodes() {
        // Total decode: no 6-bit pattern is unrepresentable.
        for bits in 0u8..64 {
            let _ = Li::unpack(bits, LiEncoding::FarSide);
            let _ = Li::unpack(bits, LiEncoding::NearSide);
        }
    }
}
