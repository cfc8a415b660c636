//! Typed protocol errors.
//!
//! A corrupted location pointer (LI) fails its transaction with a
//! [`ProtocolError`], in debug and release builds alike: the error fails
//! the run, a sweep records it against that one cell, and the rest of a
//! multi-hour sweep keeps running. No path reroutes around a broken LI.

use crate::li::Li;

/// A protocol-level failure on the transaction path, caused by metadata
/// state that violates the deterministic-LI invariants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// An LI that should name an LLC slot named something else entirely.
    NotAnLlcLocation {
        /// The offending location pointer.
        li: Li,
    },
    /// An LLC LI whose slice or way index is outside the configured
    /// geometry (e.g. a near-side pointer on a far-side system).
    LlcSlotOutOfRange {
        /// The offending location pointer.
        li: Li,
        /// Number of LLC slices in this system.
        slices: usize,
        /// Ways per LLC set in this system.
        ways: usize,
    },
    /// An LI of a class that cannot occur where it was found.
    UnexpectedLi {
        /// The offending location pointer.
        li: Li,
        /// Where it was found.
        context: &'static str,
    },
    /// A well-formed LI naming a slot that does not hold its line (paper
    /// §II: "if an LI says a line is in L1 way 3, it is there").
    Determinism {
        /// The offending location pointer.
        li: Li,
        /// Where it was followed.
        context: &'static str,
    },
    /// Region metadata in a state the protocol cannot act on.
    CorruptMetadata {
        /// What was corrupt.
        context: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::NotAnLlcLocation { li } => {
                write!(f, "{li:?} is not an LLC location")
            }
            ProtocolError::LlcSlotOutOfRange { li, slices, ways } => write!(
                f,
                "{li:?} is outside the LLC geometry ({slices} slices x {ways} ways)"
            ),
            ProtocolError::UnexpectedLi { li, context } => {
                write!(f, "unexpected LI {li:?}: {context}")
            }
            ProtocolError::Determinism { li, context } => {
                write!(f, "{li:?} does not hold its line: {context}")
            }
            ProtocolError::CorruptMetadata { context } => {
                write!(f, "corrupt metadata: {context}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = ProtocolError::NotAnLlcLocation { li: Li::Mem };
        assert!(e.to_string().contains("Mem"));
        let e = ProtocolError::LlcSlotOutOfRange {
            li: Li::LlcFs { way: 40 },
            slices: 1,
            ways: 32,
        };
        let s = e.to_string();
        assert!(s.contains("1 slices") && s.contains("32 ways"), "{s}");
        let e = ProtocolError::Determinism {
            li: Li::L1 { way: 3 },
            context: "L1 hit",
        };
        assert!(e.to_string().contains("L1 { way: 3 }"), "{e}");
    }
}
