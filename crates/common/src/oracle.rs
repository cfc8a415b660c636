//! Whole-hierarchy value-coherence oracle.
//!
//! The simulator does not carry real data bytes; instead every cacheline
//! copy carries a **version token**. Each store mints a fresh global version
//! for its line; a coherent hierarchy must then satisfy: *every load observes
//! the version of the most recent store to that line*. The oracle tracks the
//! globally-latest version per line and (separately) the version that main
//! memory holds, so writebacks and memory refills can be validated too.
//!
//! Both the baselines and D2M run against the same oracle, which turns every
//! simulated load into a coherence check — the strongest correctness signal
//! the test suite has.

use crate::addr::LineAddr;
use crate::fasthash::FastMap;

/// Tracks the latest store version per line and memory's current version.
///
/// Both maps are keyed by trusted line addresses and only ever read point-wise
/// (no iteration), so they use the deterministic [`FastMap`] — the oracle sits
/// on the hot path of every simulated access.
#[derive(Clone, Debug, Default)]
pub struct VersionOracle {
    latest: FastMap<LineAddr, u64>,
    memory: FastMap<LineAddr, u64>,
    next: u64,
}

impl VersionOracle {
    /// Creates an empty oracle; all lines start at version 0 everywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh version for a store to `line` and records it as the
    /// globally latest. Returns the new version for the writer's copy.
    pub fn on_store(&mut self, line: LineAddr) -> u64 {
        self.next += 1;
        self.latest.insert(line, self.next);
        self.next
    }

    /// The version a fully coherent load of `line` must observe.
    pub fn latest(&self, line: LineAddr) -> u64 {
        self.latest.get(&line).copied().unwrap_or(0)
    }

    /// Records that `version` of `line` was written back to main memory.
    pub fn write_memory(&mut self, line: LineAddr, version: u64) {
        self.memory.insert(line, version);
    }

    /// The version main memory currently holds for `line`.
    pub fn memory(&self, line: LineAddr) -> u64 {
        self.memory.get(&line).copied().unwrap_or(0)
    }

    /// Checks a load observation; returns `Err` describing the violation if
    /// the observed version is stale.
    pub fn check_load(&self, line: LineAddr, observed: u64) -> Result<(), String> {
        let want = self.latest(line);
        if observed == want {
            Ok(())
        } else {
            Err(format!(
                "coherence violation on {line:?}: observed v{observed}, latest is v{want}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    #[test]
    fn unwritten_lines_are_version_zero() {
        let o = VersionOracle::new();
        assert_eq!(o.latest(l(5)), 0);
        assert_eq!(o.memory(l(5)), 0);
        assert!(o.check_load(l(5), 0).is_ok());
    }

    #[test]
    fn stores_mint_monotonic_versions() {
        let mut o = VersionOracle::new();
        let v1 = o.on_store(l(1));
        let v2 = o.on_store(l(2));
        let v3 = o.on_store(l(1));
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(o.latest(l(1)), v3);
        assert_eq!(o.latest(l(2)), v2);
    }

    #[test]
    fn stale_load_is_detected() {
        let mut o = VersionOracle::new();
        let v1 = o.on_store(l(9));
        let _v2 = o.on_store(l(9));
        assert!(o.check_load(l(9), v1).is_err());
        assert!(o.check_load(l(9), o.latest(l(9))).is_ok());
    }

    #[test]
    fn memory_version_is_independent_until_writeback() {
        let mut o = VersionOracle::new();
        let v = o.on_store(l(3));
        assert_eq!(o.memory(l(3)), 0, "store dirties a cache, not memory");
        o.write_memory(l(3), v);
        assert_eq!(o.memory(l(3)), v);
    }
}
