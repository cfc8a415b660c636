//! The five evaluated systems behind one interface.

use d2m_baseline::{Baseline, BaselineKind};
use d2m_common::config::MachineConfig;
use d2m_common::outcome::AccessResult;
use d2m_common::stats::Counters;
use d2m_core::{D2mSystem, D2mVariant, MetadataFootprint, ProtocolError};
use d2m_energy::EnergyAccount;
use d2m_noc::Noc;
use d2m_workloads::Access;

/// The five systems of the paper's evaluation (Figure 4 / §V-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SystemKind {
    /// Mobile-class baseline: L1 + shared LLC, MESI directory.
    Base2L,
    /// Server-class baseline: adds a private 256 KB L2 per node.
    Base3L,
    /// D2M with a far-side LLC.
    D2mFs,
    /// D2M with near-side LLC slices (pressure placement).
    D2mNs,
    /// D2M-NS plus replication and dynamic indexing.
    D2mNsR,
}

impl SystemKind {
    /// All systems in figure order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Base2L,
        SystemKind::Base3L,
        SystemKind::D2mFs,
        SystemKind::D2mNs,
        SystemKind::D2mNsR,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Base2L => "Base-2L",
            SystemKind::Base3L => "Base-3L",
            SystemKind::D2mFs => "D2M-FS",
            SystemKind::D2mNs => "D2M-NS",
            SystemKind::D2mNsR => "D2M-NS-R",
        }
    }

    /// True for the D2M variants.
    pub fn is_d2m(self) -> bool {
        matches!(
            self,
            SystemKind::D2mFs | SystemKind::D2mNs | SystemKind::D2mNsR
        )
    }
}

d2m_common::impl_json_enum!(SystemKind {
    Base2L,
    Base3L,
    D2mFs,
    D2mNs,
    D2mNsR,
});

/// A constructed system of any kind.
pub enum AnySystem {
    /// One of the two baselines.
    Base(Box<Baseline>),
    /// One of the three D2M variants.
    D2m(Box<D2mSystem>),
}

impl AnySystem {
    /// Builds a system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation, or if a `build` fault-point rule is
    /// armed (`D2M_FAULT=build@<system-name>:*:panic`) — the hook tests use
    /// to prove a panic deep inside a sweep worker is isolated to its cell.
    pub fn build(kind: SystemKind, cfg: &MachineConfig, seed: u64) -> Self {
        d2m_common::faultpoint::fire("build", kind.name(), seed);
        match kind {
            SystemKind::Base2L => {
                AnySystem::Base(Box::new(Baseline::new(cfg, BaselineKind::TwoLevel)))
            }
            SystemKind::Base3L => {
                AnySystem::Base(Box::new(Baseline::new(cfg, BaselineKind::ThreeLevel)))
            }
            SystemKind::D2mFs => AnySystem::D2m(Box::new(D2mSystem::with_features(
                cfg,
                D2mVariant::FarSide,
                D2mVariant::FarSide.features(),
                seed,
            ))),
            SystemKind::D2mNs => AnySystem::D2m(Box::new(D2mSystem::with_features(
                cfg,
                D2mVariant::NearSide,
                D2mVariant::NearSide.features(),
                seed,
            ))),
            SystemKind::D2mNsR => AnySystem::D2m(Box::new(D2mSystem::with_features(
                cfg,
                D2mVariant::NearSideRepl,
                D2mVariant::NearSideRepl.features(),
                seed,
            ))),
        }
    }

    /// The kind this system models. A D2M system built with an ablation's
    /// feature set reports its variant's kind.
    pub fn kind(&self) -> SystemKind {
        match self {
            AnySystem::Base(s) => match s.kind() {
                BaselineKind::TwoLevel => SystemKind::Base2L,
                BaselineKind::ThreeLevel => SystemKind::Base3L,
            },
            AnySystem::D2m(s) => match s.variant() {
                D2mVariant::FarSide => SystemKind::D2mFs,
                D2mVariant::NearSide => SystemKind::D2mNs,
                D2mVariant::NearSideRepl => SystemKind::D2mNsR,
            },
        }
    }

    /// Simulates one access at node-local cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the D2M metadata hierarchy is found
    /// corrupted mid-transaction. The baseline systems are infallible.
    #[inline]
    pub fn access(&mut self, a: &Access, now: u64) -> Result<AccessResult, ProtocolError> {
        match self {
            AnySystem::Base(s) => Ok(s.access(a, now)),
            AnySystem::D2m(s) => s.access(a, now),
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> Counters {
        match self {
            AnySystem::Base(s) => s.counters(),
            AnySystem::D2m(s) => s.counters(),
        }
    }

    /// Interconnect accumulator.
    pub fn noc(&self) -> &Noc {
        match self {
            AnySystem::Base(s) => s.noc(),
            AnySystem::D2m(s) => s.noc(),
        }
    }

    /// Mutable interconnect accumulator (e.g. to enable traffic recording).
    pub fn noc_mut(&mut self) -> &mut Noc {
        match self {
            AnySystem::Base(s) => s.noc_mut(),
            AnySystem::D2m(s) => s.noc_mut(),
        }
    }

    /// Structure-access energy account.
    pub fn energy(&self) -> &EnergyAccount {
        match self {
            AnySystem::Base(s) => s.energy(),
            AnySystem::D2m(s) => s.energy(),
        }
    }

    /// Total SRAM KB for leakage.
    pub fn sram_kb(&self) -> f64 {
        match self {
            AnySystem::Base(s) => s.sram_kb(),
            AnySystem::D2m(s) => s.sram_kb(),
        }
    }

    /// Oracle violations observed (must stay zero).
    pub fn coherence_errors(&self) -> u64 {
        match self {
            AnySystem::Base(s) => s.coherence_errors(),
            AnySystem::D2m(s) => s.coherence_errors(),
        }
    }

    /// Simulator-resident metadata footprint (MD1/MD2/MD3 bytes, derived
    /// from entry sizes × configured capacities). Baselines carry no split
    /// metadata hierarchy and report all-zero.
    pub fn metadata_footprint(&self) -> MetadataFootprint {
        match self {
            AnySystem::Base(_) => MetadataFootprint::default(),
            AnySystem::D2m(s) => s.metadata_footprint(),
        }
    }

    /// D2M-only view, for protocol-case statistics.
    pub fn as_d2m(&self) -> Option<&D2mSystem> {
        match self {
            AnySystem::D2m(s) => Some(s),
            AnySystem::Base(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_build_and_access() {
        use d2m_common::addr::{Asid, NodeId, VAddr};
        use d2m_workloads::AccessKind;
        let cfg = MachineConfig::default();
        for kind in SystemKind::ALL {
            let mut sys = AnySystem::build(kind, &cfg, 1);
            let a = Access::new(
                NodeId::new(0),
                Asid(0),
                AccessKind::Load,
                VAddr::new(0x12345),
            );
            assert_eq!(sys.kind(), kind);
            let r = sys.access(&a, 0).unwrap();
            assert!(r.latency > 0, "{}", kind.name());
            assert!(sys.sram_kb() > 1000.0);
        }
    }

    #[test]
    fn metadata_footprint_is_d2m_only_and_deterministic() {
        let cfg = MachineConfig::default();
        for kind in SystemKind::ALL {
            let sys = AnySystem::build(kind, &cfg, 1);
            let fp = sys.metadata_footprint();
            if kind.is_d2m() {
                assert!(fp.md1_bytes > 0 && fp.md2_bytes > 0 && fp.md3_bytes > 0);
                // Pure type-layout arithmetic: a rebuild reports the same bytes.
                assert_eq!(AnySystem::build(kind, &cfg, 99).metadata_footprint(), fp);
            } else {
                assert_eq!(fp.total(), 0, "{}", kind.name());
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(SystemKind::Base2L.name(), "Base-2L");
        assert_eq!(SystemKind::D2mNsR.name(), "D2M-NS-R");
        assert!(SystemKind::D2mFs.is_d2m() && !SystemKind::Base3L.is_d2m());
    }
}
