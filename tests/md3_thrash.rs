//! MD3-thrash regression test: canneal on a machine whose MD3 holds 1 K
//! regions instead of 16 K, so the global region purge (an MD3 eviction
//! drops every PB node's MD2 entry and sweeps the region's lines out of
//! the LLC) runs thousands of times in a short trace. The goldens are too
//! short to evict MD3 entries at volume.
//!
//! Each case drives the same canneal trace (every load checked by the
//! value-coherence oracle), checks every invariant at the end, and compares the full counter
//! state with `tests/golden/md3_thrash.counters.json`. To regenerate the
//! snapshot after an *intentional* behavioural change:
//!
//! ```text
//! D2M_BLESS=1 cargo test --test md3_thrash
//! ```

use std::path::{Path, PathBuf};

use d2m_common::config::CacheGeometry;
use d2m_common::json::{FromJson, Json, ToJson};
use d2m_common::stats::Counters;
use d2m_common::MachineConfig;
use d2m_core::{D2mFeatures, D2mSystem, D2mVariant};
use d2m_workloads::{catalog, Access, TraceGen};

/// Generator batches of the canneal trace (8 nodes).
const BATCHES: usize = 1500;

/// The snapshotted systems: the three evaluated variants plus the bypass
/// feature set on the variant its ablation uses.
fn cases() -> [(&'static str, D2mVariant, D2mFeatures); 4] {
    [
        (
            "D2M-FS",
            D2mVariant::FarSide,
            D2mVariant::FarSide.features(),
        ),
        (
            "D2M-NS",
            D2mVariant::NearSide,
            D2mVariant::NearSide.features(),
        ),
        (
            "D2M-NS-R",
            D2mVariant::NearSideRepl,
            D2mVariant::NearSideRepl.features(),
        ),
        (
            "D2M-NS-R+bypass",
            D2mVariant::NearSideRepl,
            D2mFeatures {
                bypass: true,
                ..D2mVariant::NearSideRepl.features()
            },
        ),
    ]
}

fn snapshot_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/md3_thrash.counters.json")
}

fn blessing() -> bool {
    std::env::var("D2M_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::default();
    cfg.md3 = CacheGeometry::new(64, 16);
    cfg
}

fn canneal_trace() -> Vec<Access> {
    let spec = catalog::by_name("canneal").expect("catalog workload");
    let mut gen = TraceGen::new(&spec, 8, 5);
    let mut trace = Vec::new();
    for _ in 0..BATCHES {
        gen.next_batch(&mut trace);
    }
    trace
}

/// Drives one case over the trace; every invariant must hold at the end.
fn drive(name: &str, variant: D2mVariant, feats: D2mFeatures, trace: &[Access]) -> Counters {
    let mut sys = D2mSystem::with_features(&machine(), variant, feats, 1);
    for (i, a) in trace.iter().enumerate() {
        sys.access(a, i as u64)
            .unwrap_or_else(|e| panic!("{name}: access {i} failed: {e}"));
    }
    assert_eq!(sys.coherence_errors(), 0, "{name}");
    sys.check_invariants()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let counters = sys.counters();
    assert!(
        counters.get("md3.evictions") > 0,
        "{name}: the trace must evict MD3 entries"
    );
    counters
}

#[test]
fn md3_thrash_matches_counter_snapshot() {
    let trace = canneal_trace();
    let got: Vec<(&str, Counters)> = cases()
        .into_iter()
        .map(|(name, variant, feats)| (name, drive(name, variant, feats, &trace)))
        .collect();
    let path = snapshot_path();
    if blessing() {
        let json = Json::Obj(
            got.iter()
                .map(|(name, c)| (name.to_string(), c.to_json()))
                .collect(),
        );
        let mut text = json.to_string_pretty();
        text.push('\n');
        std::fs::write(&path, text).expect("write snapshot");
        return;
    }
    let expected =
        Json::parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing snapshot {path:?} ({e}); run D2M_BLESS=1 to create")
        }))
        .expect("valid snapshot JSON");
    for (name, counters) in got {
        let want = Counters::from_json(
            expected
                .get(name)
                .unwrap_or_else(|| panic!("snapshot lacks {name}")),
        )
        .expect("snapshot counters decode");
        assert_eq!(
            counters, want,
            "{name}: counters diverged from the MD3-thrash snapshot \
             (if intentional, re-bless with D2M_BLESS=1)"
        );
    }
}
