//! Identities between the counters every system exports. Each hierarchy
//! counts its own accesses, so these hold whether the runner drives the
//! system (`run_one_checked`) or a caller replays accesses straight into
//! `AnySystem::access`, as the benchmark's per-layer profile does.

use d2m_common::stats::Counters;
use d2m_common::MachineConfig;
use d2m_sim::{run_one_checked, AnySystem, RunConfig, SystemKind};
use d2m_workloads::{catalog, TraceGen};

fn assert_identities(c: &Counters, what: &str) {
    let g = |name: &str| c.get(name);
    assert!(g("accesses") > 0, "{what}: no accesses counted");
    assert_eq!(
        g("accesses"),
        g("ifetches") + g("loads") + g("stores"),
        "{what}: accesses by kind"
    );
    assert_eq!(
        g("accesses"),
        g("l1i.hits") + g("l1i.misses") + g("l1d.hits") + g("l1d.misses"),
        "{what}: accesses by L1 outcome"
    );
    assert_eq!(
        g("miss_count"),
        g("l1i.misses") + g("l1d.misses"),
        "{what}: miss_count"
    );
    assert!(g("late_hits.i") <= g("l1i.hits"), "{what}: late I hits");
    assert!(g("late_hits.d") <= g("l1d.hits"), "{what}: late D hits");
    assert_eq!(
        g("noc.bytes_onchip"),
        8 * g("noc.msg_total") + g("noc.bytes_data"),
        "{what}: on-chip bytes"
    );
}

#[test]
fn measured_run_counters_satisfy_the_identities() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("tpc-c").unwrap();
    let rc = RunConfig {
        instructions: 30_000,
        warmup_instructions: 10_000,
        seed: 5,
    };
    for kind in SystemKind::ALL {
        let m = run_one_checked(kind, &cfg, &spec, &rc).unwrap();
        assert_identities(&m.counters, kind.name());
    }
}

#[test]
fn direct_replay_counters_satisfy_the_identities() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("tpc-c").unwrap();
    let mut gen = TraceGen::new(&spec, cfg.nodes, 5);
    let mut batches = Vec::new();
    for _ in 0..20 {
        let mut batch = Vec::new();
        gen.next_batch(&mut batch);
        batches.push(batch);
    }
    let replayed: usize = batches.iter().map(Vec::len).sum();
    for kind in SystemKind::ALL {
        let mut sys = AnySystem::build(kind, &cfg, 5);
        // Batches 20 cycles apart, so some hits land on in-flight fills.
        for (i, batch) in batches.iter().enumerate() {
            for a in batch {
                sys.access(a, i as u64 * 20).unwrap();
            }
        }
        let c = sys.counters();
        assert_eq!(c.get("accesses"), replayed as u64, "{}", kind.name());
        assert_identities(&c, kind.name());
    }
}
