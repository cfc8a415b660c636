//! Cross-crate integration: every system must stay value-coherent and
//! structurally sound on real catalog workloads, and simulations must be
//! bit-reproducible.

use d2m_common::MachineConfig;
use d2m_core::{D2mSystem, D2mVariant};
use d2m_sim::{run_one_checked, RunConfig, SystemKind};
use d2m_workloads::{catalog, TraceGen};

fn rc() -> RunConfig {
    RunConfig {
        instructions: 80_000,
        warmup_instructions: 20_000,
        seed: 5,
    }
}

#[test]
fn all_systems_stay_coherent_on_a_shared_workload() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("fluidanimate").unwrap();
    for kind in SystemKind::ALL {
        // run_one_checked fails the run on a coherence violation.
        let m = run_one_checked(kind, &cfg, &spec, &rc()).unwrap();
        assert!(m.cycles > 0, "{}", kind.name());
    }
}

#[test]
fn d2m_invariants_hold_after_real_workloads() {
    let cfg = MachineConfig::default();
    for name in ["dedup", "radiosity", "tpc-c", "mix3", "cnn"] {
        let spec = catalog::by_name(name).unwrap();
        for variant in [D2mVariant::FarSide, D2mVariant::NearSideRepl] {
            let mut sys = D2mSystem::new(&cfg, variant);
            let mut gen = TraceGen::new(&spec, cfg.nodes, 9);
            let mut batch = Vec::new();
            for _ in 0..400 {
                batch.clear();
                gen.next_batch(&mut batch);
                for a in &batch {
                    sys.access(a, 0).unwrap();
                }
            }
            assert_eq!(sys.coherence_errors(), 0, "{name}/{variant:?}");
            sys.check_invariants()
                .unwrap_or_else(|e| panic!("{name}/{variant:?}: {e}"));
        }
    }
}

#[test]
fn simulations_are_bit_reproducible() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("x264").unwrap();
    for kind in [SystemKind::Base3L, SystemKind::D2mNsR] {
        let a = run_one_checked(kind, &cfg, &spec, &rc()).unwrap();
        let b = run_one_checked(kind, &cfg, &spec, &rc()).unwrap();
        assert_eq!(a.cycles, b.cycles, "{}", kind.name());
        assert_eq!(a.counters, b.counters, "{}", kind.name());
    }
}

#[test]
fn every_catalog_workload_runs_on_every_system_briefly() {
    let cfg = MachineConfig::default();
    let quick = RunConfig {
        instructions: 6_000,
        warmup_instructions: 1_000,
        seed: 2,
    };
    for spec in catalog::all().unwrap() {
        for kind in SystemKind::ALL {
            let m = run_one_checked(kind, &cfg, &spec, &quick).unwrap();
            assert!(
                m.ipc > 0.0 && m.ipc <= cfg.core.base_ipc * cfg.nodes as f64,
                "{} {}",
                spec.name,
                kind.name()
            );
            assert!(m.energy_pj > 0.0, "{} {}", spec.name, kind.name());
        }
    }
}

/// Runs every catalog workload on `kind` (every load oracle-checked), long
/// enough for L1 set pressure to evict lines that a read forward
/// downgraded, and fails naming every workload that violated coherence.
fn every_catalog_workload_stays_coherent(kind: SystemKind) {
    let cfg = MachineConfig::default();
    let rc = RunConfig {
        instructions: 40_000,
        warmup_instructions: 10_000,
        seed: 2,
    };
    let specs = catalog::all().unwrap();
    let failed: Vec<String> = specs
        .iter()
        .filter_map(|spec| run_one_checked(kind, &cfg, spec, &rc).err())
        .map(|e| e.to_string())
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} workloads failed on {}:\n{}",
        failed.len(),
        specs.len(),
        kind.name(),
        failed.join("\n")
    );
}

#[test]
fn every_catalog_workload_stays_coherent_on_base_2l() {
    every_catalog_workload_stays_coherent(SystemKind::Base2L);
}

#[test]
fn every_catalog_workload_stays_coherent_on_base_3l() {
    every_catalog_workload_stays_coherent(SystemKind::Base3L);
}

#[test]
fn every_catalog_workload_stays_coherent_on_d2m_fs() {
    every_catalog_workload_stays_coherent(SystemKind::D2mFs);
}

#[test]
fn every_catalog_workload_stays_coherent_on_d2m_ns() {
    every_catalog_workload_stays_coherent(SystemKind::D2mNs);
}

#[test]
fn every_catalog_workload_stays_coherent_on_d2m_ns_r() {
    every_catalog_workload_stays_coherent(SystemKind::D2mNsR);
}

#[test]
fn interleaved_writers_leave_identical_final_state() {
    // Multi-core interleaved-writer scenario: 6 cores hammer a shared
    // segment (3 regions, 48 lines) in write/read round-robin while also
    // touching private per-core regions. After the interleaving, every core
    // reads back every shared line and its own private lines.
    //
    // Both systems check every load against the value-coherence oracle: it
    // is a pure function of the (identical) access trace, and every readback
    // load is validated against it. `coherence_errors() == 0` on both
    // systems therefore proves the baseline's and D2M's final data states
    // both equal the oracle's — i.e. they are equal to each other —
    // despite completely different coherence machinery (MESI directory vs
    // metadata-tracked single-copy ownership).
    use d2m_common::addr::{Asid, NodeId, VAddr};
    use d2m_sim::AnySystem;
    use d2m_workloads::{Access, AccessKind};

    const CORES: u8 = 6;
    const SHARED_LINES: u64 = 48; // 3 regions of 16 lines
    const SHARED_BASE: u64 = 0x3000_0000;
    const PRIVATE_BASE: u64 = 0x4000_0000;
    const PRIVATE_LINES: u64 = 24;

    let acc = |node: u8, kind: AccessKind, va: u64| Access {
        node: NodeId::new(node),
        asid: Asid(0),
        kind,
        vaddr: VAddr::new(va),
    };
    let shared = |i: u64| SHARED_BASE + (i % SHARED_LINES) * 64;
    let private =
        |node: u8, i: u64| PRIVATE_BASE + u64::from(node) * 0x10_0000 + (i % PRIVATE_LINES) * 64;

    let mut trace = Vec::new();
    for step in 0u64..600 {
        for node in 0..CORES {
            let n = u64::from(node);
            // Interleaved writers: each core stores to a rotating shared
            // line, then reads one written earlier by a different core.
            trace.push(acc(node, AccessKind::Store, shared(step + 7 * n)));
            trace.push(acc(node, AccessKind::Load, shared(step * 5 + n + 1)));
            // Private traffic mixed in so classification (private vs shared
            // regions) is exercised alongside the ping-ponging.
            trace.push(acc(node, AccessKind::Store, private(node, step)));
            trace.push(acc(node, AccessKind::Load, private(node, step + 3)));
        }
    }
    // Final readback: every core observes the whole shared segment and its
    // own private region; the oracle checks every returned value.
    for node in 0..CORES {
        for i in 0..SHARED_LINES {
            trace.push(acc(node, AccessKind::Load, shared(i)));
        }
        for i in 0..PRIVATE_LINES {
            trace.push(acc(node, AccessKind::Load, private(node, i)));
        }
    }

    let cfg = MachineConfig::default();
    for kind in SystemKind::ALL {
        let mut sys = AnySystem::build(kind, &cfg, 1);
        for a in &trace {
            sys.access(a, 0).unwrap();
        }
        assert_eq!(
            sys.coherence_errors(),
            0,
            "{}: final data state diverged from the shared oracle",
            kind.name()
        );
    }
}

#[test]
fn recorded_traces_replay_identically() {
    use d2m_sim::AnySystem;
    use d2m_workloads::trace_io::{read_trace, write_trace};
    use d2m_workloads::TraceGen;

    let cfg = MachineConfig::default();
    let spec = catalog::by_name("barnes").unwrap();
    let mut gen = TraceGen::new(&spec, cfg.nodes, 17);
    let mut trace = Vec::new();
    for _ in 0..300 {
        gen.next_batch(&mut trace);
    }
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).unwrap();
    let loaded = read_trace(&buf[..]).unwrap();

    // Driving a system from the in-memory trace and from the decoded file
    // must produce identical counters.
    let drive = |accs: &[d2m_workloads::Access]| {
        let mut sys = AnySystem::build(SystemKind::D2mNsR, &cfg, 1);
        for a in accs {
            sys.access(a, 0).unwrap();
        }
        assert_eq!(sys.coherence_errors(), 0);
        sys.counters()
    };
    assert_eq!(drive(&trace), drive(&loaded));
}
