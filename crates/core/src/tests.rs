//! Protocol-level tests: directed scenarios for every appendix case plus
//! randomized whole-system checks against the value oracle and the
//! invariant suite.

use d2m_common::addr::{Asid, NodeId, VAddr};
use d2m_common::config::MachineConfig;
use d2m_common::outcome::ServicedBy;
use d2m_common::probe::LookupLevel;
use d2m_common::rng::SimRng;
use d2m_noc::MsgClass;
use d2m_workloads::{catalog, Access, AccessKind, TraceGen};

use crate::li::Li;
use crate::system::{ArrKind, D2mSystem, D2mVariant};

fn small_cfg() -> MachineConfig {
    // Tiny structures force heavy eviction traffic, exercising the E/F and
    // MD2/MD3 spill paths quickly.
    let mut c = MachineConfig::default();
    c.l1i = d2m_common::config::CacheGeometry::new(8, 2);
    c.l1d = d2m_common::config::CacheGeometry::new(8, 2);
    c.llc = d2m_common::config::CacheGeometry::from_capacity(64 << 10, 32);
    c.ns_slice = d2m_common::config::CacheGeometry::from_capacity(8 << 10, 4);
    c.md1 = d2m_common::config::CacheGeometry::new(2, 2);
    c.md2 = d2m_common::config::CacheGeometry::new(8, 2);
    c.md3 = d2m_common::config::CacheGeometry::new(16, 4);
    c
}

fn acc(node: u8, kind: AccessKind, va: u64) -> Access {
    Access {
        node: NodeId::new(node),
        asid: Asid(0),
        kind,
        vaddr: VAddr::new(va),
    }
}

fn all_variants() -> [D2mVariant; 3] {
    [
        D2mVariant::FarSide,
        D2mVariant::NearSide,
        D2mVariant::NearSideRepl,
    ]
}

#[test]
fn cold_read_fills_from_memory_and_hits_after() {
    for v in all_variants() {
        let mut sys = D2mSystem::new(&MachineConfig::default(), v);
        let r1 = sys
            .access(&acc(0, AccessKind::Load, 0x100_0000), 0)
            .unwrap();
        assert!(!r1.l1_hit, "{v:?}");
        assert_eq!(r1.serviced_by, ServicedBy::Mem, "{v:?}");
        assert_eq!(r1.private_miss, Some(true), "first touch is private");
        let r2 = sys
            .access(&acc(0, AccessKind::Load, 0x100_0000), 100_000)
            .unwrap();
        assert!(r2.l1_hit, "{v:?}");
        assert!(r2.latency < r1.latency);
        sys.check_invariants()
            .unwrap_or_else(|e| panic!("{v:?}: {e}"));
    }
}

#[test]
fn late_hit_latency_survives_waits_beyond_u32() {
    for v in all_variants() {
        let mut sys = D2mSystem::new(&MachineConfig::default(), v);
        // Fill at a node-local time far past u32::MAX cycles, then re-access
        // at cycle 0: the in-flight window (`ready_at - now`) exceeds
        // u32::MAX, which the former `as u32` cast silently wrapped.
        let far = u32::MAX as u64 * 4;
        sys.access(&acc(0, AccessKind::Load, 0x900_0000), far)
            .unwrap();
        let r = sys
            .access(&acc(0, AccessKind::Load, 0x900_0000), 0)
            .unwrap();
        assert!(r.l1_hit && r.late, "{v:?}");
        assert!(
            r.latency > u64::from(u32::MAX),
            "{v:?}: late-hit latency truncated to {}",
            r.latency
        );
    }
}

#[test]
fn case_d4_then_d1_then_d2_transitions() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    // Node 0 touches a region: D4 (uncached → private).
    sys.access(&acc(0, AccessKind::Load, 0x200_0000), 0)
        .unwrap();
    assert_eq!(sys.protocol_events().d4_uncached_to_private, 1);
    // Node 1 touches the same region: D2 (private → shared).
    sys.access(&acc(1, AccessKind::Load, 0x200_0000), 0)
        .unwrap();
    assert_eq!(sys.protocol_events().d2_private_to_shared, 1);
    // Node 2: D3 (shared → shared).
    sys.access(&acc(2, AccessKind::Load, 0x200_0040), 0)
        .unwrap();
    assert_eq!(sys.protocol_events().d3_shared_to_shared, 1);
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn private_write_is_directory_free() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    sys.access(&acc(0, AccessKind::Load, 0x300_0000), 0)
        .unwrap();
    let md3_before = sys.raw_counters().md3_accesses;
    // Write miss in the (private) region: case B — no MD3 transaction.
    let r = sys
        .access(&acc(0, AccessKind::Store, 0x300_0040), 0)
        .unwrap();
    assert!(!r.l1_hit);
    assert_eq!(r.private_miss, Some(true));
    assert_eq!(sys.raw_counters().md3_accesses, md3_before);
    assert_eq!(sys.protocol_events().b_write_private, 1);
    // Write hit on the line we just read: silent upgrade.
    sys.access(&acc(0, AccessKind::Store, 0x300_0000), 100_000)
        .unwrap();
    assert_eq!(sys.protocol_events().silent_upgrades, 1);
    assert_eq!(sys.raw_counters().md3_accesses, md3_before);
    sys.check_invariants().unwrap();
}

#[test]
fn shared_write_invalidates_and_repoints() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let va = 0x400_0000;
    for n in 0..4 {
        sys.access(&acc(n, AccessKind::Load, va), 0).unwrap();
    }
    let inv_before = sys.raw_counters().invalidations_received;
    // Node 0 writes: case C.
    sys.access(&acc(0, AccessKind::Store, va), 100_000).unwrap();
    assert!(sys.protocol_events().c_write_shared >= 1);
    assert!(sys.raw_counters().invalidations_received > inv_before);
    // Node 2 re-reads: the LI must name node 0 (direct-to-master).
    let r = sys.access(&acc(2, AccessKind::Load, va), 200_000).unwrap();
    assert!(!r.l1_hit);
    assert_eq!(r.serviced_by, ServicedBy::RemoteNode);
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn region_grain_false_invalidations_occur() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    // Node 1 caches a *different* line of the region than node 0 writes:
    // the PB multicast still invalidates node 1 (a false invalidation).
    sys.access(&acc(1, AccessKind::Load, 0x500_0040), 0)
        .unwrap();
    sys.access(&acc(0, AccessKind::Load, 0x500_0000), 0)
        .unwrap();
    sys.access(&acc(0, AccessKind::Store, 0x500_0000), 100_000)
        .unwrap();
    assert!(sys.raw_counters().false_invalidations >= 1);
    sys.check_invariants().unwrap();
}

#[test]
fn reads_after_remote_write_see_latest_value_everywhere() {
    for v in all_variants() {
        let mut sys = D2mSystem::new(&MachineConfig::default(), v);
        let va = 0x600_0000;
        for n in 0..8 {
            sys.access(&acc(n, AccessKind::Load, va), 0).unwrap();
        }
        sys.access(&acc(3, AccessKind::Store, va), 100_000).unwrap();
        for n in 0..8 {
            sys.access(&acc(n, AccessKind::Load, va), 200_000).unwrap();
        }
        assert_eq!(sys.coherence_errors(), 0, "{v:?}");
        sys.check_invariants()
            .unwrap_or_else(|e| panic!("{v:?}: {e}"));
    }
}

#[test]
fn ns_local_allocation_and_hits() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::NearSide);
    // Fill a line, evict it from L1 by conflicting lines, then re-read:
    // it should hit in the node's own NS slice (pressure is equal → local).
    let base = 0x700_0000u64;
    sys.access(&acc(0, AccessKind::Load, base), 0).unwrap();
    for i in 1..=10u64 {
        sys.access(&acc(0, AccessKind::Load, base + i * 64 * 64), 0)
            .unwrap();
    }
    let r = sys
        .access(&acc(0, AccessKind::Load, base), 1_000_000)
        .unwrap();
    assert!(!r.l1_hit);
    assert_eq!(
        r.serviced_by,
        ServicedBy::LocalNs,
        "local slice should serve"
    );
    assert!(sys.raw_counters().ns_alloc_local > 0);
    sys.check_invariants().unwrap();
}

#[test]
fn replication_pulls_instructions_local() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::NearSideRepl);
    let code = 0x10_0000u64;
    // Node 0 faults the code in; the slice allocation lands somewhere.
    sys.access(&acc(0, AccessKind::IFetch, code), 0).unwrap();
    // Node 1 fetches the same line: wherever it was, after the first access
    // the replication heuristic must keep a local copy, so a second fetch
    // after L1 eviction hits the local slice.
    sys.access(&acc(1, AccessKind::IFetch, code), 0).unwrap();
    // Dynamic indexing scrambles sets per region, so flush the L1-I with a
    // broad sweep rather than a single-set conflict pattern.
    for i in 1..=1500u64 {
        sys.access(&acc(1, AccessKind::IFetch, code + 0x10_0000 + i * 64), 0)
            .unwrap();
    }
    let r = sys
        .access(&acc(1, AccessKind::IFetch, code), 1_000_000)
        .unwrap();
    assert!(!r.l1_hit);
    assert!(
        matches!(r.serviced_by, ServicedBy::LocalNs),
        "replicated instructions should be local, got {:?}",
        r.serviced_by
    );
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn master_eviction_private_updates_li_to_victim() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let va = 0x800_0000u64;
    // Install the region first so the store is a case-B (MD-hit) write miss.
    sys.access(&acc(0, AccessKind::Load, va + 0x40), 0).unwrap();
    sys.access(&acc(0, AccessKind::Store, va), 0).unwrap();
    assert!(sys.protocol_events().b_write_private >= 1);
    // Evict the dirty master from L1 with conflicting lines (case E).
    for i in 1..=10u64 {
        sys.access(&acc(0, AccessKind::Load, va + i * 64 * 64), 0)
            .unwrap();
    }
    assert!(sys.protocol_events().e_evict_private >= 1);
    // Re-read: data must come back (from its LLC victim slot) with the
    // written version.
    let r = sys
        .access(&acc(0, AccessKind::Load, va), 1_000_000)
        .unwrap();
    assert!(!r.l1_hit);
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn master_eviction_shared_runs_case_f() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let va = 0x900_0000u64;
    sys.access(&acc(1, AccessKind::Load, va), 0).unwrap();
    sys.access(&acc(0, AccessKind::Store, va), 0).unwrap(); // node 0 becomes master (case C)
    let f_before = sys.protocol_events().f_evict_shared;
    for i in 1..=10u64 {
        sys.access(&acc(0, AccessKind::Load, va + i * 64 * 64), 0)
            .unwrap();
    }
    assert!(sys.protocol_events().f_evict_shared > f_before);
    assert!(sys.noc().count(MsgClass::EvictReq) >= 1);
    // Node 1 re-reads: must see node 0's write from the victim location.
    sys.access(&acc(1, AccessKind::Load, va), 1_000_000)
        .unwrap();
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn md2_prune_reprivatizes_regions() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let va = 0xa00_0000u64;
    // Node 1 reads one line of the region, then node 1's copy is evicted so
    // its MD2 entry tracks nothing locally.
    sys.access(&acc(1, AccessKind::Load, va + 0x40), 0).unwrap();
    for i in 1..=10u64 {
        sys.access(&acc(1, AccessKind::Load, va + 0x40 + i * 64 * 64), 0)
            .unwrap();
    }
    // Node 0 writes a line: the invalidation reaches node 1, whose entry is
    // pruneable if its MD1 is no longer active. Run enough other regions
    // through node 1's MD1 to deactivate it first.
    for i in 1..=40u64 {
        sys.access(&acc(1, AccessKind::Load, 0xb00_0000 + i * 1024 * 16), 0)
            .unwrap();
    }
    sys.access(&acc(0, AccessKind::Load, va), 0).unwrap();
    sys.access(&acc(0, AccessKind::Store, va), 100_000).unwrap();
    assert!(sys.raw_counters().md2_prunes >= 1, "pruning should trigger");
    sys.check_invariants().unwrap();
}

#[test]
fn server_style_disjoint_asids_stay_private() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    for n in 0..8u8 {
        for i in 0..64u64 {
            let a = Access {
                node: NodeId::new(n),
                asid: Asid(n as u16 + 1),
                kind: if i % 4 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                vaddr: VAddr::new(0x100_0000 + i * 64),
            };
            sys.access(&a, 0).unwrap();
        }
    }
    let c = sys.raw_counters();
    assert_eq!(
        c.private_region_misses, c.classified_misses,
        "disjoint address spaces must be 100% private (Table V, Server)"
    );
    assert_eq!(sys.protocol_events().c_write_shared, 0);
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn dynamic_indexing_spreads_strided_conflicts() {
    // A power-of-two stride that lands every scan line in LLC set 0 —
    // without scrambling the lines thrash a single set and keep refetching
    // from memory; with scrambling (NS-R) they spread and become LLC hits.
    let stride = 4096 * 64u64; // 4096 lines
    let run = |variant| {
        let mut sys = D2mSystem::new(&MachineConfig::default(), variant);
        for rep in 0..12 {
            for i in 0..96u64 {
                sys.access(
                    &acc(0, AccessKind::Load, 0x4_0000_0000 + i * stride),
                    rep * 1000,
                )
                .unwrap();
            }
        }
        sys.raw_counters().mem_fills
    };
    let without = run(D2mVariant::NearSide);
    let with = run(D2mVariant::NearSideRepl);
    assert!(
        with < without / 2,
        "scrambling should turn conflict refetches into LLC hits: {with} vs {without}"
    );
}

#[test]
fn pkmo_cases_a_and_b_dominate() {
    // The paper's headline: ~90% of misses need no MD3 involvement.
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let spec = catalog::by_name("mix2").unwrap();
    let mut gen = TraceGen::new(&spec, 8, 3);
    let mut batch = Vec::new();
    let mut run = |sys: &mut D2mSystem, n: usize| {
        for _ in 0..n {
            batch.clear();
            gen.next_batch(&mut batch);
            for a in &batch {
                sys.access(a, 0).unwrap();
            }
        }
    };
    // Warm up (cold-start MD misses are all case D), then measure the
    // steady-state case mix.
    run(&mut sys, 4000);
    let w = *sys.protocol_events();
    run(&mut sys, 8000);
    let e = sys.protocol_events();
    let free = (e.a_read_md_hit + e.b_write_private) - (w.a_read_md_hit + w.b_write_private);
    let total = free + (e.c_write_shared + e.d_md_miss) - (w.c_write_shared + w.d_md_miss);
    let frac = free as f64 / total as f64;
    assert!(frac > 0.9, "directory-free fraction only {frac}");
    assert_eq!(sys.coherence_errors(), 0);
}

#[test]
fn tiny_config_survives_heavy_eviction_storms() {
    for v in all_variants() {
        let mut sys = D2mSystem::new(&small_cfg(), v);
        let spec = catalog::by_name("fluidanimate").unwrap();
        let mut gen = TraceGen::new(&spec, 8, 5);
        let mut batch = Vec::new();
        for i in 0..800 {
            batch.clear();
            gen.next_batch(&mut batch);
            for a in &batch {
                sys.access(a, i * 10).unwrap();
            }
        }
        assert!(sys.raw_counters().md2_evictions > 0, "{v:?}");
        assert!(sys.raw_counters().md3_evictions > 0, "{v:?}");
        assert_eq!(sys.coherence_errors(), 0, "{v:?}");
        sys.check_invariants()
            .unwrap_or_else(|e| panic!("{v:?}: {e}"));
    }
}

#[test]
fn deterministic_simulation() {
    let run = || {
        let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::NearSideRepl);
        let spec = catalog::by_name("barnes").unwrap();
        let mut gen = TraceGen::new(&spec, 8, 9);
        let mut batch = Vec::new();
        for _ in 0..500 {
            batch.clear();
            gen.next_batch(&mut batch);
            for a in &batch {
                sys.access(a, 0).unwrap();
            }
        }
        sys.counters()
    };
    assert_eq!(run(), run());
}

#[test]
fn code_and_data_sides_are_separate() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let va = 0xc00_0000u64;
    sys.access(&acc(0, AccessKind::IFetch, va), 0).unwrap();
    assert_eq!(sys.counters().get("l1i.misses"), 1);
    // A data load of the same line misses in L1-D and moves the region's
    // active metadata to the data side.
    let r = sys.access(&acc(0, AccessKind::Load, va), 0).unwrap();
    assert!(!r.l1_hit);
    assert_eq!(sys.counters().get("l1d.misses"), 1);
    sys.check_invariants().unwrap();
}

#[test]
fn md1_miss_md2_hit_path() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    // Touch enough distinct regions to overflow the 128-entry MD1 but not
    // the 4K-entry MD2.
    for i in 0..400u64 {
        sys.access(&acc(0, AccessKind::Load, 0x1_000_0000 + i * 1024), 0)
            .unwrap();
    }
    // Revisit the first region: MD1 misses, MD2 hits.
    let h_before = sys.raw_counters().md2_hits;
    sys.access(&acc(0, AccessKind::Load, 0x1_000_0000), 1_000_000)
        .unwrap();
    assert!(sys.raw_counters().md2_hits > h_before);
    sys.check_invariants().unwrap();
}

#[test]
fn lookup_level_is_the_deepest_metadata_level_reached() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let va = 0x1_000_0000;
    // First touch: an MD2 miss, so case D reads MD3.
    let r = sys.access(&acc(0, AccessKind::Load, va), 0).unwrap();
    assert_eq!((r.l1_hit, r.level), (false, LookupLevel::L3));
    // MD1 hit.
    let r = sys.access(&acc(0, AccessKind::Load, va), 100_000).unwrap();
    assert_eq!((r.l1_hit, r.level), (true, LookupLevel::L1));
    // 400 more regions overflow the 128-entry MD1, not the 4 K-entry MD2:
    // the next access misses MD1 and hits MD2.
    for i in 1..=400u64 {
        sys.access(&acc(0, AccessKind::Load, va + i * 1024), 200_000)
            .unwrap();
    }
    let before = sys.raw_counters().md2_hits;
    let r = sys.access(&acc(0, AccessKind::Load, va), 300_000).unwrap();
    assert_eq!(sys.raw_counters().md2_hits, before + 1);
    assert_eq!(r.level, LookupLevel::L2);
    // Node 1 reads the region too (case D2 makes it shared), then stores to
    // its L1 replica: MD1 and L1 hit, but the case-C round reaches MD3.
    let shared = 0x2_000_0000;
    sys.access(&acc(0, AccessKind::Load, shared), 0).unwrap();
    sys.access(&acc(1, AccessKind::Load, shared), 0).unwrap();
    let c_before = sys.protocol_events().c_write_shared;
    let r = sys
        .access(&acc(1, AccessKind::Store, shared), 100_000)
        .unwrap();
    assert_eq!(sys.protocol_events().c_write_shared, c_before + 1);
    assert_eq!((r.l1_hit, r.level), (true, LookupLevel::L3));
}

/// Randomized multi-node access sequences preserve value coherence, LI
/// determinism and all structural invariants, for every variant.
///
/// Formerly a proptest; now driven by 24 deterministic [`SimRng`] streams
/// over the same op space (node 0..8, kind 0..3, slot 0..48, 200..400 ops)
/// so the workspace builds with no external dependencies.
#[test]
fn random_accesses_preserve_all_invariants() {
    for case in 0u64..24 {
        let mut rng = SimRng::from_label(0xD2A7_0001, &format!("ops-{case}"));
        let n_ops = 200 + rng.below(200) as usize;
        let ops: Vec<(u8, u8, u64)> = (0..n_ops)
            .map(|_| (rng.below(8) as u8, rng.below(3) as u8, rng.below(48)))
            .collect();
        for v in all_variants() {
            let mut sys = D2mSystem::new(&small_cfg(), v);
            for (i, (node, kind, slot)) in ops.iter().enumerate() {
                // A small pool of lines across 3 regions shared by all nodes
                // maximizes coherence interaction.
                let va = 0x2_000_0000 + slot * 64;
                let kind = match kind {
                    0 => AccessKind::Load,
                    1 => AccessKind::Store,
                    _ => AccessKind::IFetch,
                };
                // Instruction fetches use a separate code pool: mixing
                // ifetch and stores on one line is not a real program.
                let va = if kind == AccessKind::IFetch {
                    va + 0x100_0000
                } else {
                    va
                };
                sys.access(&acc(*node, kind, va), i as u64 * 7).unwrap();
            }
            assert_eq!(sys.coherence_errors(), 0, "case {case} {v:?}");
            if let Err(e) = sys.check_invariants() {
                panic!("case {case} {v:?}: {e}");
            }
        }
    }
}

/// Every workload trace in the catalog keeps the oracle clean.
///
/// Formerly a sampled proptest over (workload, seed); now exhaustive over
/// the whole catalog with a seed derived per workload.
#[test]
fn catalog_traces_stay_coherent() {
    for (widx, spec) in catalog::all().unwrap().iter().enumerate() {
        let seed = (widx as u64) % 50;
        let mut sys = D2mSystem::new(&small_cfg(), D2mVariant::NearSideRepl);
        let mut gen = TraceGen::new(spec, 8, seed);
        let mut batch = Vec::new();
        for _ in 0..60 {
            batch.clear();
            gen.next_batch(&mut batch);
            for a in &batch {
                sys.access(a, 0).unwrap();
            }
        }
        assert_eq!(sys.coherence_errors(), 0, "{}", spec.name);
        if let Err(e) = sys.check_invariants() {
            panic!("{}: {e}", spec.name);
        }
    }
}

#[test]
fn bypass_skips_llc_allocation_for_streaming_regions() {
    use crate::system::D2mFeatures;
    let c = MachineConfig::default();
    let feats = D2mFeatures {
        near_side: true,
        replication: false,
        dynamic_indexing: false,
        bypass: true,
        traditional_l1: false,
    };
    let mut sys = D2mSystem::with_features(&c, D2mVariant::NearSide, feats, 1);
    // Stream 4 KB lines within ONE region's metadata? No — stream across many
    // lines of a handful of regions so the fill counter saturates, with no
    // LLC reuse.
    let base = 0x9_0000_0000u64;
    for i in 0..400u64 {
        sys.access(&acc(0, AccessKind::Load, base + i * 64), i)
            .unwrap();
    }
    assert!(
        sys.raw_counters().bypassed_fills > 0,
        "streaming fills should bypass the LLC"
    );
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
    // Re-reading a bypassed line must still be correct (memory master).
    sys.access(&acc(0, AccessKind::Load, base + 8 * 64), 10_000)
        .unwrap();
    assert_eq!(sys.coherence_errors(), 0);
}

#[test]
fn bypass_spares_regions_with_reuse() {
    use crate::system::D2mFeatures;
    let c = MachineConfig::default();
    let feats = D2mFeatures {
        near_side: false,
        replication: false,
        dynamic_indexing: false,
        bypass: true,
        traditional_l1: false,
    };
    let mut sys = D2mSystem::with_features(&c, D2mVariant::FarSide, feats, 1);
    let base = 0xa_0000_0000u64;
    // Interleave fills with LLC reuse (evict from L1, re-read): the region
    // keeps showing reuse, so fills must NOT be bypassed.
    for round in 0..6u64 {
        for i in 0..16u64 {
            sys.access(&acc(0, AccessKind::Load, base + i * 64), round * 100)
                .unwrap();
        }
        // Thrash L1 set-wise to force LLC re-reads of the same region.
        for i in 0..1500u64 {
            sys.access(
                &acc(0, AccessKind::Load, 0xb_0000_0000 + i * 64),
                round * 100,
            )
            .unwrap();
        }
    }
    // The thrash filler itself streams (and may be bypassed); what matters
    // is that the *reused* region kept its LLC residency: a re-read after L1
    // eviction must be an LLC hit, not another memory fill.
    let r = sys
        .access(&acc(0, AccessKind::Load, base), 1_000_000)
        .unwrap();
    assert!(
        matches!(r.serviced_by, ServicedBy::Llc),
        "reused region must stay LLC-resident, got {:?}",
        r.serviced_by
    );
    sys.check_invariants().unwrap();
}

#[test]
fn md2_spill_reseeds_md3_for_private_regions() {
    // A private region whose MD2 entry is evicted must upload its final LIs
    // so MD3 can track the region as untracked — and a later reader (D1)
    // must find the data without touching memory again.
    let mut c = MachineConfig::default();
    c.md2 = d2m_common::config::CacheGeometry::new(2, 2); // tiny MD2
    let mut sys = D2mSystem::new(&c, D2mVariant::FarSide);
    let va = 0x3_0000_0000u64;
    sys.access(&acc(0, AccessKind::Load, va), 0).unwrap();
    let fills_before = sys.raw_counters().mem_fills;
    // Evict the region's MD2 entry by touching many other regions.
    for i in 1..=32u64 {
        sys.access(&acc(0, AccessKind::Load, va + i * 1024 * 4), 0)
            .unwrap();
    }
    assert!(sys.raw_counters().md2_evictions > 0);
    // Another node reads the same line: D1 (untracked→private) must point it
    // at the LLC master from the spill — no new memory fill for that line.
    let before_d1 = sys.protocol_events().d1_untracked_to_private;
    let r = sys.access(&acc(1, AccessKind::Load, va), 100_000).unwrap();
    assert!(sys.protocol_events().d1_untracked_to_private > before_d1);
    assert_ne!(
        r.serviced_by,
        ServicedBy::Mem,
        "spill preserved LLC residency"
    );
    let _ = fills_before;
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn llc_master_eviction_retargets_trackers_to_memory() {
    // Force LLC slot churn with a tiny LLC: trackers' LIs must fall back to
    // MEM (NewMaster/RpFix), and re-reads must stay coherent.
    let mut c = MachineConfig::default();
    c.llc = d2m_common::config::CacheGeometry::from_capacity(32 << 10, 4);
    c.ns_slice = d2m_common::config::CacheGeometry::from_capacity(4 << 10, 4);
    let mut sys = D2mSystem::new(&c, D2mVariant::FarSide);
    let va = 0x5_0000_0000u64;
    sys.access(&acc(0, AccessKind::Load, va), 0).unwrap();
    // Stream lines mapping to the same LLC set (128 sets here).
    for i in 1..=16u64 {
        sys.access(&acc(1, AccessKind::Load, va + i * 128 * 64), 0)
            .unwrap();
    }
    // Node 0's copy may have lost its LLC backing; a re-read after L1
    // eviction must still return the right data.
    for i in 1..=10u64 {
        sys.access(&acc(0, AccessKind::Load, 0x6_0000_0000 + i * 64 * 64), 0)
            .unwrap();
    }
    sys.access(&acc(0, AccessKind::Load, va), 1_000_000)
        .unwrap();
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn pressure_exchange_messages_are_counted() {
    let mut c = MachineConfig::default();
    c.ns_policy.pressure_window = 100; // exchange often
    let mut sys = D2mSystem::new(&c, D2mVariant::NearSide);
    for i in 0..2000u64 {
        sys.access(
            &acc((i % 8) as u8, AccessKind::Load, 0x7_0000_0000 + i * 64),
            i,
        )
        .unwrap();
    }
    assert!(sys.noc().count(MsgClass::Pressure) > 0);
}

#[test]
fn remote_master_read_drops_exclusivity() {
    // After node 0 writes (master, exclusive) and node 1 reads it directly,
    // node 0's next write to the same line needs a coherence round again.
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let va = 0x8_0000_0000u64;
    sys.access(&acc(1, AccessKind::Load, va), 0).unwrap(); // make region shared later
    sys.access(&acc(0, AccessKind::Store, va), 0).unwrap(); // case C: node 0 master
    let c_before = sys.protocol_events().c_write_shared;
    sys.access(&acc(1, AccessKind::Load, va), 100_000).unwrap(); // direct read from node 0
    sys.access(&acc(0, AccessKind::Store, va), 200_000).unwrap(); // must invalidate node 1
    assert!(
        sys.protocol_events().c_write_shared > c_before,
        "write after remote read requires a new case-C round"
    );
    sys.access(&acc(1, AccessKind::Load, va), 300_000).unwrap();
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn metadata_capacity_governs_readmm_rate() {
    // Footnote 5 mechanism check at unit scale: a starved MD2/MD3 must
    // re-fetch region metadata (case D) far more often than the default.
    let run = |md2_sets: usize, md3_sets: usize| {
        let mut c = MachineConfig::default();
        c.md2 = d2m_common::config::CacheGeometry::new(md2_sets, 8);
        c.md3 = d2m_common::config::CacheGeometry::new(md3_sets, 16);
        let mut sys = D2mSystem::new(&c, D2mVariant::FarSide);
        let spec = catalog::by_name("canneal").unwrap();
        let mut gen = TraceGen::new(&spec, 8, 4);
        let mut batch = Vec::new();
        for _ in 0..2500 {
            batch.clear();
            gen.next_batch(&mut batch);
            for a in &batch {
                sys.access(a, 0).unwrap();
            }
        }
        sys.protocol_events().d_md_miss
    };
    let starved = run(16, 64);
    let default = run(512, 1024);
    assert!(
        starved as f64 > 1.25 * default as f64,
        "starved metadata must multiply ReadMM rounds: {starved} vs {default}"
    );
}

#[test]
fn shared_write_hit_after_master_slot_eviction_keeps_rps_valid() {
    // Regression: node 0 holds an L1 replica whose RP names its *local
    // replication chain* slot; the line's LLC master slot is then evicted
    // (master falls back to memory). A subsequent store at node 0 must not
    // adopt the chain slot as its victim location — the case-C round purges
    // that slot, which would leave the new master's RP dangling.
    let mut c = MachineConfig::default();
    c.ns_slice = d2m_common::config::CacheGeometry::from_capacity(16 << 10, 4);
    c.llc = d2m_common::config::CacheGeometry::from_capacity(128 << 10, 32);
    let mut sys = D2mSystem::new(&c, D2mVariant::NearSideRepl);
    let va = 0x4100_0000u64; // shared segment region

    // Node 1 faults the line in: master lands in node 1's slice (equal
    // pressure ⇒ local allocation).
    sys.access(&acc(1, AccessKind::Load, va), 0).unwrap();
    // Node 0 reads it twice: remote-NS hit + MRU ⇒ replicated into node 0's
    // slice, with node 0's L1 RP pointing at the local replica.
    sys.access(&acc(0, AccessKind::Load, va), 0).unwrap();

    // Thrash node 1's small slice so the master slot is evicted and the
    // master falls back to memory.
    for i in 1..=4096u64 {
        sys.access(&acc(1, AccessKind::Load, 0x2_0000_0000 + i * 64), 0)
            .unwrap();
    }

    // Store at node 0: write-hit on the replica (if still L1-resident) or a
    // write miss — either way the new master's RP must name a live victim.
    sys.access(&acc(0, AccessKind::Store, va), 1_000_000)
        .unwrap();
    sys.check_invariants().unwrap();

    // And the value must be visible everywhere.
    sys.access(&acc(1, AccessKind::Load, va), 2_000_000)
        .unwrap();
    assert_eq!(sys.coherence_errors(), 0);
}

#[test]
fn check_invariants_names_a_master_rp_at_another_lines_slot() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let line_of = |va: u64| d2m_common::addr::translate(Asid(0), VAddr::new(va)).line();
    let va_a = 0x100_0000u64;
    let a = line_of(va_a);
    let set = sys.llc_set(a, 0);
    // A line of another region in A's LLC set: both stores leave a master in
    // node 0's L1-D whose RP names a victim slot in that set.
    let va_b = (1..)
        .map(|i| 0x200_0000u64 + i * 64)
        .find(|&va| sys.llc_set(line_of(va), 0) == set)
        .unwrap();
    let b = line_of(va_b);
    sys.access(&acc(0, AccessKind::Store, va_a), 0).unwrap();
    sys.access(&acc(0, AccessKind::Store, va_b), 0).unwrap();
    sys.check_invariants().unwrap();

    let b_way = sys.llc.way_of(0, set, b.raw()).expect("B's victim slot");
    let bad = Li::LlcFs { way: b_way as u8 };
    let (kind, s, w) = sys.node_slot_of(0, a).expect("A's master in node 0");
    let dl = sys.l1d.at_mut(0, s, w).expect("occupied").1;
    assert!(kind == ArrKind::L1D && dl.master && dl.rp != bad);
    dl.rp = bad;
    let err = sys.check_invariants().unwrap_err();
    assert!(err.contains(&format!("rp {bad:?}")), "{err}");
}

#[test]
fn traditional_front_end_keeps_d2m_semantics() {
    // §III-A: an unmodified core with TLB + tagged L1 in front of MD2/MD3.
    let feats = crate::system::D2mFeatures {
        near_side: true,
        replication: true,
        dynamic_indexing: false,
        bypass: false,
        traditional_l1: true,
    };
    let c = MachineConfig::default();
    let mut sys = D2mSystem::with_features(&c, D2mVariant::NearSideRepl, feats, 1);
    let spec = catalog::by_name("fluidanimate").unwrap();
    let mut gen = TraceGen::new(&spec, 8, 21);
    let mut batch = Vec::new();
    for i in 0..800 {
        batch.clear();
        gen.next_batch(&mut batch);
        for a in &batch {
            sys.access(a, i * 10).unwrap();
        }
    }
    assert_eq!(sys.coherence_errors(), 0);
    sys.check_invariants().unwrap();
    // MD1 must be untouched; MD2 carries every resolution.
    assert_eq!(sys.raw_counters().md1_accesses, 0);
    assert!(sys.raw_counters().md2_accesses > 0);
}

#[test]
fn protocol_message_conservation_laws() {
    // Structural accounting identities of the protocol, checked over real
    // traces for every variant:
    //   ReadMM ≡ case D;   GetMD ≡ case D2;   MdReply ≡ D + D2 + spills;
    //   Done ≡ ReadMM + ReadEx + EvictReq;    Inv ≤ Ack ≤ Inv + NewMaster.
    for v in all_variants() {
        let mut sys = D2mSystem::new(&small_cfg(), v);
        let spec = catalog::by_name("barnes").unwrap();
        let mut gen = TraceGen::new(&spec, 8, 8);
        let mut batch = Vec::new();
        for _ in 0..800 {
            batch.clear();
            gen.next_batch(&mut batch);
            for a in &batch {
                sys.access(a, 0).unwrap();
            }
        }
        let ev = sys.protocol_events();
        let noc = sys.noc();
        assert_eq!(noc.count(MsgClass::ReadMM), ev.d_md_miss, "{v:?}");
        assert_eq!(noc.count(MsgClass::GetMd), ev.d2_private_to_shared, "{v:?}");
        assert_eq!(
            noc.count(MsgClass::Done),
            noc.count(MsgClass::ReadMM)
                + noc.count(MsgClass::ReadEx)
                + noc.count(MsgClass::EvictReq),
            "{v:?}"
        );
        let inv = noc.count(MsgClass::Inv);
        let ack = noc.count(MsgClass::Ack);
        let nm = noc.count(MsgClass::NewMaster);
        assert!(
            inv <= ack && ack <= inv + nm,
            "{v:?}: inv {inv} ack {ack} nm {nm}"
        );
        assert_eq!(sys.coherence_errors(), 0, "{v:?}");
    }
}

/// Overwrites node `node`'s LI for the line at `va` with `li`, as the raw
/// 6-bit field a corrupted MD1 entry would hold. The region must be
/// MD1-active at the node.
fn plant_li(sys: &mut D2mSystem, node: usize, va: u64, li: crate::li::Li) {
    let va = VAddr::new(va);
    let bits = li.pack(sys.enc).expect("representable LI");
    let key = D2mSystem::md1_key(va.vregion().raw(), 0);
    let set = sys.md1d.set_index(key);
    let way = sys.md1d.way_of(node, set, key).expect("MD1-active region");
    let (_, e) = sys.md1d.at_mut(node, set, way).expect("occupied");
    e.li.set_raw(usize::from(va.region_offset()), bits);
}

/// Overwrites the version of node `node`'s resident L1-D copy of the line
/// at `va` with `version`, as a copy that missed a later store holds.
fn plant_version(sys: &mut D2mSystem, node: usize, va: u64, version: u64) {
    let line = d2m_common::addr::translate(Asid(0), VAddr::new(va)).line();
    let set = sys.l1_set(line);
    let way = sys
        .l1d
        .way_of(node, set, line.raw())
        .expect("resident L1-D line");
    let (_, slot) = sys.l1d.at_mut(node, set, way).expect("occupied");
    slot.version = version;
}

/// On the default machine, with no flag set, a load that hits an L1 copy
/// older than the latest store counts one coherence violation.
#[test]
fn stale_l1_hit_is_counted() {
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let va = 0x900_0000u64;
    sys.access(&acc(0, AccessKind::Store, va), 0).unwrap();
    plant_version(&mut sys, 0, va, 0);
    let r = sys.access(&acc(0, AccessKind::Load, va), 1000).unwrap();
    assert!(r.l1_hit);
    assert_eq!(sys.coherence_errors(), 1);
}

/// One planted bad LI per case fails the next load of its line with the
/// named error, in debug and release builds alike: no path reroutes around
/// a broken LI.
#[test]
fn corrupted_li_yields_protocol_error_not_abort() {
    use crate::error::ProtocolError;
    use crate::li::Li;

    struct Case {
        name: &'static str,
        cfg: MachineConfig,
        /// Line offset, within node 0's one region, of the corrupted LI.
        off: u64,
        /// The LI to plant, given the system after node 0 loaded offset 0.
        li: fn(&D2mSystem) -> Li,
        expect: fn(&ProtocolError) -> bool,
    }
    // Four LLC sets: offsets 0 and 4 of a region share one.
    let mut four_set_llc = MachineConfig::default();
    four_set_llc.llc = d2m_common::config::CacheGeometry::new(4, 16);
    four_set_llc.ns_slice = d2m_common::config::CacheGeometry::new(1, 8);
    // Half the LLC associativity at the same capacity: the 6-bit field can
    // encode ways 0..32, this system has 16.
    let mut sixteen_way_llc = MachineConfig::default();
    sixteen_way_llc.llc = d2m_common::config::CacheGeometry::from_capacity(8 << 20, 16);
    let cases = [
        Case {
            name: "L1 LI naming a way without the line (hit path)",
            cfg: MachineConfig::default(),
            off: 1,
            li: |_| Li::L1 { way: 0 },
            expect: |e| {
                matches!(
                    e,
                    ProtocolError::Determinism {
                        li: Li::L1 { way: 0 },
                        ..
                    }
                )
            },
        },
        Case {
            name: "LLC LI naming a slot that holds another line (serve_llc)",
            cfg: four_set_llc,
            off: 4,
            li: |sys| {
                let (set, way, key, _) = sys.llc.iter_bank(0).next().expect("offset 0's master");
                let target = d2m_common::addr::LineAddr::new(key + 4);
                assert_eq!(sys.llc_set(target, 0), set, "offsets 0 and 4 share a set");
                Li::LlcFs { way: way as u8 }
            },
            expect: |e| {
                matches!(
                    e,
                    ProtocolError::Determinism {
                        li: Li::LlcFs { .. },
                        ..
                    }
                )
            },
        },
        Case {
            name: "Node(m) LI where node m lacks the line (serve_remote_node)",
            cfg: MachineConfig::default(),
            off: 1,
            li: |_| Li::Node(NodeId::new(3)),
            expect: |e| {
                matches!(
                    e,
                    ProtocolError::Determinism {
                        li: Li::Node(_),
                        ..
                    }
                )
            },
        },
        Case {
            name: "L2 LI on the miss path",
            cfg: MachineConfig::default(),
            off: 1,
            li: |_| Li::L2 { way: 2 },
            expect: |e| {
                matches!(
                    e,
                    ProtocolError::UnexpectedLi {
                        li: Li::L2 { way: 2 },
                        ..
                    }
                )
            },
        },
        Case {
            name: "LLC LI outside the geometry",
            cfg: sixteen_way_llc,
            off: 1,
            li: |_| Li::LlcFs { way: 31 },
            expect: |e| matches!(e, ProtocolError::LlcSlotOutOfRange { ways: 16, .. }),
        },
    ];
    for case in cases {
        let mut sys = D2mSystem::new(&case.cfg, D2mVariant::FarSide);
        let va = 0x900_0000u64;
        sys.access(&acc(0, AccessKind::Load, va), 0).unwrap();
        let target = va + case.off * 64;
        let li = (case.li)(&sys);
        plant_li(&mut sys, 0, target, li);
        let err = sys
            .access(&acc(0, AccessKind::Load, target), 0)
            .expect_err(case.name);
        assert!((case.expect)(&err), "{}: {err:?}", case.name);
        // The message names the offender for cell-failure reports.
        assert!(
            err.to_string().contains(&format!("{li:?}")),
            "{}: {err}",
            case.name
        );
    }
}

#[test]
fn llc_insert_outside_md3_yields_corrupt_metadata() {
    use crate::error::ProtocolError;

    for v in all_variants() {
        let mut sys = D2mSystem::new(&MachineConfig::default(), v);
        let va = 0x980_0000u64;
        sys.access(&acc(0, AccessKind::Load, va), 0).unwrap();
        // Drop the region's MD3 entry behind the protocol's back: the next
        // memory fill in the region has no entry to index its LLC slot in.
        let slots: Vec<(usize, usize)> = sys.md3.iter().map(|(s, w, _, _)| (s, w)).collect();
        assert_eq!(slots.len(), 1, "{v:?}: one region touched");
        for (s, w) in slots {
            sys.md3.remove(s, w);
        }
        let err = sys
            .access(&acc(0, AccessKind::Load, va + 64), 0)
            .expect_err("an LLC insert outside MD3 must fail the transaction");
        assert!(
            matches!(err, ProtocolError::CorruptMetadata { .. }),
            "{v:?}: {err}"
        );
        assert!(err.to_string().contains("MD3"), "{err}");
    }
}
