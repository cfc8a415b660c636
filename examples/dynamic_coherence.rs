//! Dynamic coherence from presence-bit classification (paper §IV-A).
//!
//! Drives a D2M system access-by-access to show the region life cycle of
//! Table II — uncached → private → shared — and how private regions skip
//! every directory interaction (silent write upgrades, case-B write misses),
//! while shared writes pay the blocking case-C round.
//!
//! Run with: `cargo run --release --example dynamic_coherence`

use d2m_common::addr::{Asid, NodeId, VAddr};
use d2m_common::MachineConfig;
use d2m_core::{D2mSystem, D2mVariant};
use d2m_workloads::{Access, AccessKind};

fn acc(node: u8, kind: AccessKind, va: u64) -> Access {
    Access::new(NodeId::new(node), Asid(0), kind, VAddr::new(va))
}

fn main() {
    // Every load is validated against the value-coherence oracle.
    let mut sys = D2mSystem::new(&MachineConfig::default(), D2mVariant::FarSide);
    let region = 0x4200_0000u64; // one 1 KB region = 16 cachelines

    println!("1) Node 0 touches a brand-new region:");
    sys.access(&acc(0, AccessKind::Load, region), 0).unwrap();
    let ev = *sys.protocol_events();
    println!(
        "   → case D4 (uncached → private): {} transition, region now owned by node 0\n",
        ev.d4_uncached_to_private
    );

    println!("2) Node 0 writes two lines of its private region:");
    let md3_before = sys.raw_counters().md3_accesses;
    sys.access(&acc(0, AccessKind::Store, region), 1000)
        .unwrap(); // hit → silent upgrade
    sys.access(&acc(0, AccessKind::Store, region + 64), 1000)
        .unwrap(); // miss → case B
    let ev = *sys.protocol_events();
    println!(
        "   → {} silent upgrade + {} case-B write miss, MD3 consulted {} times (zero!)\n",
        ev.silent_upgrades,
        ev.b_write_private,
        sys.raw_counters().md3_accesses - md3_before
    );

    println!("3) Node 1 reads the region — first foreign access:");
    sys.access(&acc(1, AccessKind::Load, region), 2000).unwrap();
    let ev = *sys.protocol_events();
    println!(
        "   → case D2 (private → shared): {} conversion; node 0's metadata was\n\
         \x20    uploaded to MD3 and its private bit cleared\n",
        ev.d2_private_to_shared
    );

    println!("4) Node 2 also reads, then node 1 writes the line node 0 masters:");
    sys.access(&acc(2, AccessKind::Load, region), 2500).unwrap();
    let inv_before = sys.raw_counters().invalidations_received;
    sys.access(&acc(1, AccessKind::Store, region), 3000)
        .unwrap();
    let ev = *sys.protocol_events();
    println!(
        "   → case C (blocking MD3 round): {} transaction; the old master got a\n\
         \x20    DirectReadEx and {} sharer(s) an Inv via the region-grain PB multicast\n",
        ev.c_write_shared,
        sys.raw_counters().invalidations_received - inv_before
    );

    println!("5) Node 0 re-reads — the LI now names node 1 directly:");
    let r = sys.access(&acc(0, AccessKind::Load, region), 4000).unwrap();
    println!(
        "   → serviced by {:?} with no directory lookup on the way\n",
        r.serviced_by
    );

    sys.check_invariants().expect("all invariants hold");
    assert_eq!(sys.coherence_errors(), 0);
    println!("value-coherence oracle and all structural invariants: clean ✓");
}
