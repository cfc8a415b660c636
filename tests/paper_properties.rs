//! Qualitative paper properties as integration tests: the *shape* of the
//! evaluation (who wins, where, and why) must hold at moderate simulation
//! lengths. Exact magnitudes are checked by the benchmark harness and
//! recorded in EXPERIMENTS.md.

use d2m_common::MachineConfig;
use d2m_sim::{run_one_checked, RunConfig, SystemKind};
use d2m_workloads::catalog;

fn rc() -> RunConfig {
    // Long enough for warm working sets to see real reuse (see DESIGN.md §6
    // on window-length effects); release-mode runtime is a few seconds.
    RunConfig {
        instructions: 2_000_000,
        warmup_instructions: 800_000,
        seed: 42,
    }
}

#[test]
fn server_mixes_are_fully_private_and_d2m_cuts_their_traffic() {
    // Table V: Server misses are 100% to private regions; Figure 5 shows a
    // large traffic reduction for the mixes.
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("mix2").unwrap();
    let base = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc()).unwrap();
    let nsr = run_one_checked(SystemKind::D2mNsR, &cfg, &spec, &rc()).unwrap();
    assert!(nsr.private_miss_frac > 0.999, "{}", nsr.private_miss_frac);
    assert!(
        nsr.msgs_per_kilo_inst < 0.5 * base.msgs_per_kilo_inst,
        "NSR {} vs base {}",
        nsr.msgs_per_kilo_inst,
        base.msgs_per_kilo_inst
    );
}

#[test]
fn canneal_is_a_traffic_outlier_for_d2m() {
    // Paper §V-B: canneal's MD2 misses make it one of the two workloads
    // where D2M does not win on traffic.
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("canneal").unwrap();
    let base = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc()).unwrap();
    let nsr = run_one_checked(SystemKind::D2mNsR, &cfg, &spec, &rc()).unwrap();
    assert!(
        nsr.msgs_per_kilo_inst > 0.9 * base.msgs_per_kilo_inst,
        "canneal should not show a traffic win: {} vs {}",
        nsr.msgs_per_kilo_inst,
        base.msgs_per_kilo_inst
    );
}

#[test]
fn streamcluster_gets_latency_but_no_traffic_advantage() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("streamcluster").unwrap();
    let base = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc()).unwrap();
    let fs = run_one_checked(SystemKind::D2mFs, &cfg, &spec, &rc()).unwrap();
    assert!(fs.mem_service_frac > 0.5, "streaming misses go to memory");
    assert!(
        fs.msgs_per_kilo_inst > 0.85 * base.msgs_per_kilo_inst,
        "no traffic advantage expected"
    );
    assert!(
        fs.avg_miss_latency < base.avg_miss_latency,
        "but a latency advantage is"
    );
}

#[test]
fn near_side_and_replication_each_add_speedup_on_instruction_heavy_work() {
    // Figure 7's Database story: FS < NS < NS-R, with replication providing
    // the big jump by serving L1-I misses from the local slice.
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("tpc-c").unwrap();
    let base = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc()).unwrap();
    let fs = run_one_checked(SystemKind::D2mFs, &cfg, &spec, &rc()).unwrap();
    let ns = run_one_checked(SystemKind::D2mNs, &cfg, &spec, &rc()).unwrap();
    let nsr = run_one_checked(SystemKind::D2mNsR, &cfg, &spec, &rc()).unwrap();
    let s = |m: &d2m_sim::RunMetrics| m.speedup_vs(&base);
    assert!(s(&fs) > 1.0, "FS {}", s(&fs));
    assert!(s(&ns) > s(&fs), "NS {} vs FS {}", s(&ns), s(&fs));
    assert!(s(&nsr) > s(&ns), "NSR {} vs NS {}", s(&nsr), s(&ns));
    assert!(
        nsr.ns_hit_ratio_i > ns.ns_hit_ratio_i + 0.2,
        "replication must lift local instruction service: {} vs {}",
        nsr.ns_hit_ratio_i,
        ns.ns_hit_ratio_i
    );
}

#[test]
fn d2m_reduces_miss_latency_and_edp_on_mobile_work() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("google").unwrap();
    let base = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc()).unwrap();
    let nsr = run_one_checked(SystemKind::D2mNsR, &cfg, &spec, &rc()).unwrap();
    assert!(nsr.avg_miss_latency < 0.8 * base.avg_miss_latency);
    assert!(nsr.edp < base.edp);
}

#[test]
fn directory_free_fraction_is_high_for_d2m() {
    // Appendix: cases A+B (no MD3 involvement) dominate the miss mix.
    let cfg = MachineConfig::default();
    for name in ["mix4", "mix2"] {
        let spec = catalog::by_name(name).unwrap();
        let m = run_one_checked(SystemKind::D2mFs, &cfg, &spec, &rc()).unwrap();
        let a = m.counters.get("case.a") + m.counters.get("case.b");
        let all = a + m.counters.get("case.c") + m.counters.get("case.d");
        let frac = a as f64 / all.max(1) as f64;
        assert!(frac > 0.8, "{name}: directory-free only {frac}");
    }
}

#[test]
fn base3l_l2_helps_server_but_not_instruction_thrashers() {
    // §V-D: Base-3L's L2 filters LLC accesses for data-heavy work, but
    // Database-style instruction footprints still miss past it.
    let cfg = MachineConfig::default();
    let mix = catalog::by_name("mix2").unwrap();
    let b3 = run_one_checked(SystemKind::Base3L, &cfg, &mix, &rc()).unwrap();
    assert!(
        b3.ns_hit_ratio_d > 0.3,
        "L2 should filter: {}",
        b3.ns_hit_ratio_d
    );
    let db = catalog::by_name("tpc-c").unwrap();
    let b3db = run_one_checked(SystemKind::Base3L, &cfg, &db, &rc()).unwrap();
    let nsr = run_one_checked(SystemKind::D2mNsR, &cfg, &db, &rc()).unwrap();
    // NS-R's 1 MB slice beats the 256 KB L2 for instructions.
    assert!(nsr.ns_hit_ratio_i > b3db.ns_hit_ratio_i);
}
