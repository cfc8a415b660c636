//! Quickstart: simulate one workload on the D2M split hierarchy and a
//! traditional baseline, and compare the headline metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use d2m_common::MachineConfig;
use d2m_sim::{run_one_checked, RunConfig, RunError, SystemKind};
use d2m_workloads::catalog;

fn main() -> Result<(), RunError> {
    // The evaluation machine: 8 nodes, 32 KB L1s, 8 MB LLC, MD1/MD2/MD3
    // metadata stores (see MachineConfig for every knob).
    let cfg = MachineConfig::default();

    // One of the 45 named workloads of the paper's evaluation.
    let spec = catalog::by_name("facebook").expect("catalog workload");

    let rc = RunConfig {
        instructions: 1_000_000,
        warmup_instructions: 300_000,
        seed: 7,
    };

    println!("workload: {} ({})\n", spec.name, spec.category.name());
    let base = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc)?;
    for kind in [SystemKind::Base2L, SystemKind::D2mFs, SystemKind::D2mNsR] {
        let m = run_one_checked(kind, &cfg, &spec, &rc)?;
        println!(
            "{:<9}  ipc {:.2}   {:6.1} msgs/KI   miss-lat {:5.1} cyc   EDP {:.2}x   speedup {:+.1}%",
            m.system,
            m.ipc,
            m.msgs_per_kilo_inst,
            m.avg_miss_latency,
            m.edp_vs(&base),
            (m.speedup_vs(&base) - 1.0) * 100.0,
        );
    }
    println!(
        "\nD2M replaces tag searches and directory indirections with direct\n\
         metadata-guided accesses; the near-side LLC keeps data local to the\n\
         node, which is where the traffic and latency reductions come from."
    );
    Ok(())
}
