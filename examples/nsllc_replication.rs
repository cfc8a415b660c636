//! Near-side LLC placement and cooperative replication (paper §IV-B/C).
//!
//! Runs an instruction-heavy Database workload on the three D2M variants
//! and shows how the near-side slices — and then the replication heuristic —
//! turn far-side LLC round trips into local-slice hits, which is where the
//! paper's Database speedup (28%) comes from.
//!
//! Run with: `cargo run --release --example nsllc_replication`

use d2m_common::MachineConfig;
use d2m_sim::{run_one_checked, RunConfig, RunError, SystemKind};
use d2m_workloads::catalog;

fn main() -> Result<(), RunError> {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("tpc-c").expect("catalog workload");
    let rc = RunConfig {
        instructions: 1_500_000,
        warmup_instructions: 500_000,
        seed: 11,
    };

    println!("workload: tpc-c (8.8% L1-I miss ratio — instructions dominate)\n");
    let base = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc)?;
    println!(
        "{:<9}  local-NS hits: I {:>4.0}%  D {:>4.0}%   miss-lat {:5.1}   speedup {:+5.1}%",
        base.system, 0.0, 0.0, base.avg_miss_latency, 0.0
    );
    for kind in [SystemKind::D2mFs, SystemKind::D2mNs, SystemKind::D2mNsR] {
        let m = run_one_checked(kind, &cfg, &spec, &rc)?;
        println!(
            "{:<9}  local-NS hits: I {:>4.0}%  D {:>4.0}%   miss-lat {:5.1}   speedup {:+5.1}%",
            m.system,
            m.ns_hit_ratio_i * 100.0,
            m.ns_hit_ratio_d * 100.0,
            m.avg_miss_latency,
            (m.speedup_vs(&base) - 1.0) * 100.0,
        );
    }
    println!(
        "\nD2M-FS still crosses the interconnect for every LLC hit. Moving the\n\
         slices to the near side (D2M-NS) removes that crossing for locally\n\
         placed data, and replication (D2M-NS-R) lets each node use its slice\n\
         as a de-facto private L2 for shared instructions — the paper's\n\
         'automatic private L2' effect."
    );
    Ok(())
}
