//! Experiment harness reproducing every table and figure of the D2M paper.
//!
//! The `report` binary regenerates one paper artifact per run
//! (`report <artifact> [--quick] [workload…]`) and prints paper-vs-measured
//! columns:
//!
//! | artifact | reproduces |
//! |---|---|
//! | `table4` | Table IV — L1 miss / late-hit ratios, NS-LLC hit ratios |
//! | `table5` | Table V — received invalidations, % misses to private regions |
//! | `fig5_traffic` | Figure 5 — network messages / kilo-instruction |
//! | `fig6_edp` | Figure 6 — cache-hierarchy EDP normalized to Base-2L |
//! | `fig7_speedup` | Figure 7 — speedup over Base-2L |
//! | `pkmo` | Appendix — protocol events per kilo memory operation |
//! | `structure_pressure` | §V-B — MD3 vs directory, MD2 vs L2-tag pressure |
//! | `ablation_mdscale` | footnote 5 — MD capacity 1×/2×/4× sweep |
//! | `ablation_scramble` | §IV-D — dynamic indexing on strided workloads |
//! | `ablation_bypass` | §I — region-predictor cache bypassing |
//! | `ablation_traditional` | §III-A — traditional front end |
//! | `lockbits` | appendix — MD3 lock-bit collision rates |
//! | `energy_breakdown [workload]` | Figure 6 — per-structure energy composition |
//! | `workload_stats` | catalog parameter listing |
//! | `calibrate`, `traffic_debug [workload…]` | calibration utilities (kept for reproducibility) |
//!
//! Every artifact accepts `--quick` for a fast, reduced-length run. The
//! simulator's speed is measured by the separate `simbench` package, not
//! here.

#![forbid(unsafe_code)]

use std::path::Path;

use d2m_common::config::MachineConfig;
use d2m_common::ToJson;
use d2m_sim::{
    default_jobs, run_sweep_checkpointed, MatrixResult, RunConfig, SweepResult, SweepSpec,
    SystemKind,
};
use d2m_workloads::catalog;

/// Harness-wide run parameters derived from the command line.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Simulation length per (system, workload) pair.
    pub rc: RunConfig,
    /// True when `--quick` was passed.
    pub quick: bool,
}

/// Parses harness flags (`--quick`) from a command line.
pub fn parse_args(args: &[String]) -> HarnessConfig {
    let quick = args.iter().any(|a| a == "--quick");
    let rc = if quick {
        RunConfig {
            instructions: 150_000,
            warmup_instructions: 80_000,
            seed: 42,
        }
    } else {
        RunConfig::full()
    };
    HarnessConfig { rc, quick }
}

/// The evaluation machine configuration (Table III analogue).
pub fn machine() -> MachineConfig {
    MachineConfig::default()
}

/// FNV-1a hash of a deterministic-JSON rendering, used to key sweep files.
fn json_hash<T: ToJson>(value: &T) -> u64 {
    d2m_common::fnv1a_64(value.to_json().to_string_compact().as_bytes())
}

/// Runs a sweep as a resume of its checkpoint journal under `target/`.
///
/// The journal is keyed by a hash of the whole [`SweepSpec`] (grid, run
/// length, master seed), so any parameter change starts a fresh journal. A
/// finished journal loads without running a cell, and a killed run picks up
/// after its last journaled cell.
///
/// # Panics
///
/// Panics when the journal cannot be written or is damaged beyond its last
/// line, or when any cell failed: a failed cell's all-zero placeholder
/// metrics must not enter a published table. Deleting the journal starts
/// the sweep over.
pub fn cached_sweep(spec: &SweepSpec) -> SweepResult {
    let journal = format!(
        "target/d2m-sweep-{}-{:016x}.ckpt",
        spec.name,
        json_hash(spec)
    );
    let jobs = default_jobs();
    eprintln!(
        "[sweep:{}] {} cells on {jobs} jobs (journal: {journal}) ...",
        spec.name,
        spec.num_cells()
    );
    let _ = std::fs::create_dir_all("target");
    let res = run_sweep_checkpointed(spec, jobs, Path::new(&journal), true)
        .unwrap_or_else(|e| panic!("{e}"));
    eprintln!(
        "[sweep:{}] done in {:.1}s on {} jobs",
        spec.name, res.wall_secs, res.jobs_used
    );
    check_no_failed_cells(&res, &journal).unwrap_or_else(|e| panic!("{e}"));
    res
}

/// `Ok` when every cell of `res` ran, else a message naming each failed
/// cell (config, system, workload and its error) and `journal`, which holds
/// the failures: a rerun would resume them, so it must be deleted first.
fn check_no_failed_cells(res: &SweepResult, journal: &str) -> Result<(), String> {
    let failures = res.failures();
    if failures.is_empty() {
        return Ok(());
    }
    let mut msg = format!(
        "sweep {} has {} failed cell(s); fix the cause, delete {journal} and rerun:",
        res.name,
        failures.len()
    );
    for c in failures {
        msg += &format!(
            "\n  {}/{}/{}: {}",
            c.config,
            c.system.name(),
            c.workload,
            c.error.as_deref().unwrap_or_default()
        );
    }
    Err(msg)
}

/// Runs (or resumes from its on-disk journal) the full 45-workload × 5-system
/// matrix behind Tables IV/V and Figures 5/6/7, on the parallel sweep
/// engine.
pub fn full_matrix(hc: &HarnessConfig) -> MatrixResult {
    let spec = SweepSpec::single(
        "full-matrix",
        &machine(),
        &SystemKind::ALL,
        &catalog::all().expect("catalog specs are valid"),
        &hc.rc,
    );
    let res = cached_sweep(&spec);
    let m = MatrixResult::from_runs(res.runs_for_config("default"));
    let csv = format!(
        "target/d2m-sweep-{}-{:016x}.csv",
        spec.name,
        json_hash(&spec)
    );
    let _ = std::fs::write(&csv, d2m_sim::metrics::to_csv(m.runs()));
    eprintln!("[sweep:{}] CSV for external plotting: {csv}", spec.name);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_is_valid() {
        machine().validate().unwrap();
    }

    #[test]
    fn failed_cells_fail_the_artifact() {
        use d2m_sim::{CellResult, RunMetrics};

        let cell = |index: u64, error: Option<&str>| CellResult {
            index,
            config: "default".into(),
            system: SystemKind::D2mNsR,
            workload: "tpc-c".into(),
            seed: 7,
            metrics: RunMetrics::failed("D2M-NS-R", "tpc-c", "server"),
            error: error.map(str::to_string),
        };
        let mut res = SweepResult {
            name: "full-matrix".into(),
            master_seed: 42,
            cells: vec![cell(0, None)],
            jobs_used: 1,
            wall_secs: 0.0,
        };
        assert_eq!(check_no_failed_cells(&res, "target/x.ckpt"), Ok(()));

        res.cells
            .push(cell(1, Some("protocol error: LlcFs { way: 3 }")));
        let msg = check_no_failed_cells(&res, "target/x.ckpt").unwrap_err();
        for part in [
            "full-matrix",
            "1 failed cell",
            "default/D2M-NS-R/tpc-c: protocol error: LlcFs { way: 3 }",
            "delete target/x.ckpt",
        ] {
            assert!(msg.contains(part), "{part:?} missing from {msg}");
        }
    }
}
