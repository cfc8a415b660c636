//! Fault-tolerance guarantees of the sweep engine, end to end: injected
//! panics stay confined to their cell, and a killed checkpointed sweep
//! resumes to **byte-identical** JSON from any kill point, with a cell that
//! panicked deterministically serializing the same before and after.
//!
//! Every test holds a [`d2m_common::faultpoint::FaultGuard`] — even the
//! ones that inject nothing (`arm("")`) — because fault rules are process
//! globals and the guard's lock is what keeps concurrently scheduled tests
//! from tripping each other's rules (the `build@…` rule below is scoped by
//! *system* name, which any concurrent sweep would match).

use d2m_common::{faultpoint, MachineConfig};
use d2m_sim::{run_sweep_checkpointed, run_sweep_with_jobs, ConfigPoint, SweepSpec, SystemKind};
use d2m_workloads::catalog;
use std::path::PathBuf;

fn spec(name: &str) -> SweepSpec {
    SweepSpec {
        name: name.into(),
        configs: vec![ConfigPoint {
            label: "default".into(),
            config: MachineConfig::default(),
        }],
        systems: vec![SystemKind::Base2L, SystemKind::D2mNsR],
        workloads: vec![
            catalog::by_name("swaptions").unwrap(),
            catalog::by_name("mix2").unwrap(),
        ],
        instructions: 20_000,
        warmup_instructions: 5_000,
        master_seed: 42,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("d2m-ft-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn injected_panic_is_isolated_and_thread_count_invariant() {
    let s = spec("ft-panic");
    // Unlimited count: the rule fires identically in both runs.
    let _g = faultpoint::arm("cell@ft-panic:2:panic").unwrap();
    let serial = run_sweep_with_jobs(&s, 1);
    let parallel = run_sweep_with_jobs(&s, 8);
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "a faulted sweep must stay thread-count invariant"
    );
    let failures = serial.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].index, 2);
    assert!(
        failures[0]
            .error
            .as_deref()
            .unwrap()
            .contains("injected fault at cell:2"),
        "{:?}",
        failures[0].error
    );
}

#[test]
fn panic_deep_inside_system_construction_is_isolated_to_its_cells() {
    let s = spec("ft-build");
    // Scoped by *system* name and wildcard key: every D2M-NS-R cell dies in
    // `AnySystem::build`, far below the sweep engine.
    let _g = faultpoint::arm("build@D2M-NS-R:*:panic").unwrap();
    let res = run_sweep_with_jobs(&s, 4);
    assert_eq!(res.cells.len(), s.num_cells(), "no cell may be lost");
    for c in &res.cells {
        if c.system == SystemKind::D2mNsR {
            let err = c.error.as_deref().expect("D2M-NS-R cells must fail");
            assert!(
                err.contains("worker panicked") && err.contains("injected fault at build"),
                "{err}"
            );
        } else {
            assert!(
                c.ok(),
                "cell {} ({}) must be unaffected",
                c.index,
                c.workload
            );
        }
    }
}

#[test]
fn resume_is_byte_identical_at_every_kill_point() {
    let _g = faultpoint::arm("").unwrap();
    let s = spec("ft-resume");
    let reference = run_sweep_with_jobs(&s, 1).to_json_string();

    // A full journal, written serially so line k is cell k.
    let full = tmp("resume-full.ckpt");
    let res = run_sweep_checkpointed(&s, 1, &full, false).unwrap();
    assert_eq!(res.to_json_string(), reference);
    let journal = std::fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines.len(), 1 + s.num_cells());

    let path = tmp("resume-cut.ckpt");
    for kill_after in 0..=s.num_cells() {
        // The journal as a kill right after `kill_after` cells would leave it.
        let kept = lines[..=kill_after].join("\n") + "\n";
        std::fs::write(&path, &kept).unwrap();
        // Alternate worker counts: resume must not care how the remainder
        // is scheduled.
        let jobs = if kill_after % 2 == 0 { 1 } else { 8 };
        let resumed = run_sweep_checkpointed(&s, jobs, &path, true).unwrap();
        assert_eq!(
            resumed.to_json_string(),
            reference,
            "kill after {kill_after} cells, resumed on {jobs} jobs"
        );
    }

    // A kill mid-append: the last line is torn. It must be discarded (with
    // its cell re-run), not treated as corruption.
    let torn = lines[..2].join("\n") + "\n" + &lines[2][..lines[2].len() / 2];
    std::fs::write(&path, &torn).unwrap();
    let resumed = run_sweep_checkpointed(&s, 2, &path, true).unwrap();
    assert_eq!(
        resumed.to_json_string(),
        reference,
        "torn final journal line"
    );
}

#[test]
fn deterministic_fault_survives_kill_and_resume_byte_identically() {
    // A cell that panics *deterministically* (unlimited-count rule) must
    // serialize the same whether its failure was journaled before the kill
    // or reproduced after the resume.
    let s = spec("ft-kill-fault");
    let _g = faultpoint::arm("cell@ft-kill-fault:3:panic").unwrap();
    let path = tmp("kill-fault.ckpt");
    let reference = run_sweep_checkpointed(&s, 1, &path, false)
        .unwrap()
        .to_json_string();
    let journal = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = journal.lines().collect();

    // Kill before the faulty cell 3 was journaled: the resume re-runs it
    // and the fault fires again, with the same deterministic message.
    let kept = lines[..=2].join("\n") + "\n";
    std::fs::write(&path, kept).unwrap();
    let resumed = run_sweep_checkpointed(&s, 8, &path, true).unwrap();
    assert_eq!(resumed.to_json_string(), reference);
    assert_eq!(resumed.failures().len(), 1);

    // Kill after it was journaled: the resume loads the failure as data.
    let kept = lines.join("\n") + "\n";
    std::fs::write(&path, kept).unwrap();
    let resumed = run_sweep_checkpointed(&s, 1, &path, true).unwrap();
    assert_eq!(resumed.to_json_string(), reference);
}
