//! End-to-end tests of the `d2m-simulate` command-line front end.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_d2m-simulate"));
    // Isolate every invocation from fault rules leaking in from the
    // caller's environment; tests that want faults set D2M_FAULT themselves.
    c.env_remove("D2M_FAULT").env_remove("D2M_JOBS");
    c
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("d2m-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The sweep grid shared by the sweep-mode tests: small enough to finish in
/// seconds, wide enough to exercise both a baseline and a D2M system.
const SWEEP_ARGS: [&str; 10] = [
    "--workloads",
    "swaptions,mix2",
    "--systems",
    "base-2l,d2m-ns-r",
    "--instructions",
    "20000",
    "--warmup",
    "5000",
    "--jobs",
    "2",
];

#[test]
fn cli_runs_a_quick_simulation() {
    let out = bin()
        .args([
            "--system",
            "d2m-ns-r",
            "--workload",
            "swaptions",
            "--instructions",
            "40000",
            "--warmup",
            "10000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("D2M-NS-R"));
    assert!(stdout.contains("msgs/KI"));
}

#[test]
fn cli_emits_json() {
    let out = bin()
        .args([
            "--system",
            "base-2l",
            "--workload",
            "google",
            "--instructions",
            "30000",
            "--warmup",
            "5000",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let v = d2m_common::Json::parse(&text).expect("valid JSON metrics");
    assert_eq!(v.get("system").and_then(|s| s.as_str()), Some("Base-2L"));
    assert!(v.get("cycles").and_then(|c| c.as_u64()).unwrap() > 0);
}

#[test]
fn cli_lists_workloads() {
    let out = bin().arg("--list").output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 45);
    assert!(stdout.contains("canneal"));
}

#[test]
fn cli_rejects_unknown_workload() {
    let out = bin()
        .args(["--workload", "not-a-workload"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn cli_sweep_writes_result_json_and_exits_zero() {
    let path = tmp("sweep-basic.json");
    let out = bin()
        .args(["--sweep", "cli-basic"])
        .args(SWEEP_ARGS)
        .args(["--out", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let res = d2m_sim::SweepResult::from_json_string(&text).expect("valid sweep JSON");
    assert_eq!(res.name, "cli-basic");
    assert_eq!(res.cells.len(), 4);
    assert!(res.failures().is_empty());
}

#[test]
fn cli_sweep_survives_an_injected_panic_and_exits_zero() {
    let path = tmp("sweep-panic.json");
    let out = bin()
        .args(["--sweep", "cli-panic"])
        .args(SWEEP_ARGS)
        .args(["--out", path.to_str().unwrap()])
        .env("D2M_FAULT", "cell@cli-panic:1:panic")
        .output()
        .expect("binary runs");
    // A failing cell is a result, not an operational error.
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cell 1 failed"), "{stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    let res = d2m_sim::SweepResult::from_json_string(&text).unwrap();
    assert_eq!(res.cells.len(), 4, "no cell may be lost");
    let failures = res.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].index, 1);
    assert!(failures[0].error.as_deref().unwrap().contains("panicked"));
}

#[test]
fn cli_sweep_kill_and_resume_is_byte_identical() {
    let clean = tmp("sweep-clean.json");
    let resumed = tmp("sweep-resumed.json");
    let ckpt = tmp("sweep-kill.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    let out = bin()
        .args(["--sweep", "cli-kill"])
        .args(SWEEP_ARGS)
        .args(["--out", clean.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // A real process death: the checkpoint fault point exits hard after the
    // second journaled cell, past any in-process cleanup.
    let out = bin()
        .args(["--sweep", "cli-kill"])
        .args(SWEEP_ARGS)
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .env("D2M_FAULT", "checkpoint@cli-kill:2:exit")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(d2m_common::faultpoint::EXIT_CODE),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // At least header + the two cells that fired the exit are durable; the
    // other worker may have appended (or been killed mid-append) after the
    // second append but before the exit took effect.
    let journaled = std::fs::read_to_string(&ckpt).unwrap().lines().count();
    assert!((3..=4).contains(&journaled), "{journaled} journal lines");

    let out = bin()
        .args(["--sweep", "cli-kill"])
        .args(SWEEP_ARGS)
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--out", resumed.to_str().unwrap(), "--resume"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&clean).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "kill + resume must reproduce the uninterrupted output byte for byte"
    );
}

#[test]
fn cli_sweep_resume_without_checkpoint_is_a_usage_error() {
    let out = bin()
        .args(["--sweep", "x", "--resume"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume requires --checkpoint"),
        "{stderr}"
    );
}

#[test]
fn cli_sweep_flags_without_sweep_are_a_usage_error() {
    let out = bin().args(["--jobs", "2"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("require --sweep"), "{stderr}");
}

#[test]
fn cli_sweep_rejects_unknown_system_in_list() {
    let out = bin()
        .args(["--sweep", "x", "--systems", "base-2l,warp-drive"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warp-drive"), "{stderr}");
}

#[test]
fn cli_rejects_md_scales_that_are_not_powers_of_two() {
    let cases: [(&[&str], &str); 3] = [
        (&["--md-scale", "3"], "3"),
        (&["--md-scale", "0"], "0"),
        (
            &[
                "--sweep",
                "x",
                "--md-scales",
                "1,3",
                "--workloads",
                "swaptions",
            ],
            "3",
        ),
    ];
    for (args, bad) in cases {
        let out = bin().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let named = format!(
            "error: bad --md-scale(s) value \"{bad}\" (expected a power of two: 1, 2, 4, ...)"
        );
        assert!(stderr.contains(&named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: d2m-simulate"), "{args:?}: {stderr}");
    }
}
