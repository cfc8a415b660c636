//! Golden-trace regression tests.
//!
//! Each golden case is a small canned `D2MT` trace committed under
//! `tests/golden/` together with a JSON snapshot of the full counter state
//! (cache hits/misses, NoC message classes, DRAM traffic, …) produced by
//! driving the baseline (`Base-2L`) and the full D2M system (`D2M-NS-R`)
//! over it. Any change to hit/miss accounting, the coherence protocol, or
//! message generation shows up as a counter diff against the snapshot.
//!
//! To regenerate the fixtures after an *intentional* behavioural change:
//!
//! ```text
//! D2M_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! Blessing rewrites both the traces (deterministically generated from the
//! workload catalog) and the snapshots; review the diff before committing.
//!
//! The golden traces are short. At the benchmark's deep-run length the
//! generator's output is pinned by checksum instead
//! (`tests/golden/deep_trace.checksums.json`, blessed the same way).
//!
//! A mixed replay of one workload per suite pins every system, Base-3L and
//! D2M-FS/NS included: per system, its measured access count, an FNV-1a of
//! its counter JSON and its metadata footprint
//! (`tests/golden/mix_replay.checksums.json`). Re-bless it alone with
//!
//! ```text
//! D2M_BLESS=1 cargo test --test golden_trace mix_replay
//! ```
//!
//! A small observed sweep (swaptions and mix2 on all five systems) pins the
//! bytes an observed sweep writes: an FNV-1a of its `histograms_json()` and
//! of every cell's `RunObservation::to_json()`
//! (`tests/golden/observed_sweep.checksums.json`). Re-bless it alone with
//!
//! ```text
//! D2M_BLESS=1 cargo test --test golden_trace observed_sweep
//! ```

use std::path::{Path, PathBuf};

use d2m_common::json::{FromJson, Json, ToJson};
use d2m_common::stats::Counters;
use d2m_common::MachineConfig;
use d2m_sim::{run_sweep_observed_with_jobs, AnySystem, ConfigPoint, SweepSpec, SystemKind};
use d2m_workloads::trace_io::{read_trace, write_trace};
use d2m_workloads::{catalog, Access, Trace, TraceGen};

/// The committed golden cases: (name, workload, generator seed, batches).
/// Batches are small on purpose — each trace is a few thousand records.
const CASES: [(&str, &str, u64, usize); 3] = [
    ("swaptions", "swaptions", 11, 40),
    ("mix2", "mix2", 23, 40),
    ("tpc-c", "tpc-c", 37, 40),
];

/// Deep-length recordings pinned by checksum: (workload, seed, warmup
/// instructions, measured instructions) — the benchmark's deep-run runs.
const DEEP_CASES: [(&str, u64, u64, u64); 2] = [
    ("canneal", 42, 400_000, 1_200_000),
    ("tpc-c", 42, 400_000, 1_200_000),
];

/// The pinned mixed replay: one workload per suite, one generator batch of
/// each per round, warmup rounds then measured rounds on every system.
const MIX: [&str; 5] = ["swaptions", "ocean_cp", "google", "mix2", "tpc-c"];
const MIX_SEED: u64 = 42;
const MIX_WARMUP_ROUNDS: u64 = 50;
const MIX_MEASURED_ROUNDS: u64 = 200;

/// Systems snapshotted per trace: the mobile baseline and the full D2M.
const SYSTEMS: [SystemKind; 2] = [SystemKind::Base2L, SystemKind::D2mNsR];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var("D2M_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Compares `got` with the pinned object at `path` as a whole, so a missing,
/// extra or changed entry fails and is named; when blessing, rewrites the
/// file instead.
fn check_pinned(path: &Path, got: &Json) {
    if blessing() {
        let mut text = got.to_string_pretty();
        text.push('\n');
        std::fs::write(path, text).expect("write pinned checksums");
        return;
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path:?} ({e}); run D2M_BLESS=1 to create"));
    let want = Json::parse(&text).expect("valid checksum JSON");
    if *got == want {
        return;
    }
    let keys = |j: &Json| match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    let mut differing: Vec<String> = keys(&want);
    differing.extend(keys(got).into_iter().filter(|k| want.get(k).is_none()));
    differing.retain(|k| got.get(k) != want.get(k));
    panic!(
        "{path:?}: pinned entries differ for {differing:?} \
         (if intentional, re-bless with D2M_BLESS=1)"
    );
}

fn generate(workload: &str, seed: u64, batches: usize) -> Vec<Access> {
    let spec = catalog::by_name(workload).expect("catalog workload");
    let mut gen = TraceGen::new(&spec, 8, seed);
    let mut trace = Vec::new();
    for _ in 0..batches {
        gen.next_batch(&mut trace);
    }
    trace
}

/// Drives `kind` over the trace (every load checked by the value-coherence
/// oracle) and returns the final counter state.
fn drive(kind: SystemKind, trace: &[Access]) -> Counters {
    let cfg = MachineConfig::default();
    let mut sys = AnySystem::build(kind, &cfg, 1);
    for a in trace {
        sys.access(a, 0).unwrap();
    }
    assert_eq!(sys.coherence_errors(), 0, "{}", kind.name());
    sys.counters()
}

fn snapshot(trace: &[Access]) -> Json {
    Json::Obj(
        SYSTEMS
            .iter()
            .map(|&k| (k.name().to_string(), drive(k, trace).to_json()))
            .collect(),
    )
}

#[test]
fn golden_traces_match_counter_snapshots() {
    let dir = golden_dir();
    if blessing() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    for (name, workload, seed, batches) in CASES {
        let trace_path = dir.join(format!("{name}.trace"));
        let snap_path = dir.join(format!("{name}.counters.json"));
        if blessing() {
            let trace = generate(workload, seed, batches);
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).expect("encode trace");
            std::fs::write(&trace_path, &buf).expect("write trace");
            let mut text = snapshot(&trace).to_string_pretty();
            text.push('\n');
            std::fs::write(&snap_path, text).expect("write snapshot");
            eprintln!("[bless] {name}: {} records", trace.len());
            continue;
        }
        let bytes = std::fs::read(&trace_path).unwrap_or_else(|e| {
            panic!("missing golden trace {trace_path:?} ({e}); run D2M_BLESS=1 to create")
        });
        let trace = read_trace(&bytes[..]).expect("valid D2MT trace");
        let expected = Json::parse(&std::fs::read_to_string(&snap_path).unwrap_or_else(|e| {
            panic!("missing snapshot {snap_path:?} ({e}); run D2M_BLESS=1 to create")
        }))
        .expect("valid snapshot JSON");
        for kind in SYSTEMS {
            let got = drive(kind, &trace);
            let want = Counters::from_json(
                expected
                    .get(kind.name())
                    .unwrap_or_else(|| panic!("{name}: snapshot lacks {}", kind.name())),
            )
            .expect("snapshot counters decode");
            assert_eq!(
                got,
                want,
                "{name}/{}: counters diverged from golden snapshot \
                 (if intentional, re-bless with D2M_BLESS=1)",
                kind.name()
            );
        }
    }
}

#[test]
fn golden_traces_are_regenerable() {
    // The committed traces must stay reproducible from the generator, so a
    // bless run can never silently change the inputs.
    if blessing() {
        return; // the bless pass itself rewrites the traces
    }
    for (name, workload, seed, batches) in CASES {
        let path = golden_dir().join(format!("{name}.trace"));
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing {path:?} ({e}); run D2M_BLESS=1"));
        let committed = read_trace(&bytes[..]).expect("valid D2MT trace");
        assert_eq!(
            committed,
            generate(workload, seed, batches),
            "{name}: committed trace no longer matches its generator recipe"
        );
    }
}

/// What pins one recording: its phase sizes and the FNV-1a of both phases
/// in the `D2MT` encoding.
fn deep_summary(trace: &Trace) -> Json {
    let mut bytes = Vec::new();
    for phase in [trace.warmup(), trace.measured()] {
        write_trace(&mut bytes, phase).expect("encode trace");
    }
    Json::Obj(vec![
        ("warmup_insts".into(), Json::U64(trace.warmup_insts())),
        ("measured_insts".into(), Json::U64(trace.measured_insts())),
        (
            "warmup_accesses".into(),
            Json::U64(trace.warmup().len() as u64),
        ),
        (
            "measured_accesses".into(),
            Json::U64(trace.measured().len() as u64),
        ),
        ("fnv1a".into(), Json::U64(d2m_common::fnv1a_64(&bytes))),
    ])
}

#[test]
fn deep_length_traces_match_pinned_checksums() {
    let path = golden_dir().join("deep_trace.checksums.json");
    let got = Json::Obj(
        DEEP_CASES
            .iter()
            .map(|&(workload, seed, warmup, measured)| {
                let spec = catalog::by_name(workload).expect("catalog workload");
                let nodes = MachineConfig::default().nodes;
                let trace = Trace::record(&spec, nodes, seed, warmup, measured);
                (workload.to_string(), deep_summary(&trace))
            })
            .collect(),
    );
    check_pinned(&path, &got);
}

/// Replays the mix on `kind`, rounds 40 cycles apart
/// (the count restarts for the measured rounds), and summarizes the
/// measured window: access count, counter checksum and metadata footprint.
fn mix_replay(kind: SystemKind) -> Json {
    let cfg = MachineConfig::default();
    let mut sys = AnySystem::build(kind, &cfg, MIX_SEED);
    let mut gens: Vec<TraceGen> = MIX
        .iter()
        .map(|name| {
            let spec = catalog::by_name(name).expect("catalog workload");
            TraceGen::new(&spec, cfg.nodes, MIX_SEED)
        })
        .collect();
    let mut batch = Vec::new();
    let mut replay = |rounds: u64| {
        let mut accesses = 0u64;
        for round in 0..rounds {
            for gen in &mut gens {
                batch.clear();
                gen.next_batch(&mut batch);
                for a in &batch {
                    sys.access(a, 40 * round)
                        .expect("protocol error during replay");
                }
                accesses += batch.len() as u64;
            }
        }
        accesses
    };
    replay(MIX_WARMUP_ROUNDS);
    let accesses = replay(MIX_MEASURED_ROUNDS);
    let fp = sys.metadata_footprint();
    Json::Obj(vec![
        ("accesses".into(), Json::U64(accesses)),
        ("counter_checksum".into(), digest(&sys.counters().to_json())),
        (
            "metadata_footprint".into(),
            Json::Obj(vec![
                ("md1_bytes".into(), Json::U64(fp.md1_bytes)),
                ("md2_bytes".into(), Json::U64(fp.md2_bytes)),
                ("md3_bytes".into(), Json::U64(fp.md3_bytes)),
            ]),
        ),
    ])
}

#[test]
fn mix_replay_matches_pinned_checksums() {
    let got = Json::Obj(
        SystemKind::ALL
            .iter()
            .map(|&kind| (kind.name().to_string(), mix_replay(kind)))
            .collect(),
    );
    check_pinned(&golden_dir().join("mix_replay.checksums.json"), &got);
}

/// The FNV-1a of `json`'s compact text, as pinned hex.
fn digest(json: &Json) -> Json {
    let text = json.to_string_compact();
    Json::Str(format!("{:016x}", d2m_common::fnv1a_64(text.as_bytes())))
}

#[test]
fn observed_sweep_matches_pinned_checksums() {
    let spec = SweepSpec {
        name: "observed-pin".into(),
        configs: vec![ConfigPoint {
            label: "default".into(),
            config: MachineConfig::default(),
        }],
        systems: SystemKind::ALL.to_vec(),
        workloads: ["swaptions", "mix2"]
            .iter()
            .map(|name| catalog::by_name(name).expect("catalog workload"))
            .collect(),
        instructions: 20_000,
        warmup_instructions: 5_000,
        master_seed: 42,
    };
    let observed = run_sweep_observed_with_jobs(&spec, 2);
    let mut got = vec![(
        "histograms".to_string(),
        digest(&observed.histograms_json()),
    )];
    for (cell, o) in observed.result.cells.iter().zip(&observed.observations) {
        let o = o
            .as_ref()
            .unwrap_or_else(|| panic!("cell {} failed", cell.index));
        got.push((
            format!("{} {}", cell.workload, cell.system.name()),
            digest(&o.to_json()),
        ));
    }
    check_pinned(
        &golden_dir().join("observed_sweep.checksums.json"),
        &Json::Obj(got),
    );
}
