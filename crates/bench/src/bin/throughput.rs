//! Simulator throughput baseline: replays a fixed mixed workload on every
//! system and records `BENCH_throughput.json`, so each PR leaves a perf
//! trajectory behind (accesses/sec, heap allocations, the simulator-resident
//! metadata footprint, and a per-system counter checksum proving the replay
//! itself is deterministic).
//!
//! The binary installs a counting global allocator. Two allocation views are
//! recorded per system: `allocs`/`alloc_bytes` cover the system's whole
//! lifetime (build + warmup + measure) — this is where the packed-metadata
//! layout shows up as fewer resident bytes — while `steady_allocs`/
//! `steady_alloc_bytes` cover only the measured window, the hot-path
//! allocation budget that must stay flat with the access count.
//!
//! `--smoke` shrinks the replay for CI and writes
//! `BENCH_throughput.smoke.json` instead, so the committed smoke snapshot
//! and the full snapshot never overwrite each other.
//!
//! `throughput compare <before.json> <after.json>` diffs two snapshots:
//! throughput and allocation deltas are informational (they move with the
//! machine), but any per-system `counter_checksum` or `accesses` mismatch —
//! simulation behavior changing — fails with a nonzero exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use d2m_common::json::Json;
use d2m_common::{fnv1a_64, ToJson};
use d2m_sim::{AnySystem, SystemKind};
use d2m_workloads::{catalog, TraceGen};

/// System allocator wrapper counting every allocation on every thread.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One workload per suite: a fixed mix exercising private, shared, scan and
/// multiprogrammed behavior on every hierarchy.
const MIX: [&str; 5] = ["swaptions", "ocean_cp", "google", "mix2", "tpc-c"];

const SEED: u64 = 42;
const OUT_FULL: &str = "BENCH_throughput.json";
const OUT_SMOKE: &str = "BENCH_throughput.smoke.json";

/// FNV-1a over the deterministic counter JSON: a compact fingerprint that
/// changes iff any simulation counter changes.
fn checksum(json: &Json) -> String {
    format!("{:016x}", fnv1a_64(json.to_string_compact().as_bytes()))
}

struct SystemRun {
    system: &'static str,
    accesses: u64,
    allocs: u64,
    alloc_bytes: u64,
    steady_allocs: u64,
    steady_alloc_bytes: u64,
    md_bytes: [u64; 3],
    counter_checksum: String,
    wall_secs: f64,
}

/// Replays the whole mix on one system; the measured window starts after a
/// short warmup so steady-state hot-path allocation is what gets counted,
/// while the lifetime counters also include build + warmup (resident
/// structures, dominated by the metadata arrays).
fn run_system(kind: SystemKind, warmup_batches: u64, batches: u64) -> SystemRun {
    let cfg = d2m_bench::machine();
    let life_allocs0 = ALLOCS.load(Ordering::Relaxed);
    let life_bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let mut sys = AnySystem::build(kind, &cfg, SEED);
    let mut batch = Vec::new();
    let mut accesses = 0u64;
    let mut gens: Vec<TraceGen> = MIX
        .iter()
        .map(|name| {
            let spec = catalog::by_name(name).expect("mix workload exists");
            TraceGen::new(&spec, cfg.nodes, SEED)
        })
        .collect();

    let mut replay = |sys: &mut AnySystem, gens: &mut [TraceGen], n: u64, count: &mut u64| {
        for i in 0..n {
            for g in gens.iter_mut() {
                batch.clear();
                g.next_batch(&mut batch);
                let now = i * 40;
                for a in &batch {
                    sys.access(a, now).expect("protocol error during replay");
                }
                *count += batch.len() as u64;
            }
        }
    };

    let mut sink = 0u64;
    replay(&mut sys, &mut gens, warmup_batches, &mut sink);

    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    replay(&mut sys, &mut gens, batches, &mut accesses);
    let wall_secs = t0.elapsed().as_secs_f64();
    let steady_allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let steady_alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;
    let allocs = ALLOCS.load(Ordering::Relaxed) - life_allocs0;
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - life_bytes0;
    let fp = sys.metadata_footprint();

    SystemRun {
        system: kind.name(),
        accesses,
        allocs,
        alloc_bytes,
        steady_allocs,
        steady_alloc_bytes,
        md_bytes: [fp.md1_bytes, fp.md2_bytes, fp.md3_bytes],
        counter_checksum: checksum(&sys.counters().to_json()),
        wall_secs,
    }
}

fn run_bench(smoke: bool) {
    let (warmup_batches, batches) = if smoke { (50, 200) } else { (2_000, 30_000) };
    let out = if smoke { OUT_SMOKE } else { OUT_FULL };
    println!(
        "== throughput — {} batches/workload ({} warmup) × {} workloads × {} systems{} ==",
        batches,
        warmup_batches,
        MIX.len(),
        SystemKind::ALL.len(),
        if smoke { "  [--smoke]" } else { "" }
    );

    let runs: Vec<SystemRun> = SystemKind::ALL
        .iter()
        .map(|k| {
            let r = run_system(*k, warmup_batches, batches);
            println!(
                "{:<10} {:>10} accesses  {:>12.0} acc/s  {:>9} allocs  checksum {}",
                r.system,
                r.accesses,
                r.accesses as f64 / r.wall_secs.max(1e-9),
                r.allocs,
                r.counter_checksum
            );
            r
        })
        .collect();

    let total_accesses: u64 = runs.iter().map(|r| r.accesses).sum();
    let total_allocs: u64 = runs.iter().map(|r| r.allocs).sum();
    let total_wall: f64 = runs.iter().map(|r| r.wall_secs).sum();

    let systems = runs
        .iter()
        .map(|r| {
            let [md1, md2, md3] = r.md_bytes;
            Json::Obj(vec![
                ("system".to_string(), Json::Str(r.system.to_string())),
                ("accesses".to_string(), Json::U64(r.accesses)),
                ("allocs".to_string(), Json::U64(r.allocs)),
                ("alloc_bytes".to_string(), Json::U64(r.alloc_bytes)),
                ("steady_allocs".to_string(), Json::U64(r.steady_allocs)),
                (
                    "steady_alloc_bytes".to_string(),
                    Json::U64(r.steady_alloc_bytes),
                ),
                (
                    "metadata_footprint".to_string(),
                    Json::Obj(vec![
                        ("md1_bytes".to_string(), Json::U64(md1)),
                        ("md2_bytes".to_string(), Json::U64(md2)),
                        ("md3_bytes".to_string(), Json::U64(md3)),
                        ("total_bytes".to_string(), Json::U64(md1 + md2 + md3)),
                    ]),
                ),
                (
                    "counter_checksum".to_string(),
                    Json::Str(r.counter_checksum.clone()),
                ),
                ("wall_secs".to_string(), Json::F64(r.wall_secs)),
                (
                    "accesses_per_sec".to_string(),
                    Json::F64(r.accesses as f64 / r.wall_secs.max(1e-9)),
                ),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("name".to_string(), Json::Str("throughput".to_string())),
        (
            "mode".to_string(),
            Json::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("seed".to_string(), Json::U64(SEED)),
        ("warmup_batches".to_string(), Json::U64(warmup_batches)),
        ("batches_per_workload".to_string(), Json::U64(batches)),
        (
            "workloads".to_string(),
            Json::Arr(MIX.iter().map(|w| Json::Str(w.to_string())).collect()),
        ),
        ("systems".to_string(), Json::Arr(systems)),
        (
            "total".to_string(),
            Json::Obj(vec![
                ("accesses".to_string(), Json::U64(total_accesses)),
                ("allocs".to_string(), Json::U64(total_allocs)),
                ("wall_secs".to_string(), Json::F64(total_wall)),
                (
                    "accesses_per_sec".to_string(),
                    Json::F64(total_accesses as f64 / total_wall.max(1e-9)),
                ),
            ]),
        ),
    ]);

    let text = doc.to_string_pretty();
    std::fs::write(out, &text).unwrap_or_else(|e| panic!("write {out}: {e}"));

    // Self-validate: the emitted file must parse and carry the schema keys
    // CI (and cross-PR comparisons) rely on.
    let back = Json::parse(&text).expect("emitted JSON reparses");
    for key in [
        "name",
        "mode",
        "seed",
        "warmup_batches",
        "batches_per_workload",
        "workloads",
        "systems",
        "total",
    ] {
        assert!(back.get(key).is_some(), "missing key {key:?} in {out}");
    }
    let systems = back.get("systems").and_then(Json::as_array).expect("array");
    assert_eq!(systems.len(), SystemKind::ALL.len());
    for s in systems {
        for key in [
            "system",
            "accesses",
            "allocs",
            "alloc_bytes",
            "steady_allocs",
            "steady_alloc_bytes",
            "metadata_footprint",
            "counter_checksum",
            "wall_secs",
            "accesses_per_sec",
        ] {
            assert!(s.get(key).is_some(), "missing per-system key {key:?}");
        }
    }

    println!(
        "\ntotal: {} accesses in {:.2}s  ({:.0} accesses/sec, {} allocs)  -> {out}",
        total_accesses,
        total_wall,
        total_accesses as f64 / total_wall.max(1e-9),
        total_allocs
    );
}

/// Loads a snapshot and flattens its per-system records to
/// `(name, accesses, checksum, acc/s, alloc_bytes)` rows.
fn load_snapshot(path: &str) -> Result<(Json, Vec<SnapshotRow>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let systems = doc
        .get("systems")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: missing \"systems\" array"))?;
    let mut rows = Vec::new();
    for s in systems {
        let field = |key: &str| {
            s.get(key)
                .ok_or_else(|| format!("{path}: system record missing {key:?}"))
        };
        rows.push(SnapshotRow {
            system: field("system")?.as_str().unwrap_or_default().to_string(),
            accesses: field("accesses")?.as_u64().unwrap_or_default(),
            checksum: field("counter_checksum")?
                .as_str()
                .unwrap_or_default()
                .to_string(),
            acc_per_sec: field("accesses_per_sec")?.as_f64().unwrap_or_default(),
            alloc_bytes: field("alloc_bytes")?.as_u64().unwrap_or_default(),
        });
    }
    Ok((doc, rows))
}

struct SnapshotRow {
    system: String,
    accesses: u64,
    checksum: String,
    acc_per_sec: f64,
    alloc_bytes: u64,
}

/// `throughput compare <before.json> <after.json>`: throughput/allocation
/// deltas are informational; checksum or access-count drift is an error.
fn run_compare(before_path: &str, after_path: &str) -> ExitCode {
    let (before_doc, before) = match load_snapshot(before_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let (after_doc, after) = match load_snapshot(after_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };

    let mode = |d: &Json| {
        d.get("mode")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let (mode_b, mode_a) = (mode(&before_doc), mode(&after_doc));
    println!("== compare {before_path} ({mode_b}) -> {after_path} ({mode_a}) ==");
    if mode_b != mode_a {
        println!("warning: comparing different modes ({mode_b} vs {mode_a})");
    }

    let mut mismatches = 0usize;
    println!(
        "{:<10} {:>14} {:>14} {:>8}   {:>13} {:>8}   checksum",
        "system", "acc/s before", "acc/s after", "Δ", "alloc_bytes", "Δ"
    );
    for b in &before {
        let Some(a) = after.iter().find(|a| a.system == b.system) else {
            println!("{:<10} missing from {after_path}", b.system);
            mismatches += 1;
            continue;
        };
        let dv = (a.acc_per_sec / b.acc_per_sec.max(1e-9) - 1.0) * 100.0;
        let db = a.alloc_bytes as i128 - b.alloc_bytes as i128;
        let ck = if a.checksum == b.checksum && a.accesses == b.accesses {
            "identical"
        } else {
            mismatches += 1;
            "MISMATCH"
        };
        println!(
            "{:<10} {:>14.0} {:>14.0} {:>+7.1}%   {:>13} {:>+8}   {}",
            b.system, b.acc_per_sec, a.acc_per_sec, dv, a.alloc_bytes, db, ck
        );
    }
    for a in &after {
        if !before.iter().any(|b| b.system == a.system) {
            println!("{:<10} missing from {before_path}", a.system);
            mismatches += 1;
        }
    }

    if mismatches > 0 {
        println!(
            "\n{mismatches} system(s) diverged: counters or access streams changed, \
             not just machine speed"
        );
        ExitCode::FAILURE
    } else {
        println!("\nall {} system checksums identical", before.len());
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, before, after] = args.as_slice() else {
            eprintln!("usage: throughput compare <before.json> <after.json>");
            return ExitCode::from(2);
        };
        return run_compare(before, after);
    }
    run_bench(args.iter().any(|a| a == "--smoke"));
    ExitCode::SUCCESS
}
