//! Layered benchmark of the D2M simulator.
//!
//! ```text
//! simbench --workload <figure-matrix|deep-run|journaled-observed>
//!          [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`, the default), it prepares one closed-batch
//! workload, repeats it against the simulator's public API for `--seconds`,
//! checks the outputs and prints every end-to-end metric by name and unit.
//! Traced (`--trace 1`), it runs the same workload with spans off and on,
//! then the per-layer profile of [`layers`], and writes the spans to the work
//! directory. The last line of standard output is one JSON object; a failed
//! correctness check prints a named error and exits nonzero instead. See
//! `README.md` for the workloads and the metric table.

mod alloc;
mod calib;
mod clock;
mod layers;
mod stats;
mod trace;
mod workload;

use std::fmt;
use std::process::ExitCode;
use std::time::Instant;

use d2m_common::json::Json;

use calib::HostSpeed;
use clock::Stopwatch;
use trace::Tracer;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: simbench --workload <figure-matrix|deep-run|journaled-observed> \
                     [--seed N] [--seconds N] [--trace 0|1]";


/// A correctness check that failed, named so a failing run says which.
#[derive(Debug)]
pub struct CheckFailed {
    /// Stable check name (`failed_cell`, `jobs_mismatch`, ...).
    pub check: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for CheckFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "check {} failed: {}", self.check, self.detail)
    }
}

/// Builds a [`CheckFailed`].
pub fn check_failed(check: &'static str, detail: impl fmt::Display) -> CheckFailed {
    CheckFailed {
        check,
        detail: detail.to_string(),
    }
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value)?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| "--workload is required".to_string())?,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// What a run prints: `metrics` go into the result line, `notes` are
/// printed beside them only.
struct Report {
    attempted: u64,
    metrics: Vec<Metric>,
    notes: Vec<Metric>,
}

/// Host memory high-water mark of this process, less `exclude_bytes` held
/// resident for the whole run by the benchmark itself.
fn peak_rss_mb(exclude_bytes: usize) -> Result<f64, CheckFailed> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| check_failed("peak_rss", e))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| (kb * 1024.0 - exclude_bytes as f64) / (1024.0 * 1024.0))
        .ok_or_else(|| check_failed("peak_rss", "no VmHWM line in the process status"))
}

fn untraced(args: &Args, jobs: usize) -> Result<Report, CheckFailed> {
    let mut host = HostSpeed::new();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..args.workload.setup_reps() {
        drop(prepared.take());
        host.sample();
        let t = Stopwatch::start();
        prepared = Some(workload::prepare(args.workload, args.seed)?);
        setup_s.push(t.elapsed().1);
    }
    // Set-up and the passes are each scaled by the host's speed while they
    // ran.
    let setup_factor = host.factor();
    host.clear();
    let prep = prepared.expect("every workload sets up at least once");
    let passes = workload::run_for(&prep, args.seconds, &mut host, &mut Tracer::new(false))?;
    workload::verify(&prep, &passes, jobs)?;
    let factor = host.factor();
    let summary = workload::summarize(&prep, &passes, factor);
    let mut notes = summary.extras;
    // Any failed cell or run has already stopped the run with the
    // `failed_cell` check, so a finished run failed none.
    notes.push(Metric::new("error_rate", 0.0, "ratio"));
    notes.push(Metric::new(
        "wall_minst_per_s",
        summary.wall_minst_per_s,
        "Minst/s",
    ));
    notes.push(Metric::new("host.speed_factor", factor, "ratio"));
    Ok(Report {
        attempted: passes.iter().map(|p| p.cells).sum(),
        metrics: vec![
            Metric::new("sim_minst_per_s", summary.sim_minst_per_s, "Minst/s"),
            Metric::new("setup_s", stats::median(&setup_s) * setup_factor, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(host.bytes())?, "MB"),
        ],
        notes,
    })
}

fn traced(args: &Args, jobs: usize) -> Result<Report, CheckFailed> {
    let prep = workload::prepare(args.workload, args.seed)?;
    let mut host = HostSpeed::new();
    let mut tracer = Tracer::new(true);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        host.sample();
        tracer.set_enabled(false);
        plain.push(workload::pass(&prep, &mut tracer)?);
        tracer.set_enabled(true);
        spanned.push(workload::pass(&prep, &mut tracer)?);
    }
    host.sample();
    workload::same_digests("checksum_mismatch", plain.iter().chain(&spanned))?;
    let factor = host.factor();
    let untraced_rate = workload::summarize(&prep, &plain, factor).sim_minst_per_s;
    let traced_rate = workload::summarize(&prep, &spanned, factor).sim_minst_per_s;

    let profile = layers::profile(args.seed, jobs, &mut tracer)?;
    let mut metrics = profile.metrics;
    metrics.push(Metric::new("trace.sim_minst_per_s", traced_rate, "Minst/s"));
    metrics.push(Metric::new(
        "trace.overhead_minst_per_s",
        traced_rate - untraced_rate,
        "Minst/s",
    ));

    for l in tracer.layers() {
        println!(
            "span layer {:<16} {:>6} spans  total {:>10.3} ms  self {:>10.3} ms",
            l.layer,
            l.spans,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }
    let path = workload::work_dir()?.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write(
            &path,
            vec![
                ("workload", Json::Str(args.workload.name().to_string())),
                ("seed", Json::U64(args.seed)),
                ("jobs", Json::U64(jobs as u64)),
            ],
        )
        .map_err(|e| check_failed("spans_io", format!("{}: {e}", path.display())))?;
    eprintln!("simbench: spans written to {}", path.display());
    Ok(Report {
        attempted: plain.iter().chain(&spanned).map(|p| p.cells).sum::<u64>() + profile.attempted,
        metrics,
        notes: vec![Metric::new("peak_rss_mb", peak_rss_mb(host.bytes())?, "MB")],
    })
}

fn print_report(r: &Report) {
    for m in r.metrics.iter().chain(&r.notes) {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj(vec![
                    ("value", Json::F64(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(0)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_string_compact());
}

fn main() -> ExitCode {
    alloc::single_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // All load comes from this process, on at most one worker per CPU.
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "simbench: {} seed {} for {}s, trace {}, {jobs} jobs",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced(&args, jobs)
    } else {
        untraced(&args, jobs)
    };
    match report {
        Ok(r) => {
            print_report(&r);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
