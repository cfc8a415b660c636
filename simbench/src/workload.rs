//! The three closed-batch workloads: how each is prepared, what one timed
//! pass runs, which outputs every pass must reproduce, and how passes
//! summarize into end-to-end metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use d2m_common::json::{Json, ToJson};
use d2m_common::{fnv1a_64, MachineConfig};
use d2m_sim::{
    run_one_checked, run_sweep_checkpointed, run_sweep_observed_with_jobs, run_sweep_with_jobs,
    RunConfig, SweepResult, SweepSpec, SystemKind,
};
use d2m_workloads::{catalog, WorkloadSpec};

use crate::calib::HostSpeed;
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use crate::{check_failed, stats, CheckFailed, Metric};

/// Measured instructions per `figure-matrix` cell. Cells are short, as when
/// regenerating the figures quickly, so per-cell set-up, pool scheduling and
/// trace regeneration weigh as much as simulation.
const MATRIX_INSTRUCTIONS: u64 = 40_000;
/// Warmup instructions per `figure-matrix` cell.
const MATRIX_WARMUP: u64 = 10_000;
/// `canneal` thrashes MD2/MD3; `tpc-c` has a large cold instruction
/// footprint and shared database data.
pub const DEEP_WORKLOADS: [&str; 2] = ["canneal", "tpc-c"];
/// Measured instructions per `deep-run` run: long enough that the hierarchy
/// access path dominates and per-run set-up is noise.
const DEEP_INSTRUCTIONS: u64 = 1_200_000;
/// Warmup instructions per `deep-run` run.
const DEEP_WARMUP: u64 = 400_000;
/// One workload per suite: Parsec, Splash2x, Mobile, SPEC mix, TPC-C.
const GRID_WORKLOADS: [&str; 5] = ["swaptions", "ocean_cp", "google", "mix2", "tpc-c"];
/// Measured instructions per `journaled-observed` cell.
const GRID_INSTRUCTIONS: u64 = 150_000;
/// Warmup instructions per `journaled-observed` cell.
const GRID_WARMUP: u64 = 50_000;
/// Workers for every timed sweep. On a small host shared with other load,
/// a second worker's CPU is the noisiest resource, so timed sweeps use one;
/// the sweep at every CPU runs in [`verify`] and in the traced profile.
pub const TIMED_JOBS: usize = 1;

/// The benchmark's workloads.
#[derive(Clone, Copy)]
pub enum Workload {
    /// All 45 catalog workloads × 5 systems as one short-cell sweep.
    FigureMatrix,
    /// Long single-thread runs of [`DEEP_WORKLOADS`] on every system.
    DeepRun,
    /// Resume a half-full checkpoint journal, then an observed sweep, of a
    /// small one-per-suite grid.
    JournaledObserved,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FigureMatrix,
        Workload::DeepRun,
        Workload::JournaledObserved,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigureMatrix => "figure-matrix",
            Workload::DeepRun => "deep-run",
            Workload::JournaledObserved => "journaled-observed",
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. A fixed count,
    /// so the allocator sees the same history, and peak RSS is the same,
    /// on every run; about a second of set-up for the short ones.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::FigureMatrix | Workload::DeepRun => 21,
            Workload::JournaledObserved => 5,
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// A catalog workload by name.
pub fn by_name(name: &str) -> Result<WorkloadSpec, CheckFailed> {
    catalog::by_name(name).map_err(|e| check_failed("catalog", e))
}

/// The `figure-matrix` grid: every catalog workload on every system.
pub fn matrix_spec(seed: u64) -> Result<SweepSpec, CheckFailed> {
    let workloads = catalog::all().map_err(|e| check_failed("catalog", e))?;
    let rc = RunConfig {
        instructions: MATRIX_INSTRUCTIONS,
        warmup_instructions: MATRIX_WARMUP,
        seed,
    };
    Ok(SweepSpec::single(
        "figure-matrix",
        &MachineConfig::default(),
        &SystemKind::ALL,
        &workloads,
        &rc,
    ))
}

/// The `journaled-observed` grid: one workload per suite on every system.
pub fn grid_spec(seed: u64) -> Result<SweepSpec, CheckFailed> {
    let workloads = GRID_WORKLOADS
        .into_iter()
        .map(by_name)
        .collect::<Result<Vec<_>, _>>()?;
    let rc = RunConfig {
        instructions: GRID_INSTRUCTIONS,
        warmup_instructions: GRID_WARMUP,
        seed,
    };
    Ok(SweepSpec::single(
        "journaled-observed",
        &MachineConfig::default(),
        &SystemKind::ALL,
        &workloads,
        &rc,
    ))
}

/// The run length of every `deep-run` run.
pub fn deep_rc(seed: u64) -> RunConfig {
    RunConfig {
        instructions: DEEP_INSTRUCTIONS,
        warmup_instructions: DEEP_WARMUP,
        seed,
    }
}

/// Where journals and span files go: `simbench-work` under Cargo's target
/// directory, inside the checkout the benchmark runs from.
pub fn work_dir() -> Result<PathBuf, CheckFailed> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    let dir = target.join("simbench-work");
    std::fs::create_dir_all(&dir)
        .map_err(|e| check_failed("work_dir", format!("{}: {e}", dir.display())))?;
    Ok(dir)
}

/// A journal file in the work directory, removed when dropped.
pub struct TempFile(pub PathBuf);

impl TempFile {
    /// A fresh, unused journal path.
    pub fn new(stem: &str) -> Result<Self, CheckFailed> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("{stem}-{}-{n}.ckpt", std::process::id());
        Ok(Self(work_dir()?.join(name)))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Fails with `failed_cell` if any cell of `res` failed.
pub fn no_failures(res: &SweepResult) -> Result<(), CheckFailed> {
    let failures = res.failures();
    match failures.first() {
        None => Ok(()),
        Some(c) => Err(check_failed(
            "failed_cell",
            format!(
                "{} of {} cells failed; first: cell {} {}/{}: {}",
                failures.len(),
                res.cells.len(),
                c.index,
                c.system.name(),
                c.workload,
                c.error.as_deref().unwrap_or("no error recorded")
            ),
        )),
    }
}

/// Fails with `check` unless two renderings of one result are identical.
pub fn same(check: &'static str, expected: &str, got: &str) -> Result<(), CheckFailed> {
    if expected == got {
        Ok(())
    } else {
        Err(check_failed(
            check,
            "the sweep JSON differs from the reference sweep's",
        ))
    }
}

/// A journal as a kill halfway through would leave it: the header plus the
/// lines of cells `0..cells / 2`. Lines are in completion order, so they
/// are picked by their cell index.
pub fn half_journal(text: &str, cells: usize) -> Result<String, CheckFailed> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| check_failed("journal_io", "empty journal"))?;
    let mut out = format!("{header}\n");
    for line in lines {
        let index = Json::parse(line)
            .ok()
            .and_then(|j| j.get("index").and_then(Json::as_u64))
            .ok_or_else(|| check_failed("journal_io", format!("bad journal line {line:?}")))?;
        if (index as usize) < cells / 2 {
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// A workload ready for timed passes.
pub enum Prepared {
    /// `figure-matrix`.
    Matrix(SweepSpec),
    /// `deep-run`: every `(system, workload)` run, in order.
    Deep {
        cfg: MachineConfig,
        runs: Vec<(SystemKind, WorkloadSpec)>,
        rc: RunConfig,
    },
    /// `journaled-observed`.
    Journal {
        spec: SweepSpec,
        /// The plain sweep's JSON, which resumed and observed sweeps must
        /// reproduce byte for byte.
        reference: String,
        /// The half-full journal each pass resumes from.
        half: String,
        journal: TempFile,
    },
}

/// Everything before the timed region: grids, a warm-up run per system so
/// lazy set-up is done, and for `journaled-observed` the reference sweep
/// and the half-full journal.
pub fn prepare(w: Workload, seed: u64) -> Result<Prepared, CheckFailed> {
    let cfg = MachineConfig::default();
    let failed_cell = |e| check_failed("failed_cell", e);
    match w {
        Workload::FigureMatrix => {
            let spec = matrix_spec(seed)?;
            for &kind in &spec.systems {
                run_one_checked(kind, &cfg, &spec.workloads[0], &spec.cell_run_config(0))
                    .map_err(failed_cell)?;
            }
            Ok(Prepared::Matrix(spec))
        }
        Workload::DeepRun => {
            let mut runs = Vec::new();
            for name in DEEP_WORKLOADS {
                let spec = by_name(name)?;
                runs.extend(SystemKind::ALL.map(|kind| (kind, spec.clone())));
            }
            let warm = RunConfig {
                instructions: MATRIX_INSTRUCTIONS,
                warmup_instructions: MATRIX_WARMUP,
                seed,
            };
            for &(kind, ref spec) in &runs[..SystemKind::ALL.len()] {
                run_one_checked(kind, &cfg, spec, &warm).map_err(failed_cell)?;
            }
            Ok(Prepared::Deep {
                cfg,
                runs,
                rc: deep_rc(seed),
            })
        }
        Workload::JournaledObserved => {
            let spec = grid_spec(seed)?;
            let reference = run_sweep_with_jobs(&spec, TIMED_JOBS);
            no_failures(&reference)?;
            let reference = reference.to_json_string();
            let journal = TempFile::new("journaled-observed")?;
            let full = run_sweep_checkpointed(&spec, TIMED_JOBS, &journal.0, false)
                .map_err(|e| check_failed("journal_io", e))?;
            same("journal_mismatch", &reference, &full.to_json_string())?;
            let text =
                std::fs::read_to_string(&journal.0).map_err(|e| check_failed("journal_io", e))?;
            let half = half_journal(&text, spec.num_cells())?;
            Ok(Prepared::Journal {
                spec,
                reference,
                half,
                journal,
            })
        }
    }
}

/// One timed pass of a workload.
pub struct Pass {
    /// Process CPU seconds of each timed part: the sweep
    /// (`figure-matrix`), each run (`deep-run`), or resume then observe
    /// (`journaled-observed`).
    pub secs: Vec<f64>,
    /// Wall seconds of each part.
    pub wall: Vec<f64>,
    /// Simulated instructions, warmup plus measured, of each part.
    pub insts: Vec<f64>,
    /// Digest of every output of the pass; equal across passes.
    pub digest: u64,
    /// Cells or runs the pass attempted.
    pub cells: u64,
}

/// Simulated instructions of the cells of `res` from index `from` on.
fn sweep_insts(spec: &SweepSpec, res: &SweepResult, from: usize) -> f64 {
    res.cells[from..]
        .iter()
        .map(|c| (c.metrics.instructions + spec.warmup_instructions) as f64)
        .sum()
}

/// Runs one pass, with a span around each call into the simulator.
pub fn pass(prep: &Prepared, tr: &mut Tracer) -> Result<Pass, CheckFailed> {
    let outer = tr.begin("bench", "pass");
    let pass = match prep {
        Prepared::Matrix(spec) => {
            let n = spec.num_cells() as u64;
            let span = tr.begin("sim.sweep", "run_sweep_with_jobs");
            let t = Stopwatch::start();
            let res = run_sweep_with_jobs(spec, TIMED_JOBS);
            let (wall, secs) = t.elapsed();
            tr.end(span, n);
            no_failures(&res)?;
            Pass {
                secs: vec![secs],
                wall: vec![wall],
                insts: vec![sweep_insts(spec, &res, 0)],
                digest: fnv1a_64(res.to_json_string().as_bytes()),
                cells: n,
            }
        }
        Prepared::Deep { cfg, runs, rc } => {
            let (mut secs, mut wall, mut insts) = (Vec::new(), Vec::new(), Vec::new());
            let mut outputs = String::new();
            for (kind, spec) in runs {
                let span = tr.begin("sim.runner", "run_one_checked");
                let t = Stopwatch::start();
                let m = run_one_checked(*kind, cfg, spec, rc)
                    .map_err(|e| check_failed("failed_cell", e))?;
                let (w, s) = t.elapsed();
                secs.push(s);
                wall.push(w);
                tr.end(span, 1);
                insts.push((m.instructions + rc.warmup_instructions) as f64);
                outputs.push_str(&m.to_json().to_string_compact());
            }
            Pass {
                secs,
                wall,
                insts,
                digest: fnv1a_64(outputs.as_bytes()),
                cells: runs.len() as u64,
            }
        }
        Prepared::Journal {
            spec,
            reference,
            half,
            journal,
        } => {
            let n = spec.num_cells();
            std::fs::write(&journal.0, half).map_err(|e| check_failed("journal_io", e))?;
            let span = tr.begin("sim.checkpoint", "run_sweep_checkpointed");
            let t = Stopwatch::start();
            let resumed = run_sweep_checkpointed(spec, TIMED_JOBS, &journal.0, true)
                .map_err(|e| check_failed("journal_io", e))?;
            let (resume_wall, resume_s) = t.elapsed();
            tr.end(span, (n - n / 2) as u64);
            no_failures(&resumed)?;
            same("resume_mismatch", reference, &resumed.to_json_string())?;

            let span = tr.begin("sim.sweep", "run_sweep_observed_with_jobs");
            let t = Stopwatch::start();
            let observed = run_sweep_observed_with_jobs(spec, TIMED_JOBS);
            let (observe_wall, observe_s) = t.elapsed();
            tr.end(span, n as u64);
            no_failures(&observed.result)?;
            same(
                "observed_mismatch",
                reference,
                &observed.result.to_json_string(),
            )?;
            let traffic: u64 = observed
                .observations
                .iter()
                .flatten()
                .map(|o| o.traffic.total())
                .sum();
            let outputs = format!(
                "{}{traffic}",
                observed.histograms_json().to_string_compact()
            );
            Pass {
                secs: vec![resume_s, observe_s],
                wall: vec![resume_wall, observe_wall],
                insts: vec![
                    sweep_insts(spec, &resumed, n / 2),
                    sweep_insts(spec, &observed.result, 0),
                ],
                digest: fnv1a_64(outputs.as_bytes()),
                cells: (n - n / 2 + n) as u64,
            }
        }
    };
    tr.end(outer, pass.cells);
    Ok(pass)
}

/// Repeats passes until `seconds` have passed, at least one, timing the
/// host's speed before each pass and after the last.
pub fn run_for(
    prep: &Prepared,
    seconds: f64,
    host: &mut HostSpeed,
    tr: &mut Tracer,
) -> Result<Vec<Pass>, CheckFailed> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        host.sample();
        passes.push(pass(prep, tr)?);
    }
    host.sample();
    Ok(passes)
}

/// Fails with `check` unless every pass produced the same outputs.
pub fn same_digests<'a>(
    check: &'static str,
    passes: impl IntoIterator<Item = &'a Pass>,
) -> Result<(), CheckFailed> {
    let mut digests = passes.into_iter().map(|p| p.digest).enumerate();
    let Some((_, first)) = digests.next() else {
        return Ok(());
    };
    match digests.find(|&(_, d)| d != first) {
        None => Ok(()),
        Some((i, _)) => Err(check_failed(
            check,
            format!("pass {i} produced different outputs than pass 0"),
        )),
    }
}

/// The checks that span passes: every pass reproduced the first, and the
/// matrix at `jobs` workers matches the timed one-worker matrix.
pub fn verify(prep: &Prepared, passes: &[Pass], jobs: usize) -> Result<(), CheckFailed> {
    same_digests("pass_mismatch", passes)?;
    if let (Prepared::Matrix(spec), Some(first)) = (prep, passes.first()) {
        if jobs > TIMED_JOBS {
            let many = run_sweep_with_jobs(spec, jobs);
            no_failures(&many)?;
            if fnv1a_64(many.to_json_string().as_bytes()) != first.digest {
                return Err(check_failed(
                    "jobs_mismatch",
                    format!("the figure-matrix JSON at 1 job differs from {jobs} jobs"),
                ));
            }
        }
    }
    Ok(())
}

/// End-to-end numbers of a set of passes.
pub struct Summary {
    /// Simulated instructions per CPU second at reference host speed, in
    /// millions.
    pub sim_minst_per_s: f64,
    /// The same over wall seconds as measured, unscaled.
    pub wall_minst_per_s: f64,
    /// The workload's own metrics (`d2m_minst_per_s`, `resume_s`, ...).
    pub extras: Vec<Metric>,
}

/// Million simulated instructions per second.
fn minst_per_s(insts: f64, secs: f64) -> f64 {
    insts / secs.max(f64::MIN_POSITIVE) / 1e6
}

/// Rates divide all simulated instructions by all timed CPU seconds, so a
/// slow stretch of the host weighs by its length; `resume_s` and
/// `observe_s` are medians over passes. Every time is scaled to reference
/// host speed by `factor` ([`HostSpeed::factor`]).
pub fn summarize(prep: &Prepared, passes: &[Pass], factor: f64) -> Summary {
    let part = |i: usize| {
        passes
            .iter()
            .map(|p| p.secs[i] * factor)
            .collect::<Vec<_>>()
    };
    let total = |v: fn(&Pass) -> &Vec<f64>| passes.iter().flat_map(v).sum::<f64>();
    let insts = total(|p| &p.insts);
    let overall = minst_per_s(insts, total(|p| &p.secs) * factor);
    let wall_minst_per_s = minst_per_s(insts, total(|p| &p.wall));
    match prep {
        Prepared::Matrix(_) => Summary {
            sim_minst_per_s: overall,
            wall_minst_per_s,
            extras: Vec::new(),
        },
        Prepared::Deep { runs, .. } => {
            let secs: Vec<f64> = (0..runs.len())
                .map(|i| part(i).iter().sum::<f64>() / passes.len() as f64)
                .collect();
            let insts = &passes[0].insts;
            let rate = |keep: &dyn Fn(SystemKind) -> bool| {
                let pick = |v: &[f64]| -> f64 {
                    runs.iter()
                        .zip(v)
                        .filter(|((kind, _), _)| keep(*kind))
                        .map(|(_, x)| x)
                        .sum()
                };
                minst_per_s(pick(insts), pick(&secs))
            };
            Summary {
                sim_minst_per_s: rate(&|_| true),
                wall_minst_per_s,
                extras: vec![
                    Metric::new("d2m_minst_per_s", rate(&SystemKind::is_d2m), "Minst/s"),
                    Metric::new("base_minst_per_s", rate(&|k| !k.is_d2m()), "Minst/s"),
                ],
            }
        }
        Prepared::Journal { .. } => Summary {
            sim_minst_per_s: overall,
            wall_minst_per_s,
            extras: vec![
                Metric::new("resume_s", stats::median(&part(0)), "s"),
                Metric::new("observe_s", stats::median(&part(1)), "s"),
            ],
        },
    }
}
