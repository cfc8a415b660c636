//! Parallel deterministic sweep engine.
//!
//! A [`SweepSpec`] declares a grid of *cells* — the cartesian product of
//! machine configurations, systems and workloads — plus the run length and a
//! single master seed. [`run_sweep_with_jobs`] fans the cells over a
//! work-stealing worker pool (one `std::thread` per job slot; [`default_jobs`]
//! gives the machine's parallelism, which the `D2M_JOBS` environment
//! variable overrides) and aggregates the per-cell [`RunMetrics`] into a
//! [`SweepResult`] whose cells appear in **cell-index order**, independent of
//! which worker finished first.
//!
//! # Determinism
//!
//! The engine's contract is *bit-identical results regardless of thread
//! count or scheduling*:
//!
//! * Every cell derives its own RNG seed with
//!   [`derive_stream_seed`]`(master_seed, stream_index)` — a pure function of
//!   the spec, never of execution order. The stream index covers the
//!   `(config, workload)` axes only: all systems simulating one workload see
//!   the **same trace**, which is what makes paired metrics such as
//!   [`RunMetrics::speedup_vs`] meaningful.
//! * Each cell builds its own system from the cell seed. The access stream
//!   is shared: the first cell of a `(config, workload)` group to run
//!   records the group's trace once ([`Trace::record`], the same batch loop
//!   a streaming [`run_one_checked`](crate::run_one_checked) drives) and
//!   every system cell of the group replays it. A trace is a pure function
//!   of the spec and the group, so which worker records it cannot change a
//!   result.
//! * [`SweepResult::to_json`] is rendered with the workspace's deterministic
//!   JSON ([`d2m_common::json`]) and deliberately **excludes** wall-clock
//!   time and the job count, so a 1-thread run and an N-thread run of the
//!   same spec serialize to byte-identical text. The root-level
//!   `tests/sweep_determinism.rs` test pins this property.
//!
//! # Fault tolerance
//!
//! A grid of 45 workloads × 5 systems × several configs is hours of
//! wall-clock; one bad cell must never cost the other N−1:
//!
//! * **Panic isolation** — every cell runs under
//!   [`std::panic::catch_unwind`]. A panicking cell (an invalid machine
//!   config, a simulator bug, an injected fault) yields a failed
//!   [`CellResult`] with the panic message in [`CellResult::error`]; the
//!   pool, and every other cell, keeps running. A failed cell is not
//!   retried: the simulator is deterministic, so it would fail the same way
//!   again.
//! * **Checkpoint / resume** — [`crate::checkpoint`] journals each
//!   completed cell to an append-only fsync'd file, so a killed sweep
//!   resumes without recomputing finished cells and still produces
//!   byte-identical JSON.
//! * **Fault injection** — the recovery paths are provoked on demand via
//!   [`d2m_common::faultpoint`] (`D2M_FAULT=cell:17:panic`, …); the `cell`
//!   fault point fires once per cell with the cell index as its key and the
//!   sweep name as its scope.
//!
//! The plain, observed and checkpointed sweeps ([`run_sweep_with_jobs`],
//! [`run_sweep_observed_with_jobs`],
//! [`run_sweep_checkpointed`](crate::run_sweep_checkpointed)) are thin
//! wrappers over one private driver, so they isolate, share traces and
//! assemble results the same way.

use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use d2m_common::config::MachineConfig;
use d2m_common::json::{FromJson, Json, JsonError, ToJson};
use d2m_common::probe::RecordingProbe;
use d2m_common::rng::derive_stream_seed;
use d2m_workloads::{Trace, WorkloadSpec};

use crate::metrics::RunMetrics;
use crate::runner::{checked, observe, RunConfig, RunObservation};
use crate::systems::{AnySystem, SystemKind};

/// One named machine configuration in a sweep grid.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigPoint {
    /// Label used in cell results and JSON (e.g. `"default"`, `"md2x"`).
    pub label: String,
    /// The machine configuration for this grid point.
    pub config: MachineConfig,
}

d2m_common::impl_json_struct!(ConfigPoint { label, config });

/// A declarative sweep grid: every `(config, workload, system)` triple
/// becomes one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (carried into the result and its JSON).
    pub name: String,
    /// Machine configurations (outermost axis).
    pub configs: Vec<ConfigPoint>,
    /// Systems to simulate (innermost axis).
    pub systems: Vec<SystemKind>,
    /// Workloads to drive (middle axis).
    pub workloads: Vec<WorkloadSpec>,
    /// Instructions to measure per cell (after warmup).
    pub instructions: u64,
    /// Warmup instructions per cell (excluded from metrics).
    pub warmup_instructions: u64,
    /// Master seed; per-cell seeds are derived from it.
    pub master_seed: u64,
}

d2m_common::impl_json_struct!(SweepSpec {
    name,
    configs,
    systems,
    workloads,
    instructions,
    warmup_instructions,
    master_seed,
});

impl SweepSpec {
    /// A single-configuration sweep (the common case behind the figure
    /// benchmarks).
    pub fn single(
        name: &str,
        cfg: &MachineConfig,
        systems: &[SystemKind],
        workloads: &[WorkloadSpec],
        rc: &RunConfig,
    ) -> Self {
        Self {
            name: name.to_string(),
            configs: vec![ConfigPoint {
                label: "default".to_string(),
                config: cfg.clone(),
            }],
            systems: systems.to_vec(),
            workloads: workloads.to_vec(),
            instructions: rc.instructions,
            warmup_instructions: rc.warmup_instructions,
            master_seed: rc.seed,
        }
    }

    /// Total number of cells in the grid.
    pub fn num_cells(&self) -> usize {
        self.configs.len() * self.workloads.len() * self.systems.len()
    }

    /// Decomposes a cell index into `(config_idx, workload_idx, system_idx)`.
    ///
    /// Cell order is config-major, then workload, then system:
    /// `index = (config_idx * W + workload_idx) * S + system_idx`.
    pub fn cell_coords(&self, index: usize) -> (usize, usize, usize) {
        let s = self.systems.len();
        let w = self.workloads.len();
        let system_idx = index % s;
        let workload_idx = (index / s) % w;
        let config_idx = index / (s * w);
        (config_idx, workload_idx, system_idx)
    }

    /// The RNG seed for a cell. Pure function of the spec and the cell's
    /// `(config, workload)` coordinates — the system axis is deliberately
    /// excluded so every system replays the identical trace for a workload.
    pub fn cell_seed(&self, index: usize) -> u64 {
        let (config_idx, workload_idx, _) = self.cell_coords(index);
        let stream_index = (config_idx * self.workloads.len() + workload_idx) as u64;
        derive_stream_seed(self.master_seed, stream_index)
    }

    /// The [`RunConfig`] that reproduces cell `index` through
    /// [`run_one_checked`](crate::run_one_checked) on its own, outside the
    /// pool.
    pub fn cell_run_config(&self, index: usize) -> RunConfig {
        RunConfig {
            instructions: self.instructions,
            warmup_instructions: self.warmup_instructions,
            seed: self.cell_seed(index),
        }
    }
}

/// One completed cell of a sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Cell index in the spec's grid order.
    pub index: u64,
    /// Config label of the cell's [`ConfigPoint`].
    pub config: String,
    /// Simulated system.
    pub system: SystemKind,
    /// Workload name.
    pub workload: String,
    /// Derived RNG seed the cell ran with.
    pub seed: u64,
    /// Extracted metrics ([`RunMetrics::failed`] placeholder if `error` is
    /// set).
    pub metrics: RunMetrics,
    /// Why the cell failed, if it did. A corrupted-metadata or coherence
    /// failure — or a worker panic — marks its own cell and leaves the rest
    /// of the sweep intact.
    pub error: Option<String>,
}

impl CellResult {
    /// True when the cell completed and `metrics` are real.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

// Hand-written instead of `impl_json_struct!` so the `error` key appears
// only on failed cells: sweeps without failures keep the exact pre-existing
// byte format (the golden-output and determinism tests pin it). The
// checkpoint journal depends on this encoding round-tripping
// byte-identically — see `failed_and_clean_cells_roundtrip_byte_identically`.
// Decoding ignores keys it does not know, such as the per-cell retry count
// that older checkpoint journals carry.
impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("index".to_string(), self.index.to_json()),
            ("config".to_string(), self.config.to_json()),
            ("system".to_string(), self.system.to_json()),
            ("workload".to_string(), self.workload.to_json()),
            ("seed".to_string(), self.seed.to_json()),
            ("metrics".to_string(), self.metrics.to_json()),
        ];
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), Json::Str(e.clone())));
        }
        Json::Obj(fields)
    }
}

impl FromJson for CellResult {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            index: j.field("index")?,
            config: j.field("config")?,
            system: j.field("system")?,
            workload: j.field("workload")?,
            seed: j.field("seed")?,
            metrics: j.field("metrics")?,
            error: match j.get("error") {
                None => None,
                Some(e) => Some(
                    e.as_str()
                        .ok_or_else(|| JsonError("cell error must be a string".into()))?
                        .to_string(),
                ),
            },
        })
    }
}

/// The aggregated, deterministic result of a sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Sweep name from the spec.
    pub name: String,
    /// Master seed from the spec.
    pub master_seed: u64,
    /// Completed cells, in cell-index order.
    pub cells: Vec<CellResult>,
    /// Worker threads the sweep actually used (not serialized: execution
    /// detail, not a result).
    pub jobs_used: usize,
    /// Wall-clock seconds the sweep took (not serialized).
    pub wall_secs: f64,
}

// `jobs_used`/`wall_secs` are execution details; serializing them would
// break the byte-identity guarantee across thread counts.
d2m_common::impl_json_struct!(SweepResult {
    name,
    master_seed,
    cells,
} skip { jobs_used, wall_secs });

impl SweepResult {
    /// Renders the result as pretty-printed deterministic JSON — the shared
    /// emission path for every bench binary. Byte-identical across thread
    /// counts for the same spec.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses a result previously written by [`Self::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns an error when `text` is not valid JSON or does not match the
    /// [`SweepResult`] shape.
    pub fn from_json_string(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// The cell for `(config label, system, workload)`, if present.
    pub fn get(&self, config: &str, system: SystemKind, workload: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.config == config && c.system == system && c.workload == workload)
    }

    /// Clones the run metrics of every cell under one config label, in cell
    /// order (workload-major, system-minor).
    pub fn runs_for_config(&self, config: &str) -> Vec<RunMetrics> {
        self.cells
            .iter()
            .filter(|c| c.config == config)
            .map(|c| c.metrics.clone())
            .collect()
    }

    /// The cells that failed (corrupted metadata or coherence violations),
    /// in cell-index order.
    pub fn failures(&self) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| !c.ok()).collect()
    }
}

/// The worker-pool size: `D2M_JOBS` if set to an integer ≥ 1, else the
/// machine's available parallelism.
///
/// Accepted `D2M_JOBS` values are decimal integers ≥ 1 (surrounding
/// whitespace ignored). Anything else — `0`, a negative number, garbage —
/// is rejected with a one-time warning on stderr naming the value, and the
/// default is used instead of silently falling through.
pub fn default_jobs() -> usize {
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    if let Ok(v) = std::env::var("D2M_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        WARN_ONCE.call_once(|| {
            eprintln!(
                "warning: ignoring D2M_JOBS={v:?} (expected an integer >= 1); \
                 using available parallelism"
            );
        });
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The per-`(config, workload)` trace slots of one sweep.
///
/// Cell seeds leave out the system axis, so every system cell of a group
/// replays the same access stream. The group's first cell to need it records
/// it, inside that cell's `catch_unwind` and under the group's lock, so the
/// group's other workers wait for it instead of generating it again.
/// The group's last pending cell to finish drops it. Cells are claimed in
/// index order, so about ⌈jobs / systems⌉ + 1 traces are live at a time, and
/// never more than one per worker plus one.
pub(crate) struct SharedTraces<'s> {
    spec: &'s SweepSpec,
    groups: Vec<Mutex<TraceSlot>>,
}

#[derive(Default)]
struct TraceSlot {
    trace: Option<Arc<Trace>>,
    /// Cells of the group that have yet to finish.
    pending: usize,
    /// Times the trace was recorded.
    recorded: u32,
}

impl<'s> SharedTraces<'s> {
    pub(crate) fn new(spec: &'s SweepSpec) -> Self {
        let groups = spec.configs.len() * spec.workloads.len();
        Self {
            spec,
            groups: (0..groups).map(|_| Mutex::default()).collect(),
        }
    }

    fn slot(&self, index: usize) -> MutexGuard<'_, TraceSlot> {
        self.groups[index / self.spec.systems.len()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Cell `index`'s trace, recorded by the group's first caller. A panic
    /// while recording (an invalid workload spec) leaves the slot empty, so
    /// every cell of the group fails with the message it would get
    /// generating its own trace.
    fn get(&self, index: usize) -> Arc<Trace> {
        let mut guard = self.slot(index);
        let slot = &mut *guard;
        let trace = slot.trace.get_or_insert_with(|| {
            let (point, _, workload) = cell_identity(self.spec, index);
            let rc = self.spec.cell_run_config(index);
            let trace = Trace::record(
                workload,
                point.config.nodes,
                rc.seed,
                rc.warmup_instructions,
                rc.instructions,
            );
            slot.recorded += 1;
            Arc::new(trace)
        });
        Arc::clone(trace)
    }

    /// Marks cell `index` finished; the group's last one drops the trace.
    fn finish(&self, index: usize) {
        let mut slot = self.slot(index);
        slot.pending -= 1;
        if slot.pending == 0 {
            slot.trace = None;
        }
    }

    #[cfg(test)]
    fn slots(&self) -> impl Iterator<Item = MutexGuard<'_, TraceSlot>> {
        self.groups
            .iter()
            .map(|g| g.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Traces still held.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots().filter(|s| s.trace.is_some()).count()
    }

    /// Times each group's trace was recorded, in group order.
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> Vec<u32> {
        self.slots().map(|s| s.recorded).collect()
    }
}

/// The work-stealing pool behind every sweep: workers pull the next
/// unclaimed cell of `todo` (in order) from an atomic counter and run it.
/// Results come back lined up with `todo`, so their order never depends on
/// scheduling. Each cell gets its group's shared trace from `traces`.
///
/// `run_cell` runs each cell under its own `catch_unwind` (see [`run_cell`]).
/// A panic outside that isolation is not contained: it propagates out of the
/// worker scope and aborts the whole sweep.
fn pool_run<T: Send>(
    traces: &SharedTraces<'_>,
    todo: &[usize],
    jobs: usize,
    run_cell: impl Fn(usize, &dyn Fn() -> Arc<Trace>) -> T + Sync,
) -> Vec<T> {
    for &index in todo {
        traces.slot(index).pending += 1;
    }
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(todo.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = todo.get(k) else {
                    break;
                };
                let result = run_cell(index, &|| traces.get(index));
                traces.finish(index);
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((k, result));
            });
        }
    });
    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_unstable_by_key(|&(k, _)| k);
    results.into_iter().map(|(_, result)| result).collect()
}

/// The cell's static identity plus the run config that reproduces it.
fn cell_identity(spec: &SweepSpec, index: usize) -> (&ConfigPoint, SystemKind, &WorkloadSpec) {
    let (ci, wi, si) = spec.cell_coords(index);
    (&spec.configs[ci], spec.systems[si], &spec.workloads[wi])
}

/// Renders a panic payload as the cell error string. Deterministic for the
/// common `&str`/`String` payloads (including injected-fault panics), so a
/// sweep containing a panicked cell still serializes reproducibly.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs cell `index` under one `catch_unwind`: the `cell` fault point, then
/// the simulation, observed or checked. A run error or a panic becomes the
/// cell's error, with placeholder metrics and no observation.
///
/// The observation is boxed so that the pool's per-cell results stay about
/// the size of a [`CellResult`] in sweeps that do not observe. With a 1 KB
/// inline slot per cell, short `simbench --workload journaled-observed`
/// processes trimmed and re-faulted their heap more often (about 100 k
/// minor page faults instead of 17 k) and ran about 8% slower.
fn run_cell(
    spec: &SweepSpec,
    index: usize,
    observed: bool,
    trace: &dyn Fn() -> Arc<Trace>,
) -> (CellResult, Option<Box<RunObservation>>) {
    let (point, system, workload) = cell_identity(spec, index);
    let rc = spec.cell_run_config(index);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        d2m_common::faultpoint::fire("cell", &spec.name, index as u64);
        let sys = AnySystem::build(system, &point.config, rc.seed);
        if observed {
            observe(sys, &point.config, workload, &rc, Some(trace))
                .map(|o| (o.metrics.clone(), Some(Box::new(o))))
        } else {
            checked(sys, &point.config, workload, &rc, Some(trace)).map(|m| (m, None))
        }
    }));
    let failed = |error: String| {
        let metrics = RunMetrics::failed(system.name(), &workload.name, workload.category.name());
        (metrics, None, Some(error))
    };
    let (metrics, observation, error) = match outcome {
        Ok(Ok((metrics, observation))) => (metrics, observation, None),
        Ok(Err(e)) => failed(e.to_string()),
        Err(p) => failed(format!("worker panicked: {}", panic_message(p.as_ref()))),
    };
    let cell = CellResult {
        index: index as u64,
        config: point.label.clone(),
        system,
        workload: workload.name.clone(),
        seed: rc.seed,
        metrics,
        error,
    };
    (cell, observation)
}

/// The driver behind every sweep: runs each cell `done` lacks on up to
/// `jobs` workers (see [`pool_run`] and [`run_cell`]), observed when
/// `observed` is set, and assembles the result in cell-index order from the
/// cells in `done` and the fresh ones. The observations, one per cell, are
/// returned only when `observed` is set.
///
/// Every fresh cell is passed to `hook` as it finishes (the checkpoint
/// journal appends it there). After the first hook error the workers claim
/// no further cells, and that error is returned once the pool drains.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub(crate) fn drive<E: Send>(
    spec: &SweepSpec,
    jobs: usize,
    traces: &SharedTraces<'_>,
    mut done: Vec<Option<CellResult>>,
    observed: bool,
    hook: impl Fn(&CellResult) -> Result<(), E> + Sync,
) -> Result<(SweepResult, Vec<Option<RunObservation>>), E> {
    assert!(jobs >= 1, "sweep needs at least one worker");
    let started = Instant::now();
    let todo: Vec<usize> = (0..done.len()).filter(|&i| done[i].is_none()).collect();
    let jobs_used = jobs.min(todo.len().max(1));
    let hook_error: Mutex<Option<E>> = Mutex::new(None);
    let fresh = pool_run(traces, &todo, jobs_used, |index, trace| {
        // Once a hook has failed, don't burn hours simulating cells whose
        // results can no longer be kept.
        if hook_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
        {
            return None;
        }
        let (cell, observation) = run_cell(spec, index, observed, trace);
        if let Err(e) = hook(&cell) {
            hook_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(e);
        }
        Some((cell, observation))
    });
    if let Some(e) = hook_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }

    let mut observations: Vec<Option<RunObservation>> = Vec::new();
    if observed {
        observations.resize_with(done.len(), || None);
    }
    for (&index, run) in todo.iter().zip(fresh) {
        let (cell, observation) = run.expect("with no hook error, every claimed cell ran");
        done[index] = Some(cell);
        if observed {
            observations[index] = observation.map(|o| *o);
        }
    }
    let cells = done
        .into_iter()
        .map(|c| c.expect("every cell is journaled or fresh"))
        .collect();
    let result = SweepResult {
        name: spec.name.clone(),
        master_seed: spec.master_seed,
        cells,
        jobs_used,
        wall_secs: started.elapsed().as_secs_f64(),
    };
    Ok((result, observations))
}

/// [`drive`] over a whole grid with no per-cell hook.
fn sweep(
    spec: &SweepSpec,
    jobs: usize,
    traces: &SharedTraces<'_>,
    observed: bool,
) -> (SweepResult, Vec<Option<RunObservation>>) {
    let no_hook = |_: &CellResult| Ok::<(), Infallible>(());
    match drive(
        spec,
        jobs,
        traces,
        vec![None; spec.num_cells()],
        observed,
        no_hook,
    ) {
        Ok(sweep) => sweep,
        Err(never) => match never {},
    }
}

/// Runs a sweep on exactly `jobs` worker threads.
///
/// # Failure semantics
///
/// A cell never takes the sweep down with it. Every cell runs under
/// `catch_unwind`, so a run failure (corrupted metadata, coherence
/// violation) *or a panic while running the cell* is reported through
/// [`CellResult::error`] — with placeholder metrics — while every other cell
/// completes normally; [`SweepResult::failures`] lists the casualties in
/// cell-index order.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn run_sweep_with_jobs(spec: &SweepSpec, jobs: usize) -> SweepResult {
    sweep(spec, jobs, &SharedTraces::new(spec), false).0
}

/// An observed sweep: the ordinary [`SweepResult`] plus the per-cell
/// transaction recordings and their aggregate.
#[derive(Clone, Debug)]
pub struct ObservedSweep {
    /// The scalar results, identical to [`run_sweep_with_jobs`]'s for the
    /// same spec.
    pub result: SweepResult,
    /// Per-cell observations in cell-index order; `None` for failed cells.
    pub observations: Vec<Option<RunObservation>>,
    /// Every successful cell's probe merged in cell-index order.
    pub aggregate: RecordingProbe,
}

impl ObservedSweep {
    /// Deterministic histogram JSON: the aggregate probe report plus one
    /// entry per cell (its probe report, or its error). Byte-identical
    /// across worker-thread counts for the same spec.
    pub fn histograms_json(&self) -> Json {
        let cells = self
            .result
            .cells
            .iter()
            .zip(&self.observations)
            .map(|(c, o)| {
                let mut fields = vec![
                    ("index".to_string(), Json::U64(c.index)),
                    ("config".to_string(), Json::Str(c.config.clone())),
                    ("system".to_string(), Json::Str(c.system.name().to_string())),
                    ("workload".to_string(), Json::Str(c.workload.clone())),
                ];
                match o {
                    Some(o) => fields.push(("probe".to_string(), o.probe.report())),
                    // Omit-when-absent: a cell with no observation and no
                    // recorded error gets neither field.
                    None => {
                        if let Some(e) = &c.error {
                            fields.push(("error".to_string(), Json::Str(e.clone())));
                        }
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.result.name.clone())),
            ("aggregate".to_string(), self.aggregate.report()),
            ("cells".to_string(), Json::Arr(cells)),
        ])
    }
}

/// Runs a sweep with the full observability layer on every cell (see
/// [`run_one_observed`](crate::run_one_observed)), on exactly `jobs` worker
/// threads.
///
/// Per-cell probes are merged into [`ObservedSweep::aggregate`] in
/// cell-index order after the pool drains, so the aggregate — like
/// [`ObservedSweep::histograms_json`] — is byte-identical across thread
/// counts.
///
/// Cells fail in isolation exactly as in [`run_sweep_with_jobs`]; a failed
/// cell contributes no observation and nothing to the aggregate.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn run_sweep_observed_with_jobs(spec: &SweepSpec, jobs: usize) -> ObservedSweep {
    observed_sweep(spec, jobs, &SharedTraces::new(spec))
}

fn observed_sweep(spec: &SweepSpec, jobs: usize, traces: &SharedTraces<'_>) -> ObservedSweep {
    let (result, observations) = sweep(spec, jobs, traces, true);
    let mut aggregate = RecordingProbe::new();
    for o in observations.iter().flatten() {
        aggregate.merge(&o.probe);
    }
    ObservedSweep {
        result,
        observations,
        aggregate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_one_checked, run_one_observed};
    use d2m_workloads::catalog;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            configs: vec![
                ConfigPoint {
                    label: "default".into(),
                    config: MachineConfig::default(),
                },
                ConfigPoint {
                    label: "md2x".into(),
                    config: MachineConfig::default().scale_metadata(2),
                },
            ],
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

    #[test]
    fn cell_indexing_is_config_major_then_workload_then_system() {
        let spec = tiny_spec();
        assert_eq!(spec.num_cells(), 8);
        assert_eq!(spec.cell_coords(0), (0, 0, 0));
        assert_eq!(spec.cell_coords(1), (0, 0, 1));
        assert_eq!(spec.cell_coords(2), (0, 1, 0));
        assert_eq!(spec.cell_coords(4), (1, 0, 0));
        assert_eq!(spec.cell_coords(7), (1, 1, 1));
    }

    #[test]
    fn systems_share_the_workload_seed() {
        let spec = tiny_spec();
        // Cells 0 and 1 differ only in the system axis.
        assert_eq!(spec.cell_seed(0), spec.cell_seed(1));
        // Different workloads and configs get distinct streams.
        assert_ne!(spec.cell_seed(0), spec.cell_seed(2));
        assert_ne!(spec.cell_seed(0), spec.cell_seed(4));
    }

    #[test]
    fn sweep_fills_every_cell_in_order() {
        let spec = tiny_spec();
        let res = run_sweep_with_jobs(&spec, 3);
        assert_eq!(res.cells.len(), 8);
        for (i, c) in res.cells.iter().enumerate() {
            assert_eq!(c.index, i as u64);
        }
        assert!(res.get("md2x", SystemKind::D2mNsR, "mix2").is_some());
        assert_eq!(res.runs_for_config("default").len(), 4);
        assert_eq!(res.jobs_used, 3);
    }

    #[test]
    fn single_cell_reproducible_via_run_one() {
        // Every cell of a sweep replays its group's shared trace; each must
        // equal the same cell run alone, which streams its own generator.
        let spec = tiny_spec();
        let alone: Vec<_> = (0..spec.num_cells())
            .map(|i| {
                let (ci, wi, si) = spec.cell_coords(i);
                let (kind, cfg, ws) = (
                    spec.systems[si],
                    &spec.configs[ci].config,
                    &spec.workloads[wi],
                );
                let rc = spec.cell_run_config(i);
                let metrics = run_one_checked(kind, cfg, ws, &rc).unwrap();
                (metrics, run_one_observed(kind, cfg, ws, &rc).unwrap())
            })
            .collect();
        // Two systems per group: every count from 2 on splits groups across
        // workers.
        for jobs in [1, 2, 3, 7] {
            let traces = SharedTraces::new(&spec);
            let plain = sweep(&spec, jobs, &traces, false).0;
            assert_eq!(traces.recorded(), [1; 4], "jobs={jobs}");
            assert_eq!(traces.live(), 0, "jobs={jobs}");
            let traces = SharedTraces::new(&spec);
            let observed = observed_sweep(&spec, jobs, &traces);
            assert_eq!(traces.recorded(), [1; 4], "jobs={jobs}");
            assert_eq!(traces.live(), 0, "jobs={jobs}");
            for (i, (m, o)) in alone.iter().enumerate() {
                assert_eq!(plain.cells[i].metrics, *m, "jobs={jobs} cell {i}");
                let got = observed.observations[i].as_ref().unwrap();
                assert_eq!(
                    got.to_json().to_string_compact(),
                    o.to_json().to_string_compact(),
                    "jobs={jobs} cell {i}"
                );
            }
        }
    }

    #[test]
    fn invalid_workload_fails_only_its_own_cells() {
        let mut spec = tiny_spec();
        spec.name = "unit-bad-spec".into();
        let mut bad = catalog::by_name("swaptions").unwrap();
        bad.name = "bad".into();
        bad.p_hot = 0.9;
        bad.p_warm = 0.2;
        spec.workloads.insert(1, bad);
        for jobs in [1, 3] {
            let traces = SharedTraces::new(&spec);
            let res = sweep(&spec, jobs, &traces, false).0;
            for c in &res.cells {
                if c.workload == "bad" {
                    assert_eq!(
                        c.error.as_deref(),
                        Some(
                            "worker panicked: invalid workload spec: \
                             \"p_hot + p_warm must not exceed 1\""
                        ),
                        "jobs={jobs} cell {}",
                        c.index
                    );
                } else {
                    assert!(c.ok(), "jobs={jobs} cell {}: {:?}", c.index, c.error);
                }
            }
            assert_eq!(res.failures().len(), 2 * spec.systems.len());
            assert_eq!(traces.recorded(), [1, 0, 1, 1, 0, 1], "jobs={jobs}");
            assert_eq!(traces.live(), 0, "jobs={jobs}");
        }
    }

    #[test]
    fn json_roundtrip_preserves_cells() {
        let mut spec = tiny_spec();
        spec.configs.truncate(1);
        spec.workloads.truncate(1);
        let res = run_sweep_with_jobs(&spec, 1);
        let text = res.to_json_string();
        let back = SweepResult::from_json_string(&text).unwrap();
        assert_eq!(back.name, res.name);
        assert_eq!(back.master_seed, res.master_seed);
        assert_eq!(back.cells, res.cells);
        // Execution details are not serialized.
        assert_eq!(back.jobs_used, 0);
        assert_eq!(back.wall_secs, 0.0);
    }

    #[test]
    fn d2m_jobs_env_is_ignored_by_explicit_jobs() {
        let spec = tiny_spec();
        let res = run_sweep_with_jobs(&spec, 1);
        assert_eq!(res.jobs_used, 1);
    }

    #[test]
    fn default_jobs_accepts_integers_and_rejects_garbage() {
        // No other test reads D2M_JOBS (sweeps under test pass explicit job
        // counts), so mutating the process environment here is safe.
        std::env::set_var("D2M_JOBS", " 3 ");
        assert_eq!(default_jobs(), 3);
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        for bad in ["0", "-2", "many", ""] {
            std::env::set_var("D2M_JOBS", bad);
            assert_eq!(default_jobs(), fallback, "D2M_JOBS={bad:?}");
        }
        std::env::remove_var("D2M_JOBS");
        assert_eq!(default_jobs(), fallback);
    }

    #[test]
    fn successful_cells_have_no_error_and_no_error_key() {
        let mut spec = tiny_spec();
        spec.configs.truncate(1);
        spec.workloads.truncate(1);
        let res = run_sweep_with_jobs(&spec, 2);
        assert!(res.failures().is_empty());
        assert!(res.cells.iter().all(CellResult::ok));
        // The `error` key must be absent, not `null`: byte format is pinned.
        assert!(!res.to_json_string().contains("\"error\""));
    }

    #[test]
    fn failed_cell_roundtrips_through_json() {
        let mut spec = tiny_spec();
        spec.configs.truncate(1);
        spec.workloads.truncate(1);
        let mut res = run_sweep_with_jobs(&spec, 1);
        res.cells[0].error = Some("synthetic failure".into());
        res.cells[0].metrics = RunMetrics::failed("Base-2L", "swaptions", "Parallel");
        let back = SweepResult::from_json_string(&res.to_json_string()).unwrap();
        assert_eq!(back.cells, res.cells);
        assert_eq!(back.failures().len(), 1);
    }

    #[test]
    fn failed_and_clean_cells_roundtrip_byte_identically() {
        // PR 3 made `histograms_json` (and the scalar encoding) omit keys
        // on clean cells; resume rebuilds `SweepResult`s from re-parsed
        // cells, so serialize → parse → serialize must be a byte-level
        // fixed point even when failed and clean cells are mixed.
        let mut spec = tiny_spec();
        spec.workloads.truncate(1);
        let mut res = run_sweep_with_jobs(&spec, 2);
        assert!(res.cells.len() >= 4);
        res.cells[1].error = Some("synthetic: corrupted LI".into());
        res.cells[1].metrics = RunMetrics::failed("D2M-NS-R", "swaptions", "Parallel");
        res.cells[3].error = Some("injected transient fault on Base-2L/swaptions".into());
        let first = res.to_json_string();
        let back = SweepResult::from_json_string(&first).unwrap();
        assert_eq!(back.cells, res.cells);
        assert_eq!(back.failures().len(), 2);
        let second = back.to_json_string();
        assert!(
            first.as_bytes() == second.as_bytes(),
            "serialize → parse → serialize must be byte-identical"
        );
    }

    #[test]
    fn injected_panic_is_isolated_to_its_cell() {
        let mut spec = tiny_spec();
        spec.name = "unit-panic".into();
        let _g = d2m_common::faultpoint::arm("cell@unit-panic:3:panic").unwrap();
        let res = run_sweep_with_jobs(&spec, 2);
        assert_eq!(res.cells.len(), 8, "no cell may be lost");
        let failures = res.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 3);
        let err = failures[0].error.as_deref().unwrap();
        assert!(
            err.contains("worker panicked") && err.contains("injected fault at cell:3"),
            "{err}"
        );
        for c in res.cells.iter().filter(|c| c.index != 3) {
            assert!(c.ok(), "cell {} must be unaffected", c.index);
        }
    }

    #[test]
    fn observed_sweep_is_thread_count_invariant() {
        let mut spec = tiny_spec();
        spec.workloads.truncate(1);
        spec.instructions = 10_000;
        spec.warmup_instructions = 2_000;
        let a = run_sweep_observed_with_jobs(&spec, 1);
        let b = run_sweep_observed_with_jobs(&spec, 4);
        assert_eq!(
            a.result.to_json_string(),
            b.result.to_json_string(),
            "scalar results must not depend on the worker count"
        );
        assert_eq!(
            a.histograms_json().to_string_pretty(),
            b.histograms_json().to_string_pretty(),
            "histogram aggregation must not depend on the worker count"
        );
        assert!(a.aggregate.events > 0);
    }

    #[test]
    fn histograms_json_omits_error_for_skipped_cells() {
        let mut spec = tiny_spec();
        spec.configs.truncate(1);
        spec.workloads.truncate(1);
        spec.instructions = 10_000;
        spec.warmup_instructions = 2_000;
        let mut obs = run_sweep_observed_with_jobs(&spec, 1);
        // A skipped cell: no observation, but also no recorded error. The
        // omit-when-absent convention forbids an empty `"error": ""` here.
        obs.observations[0] = None;
        obs.result.cells[0].error = None;
        let text = obs.histograms_json().to_string_pretty();
        assert!(
            !text.contains("\"error\""),
            "skipped cell must omit the error field entirely:\n{text}"
        );
        // A genuinely failed cell still reports its error string.
        obs.result.cells[0].error = Some("synthetic failure".into());
        let text = obs.histograms_json().to_string_pretty();
        assert!(text.contains("\"error\": \"synthetic failure\""), "{text}");
    }

    #[test]
    fn observed_sweep_matches_plain_sweep_metrics() {
        let mut spec = tiny_spec();
        spec.configs.truncate(1);
        spec.workloads.truncate(1);
        spec.instructions = 10_000;
        spec.warmup_instructions = 2_000;
        let plain = run_sweep_with_jobs(&spec, 2);
        let observed = run_sweep_observed_with_jobs(&spec, 2);
        assert_eq!(
            plain.to_json_string(),
            observed.result.to_json_string(),
            "observation must never perturb the simulation"
        );
    }
}
