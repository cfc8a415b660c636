//! The trace-driven run loop and analytic core timing model.
//!
//! Timing model (paper §V-A/§V-D): each node has its own cycle clock.
//! Committing instructions costs `insts / base_ipc` cycles; an L1 miss (or a
//! late hit) additionally stalls the node for `(latency - L1) × blocking`,
//! with `blocking = 1.0` for instruction misses (an OoO core cannot fetch
//! past a missing instruction) and `≈ 0.35` for data misses (mostly hidden
//! by the OoO window). Bandwidth is infinite, as in the paper.
//!
//! Energy finalization: structure accesses are recorded by the systems
//! themselves; the runner adds per-message NoC energy and per-access memory
//! energy from the interconnect counters, plus leakage over the measured
//! cycles.

use std::fmt;
use std::sync::Arc;

use d2m_common::config::MachineConfig;
use d2m_common::json::{Json, ToJson};
use d2m_common::outcome::{AccessResult, ServicedBy};
use d2m_common::probe::RecordingProbe;
use d2m_common::stats::Counters;
use d2m_core::ProtocolError;
use d2m_energy::EnergyEvent;
use d2m_noc::{MsgClass, TrafficMatrix};
use d2m_workloads::{Access, Trace, TraceGen, WorkloadSpec};

use crate::metrics::{counters_delta, RunMetrics};
use crate::systems::{AnySystem, SystemKind};

/// Why a run could not produce metrics.
///
/// Either the protocol found its metadata corrupted mid-transaction or the
/// value-coherence oracle observed a violation. Both name the (system,
/// workload) pair so a sweep can report exactly which cell failed. The
/// simulator is deterministic, so a failed run fails the same way again:
/// sweeps record the failure and never retry it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A transaction aborted on corrupted metadata.
    Protocol {
        /// Display name of the system that failed.
        system: &'static str,
        /// Workload being run.
        workload: String,
        /// The underlying protocol error.
        error: ProtocolError,
    },
    /// The value-coherence oracle observed violations.
    Coherence {
        /// Display name of the system that failed.
        system: &'static str,
        /// Workload being run.
        workload: String,
        /// Number of violations observed.
        violations: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Protocol {
                system,
                workload,
                error,
            } => write!(f, "protocol error on {system}/{workload}: {error}"),
            RunError::Coherence {
                system,
                workload,
                violations,
            } => write!(
                f,
                "{system} violated value coherence on {workload} ({violations} violations)"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Protocol { error, .. } => Some(error),
            RunError::Coherence { .. } => None,
        }
    }
}

/// Run-length and reproducibility parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Instructions to measure (after warmup).
    pub instructions: u64,
    /// Warmup instructions (excluded from all metrics).
    pub warmup_instructions: u64,
    /// Master seed for workload generation and policies.
    pub seed: u64,
}

impl RunConfig {
    /// The default experiment length (used by the benchmark harness).
    pub fn full() -> Self {
        Self {
            instructions: 6_000_000,
            warmup_instructions: 2_000_000,
            seed: 42,
        }
    }

    /// A fast configuration: the `d2m-simulate` default and the doc example.
    pub fn quick() -> Self {
        Self {
            instructions: 200_000,
            warmup_instructions: 50_000,
            seed: 42,
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::full()
    }
}

d2m_common::impl_json_struct!(RunConfig {
    instructions,
    warmup_instructions,
    seed,
});

/// What the measured L1 misses tell that no hierarchy counter holds: their
/// latency distribution, the near-side hits per side (Table IV) and the
/// memory-serviced count. The miss counts themselves are the hierarchy's.
#[derive(Default, Clone)]
struct ServeTally {
    miss_hist: d2m_common::stats::Histogram,
    /// Misses serviced next to the node, per side (`[i, d]`): by its own NS
    /// slice in D2M-NS/NS-R, by its private L2 in Base-3L. No system
    /// reports both.
    near: [u64; 2],
    mem_serviced: u64,
}

impl ServeTally {
    fn record(&mut self, is_i: bool, serviced: ServicedBy, latency: u64) {
        self.miss_hist.record(latency);
        match serviced {
            ServicedBy::LocalNs | ServicedBy::L2 => self.near[usize::from(!is_i)] += 1,
            ServicedBy::Mem => self.mem_serviced += 1,
            _ => {}
        }
    }
}

/// Everything a fully-observed run produces beyond its scalar metrics.
///
/// Built by [`run_one_observed`]; serializes deterministically — two
/// identical runs yield byte-identical [`RunObservation::to_json`] output.
#[derive(Clone, Debug)]
pub struct RunObservation {
    /// The measurement-window metrics (identical to [`run_one_checked`]'s).
    pub metrics: RunMetrics,
    /// Absolute counter snapshot at the end of warmup.
    pub warmup_counters: Counters,
    /// Per-access recording: per-level/per-endpoint counts, latency and
    /// message histograms, phase markers ("warmup", "measured").
    pub probe: RecordingProbe,
    /// Per-message-class traffic matrix over the whole run.
    pub traffic: TrafficMatrix,
    /// Per-structure dynamic-energy breakdown (deterministic key order).
    pub energy_breakdown: Json,
}

impl RunObservation {
    /// Deterministic JSON: metrics, per-phase counters, probe report,
    /// traffic matrix and energy breakdown.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("metrics".to_string(), self.metrics.to_json()),
            (
                "phases".to_string(),
                Json::Obj(vec![
                    ("warmup".to_string(), self.warmup_counters.to_json()),
                    ("measured".to_string(), self.metrics.counters.to_json()),
                ]),
            ),
            ("probe".to_string(), self.probe.report()),
            ("traffic".to_string(), self.traffic.to_json()),
            (
                "energy_breakdown".to_string(),
                self.energy_breakdown.clone(),
            ),
        ])
    }
}

/// Runs one (system, workload) pair and extracts its metrics.
///
/// # Errors
///
/// [`RunError::Protocol`] when a transaction aborts on corrupted metadata;
/// [`RunError::Coherence`] when the value-coherence oracle records
/// violations. Either names the failing (system, workload) pair.
///
/// # Panics
///
/// Panics if the machine config is invalid (see [`AnySystem::build`]).
pub fn run_one_checked(
    kind: SystemKind,
    cfg: &MachineConfig,
    spec: &WorkloadSpec,
    rc: &RunConfig,
) -> Result<RunMetrics, RunError> {
    checked(AnySystem::build(kind, cfg, rc.seed), cfg, spec, rc, None)
}

/// Runs one pair with the full observability layer enabled: a
/// [`RecordingProbe`] fed every access (with "warmup"/"measured" phase
/// markers), a per-message-class [`TrafficMatrix`], per-phase counter
/// snapshots and the per-structure energy breakdown.
///
/// The scalar metrics are identical to [`run_one_checked`]'s for the same
/// inputs — observation never perturbs the simulation.
///
/// # Errors
///
/// Same as [`run_one_checked`].
pub fn run_one_observed(
    kind: SystemKind,
    cfg: &MachineConfig,
    spec: &WorkloadSpec,
    rc: &RunConfig,
) -> Result<RunObservation, RunError> {
    run_system_observed(AnySystem::build(kind, cfg, rc.seed), cfg, spec, rc)
}

/// [`run_one_observed`] on a system the caller built from `cfg`, such as a
/// D2M system with an ablation's feature set. `rc.seed` seeds the workload;
/// the system keeps the seed it was built with. Errors name the system by
/// [`AnySystem::kind`].
///
/// # Errors
///
/// Same as [`run_one_checked`].
pub fn run_system_observed(
    sys: AnySystem,
    cfg: &MachineConfig,
    spec: &WorkloadSpec,
    rc: &RunConfig,
) -> Result<RunObservation, RunError> {
    observe(sys, cfg, spec, rc, None)
}

/// A sweep group's shared trace, fetched by the run that needs it (see
/// [`run_core`]).
pub(crate) type SharedTrace<'a> = Option<&'a dyn Fn() -> Arc<Trace>>;

/// Runs `sys` unobserved, replaying `shared` when it is set.
pub(crate) fn checked(
    sys: AnySystem,
    cfg: &MachineConfig,
    spec: &WorkloadSpec,
    rc: &RunConfig,
    shared: SharedTrace<'_>,
) -> Result<RunMetrics, RunError> {
    run_core(sys, cfg, spec, rc, shared, None).map(|(m, _, _)| m)
}

/// Runs `sys` observed, replaying `shared` when it is set.
pub(crate) fn observe(
    sys: AnySystem,
    cfg: &MachineConfig,
    spec: &WorkloadSpec,
    rc: &RunConfig,
    shared: SharedTrace<'_>,
) -> Result<RunObservation, RunError> {
    let mut probe = RecordingProbe::new();
    let (metrics, warmup_counters, sys) = run_core(sys, cfg, spec, rc, shared, Some(&mut probe))?;
    let traffic = sys
        .noc()
        .matrix()
        .cloned()
        .expect("a probed run records its traffic matrix");
    let energy_breakdown = sys.energy().breakdown_json();
    Ok(RunObservation {
        metrics,
        warmup_counters,
        probe,
        traffic,
        energy_breakdown,
    })
}

/// Where a run's accesses come from: a generator driven one batch at a time,
/// so memory stays bounded by one batch, or a trace recorded once for a
/// sweep group.
enum Feed {
    Stream {
        gen: Box<TraceGen>,
        batch: Vec<Access>,
    },
    Replay(Arc<Trace>),
}

impl Feed {
    /// Feeds one phase to `replay` and returns the instructions it
    /// represents. A stream takes whole batches until it reaches `target`;
    /// a recorded trace was cut by that same loop.
    fn phase(
        &mut self,
        measured: bool,
        target: u64,
        mut replay: impl FnMut(&[Access]) -> Result<(), ProtocolError>,
    ) -> Result<u64, ProtocolError> {
        match self {
            Feed::Stream { gen, batch } => {
                let mut insts = 0u64;
                while insts < target {
                    batch.clear();
                    insts += gen.next_batch(batch);
                    replay(batch)?;
                }
                Ok(insts)
            }
            Feed::Replay(trace) if measured => {
                replay(trace.measured())?;
                Ok(trace.measured_insts())
            }
            Feed::Replay(trace) => {
                replay(trace.warmup())?;
                Ok(trace.warmup_insts())
            }
        }
    }
}

/// The analytic core model's per-run constants (see the module docs).
#[derive(Clone, Copy)]
struct CoreTiming {
    /// Cycles one fetch event's instructions take to commit.
    fetch_cycles: f64,
    /// The L1 hit latency, which the core model hides.
    l1_lat: f64,
    /// Share of an instruction miss's extra latency the core stalls for.
    ifetch_blocking: f64,
    /// Share of a data miss's extra latency the core stalls for.
    data_blocking: f64,
}

impl CoreTiming {
    /// The per-access loop: runs `access` (one hierarchy's `access`, plus
    /// the probe record in an observed run) on each of `accesses` at its
    /// node's clock and advances the clocks; with `measure` set, tallies the
    /// misses.
    #[inline]
    fn replay(
        self,
        clocks: &mut [f64],
        tally: &mut ServeTally,
        measure: bool,
        accesses: &[Access],
        mut access: impl FnMut(&Access, u64) -> Result<AccessResult, ProtocolError>,
    ) -> Result<(), ProtocolError> {
        for a in accesses {
            let n = a.node().index();
            let r = access(a, clocks[n] as u64)?;
            let is_i = a.is_ifetch();
            if is_i {
                clocks[n] += self.fetch_cycles;
            }
            if !r.l1_hit || r.late {
                let beyond = (r.latency as f64 - self.l1_lat).max(0.0);
                let blocking = if is_i {
                    self.ifetch_blocking
                } else {
                    self.data_blocking
                };
                clocks[n] += beyond * blocking;
            }
            if measure && !r.l1_hit {
                tally.record(is_i, r.serviced_by, r.latency);
            }
        }
        Ok(())
    }
}

/// A run in progress: the system, the core clocks, the miss tally and, in
/// an observed run, the probe every access is recorded into.
struct Run<'p> {
    sys: AnySystem,
    clocks: Vec<f64>,
    tally: ServeTally,
    probe: Option<&'p mut RecordingProbe>,
    core: CoreTiming,
}

impl Run<'_> {
    /// Runs one batch: one `match` on the system and the probe, then the
    /// per-access loop built for that pair. Unobserved, the loop only calls
    /// `access`; observed, it records each result into the probe with the
    /// messages the access sent.
    fn batch(&mut self, accesses: &[Access], measure: bool) -> Result<(), ProtocolError> {
        let Self {
            sys,
            clocks,
            tally,
            probe,
            core,
        } = self;
        match (sys, probe) {
            (AnySystem::Base(s), None) => {
                core.replay(clocks, tally, measure, accesses, |a, now| {
                    Ok(s.access(a, now))
                })
            }
            (AnySystem::D2m(s), None) => {
                core.replay(clocks, tally, measure, accesses, |a, now| s.access(a, now))
            }
            (AnySystem::Base(s), Some(p)) => {
                core.replay(clocks, tally, measure, accesses, |a, now| {
                    let msgs0 = s.noc().messages();
                    let r = s.access(a, now);
                    let msgs = s.noc().messages() - msgs0;
                    p.record(a.is_ifetch(), a.is_store(), &r, msgs);
                    Ok(r)
                })
            }
            (AnySystem::D2m(s), Some(p)) => {
                core.replay(clocks, tally, measure, accesses, |a, now| {
                    let msgs0 = s.noc().messages();
                    let r = s.access(a, now)?;
                    let msgs = s.noc().messages() - msgs0;
                    p.record(a.is_ifetch(), a.is_store(), &r, msgs);
                    Ok(r)
                })
            }
        }
    }

    /// The latest core clock.
    fn cycles(&self) -> f64 {
        self.clocks.iter().cloned().fold(0f64, f64::max)
    }
}

/// The simulation loop behind every run, on `sys`, a system built from
/// `cfg` (by [`AnySystem::build`] unless an ablation built its own).
///
/// With `shared` unset the accesses stream from a fresh [`TraceGen`]; with
/// it set they come from that trace, which must have been recorded for
/// `spec` on `cfg.nodes` nodes with `rc`'s seed and run length. The trace is
/// fetched after the system is built, where a stream's generator is made, so
/// a run that fails does so at the same step either way. With `probe` set,
/// every access is recorded into it and the NoC records its traffic matrix;
/// unset, the loop holds no probe code.
fn run_core(
    mut sys: AnySystem,
    cfg: &MachineConfig,
    spec: &WorkloadSpec,
    rc: &RunConfig,
    shared: SharedTrace<'_>,
    probe: Option<&mut RecordingProbe>,
) -> Result<(RunMetrics, Counters, AnySystem), RunError> {
    let kind = sys.kind();
    if probe.is_some() {
        sys.noc_mut().enable_matrix(cfg.nodes);
    }
    let mut feed = match shared {
        Some(trace) => Feed::Replay(trace()),
        None => Feed::Stream {
            gen: Box::new(TraceGen::new(spec, cfg.nodes, rc.seed)),
            batch: Vec::new(),
        },
    };
    let mut run = Run {
        sys,
        clocks: vec![0f64; cfg.nodes],
        tally: ServeTally::default(),
        probe,
        core: CoreTiming {
            fetch_cycles: spec.insts_per_fetch / cfg.core.base_ipc,
            l1_lat: cfg.lat.l1 as f64,
            ifetch_blocking: cfg.core.ifetch_blocking,
            data_blocking: cfg.core.data_blocking,
        },
    };
    let proto_err = |error: ProtocolError| RunError::Protocol {
        system: kind.name(),
        workload: spec.name.clone(),
        error,
    };

    // Warmup, then snapshot.
    if let Some(p) = &mut run.probe {
        p.phase("warmup");
    }
    feed.phase(false, rc.warmup_instructions, |batch| {
        run.batch(batch, false)
    })
    .map_err(proto_err)?;
    let warm_counters = run.sys.counters();
    let warm_cycles = run.cycles();
    let warm_dyn_std = run.sys.energy().dynamic_std_pj();
    let warm_dyn_d2m = run.sys.energy().dynamic_d2m_pj();
    // The warmup records nothing, so the counts do not need this reset. It
    // stays for its allocation: without it, glibc placed the run's small
    // blocks so that it trimmed and re-faulted the heap on every run (10 k
    // → 118 k minor page faults in a `simbench --workload deep-run`
    // process, and 25% slower short runs).
    run.tally = ServeTally::default();

    // Measurement window.
    if let Some(p) = &mut run.probe {
        p.phase("measured");
    }
    let instructions = feed
        .phase(true, rc.instructions, |batch| run.batch(batch, true))
        .map_err(proto_err)?;
    let end_cycles = run.cycles();
    let Run { sys, tally, .. } = run;
    let cycles = (end_cycles - warm_cycles).max(1.0) as u64;

    if sys.coherence_errors() != 0 {
        return Err(RunError::Coherence {
            system: kind.name(),
            workload: spec.name.clone(),
            violations: sys.coherence_errors(),
        });
    }

    let delta = counters_delta(&sys.counters(), &warm_counters);

    // ---- energy finalization over the measurement window ----
    let model = *sys.energy().model();
    let mut dynamic_std = sys.energy().dynamic_std_pj() - warm_dyn_std;
    let dynamic_d2m = sys.energy().dynamic_d2m_pj() - warm_dyn_d2m;
    for class in MsgClass::ALL {
        let count = delta.get(&format!("noc.msg.{}", class.name()));
        if count == 0 {
            continue;
        }
        if class.is_offchip() {
            dynamic_std += count as f64 * model.event_pj(EnergyEvent::Mem);
        } else {
            dynamic_std += count as f64 * model.event_pj(EnergyEvent::NocHeader);
            let payload = class.payload_bytes() as f64 / 64.0;
            dynamic_std += count as f64 * payload * model.event_pj(EnergyEvent::NocData);
        }
    }
    let leakage = model.leak_pj_per_kb_cycle * sys.sram_kb() * cycles as f64;
    let energy_pj = dynamic_std + dynamic_d2m + leakage;
    let edp = energy_pj * cycles as f64;

    // ---- metric extraction ----
    let ki = instructions as f64 / 1000.0;
    let pct = instructions as f64 / 100.0;
    let msgs = delta.get("noc.msg_total") as f64;
    let d2m_msgs = delta.get("noc.msg_d2m") as f64;
    let miss_latency_sum = delta.get("miss_latency_sum") as f64;
    let miss_count = delta.get("miss_count").max(1) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let private_misses = delta.get("private.misses");
    let classified = delta.get("private.classified");
    let dir_or_md3 = if kind.is_d2m() {
        delta.get("md3.accesses")
    } else {
        delta.get("dir.accesses")
    };
    let md2_or_l2tag = if kind.is_d2m() {
        delta.get("md2.accesses")
    } else {
        // Base-3L searches its L2 tags on every L1 miss.
        delta.get("l1i.misses") + delta.get("l1d.misses")
    };

    let metrics = RunMetrics {
        system: kind.name().to_string(),
        workload: spec.name.clone(),
        category: spec.category.name().to_string(),
        instructions,
        cycles,
        ipc: instructions as f64 / cycles as f64,
        msgs_per_kilo_inst: msgs / ki,
        d2m_msgs_per_kilo_inst: d2m_msgs / ki,
        data_bytes_per_kilo_inst: delta.get("noc.bytes_data") as f64 / ki,
        l1i_miss_pct: delta.get("l1i.misses") as f64 / pct,
        l1d_miss_pct: delta.get("l1d.misses") as f64 / pct,
        late_i_pct: delta.get("late_hits.i") as f64 / pct,
        late_d_pct: delta.get("late_hits.d") as f64 / pct,
        ns_hit_ratio_i: ratio(tally.near[0], delta.get("l1i.misses")),
        ns_hit_ratio_d: ratio(tally.near[1], delta.get("l1d.misses")),
        avg_miss_latency: miss_latency_sum / miss_count,
        p50_miss_latency: tally.miss_hist.quantile(0.5),
        p95_miss_latency: tally.miss_hist.quantile(0.95),
        mem_service_frac: ratio(tally.mem_serviced, delta.get("miss_count")),
        energy_pj,
        edp,
        d2m_energy_frac: dynamic_d2m / energy_pj.max(f64::MIN_POSITIVE),
        invalidations: delta.get("inv.received"),
        private_miss_frac: ratio(private_misses, classified),
        dir_or_md3_accesses: dir_or_md3,
        md2_or_l2tag_accesses: md2_or_l2tag,
        counters: delta,
    };
    Ok((metrics, warm_counters, sys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2m_workloads::catalog;

    fn quick() -> RunConfig {
        RunConfig {
            instructions: 60_000,
            warmup_instructions: 20_000,
            seed: 7,
        }
    }

    #[test]
    fn run_produces_sane_metrics() {
        let cfg = MachineConfig::default();
        let spec = catalog::by_name("swaptions").unwrap();
        let m = run_one_checked(SystemKind::Base2L, &cfg, &spec, &quick()).unwrap();
        assert!(m.instructions >= 60_000);
        assert!(m.cycles > 0 && m.ipc > 0.1 && m.ipc <= cfg.core.base_ipc * cfg.nodes as f64);
        assert!(m.energy_pj > 0.0 && m.edp > 0.0);
        assert!(m.msgs_per_kilo_inst >= 0.0);
    }

    #[test]
    fn base_2l_runs_an_l1_too_wide_for_d2m() {
        // 16 L1-D ways overflow D2M's 3-bit L1 LI way field, so the D2M
        // systems refuse this config when built; the baseline has no LIs.
        let mut cfg = MachineConfig::default();
        cfg.l1d = d2m_common::config::CacheGeometry::new(64, 16);
        let spec = catalog::by_name("tpc-c").unwrap();
        let m = run_one_checked(SystemKind::Base2L, &cfg, &spec, &quick()).unwrap();
        assert!(m.instructions >= 60_000 && m.ipc > 0.0);
    }

    #[test]
    fn d2m_reduces_traffic_on_a_private_workload() {
        let cfg = MachineConfig::default();
        // A cache-warm multiprogrammed workload: private regions make D2M's
        // misses directory-free and NS hits local.
        let mut spec =
            d2m_workloads::WorkloadSpec::base(d2m_workloads::Category::Server, "tiny-private");
        spec.private_lines = 1 << 12;
        spec.warm_regions = 60;
        let rc = RunConfig {
            instructions: 500_000,
            warmup_instructions: 400_000,
            seed: 7,
        };
        let base = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc).unwrap();
        let d2m = run_one_checked(SystemKind::D2mNsR, &cfg, &spec, &rc).unwrap();
        assert!(
            d2m.msgs_per_kilo_inst < base.msgs_per_kilo_inst,
            "D2M {} vs base {}",
            d2m.msgs_per_kilo_inst,
            base.msgs_per_kilo_inst
        );
        // Server mixes are fully private (Table V).
        assert!(d2m.private_miss_frac > 0.99);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = MachineConfig::default();
        let spec = catalog::by_name("google").unwrap();
        let a = run_one_checked(SystemKind::D2mNs, &cfg, &spec, &quick()).unwrap();
        let b = run_one_checked(SystemKind::D2mNs, &cfg, &spec, &quick()).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.invalidations, b.invalidations);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn warmup_is_excluded() {
        let cfg = MachineConfig::default();
        let spec = catalog::by_name("swaptions").unwrap();
        let rc = RunConfig {
            instructions: 50_000,
            warmup_instructions: 100_000,
            seed: 1,
        };
        let long_warm = run_one_checked(SystemKind::Base2L, &cfg, &spec, &rc).unwrap();
        // After a long warmup the small code footprint is resident: the
        // measured L1-I miss ratio must be far below the cold one.
        assert!(long_warm.l1i_miss_pct < 1.0, "{}", long_warm.l1i_miss_pct);
    }

    #[test]
    fn a_caller_built_system_runs_the_same_loop() {
        // report's ablations read their numbers from caller-built systems,
        // so that path must give what the kind-built one gives, byte for
        // byte.
        let cfg = MachineConfig::default();
        let spec = catalog::by_name("tpc-c").unwrap();
        let rc = quick();
        for kind in SystemKind::ALL.into_iter().filter(|k| k.is_d2m()) {
            let built = AnySystem::build(kind, &cfg, rc.seed);
            let a = run_system_observed(built, &cfg, &spec, &rc).unwrap();
            let b = run_one_observed(kind, &cfg, &spec, &rc).unwrap();
            assert_eq!(
                a.to_json().to_string_compact(),
                b.to_json().to_string_compact(),
                "{}",
                kind.name()
            );
        }
    }
}
