//! The traced per-layer profile.
//!
//! Every number is either timed from this crate around calls into one
//! layer's public functions, with a span per timed stretch, or is a
//! deterministic work count read back through `counters()`. `README.md`
//! maps each metric to the end-to-end metric and workload it should move.

use std::hint::black_box;
use std::time::Instant;

use d2m_cache::{Banked, SetAssoc};
use d2m_common::addr::LINES_PER_REGION;
use d2m_common::json::ToJson;
use d2m_common::stats::Counters;
use d2m_common::{fnv1a_64, MachineConfig, NodeId, SimRng};
use d2m_core::PackedLiArray;
use d2m_energy::{EnergyAccount, EnergyEvent, EnergyModel};
use d2m_noc::{Endpoint, MsgClass, Noc};
use d2m_sim::{
    run_one_checked, run_one_observed, run_sweep_checkpointed, run_sweep_observed_with_jobs,
    run_sweep_with_jobs, AnySystem, RunConfig, SweepResult, SweepSpec, SystemKind,
};
use d2m_workloads::{Access, TraceGen, WorkloadSpec};

use crate::trace::Tracer;
use crate::workload::{self, TempFile};
use crate::{alloc, check_failed, stats, CheckFailed, Metric};

/// Batches replayed per span: large enough that span bookkeeping is noise,
/// small enough that the span file shows how a replay's cost evolves.
const CHUNK_BATCHES: usize = 512;
/// Cycles between replayed batches: about what the runner's per-node clocks
/// advance per batch, so late hits stay representative.
const CYCLES_PER_BATCH: u64 = 40;
/// Calls per timed sample of a per-operation cost.
const OP_ITERS: usize = 1 << 18;
/// Samples per per-operation cost; the median is kept.
const SAMPLES: usize = 5;
/// Repetitions of each checkpoint-layer sweep; the median is kept.
const SWEEP_REPS: usize = 3;

/// The per-layer metrics and how many cells or runs produced them.
pub struct Profile {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Cells, runs and replays attempted.
    pub attempted: u64,
}

/// Runs every layer measurement once, recording spans into `tr`.
pub fn profile(seed: u64, jobs: usize, tr: &mut Tracer) -> Result<Profile, CheckFailed> {
    let cfg = MachineConfig::default();
    let mut p = Profile {
        metrics: Vec::new(),
        attempted: 0,
    };
    let ops = op_costs(&cfg, seed, tr);
    let gen = deep_layers(&cfg, seed, &ops, tr, &mut p)?;
    matrix_layers(&cfg, seed, jobs, gen, tr, &mut p)?;
    checkpoint_layers(seed, tr, &mut p)?;
    probe_layers(seed, tr, &mut p)?;
    ops.report(&mut p.metrics);
    // A failed cell, run or replay stops the profile with a named check, so
    // a finished profile failed none.
    p.metrics.push(Metric::new("error_rate", 0.0, "ratio"));
    Ok(p)
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Metric-name form of a system: `base_2l`, ..., `d2m_ns_r`.
fn slug(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Base2L => "base_2l",
        SystemKind::Base3L => "base_3l",
        SystemKind::D2mFs => "d2m_fs",
        SystemKind::D2mNs => "d2m_ns",
        SystemKind::D2mNsR => "d2m_ns_r",
    }
}

/// Host cost in ns of one call to each public per-operation function the
/// D2M access path and the generator are built from.
struct OpCosts {
    banked_get: f64,
    banked_victim_way: f64,
    set_assoc_peek: f64,
    count_valid: f64,
    count_node_local: f64,
    noc_send: f64,
    energy_record: f64,
    zipf: f64,
}

impl OpCosts {
    fn report(&self, out: &mut Vec<Metric>) {
        for (name, ns) in [
            ("cache.banked_get_ns", self.banked_get),
            ("cache.banked_victim_way_ns", self.banked_victim_way),
            ("cache.set_assoc_peek_ns", self.set_assoc_peek),
            ("core.packed_count_valid_ns", self.count_valid),
            ("core.packed_count_node_local_ns", self.count_node_local),
            ("noc.send_ns", self.noc_send),
            ("energy.record_ns", self.energy_record),
            ("common.zipf_ns", self.zipf),
        ] {
            out.push(Metric::new(name, ns, "ns"));
        }
    }

    /// Estimated ns per access of each D2M access-path stage over a replay:
    /// metadata resolve, data arrays, NoC accounting and energy accounting.
    /// Each is an operation count from the replay's counters times the
    /// operation's measured cost; what the model misses stays unattributed.
    fn stages(&self, cfg: &MachineConfig, r: &Replay) -> [f64; 4] {
        let c = |name: &str| r.counters.get(name) as f64;
        let md2_misses = c("md2.accesses") - c("md2.hits");
        // An MD2 install scans every way's node-resident line count for a
        // victim; an MD3 allocation (case D4) scans every way's residents.
        let md = (c("md1.accesses") + c("md2.accesses")) * self.banked_get
            + c("md3.accesses") * self.set_assoc_peek
            + md2_misses * (cfg.md2.ways as f64 * self.count_node_local + self.banked_victim_way)
            + c("case.d4") * (cfg.md3.ways as f64 * self.count_valid + self.banked_victim_way);
        let l1_misses = c("l1i.misses") + c("l1d.misses");
        // Every access reads an L1; a miss also probes the LLC level and
        // picks a victim for the fill.
        let data = (c("l1i.hits") + c("l1d.hits") + l1_misses) * self.banked_get
            + l1_misses * (self.banked_get + self.banked_victim_way);
        let noc = c("noc.msg_total") * self.noc_send;
        let energy = r.energy_events * self.energy_record;
        [md, data, noc, energy].map(|ns| ns / r.accesses)
    }
}

/// Median ns per call of `op` over [`SAMPLES`] samples of [`OP_ITERS`] calls.
fn time_op(tr: &mut Tracer, layer: &'static str, name: &str, mut op: impl FnMut(usize)) -> f64 {
    for i in 0..OP_ITERS / 8 {
        op(i);
    }
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let span = tr.begin(layer, name);
        let t = Instant::now();
        for i in 0..OP_ITERS {
            op(i);
        }
        samples.push(ns_since(t) / OP_ITERS as f64);
        tr.end(span, OP_ITERS as u64);
    }
    stats::median(&samples)
}

fn op_costs(cfg: &MachineConfig, seed: u64, tr: &mut Tracer) -> OpCosts {
    let nodes = cfg.nodes;
    let mut rng = SimRng::from_label(seed, "simbench/op-costs");

    // An MD2-shaped arena, full, probed with keys about half of which hit.
    let capacity = (cfg.md2.sets * cfg.md2.ways) as u64;
    let keys: Vec<u64> = (0..4096).map(|_| rng.below(2 * capacity)).collect();
    let mut md2: Banked<[u64; 2]> = Banked::with_hashed_index(nodes, cfg.md2.sets, cfg.md2.ways);
    for key in 0..capacity {
        for bank in 0..nodes {
            let set = md2.set_index(key);
            let way = md2.victim_way(bank, set);
            md2.insert_at(bank, set, way, key, [key; 2]);
        }
    }
    let banked_get = time_op(tr, "cache", "Banked::get", |i| {
        let key = keys[i % keys.len()];
        let set = md2.set_index(key);
        black_box(md2.get(i % nodes, set, key).is_some());
    });
    let sets = cfg.md2.sets;
    let banked_victim_way = time_op(tr, "cache", "Banked::victim_way", |i| {
        black_box(md2.victim_way(i % nodes, (i / nodes) % sets));
    });

    let md3_capacity = (cfg.md3.sets * cfg.md3.ways) as u64;
    let mut md3: SetAssoc<[u64; 2]> = SetAssoc::with_hashed_index(cfg.md3.sets, cfg.md3.ways);
    for key in 0..md3_capacity {
        let set = md3.set_index(key);
        let way = md3.victim_way(set);
        md3.insert_at(set, way, key, [key; 2]);
    }
    let set_assoc_peek = time_op(tr, "cache", "SetAssoc::peek", |i| {
        let key = keys[i % keys.len()] % (2 * md3_capacity);
        black_box(md3.peek(md3.set_index(key), key).is_some());
    });

    let lis: Vec<PackedLiArray> = (0..1024)
        .map(|_| {
            let mut li = PackedLiArray::INVALID;
            for off in 0..LINES_PER_REGION {
                li.set_raw(off, rng.below(64) as u8);
            }
            li
        })
        .collect();
    let count_valid = time_op(tr, "core", "PackedLiArray::count_valid", |i| {
        black_box(black_box(&lis[i % lis.len()]).count_valid());
    });
    let count_node_local = time_op(tr, "core", "PackedLiArray::count_node_local", |i| {
        black_box(black_box(&lis[i % lis.len()]).count_node_local());
    });

    let mut noc = Noc::new(cfg.lat.noc);
    let classes: Vec<MsgClass> = MsgClass::ALL
        .into_iter()
        .filter(|c| !c.is_offchip())
        .collect();
    let noc_send = time_op(tr, "noc", "Noc::send", |i| {
        let from = Endpoint::Node(NodeId::new((i % nodes) as u8));
        black_box(noc.send(classes[i % classes.len()], from, Endpoint::FarSide));
    });

    let mut energy = EnergyAccount::new(EnergyModel::default());
    let energy_record = time_op(tr, "energy", "EnergyAccount::record", |i| {
        energy.record(EnergyEvent::ALL[i % EnergyEvent::ALL.len()], 1);
    });
    black_box(energy.total_pj());

    let zipf = time_op(tr, "common", "SimRng::zipf", |_| {
        black_box(rng.zipf(4096, 1.15));
    });

    OpCosts {
        banked_get,
        banked_victim_way,
        set_assoc_peek,
        count_valid,
        count_node_local,
        noc_send,
        energy_record,
        zipf,
    }
}

/// A pre-generated access stream, exactly what `run_one` consumes for one
/// run config: the warmup batches, then the measured batches.
struct Trace {
    accesses: Vec<Access>,
    batch_ends: Vec<usize>,
    gen_ns: f64,
}

fn generate(spec: &WorkloadSpec, nodes: usize, rc: &RunConfig, tr: &mut Tracer) -> Trace {
    let mut gen = TraceGen::new(spec, nodes, rc.seed);
    let (mut accesses, mut batch_ends) = (Vec::new(), Vec::new());
    let span = tr.begin("workloads", &format!("TraceGen::next_batch {}", spec.name));
    let t = Instant::now();
    for target in [rc.warmup_instructions, rc.instructions] {
        let mut insts = 0;
        while insts < target {
            insts += gen.next_batch(&mut accesses);
            batch_ends.push(accesses.len());
        }
    }
    let gen_ns = ns_since(t);
    tr.end(span, batch_ends.len() as u64);
    Trace {
        accesses,
        batch_ends,
        gen_ns,
    }
}

/// One system replaying a [`Trace`] through `AnySystem::access`.
struct Replay {
    accesses: f64,
    ns: f64,
    counters: Counters,
    checksum: u64,
    energy_events: f64,
    build_ns: f64,
    build_bytes: f64,
    steady_allocs: f64,
    steady_accesses: f64,
    determinism_errors: u64,
    coherence_errors: u64,
}

/// Structure-energy events recorded so far: each event's energy divided by
/// its per-event energy.
fn energy_events(acc: &EnergyAccount) -> f64 {
    EnergyEvent::ALL
        .iter()
        .map(|&e| {
            let pj = acc.model().event_pj(e);
            if pj > 0.0 {
                (acc.event_pj_total(e) / pj).round()
            } else {
                0.0
            }
        })
        .sum()
}

fn replay(
    kind: SystemKind,
    cfg: &MachineConfig,
    seed: u64,
    trace: &Trace,
    tr: &mut Tracer,
) -> Result<Replay, CheckFailed> {
    let layer = if kind.is_d2m() { "core" } else { "baseline" };
    let bytes0 = alloc::bytes();
    let span = tr.begin("sim.runner", "AnySystem::build");
    let t = Instant::now();
    let mut sys = AnySystem::build(kind, cfg, seed);
    let build_ns = ns_since(t);
    tr.end(span, 1);
    let build_bytes = (alloc::bytes() - bytes0) as f64;

    let chunks: Vec<&[usize]> = trace.batch_ends.chunks(CHUNK_BATCHES).collect();
    // Steady state: allocations after the first quarter of the replay.
    let steady_from = chunks.len() / 4;
    let (mut ns, mut start, mut batch) = (0.0, 0usize, 0u64);
    let (mut allocs0, mut steady_start) = (alloc::allocs(), 0usize);
    for (c, chunk) in chunks.iter().enumerate() {
        if c == steady_from {
            allocs0 = alloc::allocs();
            steady_start = start;
        }
        let first = start;
        let span = tr.begin(layer, "AnySystem::access");
        let t = Instant::now();
        for &end in *chunk {
            let now = batch * CYCLES_PER_BATCH;
            for a in &trace.accesses[start..end] {
                sys.access(a, now).map_err(|e| {
                    check_failed("failed_cell", format!("{} replay: {e}", kind.name()))
                })?;
            }
            start = end;
            batch += 1;
        }
        ns += ns_since(t);
        tr.end(span, (start - first) as u64);
    }
    let steady_allocs = (alloc::allocs() - allocs0) as f64;
    let counters = sys.counters();
    Ok(Replay {
        accesses: trace.accesses.len() as f64,
        ns,
        checksum: fnv1a_64(counters.to_json().to_string_compact().as_bytes()),
        counters,
        energy_events: energy_events(sys.energy()),
        build_ns,
        build_bytes,
        steady_allocs,
        steady_accesses: (trace.accesses.len() - steady_start) as f64,
        determinism_errors: sys.as_d2m().map_or(0, |d| d.determinism_errors()),
        coherence_errors: sys.coherence_errors(),
    })
}

/// Generator time and accesses, summed over every generated trace.
#[derive(Default)]
struct GenTally {
    ns: f64,
    accesses: f64,
}

/// The `deep-run` layers: generator, each system's access path over the
/// same pre-generated trace, D2M stage attribution and work counts, and
/// `run_one`'s own cost.
fn deep_layers(
    cfg: &MachineConfig,
    seed: u64,
    ops: &OpCosts,
    tr: &mut Tracer,
    p: &mut Profile,
) -> Result<GenTally, CheckFailed> {
    let rc = workload::deep_rc(seed);
    let mut untraced = Tracer::new(false);
    let mut gen = GenTally::default();
    let n_sys = SystemKind::ALL.len();
    let (mut access_ns, mut accesses) = (vec![0.0; n_sys], vec![0.0; n_sys]);
    let mut stage_ns = vec![[0.0; 4]; n_sys];
    let (mut d2m_work, mut d2m_accesses, mut d2m_energy) = (Counters::new(), 0.0, 0.0);
    let (mut determinism, mut coherence) = (0u64, 0u64);
    let (mut build_ns, mut build_bytes, mut builds) = (0.0, 0.0, 0.0);
    let (mut steady_allocs, mut steady_accesses) = (0.0, 0.0);
    let (mut self_ns, mut run_accesses) = (0.0, 0.0);
    // Index 0: baselines, 1: D2M.
    let (mut class_ns, mut class_insts) = ([0.0; 2], [0.0; 2]);

    for name in workload::DEEP_WORKLOADS {
        let spec = workload::by_name(name)?;
        let trace = generate(&spec, cfg.nodes, &rc, tr);
        gen.ns += trace.gen_ns;
        gen.accesses += trace.accesses.len() as f64;
        for (s, kind) in SystemKind::ALL.into_iter().enumerate() {
            let traced = replay(kind, cfg, rc.seed, &trace, tr)?;
            let plain = replay(kind, cfg, rc.seed, &trace, &mut untraced)?;
            if traced.checksum != plain.checksum {
                return Err(check_failed(
                    "checksum_mismatch",
                    format!(
                        "{} on {name}: counters differ between the traced and the untraced replay",
                        kind.name()
                    ),
                ));
            }
            for r in [&traced, &plain] {
                determinism += r.determinism_errors;
                coherence += r.coherence_errors;
                build_ns += r.build_ns;
                build_bytes += r.build_bytes;
                builds += 1.0;
            }
            if determinism != 0 || coherence != 0 {
                let check = if determinism != 0 {
                    "determinism_errors"
                } else {
                    "coherence_errors"
                };
                return Err(check_failed(
                    check,
                    format!(
                        "{} on {name}: {determinism} deterministic-LI and {coherence} \
                         value-coherence violations in the replay",
                        kind.name()
                    ),
                ));
            }
            // Span bookkeeping allocates, so steady-state allocations come
            // from the untraced replay.
            steady_allocs += plain.steady_allocs;
            steady_accesses += plain.steady_accesses;
            access_ns[s] += traced.ns;
            accesses[s] += traced.accesses;
            if kind.is_d2m() {
                for (total, est) in stage_ns[s].iter_mut().zip(ops.stages(cfg, &traced)) {
                    *total += est * traced.accesses;
                }
                d2m_work.merge_prefixed("", &traced.counters);
                d2m_accesses += traced.accesses;
                d2m_energy += traced.energy_events;
            }

            let span = tr.begin(
                "sim.runner",
                &format!("run_one_checked {}/{name}", kind.name()),
            );
            let t = Instant::now();
            let m = run_one_checked(kind, cfg, &spec, &rc)
                .map_err(|e| check_failed("failed_cell", e))?;
            let wall = ns_since(t);
            tr.end(span, 1);
            self_ns += wall - trace.gen_ns - traced.ns;
            run_accesses += traced.accesses;
            let class = usize::from(kind.is_d2m());
            class_ns[class] += wall;
            class_insts[class] += (m.instructions + rc.warmup_instructions) as f64;
            p.attempted += 3;
        }
    }

    let out = &mut p.metrics;
    for (s, kind) in SystemKind::ALL.into_iter().enumerate() {
        let layer = if kind.is_d2m() { "core" } else { "baseline" };
        let measured = access_ns[s] / accesses[s];
        out.push(Metric::new(
            format!("{layer}.{}.ns_per_access", slug(kind)),
            measured,
            "ns",
        ));
        if kind.is_d2m() {
            let est = stage_ns[s].map(|ns| ns / accesses[s]);
            for (stage, ns) in ["md", "data", "noc", "energy"].iter().zip(est) {
                out.push(Metric::new(
                    format!("core.{}.est_{stage}_ns", slug(kind)),
                    ns,
                    "ns",
                ));
            }
            out.push(Metric::new(
                format!("core.{}.unattributed_ns", slug(kind)),
                measured - est.iter().sum::<f64>(),
                "ns",
            ));
        }
    }
    let w = |name: &str| d2m_work.get(name) as f64;
    let per_kacc = |x: f64| x / d2m_accesses * 1000.0;
    out.extend([
        Metric::new(
            "core.md1_hit_ratio",
            w("md1.hits") / w("md1.accesses"),
            "ratio",
        ),
        Metric::new(
            "core.md2_hit_ratio",
            w("md2.hits") / w("md2.accesses"),
            "ratio",
        ),
        Metric::new("core.md3_per_kacc", per_kacc(w("md3.accesses")), "1/kacc"),
        Metric::new(
            "core.md2_evictions_per_kacc",
            per_kacc(w("md2.evictions")),
            "1/kacc",
        ),
        Metric::new("noc.msgs_per_kacc", per_kacc(w("noc.msg_total")), "1/kacc"),
        Metric::new("energy.events_per_kacc", per_kacc(d2m_energy), "1/kacc"),
        Metric::new("core.determinism_errors", determinism as f64, "count"),
        Metric::new("core.coherence_errors", coherence as f64, "count"),
        Metric::new("runner.self_ns_per_access", self_ns / run_accesses, "ns"),
        Metric::new("runner.build_ms", build_ns / builds / 1e6, "ms"),
        Metric::new(
            "alloc.steady_per_kacc",
            steady_allocs / steady_accesses * 1000.0,
            "1/kacc",
        ),
        Metric::new("alloc.build_bytes", build_bytes / builds, "bytes"),
        Metric::new(
            "d2m_minst_per_s",
            class_insts[1] / class_ns[1] * 1e3,
            "Minst/s",
        ),
        Metric::new(
            "base_minst_per_s",
            class_insts[0] / class_ns[0] * 1e3,
            "Minst/s",
        ),
    ]);
    Ok(gen)
}

/// A plain sweep at `jobs` workers, timed, with failures checked.
fn timed_sweep(
    spec: &SweepSpec,
    jobs: usize,
    tr: &mut Tracer,
) -> Result<(f64, SweepResult), CheckFailed> {
    let span = tr.begin("sim.sweep", &format!("run_sweep_with_jobs jobs={jobs}"));
    let t = Instant::now();
    let res = run_sweep_with_jobs(spec, jobs);
    let ns = ns_since(t);
    tr.end(span, spec.num_cells() as u64);
    workload::no_failures(&res)?;
    Ok((ns, res))
}

/// The `figure-matrix` layers: generator share, per-cell cost, and the
/// sweep pool against the same cells run one at a time.
fn matrix_layers(
    cfg: &MachineConfig,
    seed: u64,
    jobs: usize,
    mut gen: GenTally,
    tr: &mut Tracer,
    p: &mut Profile,
) -> Result<(), CheckFailed> {
    let spec = workload::matrix_spec(seed)?;
    let systems = spec.systems.len();
    let mut gen_ns = Vec::with_capacity(spec.workloads.len());
    for (w, ws) in spec.workloads.iter().enumerate() {
        let trace = generate(ws, cfg.nodes, &spec.cell_run_config(w * systems), tr);
        gen.ns += trace.gen_ns;
        gen.accesses += trace.accesses.len() as f64;
        gen_ns.push(trace.gen_ns);
    }

    let n = spec.num_cells();
    let (mut cell_ns, mut cells, mut cell_gen_ns) = (Vec::with_capacity(n), Vec::new(), 0.0);
    for i in 0..n {
        let (c, w, s) = spec.cell_coords(i);
        let span = tr.begin("sim.runner", "run_one_checked");
        let t = Instant::now();
        let m = run_one_checked(
            spec.systems[s],
            &spec.configs[c].config,
            &spec.workloads[w],
            &spec.cell_run_config(i),
        )
        .map_err(|e| check_failed("failed_cell", e))?;
        cell_ns.push(ns_since(t));
        tr.end(span, 1);
        cell_gen_ns += gen_ns[w];
        cells.push(m);
    }
    let cells_ns: f64 = cell_ns.iter().sum();

    let (one_ns, one) = timed_sweep(&spec, 1, tr)?;
    let (many_ns, many) = timed_sweep(&spec, jobs, tr)?;
    if one.cells.iter().zip(&cells).any(|(c, m)| c.metrics != *m) {
        return Err(check_failed(
            "sweep_mismatch",
            "a sweep cell differs from the same cell run alone through run_one_checked",
        ));
    }
    workload::same(
        "jobs_mismatch",
        &one.to_json_string(),
        &many.to_json_string(),
    )?;
    p.attempted += 3 * n as u64;

    p.metrics.extend([
        Metric::new("workloads.ns_per_access", gen.ns / gen.accesses, "ns"),
        Metric::new("workloads.share", cell_gen_ns / cells_ns, "ratio"),
        Metric::new(
            "runner.cell_ms_p50",
            stats::quantile(&cell_ns, 0.5) / 1e6,
            "ms",
        ),
        Metric::new(
            "runner.cell_ms_p95",
            stats::quantile(&cell_ns, 0.95) / 1e6,
            "ms",
        ),
        Metric::new(
            "sweep.parallel_efficiency",
            one_ns / (jobs as f64 * many_ns),
            "ratio",
        ),
        Metric::new("sweep.vs_cells_ratio", one_ns / cells_ns, "ratio"),
    ]);
    Ok(())
}

/// The checkpoint layer on the `journaled-observed` grid: journal cost per
/// cell, pure parsing, resume from half a journal, and the observed sweep.
fn checkpoint_layers(seed: u64, tr: &mut Tracer, p: &mut Profile) -> Result<(), CheckFailed> {
    let jobs = workload::TIMED_JOBS;
    let spec = workload::grid_spec(seed)?;
    let n = spec.num_cells();
    let journal = TempFile::new("profile")?;
    let io = |e: &dyn std::fmt::Display| check_failed("journal_io", e);
    let checkpointed = |tr: &mut Tracer, resume: bool, name: &str| {
        let span = tr.begin("sim.checkpoint", name);
        let t = Instant::now();
        let res = run_sweep_checkpointed(&spec, jobs, &journal.0, resume);
        let ns = ns_since(t);
        tr.end(span, n as u64);
        res.map(|r| (ns, r.to_json_string())).map_err(|e| io(&e))
    };

    let (mut plain_ns, mut journaled_ns, mut reference) = (Vec::new(), Vec::new(), String::new());
    for _ in 0..SWEEP_REPS {
        let (ns, plain) = timed_sweep(&spec, jobs, tr)?;
        plain_ns.push(ns);
        reference = plain.to_json_string();
        let (ns, json) = checkpointed(tr, false, "run_sweep_checkpointed fresh")?;
        journaled_ns.push(ns);
        workload::same("journal_mismatch", &reference, &json)?;
    }
    let text = std::fs::read_to_string(&journal.0).map_err(|e| io(&e))?;

    let mut load_ns = Vec::new();
    for _ in 0..SWEEP_REPS {
        let (ns, json) = checkpointed(tr, true, "run_sweep_checkpointed complete")?;
        load_ns.push(ns);
        workload::same("resume_mismatch", &reference, &json)?;
    }

    std::fs::write(&journal.0, workload::half_journal(&text, n)?).map_err(|e| io(&e))?;
    let (resume_ns, json) = checkpointed(tr, true, "run_sweep_checkpointed half")?;
    workload::same("resume_mismatch", &reference, &json)?;

    let span = tr.begin("sim.sweep", "run_sweep_observed_with_jobs");
    let t = Instant::now();
    let observed = run_sweep_observed_with_jobs(&spec, jobs);
    let observe_ns = ns_since(t);
    tr.end(span, n as u64);
    workload::no_failures(&observed.result)?;
    workload::same(
        "observed_mismatch",
        &reference,
        &observed.result.to_json_string(),
    )?;
    p.attempted += (2 * SWEEP_REPS * n + (n - n / 2) + n) as u64;

    let append_ns = stats::median(&journaled_ns) - stats::median(&plain_ns);
    p.metrics.extend([
        Metric::new("checkpoint.load_ms", stats::median(&load_ns) / 1e6, "ms"),
        Metric::new(
            "checkpoint.append_us_per_cell",
            append_ns / n as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "checkpoint.bytes_per_cell",
            text.len() as f64 / n as f64,
            "bytes",
        ),
        Metric::new("resume_s", resume_ns / 1e9, "s"),
        Metric::new("observe_s", observe_ns / 1e9, "s"),
    ]);
    Ok(())
}

/// The probe layer: `run_one_observed` against `run_one_checked` on every
/// cell of the `journaled-observed` grid.
fn probe_layers(seed: u64, tr: &mut Tracer, p: &mut Profile) -> Result<(), CheckFailed> {
    let spec = workload::grid_spec(seed)?;
    let (mut overhead_ns, mut accesses, mut events) = (0.0, 0.0, 0.0);
    for i in 0..spec.num_cells() {
        let (c, w, s) = spec.cell_coords(i);
        let (kind, cfg, ws) = (spec.systems[s], &spec.configs[c].config, &spec.workloads[w]);
        let rc = spec.cell_run_config(i);
        let failed = |e| check_failed("failed_cell", e);

        let span = tr.begin("sim.runner", "run_one_checked");
        let t = Instant::now();
        let m = run_one_checked(kind, cfg, ws, &rc).map_err(failed)?;
        let checked_ns = ns_since(t);
        tr.end(span, 1);

        let span = tr.begin("sim.runner", "run_one_observed");
        let t = Instant::now();
        let o = run_one_observed(kind, cfg, ws, &rc).map_err(failed)?;
        let observed_ns = ns_since(t);
        tr.end(span, 1);

        if o.metrics != m {
            return Err(check_failed(
                "observed_mismatch",
                format!(
                    "{}/{}: observing the run changed its metrics",
                    kind.name(),
                    ws.name
                ),
            ));
        }
        overhead_ns += observed_ns - checked_ns;
        accesses += (o.warmup_counters.get("accesses") + o.metrics.counters.get("accesses")) as f64;
        events += o.probe.events as f64;
        p.attempted += 2;
    }
    p.metrics.extend([
        Metric::new("probe.overhead_ns_per_access", overhead_ns / accesses, "ns"),
        Metric::new(
            "probe.events_per_kacc",
            events / accesses * 1000.0,
            "1/kacc",
        ),
    ]);
    Ok(())
}
