//! The observability layer's two contracts, end to end:
//!
//! 1. **Zero cost when off, zero perturbation when on.** Driving a system
//!    through `access_probed` — with no probe, a [`NoopProbe`], or a full
//!    [`RecordingProbe`] — must leave every counter byte-identical to the
//!    plain `access` path. The probe only *reads* the transaction stream.
//! 2. **Deterministic aggregation.** An observed sweep's histogram JSON is
//!    byte-identical regardless of the worker-thread count, like the scalar
//!    sweep JSON before it.

use d2m_common::json::ToJson;
use d2m_common::probe::{NoopProbe, Probe, RecordingProbe};
use d2m_common::stats::Counters;
use d2m_common::MachineConfig;
use d2m_sim::{
    run_one_checked, run_one_observed, run_sweep_observed_with_jobs, run_sweep_with_jobs,
    AnySystem, ConfigPoint, RunConfig, SweepSpec, SystemKind,
};
use d2m_workloads::{catalog, Access, TraceGen};

fn trace(workload: &str, seed: u64, batches: usize) -> Vec<Access> {
    let spec = catalog::by_name(workload).expect("catalog workload");
    let mut gen = TraceGen::new(&spec, 8, seed);
    let mut out = Vec::new();
    for _ in 0..batches {
        gen.next_batch(&mut out);
    }
    out
}

fn drive(kind: SystemKind, accs: &[Access], mut probe: Option<&mut dyn Probe>) -> Counters {
    let cfg = MachineConfig::default();
    let mut sys = AnySystem::build(kind, &cfg, 1);
    for a in accs {
        match probe.as_deref_mut() {
            Some(p) => sys.access_probed(a, 0, p).unwrap(),
            None => sys.access(a, 0).unwrap(),
        };
    }
    sys.counters()
}

#[test]
fn probes_never_perturb_the_simulation() {
    let accs = trace("swaptions", 11, 20);
    for kind in [SystemKind::Base2L, SystemKind::Base3L, SystemKind::D2mNsR] {
        let plain = drive(kind, &accs, None);
        let mut noop = NoopProbe;
        let nooped = drive(kind, &accs, Some(&mut noop));
        let mut rec = RecordingProbe::new();
        let recorded = drive(kind, &accs, Some(&mut rec));
        assert_eq!(
            plain.to_json().to_string_pretty(),
            nooped.to_json().to_string_pretty(),
            "{}: NoopProbe changed counters",
            kind.name()
        );
        assert_eq!(
            plain.to_json().to_string_pretty(),
            recorded.to_json().to_string_pretty(),
            "{}: RecordingProbe changed counters",
            kind.name()
        );
        assert_eq!(rec.events, accs.len() as u64, "{}", kind.name());
        assert_eq!(rec.latency.count(), accs.len() as u64, "{}", kind.name());
    }
}

#[test]
fn recording_probe_tallies_are_consistent() {
    let accs = trace("tpc-c", 37, 20);
    let mut rec = RecordingProbe::new();
    drive(SystemKind::D2mNsR, &accs, Some(&mut rec));
    let n = accs.len() as u64;
    assert_eq!(rec.by_kind.iter().sum::<u64>(), n);
    assert_eq!(rec.by_level.iter().sum::<u64>(), n);
    assert_eq!(rec.by_serviced.iter().sum::<u64>(), n);
    assert!(rec.l1_hits > 0 && rec.l1_hits < n);
    // A shared workload must exercise lookups beyond the node level: an
    // L1 miss whose location is already cached in MD1 legitimately resolves
    // at level "l1", but some misses must still reach MD2/MD3.
    assert!(rec.by_level[1] + rec.by_level[2] > 0);
}

#[test]
fn observed_run_metrics_equal_plain_run_metrics() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("swaptions").unwrap();
    let rc = RunConfig {
        instructions: 30_000,
        warmup_instructions: 10_000,
        seed: 3,
    };
    for kind in [SystemKind::Base3L, SystemKind::D2mNs] {
        let plain = run_one_checked(kind, &cfg, &spec, &rc).unwrap();
        let obs = run_one_observed(kind, &cfg, &spec, &rc).unwrap();
        assert_eq!(
            plain.to_json().to_string_pretty(),
            obs.metrics.to_json().to_string_pretty(),
            "{}: observation perturbed the metrics",
            kind.name()
        );
        // Phase markers bracket the two windows in order.
        let phases: Vec<&str> = obs.probe.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(phases, ["warmup", "measured"]);
        assert!(obs.probe.events > 0);
        assert!(obs.traffic.total() > 0, "{}", kind.name());
    }
}

#[test]
fn observed_sweep_histograms_are_thread_count_invariant() {
    let spec = SweepSpec {
        name: "obs-grid".into(),
        configs: vec![ConfigPoint {
            label: "default".into(),
            config: MachineConfig::default(),
        }],
        systems: vec![SystemKind::Base2L, SystemKind::D2mNsR],
        workloads: vec![
            catalog::by_name("swaptions").unwrap(),
            catalog::by_name("mix2").unwrap(),
        ],
        instructions: 15_000,
        warmup_instructions: 4_000,
        master_seed: 42,
    };
    let one = run_sweep_observed_with_jobs(&spec, 1);
    let four = run_sweep_observed_with_jobs(&spec, 4);
    assert_eq!(
        one.histograms_json().to_string_pretty(),
        four.histograms_json().to_string_pretty(),
        "histogram JSON must not depend on the worker count"
    );
    assert_eq!(
        one.result.to_json_string(),
        four.result.to_json_string(),
        "scalar JSON must not depend on the worker count"
    );
    // And observation must not change the scalar sweep output either.
    let plain = run_sweep_with_jobs(&spec, 2);
    assert_eq!(plain.to_json_string(), one.result.to_json_string());
}
