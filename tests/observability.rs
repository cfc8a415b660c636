//! The observability layer's two contracts, end to end:
//!
//! 1. **Zero perturbation.** An observed run (`run_one_observed`: a
//!    [`RecordingProbe`] fed every access, plus the traffic matrix) must
//!    produce metrics byte-identical to the plain `run_one_checked`, whose
//!    loop holds no probe code. The probe only *reads* each access's
//!    result.
//! 2. **Deterministic aggregation.** An observed sweep's histogram JSON is
//!    byte-identical regardless of the worker-thread count, like the scalar
//!    sweep JSON before it.
//!
//! [`RecordingProbe`]: d2m_common::probe::RecordingProbe

use d2m_common::json::ToJson;
use d2m_common::MachineConfig;
use d2m_sim::{
    run_one_checked, run_one_observed, run_sweep_observed_with_jobs, run_sweep_with_jobs,
    ConfigPoint, RunConfig, SweepSpec, SystemKind,
};
use d2m_workloads::catalog;

fn rc(seed: u64) -> RunConfig {
    RunConfig {
        instructions: 30_000,
        warmup_instructions: 10_000,
        seed,
    }
}

#[test]
fn recording_probe_tallies_are_consistent() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("tpc-c").unwrap();
    let obs = run_one_observed(SystemKind::D2mNsR, &cfg, &spec, &rc(37)).unwrap();
    let rec = &obs.probe;
    // One event per access the hierarchy counted, warmup and measured.
    let n = obs.warmup_counters.get("accesses") + obs.metrics.counters.get("accesses");
    assert_eq!(rec.events, n);
    assert_eq!(rec.latency.count(), n);
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
fn probes_never_perturb_the_simulation() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("swaptions").unwrap();
    for kind in SystemKind::ALL {
        let plain = run_one_checked(kind, &cfg, &spec, &rc(11)).unwrap();
        let obs = run_one_observed(kind, &cfg, &spec, &rc(11)).unwrap();
        assert_eq!(
            plain.to_json().to_string_compact(),
            obs.metrics.to_json().to_string_compact(),
            "{}: the RecordingProbe changed the metrics",
            kind.name()
        );
    }
}

/// The same contract on a shared workload, whose coherence traffic crosses
/// the NoC, plus the phase markers and the traffic matrix.
#[test]
fn observed_run_metrics_equal_plain_run_metrics() {
    let cfg = MachineConfig::default();
    let spec = catalog::by_name("tpc-c").unwrap();
    for kind in SystemKind::ALL {
        let plain = run_one_checked(kind, &cfg, &spec, &rc(3)).unwrap();
        let obs = run_one_observed(kind, &cfg, &spec, &rc(3)).unwrap();
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
