//! The (system × workload) matrix behind every table and figure: lookups
//! and per-suite aggregates over the runs of a [`crate::sweep`].

use d2m_common::stats::gmean;

use crate::metrics::RunMetrics;
use crate::systems::SystemKind;

/// The completed matrix of runs.
#[derive(Debug)]
pub struct MatrixResult {
    runs: Vec<RunMetrics>,
}

impl MatrixResult {
    /// Wraps previously computed runs, e.g. one config's runs of a sweep
    /// ([`crate::SweepResult::runs_for_config`]).
    pub fn from_runs(runs: Vec<RunMetrics>) -> Self {
        Self { runs }
    }

    /// All runs, in the order they were given (a sweep's cell order:
    /// workload-major, then system).
    pub fn runs(&self) -> &[RunMetrics] {
        &self.runs
    }

    /// The run for `(system, workload)`.
    pub fn get(&self, system: SystemKind, workload: &str) -> Option<&RunMetrics> {
        self.runs
            .iter()
            .find(|r| r.system == system.name() && r.workload == workload)
    }

    /// Geometric mean of a per-workload relative metric over all workloads
    /// (optionally restricted to one category).
    pub fn gmean_relative<F>(
        &self,
        system: SystemKind,
        base: SystemKind,
        category: Option<&str>,
        f: F,
    ) -> f64
    where
        F: Fn(&RunMetrics, &RunMetrics) -> f64,
    {
        let vals: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| r.system == base.name())
            .filter(|r| category.is_none_or(|c| r.category == c))
            .filter_map(|b| self.get(system, &b.workload).map(|s| f(s, b)))
            .collect();
        gmean(&vals)
    }

    /// Mean of an absolute per-run metric over one system (optionally one
    /// category).
    pub fn mean_absolute<F>(&self, system: SystemKind, category: Option<&str>, f: F) -> f64
    where
        F: Fn(&RunMetrics) -> f64,
    {
        let vals: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| r.system == system.name())
            .filter(|r| category.is_none_or(|c| r.category == c))
            .map(f)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::sweep::{run_sweep, SweepSpec};
    use d2m_common::config::MachineConfig;
    use d2m_workloads::catalog;

    #[test]
    fn matrix_runs_all_pairs_in_order() {
        let specs = vec![
            catalog::by_name("swaptions").unwrap(),
            catalog::by_name("mix2").unwrap(),
        ];
        let rc = RunConfig {
            instructions: 30_000,
            warmup_instructions: 10_000,
            seed: 1,
        };
        let systems = [SystemKind::Base2L, SystemKind::D2mFs];
        let spec = SweepSpec::single("matrix", &MachineConfig::default(), &systems, &specs, &rc);
        let m = MatrixResult::from_runs(run_sweep(&spec).runs_for_config("default"));
        assert_eq!(m.runs().len(), 4);
        assert_eq!(m.runs()[1].system, "D2M-FS");
        assert_eq!(m.runs()[1].workload, "swaptions");
        assert!(m.get(SystemKind::Base2L, "swaptions").is_some());
        assert!(m.get(SystemKind::D2mFs, "mix2").is_some());
        assert!(m.get(SystemKind::D2mNs, "mix2").is_none());
        let sp: Vec<f64> = ["swaptions", "mix2"]
            .iter()
            .map(|w| {
                let base = m.get(SystemKind::Base2L, w).unwrap();
                m.get(SystemKind::D2mFs, w).unwrap().speedup_vs(base)
            })
            .collect();
        for s in &sp {
            assert!(*s > 0.2 && *s < 5.0);
        }
        let g = m.gmean_relative(SystemKind::D2mFs, SystemKind::Base2L, None, |s, b| {
            s.speedup_vs(b)
        });
        assert_eq!(g, gmean(&sp));
    }
}
