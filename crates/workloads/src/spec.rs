//! Workload specifications.
//!
//! A [`WorkloadSpec`] is a compact behavioural model of one benchmark. Both
//! the code and the data side use a **hot/warm/cold mixture**:
//!
//! * *hot* — a small per-thread working set that fits in the L1s (inner
//!   loops, stack, hot objects);
//! * *warm* — an LLC-scale set addressed at **region granularity** (a Zipf
//!   pick of a 1 KB region, then a line inside it), matching the spatial
//!   locality real programs exhibit and the paper's region metadata relies
//!   on;
//! * *cold* — uniform over the full footprint.
//!
//! Strided scans model streaming/blocked kernels. The mixture weights are
//! calibrated per suite against Table IV's L1 miss ratios (see
//! `DESIGN.md` §2), which are the workload properties every figure responds
//! to.

use d2m_common::{impl_json_enum, impl_json_struct};

use crate::gen::{MAX_CODE_LINES, MAX_PRIVATE_LINES, MAX_SHARED_LINES};

/// The paper's five workload suites.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Parsec (paper "Parallel").
    Parallel,
    /// Splash2x (paper "HPC").
    Hpc,
    /// Chrome browser / Telemetry sites (paper "Mobile").
    Mobile,
    /// SPEC CPU2006 multiprogrammed mixes (paper "Server").
    Server,
    /// TPC-C on MySQL/InnoDB (paper "Database").
    Database,
}

impl Category {
    /// All categories in the paper's figure order.
    pub const ALL: [Category; 5] = [
        Category::Parallel,
        Category::Hpc,
        Category::Mobile,
        Category::Server,
        Category::Database,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Category::Parallel => "Parallel",
            Category::Hpc => "HPC",
            Category::Mobile => "Mobile",
            Category::Server => "Server",
            Category::Database => "Database",
        }
    }
}

/// How threads share the shared data segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sharing {
    /// No shared segment is ever touched (multiprogrammed workloads).
    None,
    /// Mostly-read sharing: all nodes read; rare writes by any node.
    ReadShared,
    /// Migratory: each shared chunk is read+written by one node at a time;
    /// ownership rotates between epochs.
    Migratory,
    /// Producer/consumer: even nodes write their chunks, odd nodes read them.
    ProducerConsumer,
}

/// Behavioural model of one benchmark (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name as it appears in the paper's figures.
    pub name: String,
    /// Suite the benchmark belongs to.
    pub category: Category,

    // ---- instruction side ----
    /// Total code footprint in cachelines (64 B each).
    pub code_lines: u64,
    /// Hot code (inner loops) in cachelines; should fit the 512-line L1-I.
    pub hot_code_lines: u64,
    /// Probability that a taken jump targets the hot code.
    pub p_hot_code: f64,
    /// Probability that an instruction fetch block ends in a taken jump.
    pub jump_prob: f64,
    /// Average instructions represented by one fetch event.
    pub insts_per_fetch: f64,

    // ---- data side ----
    /// Fraction of instructions that are loads/stores.
    pub mem_op_frac: f64,
    /// Fraction of data accesses that are stores.
    pub write_frac: f64,
    /// Per-thread hot data set in cachelines (L1-resident).
    pub hot_lines: u64,
    /// Probability of a hot-set access.
    pub p_hot: f64,
    /// Per-thread warm set in 16-line regions (LLC-resident).
    pub warm_regions: u64,
    /// Probability of a warm-set access (remainder after hot/stride = cold).
    pub p_warm: f64,
    /// Total per-thread private footprint in cachelines.
    pub private_lines: u64,
    /// Fraction of data accesses that follow a strided scan.
    pub stride_frac: f64,
    /// Scan stride in cachelines (power-of-two strides are the §IV-D
    /// "malicious" pattern).
    pub stride_lines: u64,

    // ---- sharing ----
    /// Shared data footprint in cachelines (whole program).
    pub shared_lines: u64,
    /// Fraction of data accesses that go to the shared segment.
    pub shared_frac: f64,
    /// Zipf skew for shared chunk/region reuse.
    pub data_zipf: f64,
    /// Sharing pattern for the shared segment.
    pub sharing: Sharing,
    /// True for multiprogrammed workloads: each node runs in its own address
    /// space (own ASID), so nothing is physically shared.
    pub multiprogrammed: bool,
    /// Epoch length (in generator batches) for migratory ownership.
    pub migratory_epoch: u64,
}

impl WorkloadSpec {
    /// A neutral starting spec for `category`, calibrated so the suite's
    /// mean L1 miss ratios land near Table IV.
    pub fn base(category: Category, name: &str) -> Self {
        let mut s = Self {
            name: name.to_string(),
            category,
            code_lines: 2_000,
            hot_code_lines: 380,
            p_hot_code: 0.998,
            jump_prob: 0.25,
            insts_per_fetch: 6.0,
            mem_op_frac: 0.33,
            write_frac: 0.3,
            hot_lines: 320,
            p_hot: 0.9815,
            warm_regions: 120,
            p_warm: 0.017,
            private_lines: 1 << 17, // 8 MB / thread
            stride_frac: 0.0,
            stride_lines: 1,
            shared_lines: 1 << 14, // 1 MB
            shared_frac: 0.05,
            data_zipf: 0.9,
            sharing: Sharing::ReadShared,
            multiprogrammed: false,
            migratory_epoch: 20_000,
        };
        match category {
            // Table IV targets (per 100 insts): I 0.2, D 1.9.
            Category::Parallel => {}
            // I ~0, D 2.2.
            Category::Hpc => {
                s.p_hot_code = 0.9995;
                s.hot_code_lines = 300;
                s.jump_prob = 0.2;
                s.p_hot = 0.979;
                s.p_warm = 0.0195;
                s.shared_frac = 0.06;
                s.sharing = Sharing::Migratory;
            }
            // I 2.2, D 1.3: browser-engine code dominates.
            Category::Mobile => {
                s.code_lines = 30_000;
                s.hot_code_lines = 420;
                s.p_hot_code = 0.975;
                s.p_hot = 0.987;
                s.p_warm = 0.0115;
                s.shared_frac = 0.04;
            }
            // I 0.4, D 3.6: multiprogrammed, bigger data appetite.
            Category::Server => {
                s.code_lines = 6_000;
                s.p_hot_code = 0.994;
                s.mem_op_frac = 0.36;
                s.p_hot = 0.9655;
                s.p_warm = 0.033;
                s.shared_frac = 0.0;
                s.sharing = Sharing::None;
                s.multiprogrammed = true;
            }
            // I 8.8, D 3.3: enormous instruction footprint.
            Category::Database => {
                s.code_lines = 120_000;
                s.hot_code_lines = 450;
                s.p_hot_code = 0.91;
                s.jump_prob = 0.5;
                s.p_hot = 0.968;
                s.p_warm = 0.030;
                s.shared_frac = 0.10;
                s.shared_lines = 1 << 17; // 8 MB buffer pool
                s.sharing = Sharing::Migratory;
                s.write_frac = 0.22;
            }
        }
        s
    }

    /// Sanity-checks the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        fn frac(name: &str, v: f64) -> Result<(), String> {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
            Ok(())
        }
        frac("jump_prob", self.jump_prob)?;
        frac("p_hot_code", self.p_hot_code)?;
        frac("mem_op_frac", self.mem_op_frac)?;
        frac("write_frac", self.write_frac)?;
        frac("shared_frac", self.shared_frac)?;
        frac("stride_frac", self.stride_frac)?;
        frac("p_hot", self.p_hot)?;
        frac("p_warm", self.p_warm)?;
        if self.p_hot + self.p_warm > 1.0 {
            return Err("p_hot + p_warm must not exceed 1".into());
        }
        if self.code_lines == 0 || self.private_lines == 0 || self.hot_lines == 0 {
            return Err("footprints must be nonzero".into());
        }
        for (name, lines, max) in [
            ("code_lines", self.code_lines, MAX_CODE_LINES),
            ("shared_lines", self.shared_lines, MAX_SHARED_LINES),
            ("private_lines", self.private_lines, MAX_PRIVATE_LINES),
        ] {
            if lines > max {
                return Err(format!(
                    "{name} must be at most {max} (its virtual segment), got {lines}"
                ));
            }
        }
        if self.hot_code_lines == 0 || self.hot_code_lines > self.code_lines {
            return Err("hot_code_lines must be in 1..=code_lines".into());
        }
        if self.hot_lines > self.private_lines {
            return Err("hot_lines must fit inside private_lines".into());
        }
        if self.warm_regions * 16 > self.private_lines {
            return Err("warm set must fit inside private_lines".into());
        }
        if self.p_warm > 0.0 && self.warm_regions == 0 {
            return Err("p_warm > 0 requires warm_regions > 0".into());
        }
        if self.shared_frac > 0.0 && self.shared_lines == 0 {
            return Err("shared_frac > 0 requires shared_lines > 0".into());
        }
        if self.insts_per_fetch < 1.0 {
            return Err("insts_per_fetch must be >= 1".into());
        }
        if self.multiprogrammed && self.shared_frac > 0.0 {
            return Err("multiprogrammed workloads cannot share data".into());
        }
        if self.stride_lines == 0 {
            return Err("stride_lines must be nonzero".into());
        }
        Ok(())
    }
}

impl_json_enum!(Category {
    Parallel,
    Hpc,
    Mobile,
    Server,
    Database,
});
impl_json_enum!(Sharing {
    None,
    ReadShared,
    Migratory,
    ProducerConsumer,
});
impl_json_struct!(WorkloadSpec {
    name,
    category,
    code_lines,
    hot_code_lines,
    p_hot_code,
    jump_prob,
    insts_per_fetch,
    mem_op_frac,
    write_frac,
    hot_lines,
    p_hot,
    warm_regions,
    p_warm,
    private_lines,
    stride_frac,
    stride_lines,
    shared_lines,
    shared_frac,
    data_zipf,
    sharing,
    multiprogrammed,
    migratory_epoch,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_specs_validate() {
        for cat in Category::ALL {
            WorkloadSpec::base(cat, "x").validate().unwrap();
        }
    }

    #[test]
    fn server_base_is_fully_private() {
        let s = WorkloadSpec::base(Category::Server, "mix1");
        assert!(s.multiprogrammed);
        assert_eq!(s.shared_frac, 0.0);
        assert_eq!(s.sharing, Sharing::None);
    }

    #[test]
    fn database_has_cold_heavy_code() {
        let s = WorkloadSpec::base(Category::Database, "tpc-c");
        assert!(s.code_lines > 100 * 512);
        assert!(
            s.p_hot_code < 0.95,
            "more cold-code jumps than any other suite"
        );
    }

    #[test]
    fn hot_sets_fit_the_l1() {
        for cat in Category::ALL {
            let s = WorkloadSpec::base(cat, "x");
            assert!(s.hot_lines <= 512, "{cat:?}");
            assert!(s.hot_code_lines <= 512, "{cat:?}");
        }
    }

    #[test]
    fn validate_catches_bad_mixtures() {
        let mut s = WorkloadSpec::base(Category::Parallel, "x");
        s.p_hot = 0.9;
        s.p_warm = 0.2;
        assert!(s.validate().is_err());
        let mut s2 = WorkloadSpec::base(Category::Parallel, "x");
        s2.hot_lines = s2.private_lines + 1;
        assert!(s2.validate().is_err());
        let mut s3 = WorkloadSpec::base(Category::Server, "x");
        s3.shared_frac = 0.1;
        assert!(s3.validate().is_err(), "multiprogrammed cannot share");
        let mut s4 = WorkloadSpec::base(Category::Parallel, "x");
        s4.warm_regions = 0;
        assert!(s4.validate().is_err(), "warm draws need a warm set");
        s4.p_warm = 0.0;
        s4.validate().unwrap();
        // Each footprint fits its virtual segment exactly at its bound.
        type Set = fn(&mut WorkloadSpec, u64);
        let segments: [(&str, Set, u64); 3] = [
            ("code_lines", |s, v| s.code_lines = v, 16_760_832),
            ("shared_lines", |s, v| s.shared_lines = v, 50_331_648),
            ("private_lines", |s, v| s.private_lines = v, 16_777_216),
        ];
        for (name, set, max) in segments {
            let mut s = WorkloadSpec::base(Category::Parallel, "x");
            set(&mut s, max);
            s.validate().unwrap();
            set(&mut s, max + 1);
            let err = s.validate().unwrap_err();
            assert!(err.starts_with(name), "{name}: {err}");
        }
    }

    #[test]
    fn category_names_match_paper() {
        assert_eq!(Category::Hpc.name(), "HPC");
        assert_eq!(Category::ALL.len(), 5);
    }
}
