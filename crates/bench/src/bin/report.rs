//! Regenerates one paper artifact per run: `report <artifact> [--quick]
//! [workload…]`. The artifacts are listed in the crate docs and in the usage
//! text `report` prints when run without one.

use std::fmt;
use std::process::ExitCode;

use d2m_bench::{cached_sweep, full_matrix, header, machine, parse_args, pct, rule, HarnessConfig};
use d2m_common::json::Json;
use d2m_core::{D2mFeatures, D2mSystem, D2mVariant};
use d2m_energy::EnergyEvent;
use d2m_sim::{
    run_one_checked, run_one_observed, run_system_observed, AnySystem, ConfigPoint, MatrixResult,
    RunConfig, RunError, RunMetrics, RunObservation, SweepSpec, SystemKind,
};
use d2m_workloads::{catalog, Category};

/// An artifact's printer: the harness run length and the positional
/// workloads (only `energy_breakdown` and `traffic_debug` read them).
type Printer = fn(&HarnessConfig, &[String]);

/// Every artifact, in usage order.
const ARTIFACTS: [(&str, Printer); 16] = [
    ("table4", table4),
    ("table5", table5),
    ("fig5_traffic", fig5_traffic),
    ("fig6_edp", fig6_edp),
    ("fig7_speedup", fig7_speedup),
    ("pkmo", pkmo),
    ("structure_pressure", structure_pressure),
    ("ablation_mdscale", ablation_mdscale),
    ("ablation_scramble", ablation_scramble),
    ("ablation_bypass", ablation_bypass),
    ("ablation_traditional", ablation_traditional),
    ("lockbits", lockbits),
    ("energy_breakdown", energy_breakdown),
    ("workload_stats", workload_stats),
    ("calibrate", calibrate),
    ("traffic_debug", traffic_debug),
];

/// A parsed command line.
#[derive(Debug)]
struct Invocation {
    /// Index into [`ARTIFACTS`].
    artifact: usize,
    hc: HarnessConfig,
    workloads: Vec<String>,
}

/// A command line `report` cannot run.
#[derive(Debug, PartialEq)]
enum UsageError {
    MissingArtifact,
    UnknownArtifact(String),
    UnknownFlag(String),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::MissingArtifact => write!(f, "missing artifact")?,
            UsageError::UnknownArtifact(a) => write!(f, "unknown artifact `{a}`")?,
            UsageError::UnknownFlag(a) => write!(f, "unknown flag `{a}`")?,
        }
        write!(
            f,
            "\nusage: report <artifact> [--quick] [workload...]\nartifacts: {}",
            ARTIFACTS.map(|(name, _)| name).join(" ")
        )
    }
}

/// Parses `report`'s arguments (program name excluded): the first
/// positional names the artifact, later ones are workloads, and `--quick`
/// may appear anywhere.
fn parse(args: &[String]) -> Result<Invocation, UsageError> {
    let mut positional = Vec::new();
    for a in args.iter().filter(|a| *a != "--quick") {
        if a.starts_with('-') {
            return Err(UsageError::UnknownFlag(a.clone()));
        }
        positional.push(a.clone());
    }
    if positional.is_empty() {
        return Err(UsageError::MissingArtifact);
    }
    let name = positional.remove(0);
    let artifact = ARTIFACTS
        .iter()
        .position(|(n, _)| *n == name)
        .ok_or(UsageError::UnknownArtifact(name))?;
    Ok(Invocation {
        artifact,
        hc: parse_args(args),
        workloads: positional,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(inv) => {
            (ARTIFACTS[inv.artifact].1)(&inv.hc, &inv.workloads);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::from(2)
        }
    }
}

/// The result of a run that artifact `artifact` makes outside a sweep (a
/// sweep's failed cell fails the artifact in [`cached_sweep`]). An
/// ablation's `artifact` also names its setting. `energy_breakdown`,
/// `lockbits` and the ablations print only after every run has passed, so a
/// failed run leaves their stdout empty.
///
/// # Panics
///
/// On `Err`, naming the artifact, the system, the workload and the error.
fn require<T>(artifact: &str, run: Result<T, RunError>) -> T {
    run.unwrap_or_else(|e| panic!("report {artifact}: {e}"))
}

/// Runs workload `name` observed on a D2M `variant` system with `feats`,
/// seeded from `rc`; a failed run fails `artifact` (see [`require`]).
fn ablation(
    artifact: &str,
    name: &str,
    variant: D2mVariant,
    feats: D2mFeatures,
    rc: &RunConfig,
) -> RunObservation {
    let cfg = machine();
    let spec = catalog::by_name(name).expect("workload");
    let sys = AnySystem::D2m(Box::new(D2mSystem::with_features(
        &cfg, variant, feats, rc.seed,
    )));
    require(artifact, run_system_observed(sys, &cfg, &spec, rc))
}

/// One measured phase of `instructions` and no warmup, seeded from `rc`,
/// for the artifacts that count over a whole run.
fn one_phase(rc: &RunConfig, instructions: u64) -> RunConfig {
    RunConfig {
        instructions,
        warmup_instructions: 0,
        seed: rc.seed,
    }
}

/// The dynamic energy `obs`'s system spent on `event` over the whole run, in
/// pJ.
fn event_pj(obs: &RunObservation, event: EnergyEvent) -> f64 {
    obs.energy_breakdown
        .get(event.name())
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Calls `row` with every catalog workload's name and a lookup of its run
/// on each system, printing a `-- <suite> --` line before each suite.
fn suite_rows<'m>(
    m: &'m MatrixResult,
    mut row: impl FnMut(&str, &dyn Fn(SystemKind) -> &'m RunMetrics),
) {
    let mut suite = None;
    for spec in catalog::all().expect("catalog specs are valid") {
        if suite != Some(spec.category) {
            suite = Some(spec.category);
            println!("-- {} --", spec.category.name());
        }
        row(&spec.name, &|k| m.get(k, &spec.name).expect("run"));
    }
}

/// Prints, per suite, the geometric mean of `rel` (system vs Base-2L) for
/// every other system, each cell rendered by `cell`.
fn suite_gmean_table(
    m: &MatrixResult,
    rel: impl Fn(&RunMetrics, &RunMetrics) -> f64,
    cell: impl Fn(f64) -> String,
) {
    let others = &SystemKind::ALL[1..];
    let head: String = others.iter().map(|k| format!(" {:>9}", k.name())).collect();
    println!("{:<10}{head}", "suite");
    for cat in Category::ALL {
        let cells: String = others
            .iter()
            .map(|&k| {
                let v = m.gmean_relative(k, SystemKind::Base2L, Some(cat.name()), &rel);
                format!(" {}", cell(v))
            })
            .collect();
        println!("{:<10}{cells}", cat.name());
    }
}

/// Paper Table IV reference values:
/// (suite, L1I miss, L1D miss, late I, late D, B3L hit, NS-I, NS-D, NSR-I, NSR-D)
/// Miss/late columns are percentages of that cache's accesses.
#[allow(clippy::type_complexity)]
const TABLE4_PAPER: [(&str, f64, f64, f64, f64, f64, f64, f64, f64, f64); 6] = [
    (
        "Parallel",
        0.2,
        1.9,
        0.1,
        2.9,
        f64::NAN,
        0.28,
        0.51,
        0.82,
        0.71,
    ),
    ("HPC", 0.0, 2.2, 0.0, 4.6, f64::NAN, 0.17, 0.54, 0.44, 0.79),
    (
        "Server",
        0.4,
        3.6,
        0.3,
        9.5,
        f64::NAN,
        0.82,
        0.83,
        0.95,
        0.83,
    ),
    (
        "Mobile",
        2.2,
        1.3,
        1.8,
        3.0,
        f64::NAN,
        0.56,
        0.66,
        0.96,
        0.73,
    ),
    ("Database", 8.8, 3.3, 6.2, 4.2, 0.59, 0.26, 0.34, 0.97, 0.72),
    (
        "Average",
        2.3,
        2.5,
        1.7,
        4.8,
        f64::NAN,
        0.42,
        0.57,
        0.83,
        0.76,
    ),
];

/// Table IV: per-suite L1 miss ratios and late hits, and the near-side
/// (local-slice) hit ratios for the D2M variants (L2 hit ratio for
/// Base-3L). Paper reference rows are printed alongside.
fn table4(hc: &HarnessConfig, _: &[String]) {
    header(
        "Table IV — L1 miss ratios, late hits, near-side hit ratios",
        hc,
    );
    let m = full_matrix(hc);

    println!(
        "\n{:<10} | {:>6} {:>6} {:>6} {:>6} | {:>6} | {:>6} {:>6} | {:>6} {:>6}",
        "suite", "L1I%", "L1D%", "lateI", "lateD", "B3L", "NS-I", "NS-D", "NSR-I", "NSR-D"
    );
    rule(88);
    let mut avgs = vec![Vec::new(); 9];
    for cat in Category::ALL.map(Category::name) {
        // Miss ratios are workload properties; report them from Base-2L,
        // converting misses/100-instructions into per-access percentages.
        let i_miss = m.mean_absolute(SystemKind::Base2L, Some(cat), |r| {
            let fetches_per_100 = 100.0 / 6.0; // fetch events per 100 insts
            r.l1i_miss_pct / fetches_per_100 * 100.0
        });
        let d_miss = m.mean_absolute(SystemKind::Base2L, Some(cat), |r| {
            let data_per_100 = 35.0; // ~ mem-op fraction × 100
            r.l1d_miss_pct / data_per_100 * 100.0
        });
        let late_i = m.mean_absolute(SystemKind::Base2L, Some(cat), |r| {
            r.late_i_pct / (100.0 / 6.0) * 100.0
        });
        let late_d = m.mean_absolute(SystemKind::Base2L, Some(cat), |r| {
            r.late_d_pct / 35.0 * 100.0
        });
        let b3l = m.mean_absolute(SystemKind::Base3L, Some(cat), |r| {
            (r.ns_hit_ratio_i + r.ns_hit_ratio_d) / 2.0
        });
        let ns_i = m.mean_absolute(SystemKind::D2mNs, Some(cat), |r| r.ns_hit_ratio_i);
        let ns_d = m.mean_absolute(SystemKind::D2mNs, Some(cat), |r| r.ns_hit_ratio_d);
        let nsr_i = m.mean_absolute(SystemKind::D2mNsR, Some(cat), |r| r.ns_hit_ratio_i);
        let nsr_d = m.mean_absolute(SystemKind::D2mNsR, Some(cat), |r| r.ns_hit_ratio_d);
        let vals = [
            i_miss, d_miss, late_i, late_d, b3l, ns_i, ns_d, nsr_i, nsr_d,
        ];
        for (store, v) in avgs.iter_mut().zip(vals) {
            store.push(v);
        }
        println!(
            "{:<10} | {:>6.1} {:>6.1} {:>6.1} {:>6.1} | {:>6} | {:>6} {:>6} | {:>6} {:>6}",
            cat,
            i_miss,
            d_miss,
            late_i,
            late_d,
            pct(b3l),
            pct(ns_i),
            pct(ns_d),
            pct(nsr_i),
            pct(nsr_d)
        );
        let p = TABLE4_PAPER.iter().find(|p| p.0 == cat).expect("suite");
        println!(
            "{:<10} | {:>6.1} {:>6.1} {:>6.1} {:>6.1} | {:>6} | {:>6} {:>6} | {:>6} {:>6}",
            "  (paper)",
            p.1,
            p.2,
            p.3,
            p.4,
            if p.5.is_nan() {
                "  -".to_string()
            } else {
                pct(p.5)
            },
            pct(p.6),
            pct(p.7),
            pct(p.8),
            pct(p.9)
        );
    }
    rule(88);
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "{:<10} | {:>6.1} {:>6.1} {:>6.1} {:>6.1} | {:>6} | {:>6} {:>6} | {:>6} {:>6}",
        "Average",
        mean(&avgs[0]),
        mean(&avgs[1]),
        mean(&avgs[2]),
        mean(&avgs[3]),
        pct(mean(&avgs[4])),
        pct(mean(&avgs[5])),
        pct(mean(&avgs[6])),
        pct(mean(&avgs[7])),
        pct(mean(&avgs[8]))
    );
    let p = &TABLE4_PAPER[5];
    println!(
        "{:<10} | {:>6.1} {:>6.1} {:>6.1} {:>6.1} | {:>6} | {:>6} {:>6} | {:>6} {:>6}",
        "  (paper)",
        p.1,
        p.2,
        p.3,
        p.4,
        "  -",
        pct(p.6),
        pct(p.7),
        pct(p.8),
        pct(p.9)
    );
    println!(
        "\nNS hit ratios here = local-slice hits / all L1 misses of that side\n(B3L column = L2 hits / all L1 misses). Paper §IV claims: NS data 58% → 76%\nwith replication; Database NS-R services 97% of L1-I misses locally."
    );
}

/// Table V: received invalidations (including region-grain false
/// invalidations) normalized to Base-2L, and the percentage of private-cache
/// misses that hit regions classified private. Paper headline: 68% of
/// misses are to private regions on average; Server mixes are 100% private.
fn table5(hc: &HarnessConfig, _: &[String]) {
    header(
        "Table V — invalidations vs Base-2L, private-region misses",
        hc,
    );
    let m = full_matrix(hc);

    println!(
        "\n{:<16} {:>12} {:>12} {:>12}",
        "workload", "inv(B2L)/KI", "inv(NSR)rel%", "priv-miss%"
    );
    rule(58);
    let mut priv_all = Vec::new();
    suite_rows(&m, |name, run| {
        let base = run(SystemKind::Base2L);
        let nsr = run(SystemKind::D2mNsR);
        let ki = base.instructions as f64 / 1000.0;
        let rel = if base.invalidations == 0 {
            if nsr.invalidations == 0 {
                100.0
            } else {
                f64::INFINITY
            }
        } else {
            nsr.invalidations as f64 / base.invalidations as f64 * 100.0
        };
        priv_all.push(nsr.private_miss_frac);
        println!(
            "{:<16} {:>12.2} {:>12.0} {:>12.0}",
            name,
            base.invalidations as f64 / ki,
            rel,
            nsr.private_miss_frac * 100.0
        );
    });
    rule(58);
    for cat in Category::ALL.map(Category::name) {
        let p = m.mean_absolute(SystemKind::D2mNsR, Some(cat), |r| r.private_miss_frac);
        println!("{:<10} private-miss fraction: {:>5.0}%", cat, p * 100.0);
    }
    let avg = priv_all.iter().sum::<f64>() / priv_all.len() as f64;
    println!(
        "\naverage: {:.0}% of misses to private regions (paper: 68%; Server: 100%)",
        avg * 100.0
    );
    let server = m.mean_absolute(SystemKind::D2mNsR, Some("Server"), |r| r.private_miss_frac);
    assert!(
        server > 0.999,
        "Server mixes must be fully private, got {server}"
    );
}

/// Figure 5: network traffic in messages per 1000 instructions, per
/// workload, for all five systems; D2M-specific traffic shown separately
/// (the paper's lighter bars). Prints per-suite and overall reductions
/// against the paper's headline (−70% for D2M-NS-R).
fn fig5_traffic(hc: &HarnessConfig, _: &[String]) {
    header(
        "Figure 5 — network traffic (messages / 1000 instructions)",
        hc,
    );
    let m = full_matrix(hc);

    println!(
        "\n{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}   {:>8}",
        "workload", "Base-2L", "Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R", "(d2m-msg)"
    );
    rule(86);
    suite_rows(&m, |name, run| {
        let row: Vec<f64> = SystemKind::ALL
            .iter()
            .map(|&k| run(k).msgs_per_kilo_inst)
            .collect();
        let d2m_part = run(SystemKind::D2mNsR).d2m_msgs_per_kilo_inst;
        println!(
            "{:<16} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}   {:>8.1}",
            name, row[0], row[1], row[2], row[3], row[4], d2m_part
        );
    });
    rule(86);

    println!("\n-- relative traffic vs Base-2L (gmean; paper: D2M-NS-R ≈ 0.30 overall) --");
    suite_gmean_table(&m, |s, b| s.traffic_vs(b), |v| format!("{v:>9.2}"));
    let overall = m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
        s.traffic_vs(b)
    });
    println!(
        "\noverall D2M-NS-R traffic: {:.2}x Base-2L (measured {:.0}% reduction; paper: 70%)",
        overall,
        (1.0 - overall) * 100.0
    );
    let bytes = m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
        s.data_bytes_per_kilo_inst / b.data_bytes_per_kilo_inst.max(1e-9)
    });
    println!(
        "overall D2M-NS-R data-byte traffic: {:.2}x Base-2L (paper: 65% reduction)",
        bytes
    );
}

/// Figure 6: cache-hierarchy EDP (static + dynamic) normalized to Base-2L,
/// with the D2M-only (location tracker) energy share reported separately
/// (the paper's lighter bars). Paper headline: D2M-NS-R reduces EDP by 54%
/// vs Base-2L and 40% vs Base-3L.
fn fig6_edp(hc: &HarnessConfig, _: &[String]) {
    header("Figure 6 — cache-hierarchy EDP normalized to Base-2L", hc);
    let m = full_matrix(hc);

    println!(
        "\n{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}   {:>9}",
        "workload", "Base-2L", "Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R", "(md-en %)"
    );
    rule(84);
    suite_rows(&m, |name, run| {
        let base = run(SystemKind::Base2L);
        let row: Vec<f64> = SystemKind::ALL
            .iter()
            .map(|&k| run(k).edp_vs(base))
            .collect();
        let md_en = run(SystemKind::D2mNsR).d2m_energy_frac;
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}   {:>9.1}",
            name,
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            md_en * 100.0
        );
    });
    rule(84);

    println!("\n-- EDP vs Base-2L (gmean) --");
    suite_gmean_table(&m, |s, b| s.edp_vs(b), |v| format!("{v:>9.2}"));
    let vs2l = m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
        s.edp_vs(b)
    });
    let vs3l = m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base3L, None, |s, b| {
        s.edp_vs(b)
    });
    println!(
        "\nD2M-NS-R EDP: {:.0}% below Base-2L (paper: 54%), {:.0}% below Base-3L (paper: 40%)",
        (1.0 - vs2l) * 100.0,
        (1.0 - vs3l) * 100.0
    );
    // The cnn outlier check (paper §V-C): NS placement hurts cnn, replication recovers.
    let cnn2l = m.get(SystemKind::Base2L, "cnn").expect("run");
    let cnn_ns = m.get(SystemKind::D2mNs, "cnn").expect("run").edp_vs(cnn2l);
    let cnn_nsr = m.get(SystemKind::D2mNsR, "cnn").expect("run").edp_vs(cnn2l);
    println!("cnn outlier: D2M-NS {cnn_ns:.2} vs D2M-NS-R {cnn_nsr:.2} (replication should help)");
}

/// Figure 7: speedup over Base-2L under infinite bandwidth, plus the §V-D
/// L1-miss latency comparison. Paper headlines: Base-3L ≈ +4%, D2M-FS ≈
/// +5.7%, D2M-NS ≈ +7%, D2M-NS-R ≈ +8.5% (max 28%, Database); D2M-NS-R
/// cuts average L1 miss latency by 30%.
fn fig7_speedup(hc: &HarnessConfig, _: &[String]) {
    header("Figure 7 — speedup over Base-2L (infinite bandwidth)", hc);
    let m = full_matrix(hc);

    println!(
        "\n{:<16} {:>8} {:>8} {:>8} {:>8}   {:>9}",
        "workload", "Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R", "misslat-R"
    );
    rule(74);
    suite_rows(&m, |name, run| {
        let base = run(SystemKind::Base2L);
        let sp = |k| (run(k).speedup_vs(base) - 1.0) * 100.0;
        let lat_rel = run(SystemKind::D2mNsR).avg_miss_latency / base.avg_miss_latency.max(1.0);
        println!(
            "{:<16} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%   {:>8.2}x",
            name,
            sp(SystemKind::Base3L),
            sp(SystemKind::D2mFs),
            sp(SystemKind::D2mNs),
            sp(SystemKind::D2mNsR),
            lat_rel
        );
    });
    rule(74);

    println!("\n-- speedup vs Base-2L (gmean; paper in parentheses) --");
    suite_gmean_table(
        &m,
        |s, b| s.speedup_vs(b),
        |v| format!("{:>8.1}%", (v - 1.0) * 100.0),
    );
    let overall =
        |k| (m.gmean_relative(k, SystemKind::Base2L, None, |s, b| s.speedup_vs(b)) - 1.0) * 100.0;
    println!(
        "\noverall: Base-3L {:+.1}% (paper +4), D2M-FS {:+.1}% (paper +5.7), D2M-NS {:+.1}% (paper +7), D2M-NS-R {:+.1}% (paper +8.5)",
        overall(SystemKind::Base3L),
        overall(SystemKind::D2mFs),
        overall(SystemKind::D2mNs),
        overall(SystemKind::D2mNsR)
    );
    let lat = m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
        s.avg_miss_latency / b.avg_miss_latency.max(1.0)
    });
    println!(
        "average L1-miss latency, D2M-NS-R: {:.0}% below Base-2L (paper: 30%)",
        (1.0 - lat) * 100.0
    );
}

/// Appendix protocol-event mix: events per kilo memory operation (PKMO)
/// for the basic D2M-FS architecture, averaged across all suites — the
/// paper's case-by-case cost accounting (A 12.5, B 1.7, C 0.72, D 0.82
/// with D1 0.32 / D2 0.02 / D3 0.14 / D4 0.34), and the "~90% of misses are
/// directory-free" headline.
fn pkmo(hc: &HarnessConfig, _: &[String]) {
    header(
        "Appendix — protocol events per kilo memory operation (D2M-FS)",
        hc,
    );
    let cfg = machine();

    let keys = [
        ("case.a", "A: read miss, MD hit", 12.5),
        ("case.a_llc", "   A → master in LLC", 8.9),
        ("case.a_mem", "   A → master in MEM", 2.7),
        ("case.a_remote", "   A → master remote node", 0.8),
        ("case.b", "B: write miss, private", 1.7),
        ("case.c", "C: write, shared", 0.72),
        ("case.d", "D: MD2 miss (ReadMM)", 0.82),
        ("case.d1", "   D1 untracked→private", 0.32),
        ("case.d2", "   D2 private→shared", 0.02),
        ("case.d3", "   D3 shared→shared", 0.14),
        ("case.d4", "   D4 uncached→private", 0.34),
        ("case.e", "E: evict master, private", f64::NAN),
        ("case.f", "F: evict master, shared", f64::NAN),
    ];
    let mut sums = vec![0f64; keys.len()];
    let mut memops = 0f64;
    let mut free_n = 0f64;
    let mut free_d = 0f64;
    for spec in catalog::all().expect("catalog specs are valid") {
        let m = require(
            "pkmo",
            run_one_checked(SystemKind::D2mFs, &cfg, &spec, &hc.rc),
        );
        let ops = (m.counters.get("loads") + m.counters.get("stores")) as f64;
        memops += ops;
        for (i, (k, _, _)) in keys.iter().enumerate() {
            sums[i] += m.counters.get(k) as f64;
        }
        let a = m.counters.get("case.a") as f64;
        let b = m.counters.get("case.b") as f64;
        let c = m.counters.get("case.c") as f64;
        let d = m.counters.get("case.d") as f64;
        free_n += a + b;
        free_d += a + b + c + d;
    }

    println!("\n{:<30} {:>10} {:>10}", "event", "measured", "paper");
    rule(54);
    for (i, (_, label, paper)) in keys.iter().enumerate() {
        let v = sums[i] / memops * 1000.0;
        if paper.is_nan() {
            println!("{label:<30} {v:>10.2} {:>10}", "-");
        } else {
            println!("{label:<30} {v:>10.2} {paper:>10.2}");
        }
    }
    rule(54);
    println!(
        "directory-free misses (A+B)/(A+B+C+D): {:.0}%  (paper: ~90%)",
        free_n / free_d * 100.0
    );
}

/// §V-B structure-pressure comparison: how often D2M's MD3 is consulted
/// versus the baselines' directory, and MD2 versus Base-3L's L2 tags.
/// Paper: MD3 accesses are 11% of Base-2L directory accesses and 27% of
/// Base-3L's; MD2 is accessed 58% as often as the Base-3L L2 tags.
fn structure_pressure(hc: &HarnessConfig, _: &[String]) {
    header("§V-B — metadata/directory structure pressure", hc);
    let m = full_matrix(hc);

    let mut md3_vs_2l = Vec::new();
    let mut md3_vs_3l = Vec::new();
    let mut md2_vs_l2tag = Vec::new();
    println!(
        "\n{:<16} {:>12} {:>12} {:>12}",
        "workload", "MD3/dir(2L)", "MD3/dir(3L)", "MD2/L2tag"
    );
    rule(56);
    for spec in catalog::all().expect("catalog specs are valid") {
        let b2 = m.get(SystemKind::Base2L, &spec.name).expect("run");
        let b3 = m.get(SystemKind::Base3L, &spec.name).expect("run");
        let fs = m.get(SystemKind::D2mFs, &spec.name).expect("run");
        let r1 = fs.dir_or_md3_accesses as f64 / b2.dir_or_md3_accesses.max(1) as f64;
        let r2 = fs.dir_or_md3_accesses as f64 / b3.dir_or_md3_accesses.max(1) as f64;
        let r3 = fs.md2_or_l2tag_accesses as f64 / b3.md2_or_l2tag_accesses.max(1) as f64;
        md3_vs_2l.push(r1);
        md3_vs_3l.push(r2);
        md2_vs_l2tag.push(r3);
        println!(
            "{:<16} {:>11.0}% {:>11.0}% {:>11.0}%",
            spec.name,
            r1 * 100.0,
            r2 * 100.0,
            r3 * 100.0
        );
    }
    rule(56);
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64 * 100.0;
    println!(
        "average: MD3 = {:.0}% of Base-2L directory accesses (paper: 11%)",
        mean(&md3_vs_2l)
    );
    println!(
        "         MD3 = {:.0}% of Base-3L directory accesses (paper: 27%)",
        mean(&md3_vs_3l)
    );
    println!(
        "         MD2 = {:.0}% of Base-3L L2-tag searches    (paper: 58%)",
        mean(&md2_vs_l2tag)
    );
}

/// Footnote-5 ablation: scale the MD1/MD2/MD3 capacities 1×/2×/4× and
/// measure D2M-NS-R speedup over Base-2L plus the fraction of LLC-level
/// reads serviced by a direct local-slice access. Paper: speedup 8.5% (1×)
/// → 9.5% (2×); direct NS accesses 78% → 86%.
fn ablation_mdscale(hc: &HarnessConfig, _: &[String]) {
    header("Footnote 5 — metadata capacity ablation (1x/2x/4x)", hc);
    // A representative cross-suite sample keeps the sweep tractable.
    let names = [
        "blackscholes",
        "canneal",
        "barnes",
        "fft",
        "facebook",
        "google",
        "mix1",
        "mix2",
        "tpc-c",
    ];
    let specs: Vec<_> = names
        .iter()
        .map(|n| catalog::by_name(n).expect("workload"))
        .collect();

    // One multi-config sweep covers all three scales: the config axis is
    // part of the grid, so every cell runs in the same worker pool.
    let spec = SweepSpec {
        name: "mdscale".into(),
        configs: [1usize, 2, 4]
            .iter()
            .map(|&scale| ConfigPoint {
                label: format!("{scale}x"),
                config: machine().scale_metadata(scale),
            })
            .collect(),
        systems: vec![SystemKind::Base2L, SystemKind::D2mNsR],
        workloads: specs,
        instructions: hc.rc.instructions,
        warmup_instructions: hc.rc.warmup_instructions,
        master_seed: hc.rc.seed,
    };
    let res = cached_sweep(&spec);

    println!(
        "\n{:>6} {:>10} {:>12} {:>12} {:>12}",
        "scale", "speedup", "ns-local I", "ns-local D", "md2-miss/KI"
    );
    rule(58);
    for scale in [1usize, 2, 4] {
        let m = MatrixResult::from_runs(res.runs_for_config(&format!("{scale}x")));
        let sp = (m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
            s.speedup_vs(b)
        }) - 1.0)
            * 100.0;
        let ns_i = m.mean_absolute(SystemKind::D2mNsR, None, |r| r.ns_hit_ratio_i);
        let ns_d = m.mean_absolute(SystemKind::D2mNsR, None, |r| r.ns_hit_ratio_d);
        let d_rate = m.mean_absolute(SystemKind::D2mNsR, None, |r| {
            r.counters.get("case.d") as f64 / (r.instructions as f64 / 1000.0)
        });
        println!(
            "{:>5}x {:>9.1}% {:>11.0}% {:>11.0}% {:>12.2}",
            scale,
            sp,
            ns_i * 100.0,
            ns_d * 100.0,
            d_rate
        );
    }
    rule(58);
    println!("paper: 1x → +8.5% speedup / 78% direct NS; 2x → +9.5% / 86%");
}

/// §IV-D ablation: dynamic indexing on the power-of-two-stride LU
/// workloads. Compares D2M-NS (no scrambling) with a scramble-only variant
/// (NS + dynamic indexing, replication off) so the effect is isolated.
/// Paper: scrambling dramatically reduces energy for malicious patterns
/// such as LU by eliminating conflict misses.
fn ablation_scramble(hc: &HarnessConfig, _: &[String]) {
    // Memory fills per kilo-instruction of the measured phase.
    let run = |name: &str, dynamic_indexing: bool| {
        let feats = D2mFeatures {
            dynamic_indexing,
            ..D2mVariant::NearSide.features()
        };
        let artifact = format!("ablation_scramble (dynamic_indexing: {dynamic_indexing})");
        let m = ablation(&artifact, name, D2mVariant::NearSide, feats, &hc.rc).metrics;
        m.counters.get("mem.fills") as f64 / (m.instructions as f64 / 1000.0)
    };
    let rows = ["lu_cb", "lu_ncb", "fft", "swaptions"]
        .map(|name| (name, run(name, false), run(name, true)));
    header("§IV-D — dynamic-indexing (scramble) ablation", hc);
    println!(
        "\n{:<16} {:>14} {:>14} {:>10}",
        "workload", "memfills/KI", "memfills/KI", "reduction"
    );
    println!("{:<16} {:>14} {:>14}", "", "(no scramble)", "(scrambled)");
    rule(58);
    for (name, off, on) in rows {
        println!(
            "{:<16} {:>14.2} {:>14.2} {:>9.0}%",
            name,
            off,
            on,
            (1.0 - on / off.max(1e-9)) * 100.0
        );
    }
    rule(58);
    println!("lu_cb/lu_ncb carry 256 KB power-of-two strides that collapse onto one");
    println!("LLC set without scrambling; fft/swaptions are unaffected controls.");
}

/// Cache-bypass ablation (paper §I optimization list): streaming regions
/// skip LLC allocation when the region-metadata predictor has seen many
/// fills with no LLC reuse. Compares D2M-NS-R with and without bypassing on
/// streaming-heavy and reuse-heavy workloads.
fn ablation_bypass(hc: &HarnessConfig, _: &[String]) {
    let rc = one_phase(&hc.rc, hc.rc.warmup_instructions + hc.rc.instructions);
    let mut rows = Vec::new();
    for name in ["streamcluster", "radix", "canneal", "facebook", "swaptions"] {
        for bypass in [false, true] {
            let feats = D2mFeatures {
                bypass,
                ..D2mVariant::NearSideRepl.features()
            };
            let artifact = format!("ablation_bypass (bypass: {bypass})");
            let obs = ablation(&artifact, name, D2mVariant::NearSideRepl, feats, &rc);
            let c = &obs.metrics.counters;
            rows.push((
                name,
                bypass,
                c.get("bypassed_fills"),
                c.get("ns_alloc.local") + c.get("ns_alloc.remote"),
                c.get("mem.fills"),
                c.get("ns.local_d") + c.get("ns.local_i"),
            ));
        }
    }
    header("Cache-bypass ablation (D2M-NS-R ± bypass)", hc);
    println!(
        "\n{:<16} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "workload", "bypass", "bypassed", "LLC allocs", "mem fills", "NS-local"
    );
    rule(78);
    for (name, bypass, bypassed, llc_allocs, mem_fills, ns_local) in rows {
        println!(
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12}",
            name,
            if bypass { "on" } else { "off" },
            bypassed,
            llc_allocs,
            mem_fills,
            ns_local
        );
    }
    rule(78);
    println!(
        "Streaming workloads shed LLC allocations (less slice churn) without\n\
         losing local NS hits; reuse-heavy workloads are unaffected."
    );
}

/// §III-A ablation: D2M with a *traditional* front end (unmodified core,
/// TLB + tagged L1) versus the full tag-less design. The paper claims such
/// a system still "achieves most of the reported D2M advantages" — here we
/// quantify what survives (traffic, miss latency) and what is lost (the
/// per-access TLB/tag energy the MD1 eliminates).
fn ablation_traditional(hc: &HarnessConfig, _: &[String]) {
    let rc = one_phase(&hc.rc, hc.rc.warmup_instructions + hc.rc.instructions);
    let mut rows = Vec::new();
    for name in ["mix2", "facebook", "tpc-c"] {
        for traditional in [false, true] {
            let feats = D2mFeatures {
                dynamic_indexing: !traditional,
                traditional_l1: traditional,
                ..D2mVariant::NearSideRepl.features()
            };
            let artifact = format!("ablation_traditional (traditional_l1: {traditional})");
            let obs = ablation(&artifact, name, D2mVariant::NearSideRepl, feats, &rc);
            let m = &obs.metrics;
            let ki = m.instructions as f64 / 1000.0;
            // The front-end energy the two designs differ in: TLB + L1 tags vs MD1.
            let frontend = event_pj(&obs, EnergyEvent::Tlb)
                + event_pj(&obs, EnergyEvent::L1TagWay)
                + event_pj(&obs, EnergyEvent::Md1);
            rows.push((
                name,
                traditional,
                m.msgs_per_kilo_inst,
                frontend / ki,
                m.avg_miss_latency,
            ));
        }
    }
    header("§III-A ablation: traditional front end vs tag-less D2M", hc);
    println!(
        "\n{:<14} {:>12} {:>10} {:>14} {:>10}",
        "workload", "front end", "msgs/KI", "frontend pJ/KI", "miss-lat"
    );
    rule(66);
    for (name, traditional, msgs, frontend, miss_lat) in rows {
        println!(
            "{:<14} {:>12} {:>10.1} {:>14.0} {:>10.1}",
            name,
            if traditional {
                "TLB+tags"
            } else {
                "MD1 (tag-less)"
            },
            msgs,
            frontend,
            miss_lat
        );
    }
    rule(66);
    println!(
        "Traffic and miss latency — the coherence-side advantages — survive the\n\
         traditional interface; the per-access front-end energy saving (MD1\n\
         replacing TLB + tag comparisons) is what the tag-less L1 adds."
    );
}

/// Appendix lock-bit study: collision rates of the MD3 blocking mechanism
/// for different lock-array sizes. Paper: 1 K lock bits give a negligible
/// collision rate.
fn lockbits(hc: &HarnessConfig, _: &[String]) {
    let rc = one_phase(&hc.rc, hc.rc.instructions);
    let mut rows = Vec::new();
    for bits in [64usize, 256, 1024, 4096] {
        for name in ["barnes", "tpc-c"] {
            let mut cfg = machine();
            cfg.md3_lock_bits = bits;
            let spec = catalog::by_name(name).expect("workload");
            let artifact = format!("lockbits ({bits} lock bits)");
            let m = require(
                &artifact,
                run_one_checked(SystemKind::D2mFs, &cfg, &spec, &rc),
            );
            let acquisitions = m.counters.get("lockbits.acquisitions");
            let collisions = m.counters.get("lockbits.collisions");
            let rate = collisions as f64 / acquisitions.max(1) as f64;
            rows.push((bits, name, acquisitions, collisions, rate));
        }
    }
    header("Appendix — MD3 lock-bit collision rates", hc);
    println!(
        "\n{:<12} {:>10} {:>14} {:>14} {:>12}",
        "lock bits", "workload", "transactions", "collisions", "rate"
    );
    rule(68);
    for (bits, name, acquisitions, collisions, rate) in rows {
        println!(
            "{:<12} {:>10} {:>14} {:>14} {:>11.3}%",
            bits,
            name,
            acquisitions,
            collisions,
            rate * 100.0
        );
    }
    rule(68);
    println!("paper: 1 K lock bits ⇒ negligible collision rate");
}

/// Per-structure energy breakdown (the composition behind Figure 6's
/// stacked bars): where each system spends its dynamic energy on one
/// workload (the first positional, default `facebook`). The paper's claim:
/// "most energy is spent searching levels and moving data over the
/// interconnect and between cache levels", which D2M eliminates.
fn energy_breakdown(hc: &HarnessConfig, workloads: &[String]) {
    let cfg = machine();
    let name = workloads.first().map_or("facebook", String::as_str);
    let spec = catalog::by_name(name).expect("workload");
    let rc = one_phase(&hc.rc, hc.rc.instructions);
    let mut columns = Vec::new();
    for kind in SystemKind::ALL {
        let obs = require("energy_breakdown", run_one_observed(kind, &cfg, &spec, &rc));
        let ki = obs.metrics.instructions as f64 / 1000.0;
        let per_event: Vec<f64> = EnergyEvent::ALL
            .iter()
            .map(|e| event_pj(&obs, *e) / ki)
            .collect();
        columns.push(per_event);
    }
    header(
        "Energy breakdown by structure (dynamic pJ per kilo-instruction)",
        hc,
    );
    println!("workload: {name}\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "structure", "Base-2L", "Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R"
    );
    rule(68);
    for (i, e) in EnergyEvent::ALL.iter().enumerate() {
        if columns.iter().all(|c| c[i] < 0.005) {
            continue;
        }
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            e.name(),
            columns[0][i],
            columns[1][i],
            columns[2][i],
            columns[3][i],
            columns[4][i]
        );
    }
    rule(68);
    let totals: Vec<f64> = columns.iter().map(|c| c.iter().sum()).collect();
    println!(
        "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
        "total", totals[0], totals[1], totals[2], totals[3], totals[4]
    );
    println!(
        "\n(Structure accesses only; NoC/memory message energy is charged by the\n\
         runner from the interconnect counters and leakage over cycles.)"
    );
}

/// Prints the full workload catalog with its behavioural parameters — the
/// reproducible definition of what each named benchmark means in this
/// reproduction (see `d2m_workloads::spec` for the model).
fn workload_stats(_: &HarnessConfig, _: &[String]) {
    println!(
        "{:<16} {:<9} {:>8} {:>7} {:>7} {:>8} {:>7} {:>7} {:>8} {:>7} {:>6} {:>12}",
        "workload",
        "suite",
        "code-KL",
        "hotC%",
        "jump%",
        "hot-ln",
        "pHot%",
        "warm-R",
        "priv-ln",
        "shar%",
        "wr%",
        "sharing"
    );
    println!("{}", "-".repeat(118));
    for s in catalog::all().expect("catalog specs are valid") {
        println!(
            "{:<16} {:<9} {:>8} {:>7.1} {:>7.0} {:>8} {:>7.1} {:>7} {:>8} {:>7.1} {:>6.0} {:>12}",
            s.name,
            s.category.name(),
            s.code_lines / 1000,
            s.p_hot_code * 100.0,
            s.jump_prob * 100.0,
            s.hot_lines,
            s.p_hot * 100.0,
            s.warm_regions,
            s.private_lines,
            s.shared_frac * 100.0,
            s.write_frac * 100.0,
            format!("{:?}", s.sharing),
        );
    }
    println!(
        "\ncode-KL = code footprint in kilo-lines; hotC% = jumps targeting hot code;\n\
         warm-R = LLC-scale warm set in 16-line regions; priv-ln = total private\n\
         footprint in lines; shar% = shared-access fraction. Strided scans and\n\
         migratory epochs are in the catalog source."
    );
}

/// Calibration scratchpad: one representative workload per suite, all five
/// systems, headline comparators vs the paper's targets. Not a paper
/// artifact itself — used to tune workload/energy/latency parameters, and
/// kept in-tree so the calibration is reproducible.
fn calibrate(hc: &HarnessConfig, _: &[String]) {
    header("calibration sweep", hc);
    let names = [
        "blackscholes",
        "canneal",
        "streamcluster",
        "barnes",
        "lu_cb",
        "facebook",
        "cnn",
        "mix1",
        "mix2",
        "tpc-c",
    ];
    let specs: Vec<_> = names
        .iter()
        .map(|n| catalog::by_name(n).expect("known workload"))
        .collect();
    let sweep = SweepSpec::single("calibrate", &machine(), &SystemKind::ALL, &specs, &hc.rc);
    let m = MatrixResult::from_runs(cached_sweep(&sweep).runs_for_config("default"));

    println!(
        "\n{:<14} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>6} {:>6}",
        "workload",
        "system",
        "msgs/KI",
        "EDPrel",
        "speedup",
        "L1I%",
        "L1D%",
        "misslat",
        "NS-I",
        "NS-D",
        "priv",
        "mem%"
    );
    for spec in &specs {
        let base = m.get(SystemKind::Base2L, &spec.name).unwrap();
        for kind in SystemKind::ALL {
            let r = m.get(kind, &spec.name).unwrap();
            println!(
                "{:<14} {:>9} {:>7.1} {:>7.2} {:>7.3} {:>7.2} {:>7.2} {:>8.1} {:>7.2} {:>7.2} {:>6.2} {:>6.2}",
                spec.name,
                r.system,
                r.msgs_per_kilo_inst,
                r.edp_vs(base),
                r.speedup_vs(base),
                r.l1i_miss_pct,
                r.l1d_miss_pct,
                r.avg_miss_latency,
                r.ns_hit_ratio_i,
                r.ns_hit_ratio_d,
                r.private_miss_frac,
                r.mem_service_frac,
            );
        }
        println!();
    }

    println!("--- aggregates (gmean over the sampled workloads) ---");
    for &kind in &SystemKind::ALL[1..] {
        let sp = m.gmean_relative(kind, SystemKind::Base2L, None, |s, b| s.speedup_vs(b));
        let edp = m.gmean_relative(kind, SystemKind::Base2L, None, |s, b| s.edp_vs(b));
        let tr = m.gmean_relative(kind, SystemKind::Base2L, None, |s, b| s.traffic_vs(b));
        let lat = m.gmean_relative(kind, SystemKind::Base2L, None, |s, b| {
            s.avg_miss_latency / b.avg_miss_latency.max(1.0)
        });
        println!(
            "{:>9}: speedup {:5.3} (paper B3L 1.04 FS 1.057 NS 1.07 NSR 1.085)  edp {:5.2} (NSR 0.46)  traffic {:5.2} (NSR 0.30)  misslat {:5.2} (NSR 0.70)",
            kind.name(), sp, edp, tr, lat
        );
    }
    let priv_frac = m.mean_absolute(SystemKind::D2mFs, None, |r| r.private_miss_frac);
    println!("private-miss fraction (D2M-FS mean): {priv_frac:.2} (paper 0.68)");
}

/// Message-class breakdown for calibration: which protocol messages make up
/// each system's traffic on the given workloads (default `mix2 tpc-c`).
fn traffic_debug(hc: &HarnessConfig, workloads: &[String]) {
    let cfg = machine();
    let defaults = ["mix2".to_string(), "tpc-c".to_string()];
    let names = if workloads.is_empty() {
        &defaults[..]
    } else {
        workloads
    };
    for name in names {
        let spec = catalog::by_name(name).expect("workload");
        println!("=== {name} ===");
        for kind in [SystemKind::Base2L, SystemKind::D2mFs, SystemKind::D2mNsR] {
            let m = require("traffic_debug", run_one_checked(kind, &cfg, &spec, &hc.rc));
            println!(
                "\n{} — {:.1} msgs/KI, miss I {:.2} D {:.2} /100inst, inv {}, edp {:.3e}, mem_frac {:.2}, ns I/D {:.2}/{:.2}, late I/D {:.2}/{:.2}, misslat {:.0}",
                m.system,
                m.msgs_per_kilo_inst,
                m.l1i_miss_pct,
                m.l1d_miss_pct,
                m.invalidations,
                m.edp,
                m.mem_service_frac,
                m.ns_hit_ratio_i,
                m.ns_hit_ratio_d,
                m.late_i_pct,
                m.late_d_pct,
                m.avg_miss_latency,
            );
            let ki = m.instructions as f64 / 1000.0;
            for (k, v) in m.counters.iter() {
                if k.starts_with("noc.msg.") && v > 0 {
                    println!("  {:<24} {:>10.2}/KI", &k[8..], v as f64 / ki);
                }
            }
            for key in [
                "md2.evictions",
                "md2.prunes",
                "md3.evictions",
                "case.a",
                "case.b",
                "case.c",
                "case.d1",
                "case.d2",
                "case.d3",
                "case.d4",
                "case.silent_upgrade",
                "md1.hits",
                "md1.accesses",
                "md2.hits",
                "md2.accesses",
                "md3.accesses",
                "case.d",
                "case.e",
                "case.f",
                "mem.fills",
            ] {
                let v = m.counters.get(key);
                if v > 0 {
                    println!("  {:<24} {:>10.2}/KI", key, v as f64 / ki);
                }
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn names() -> String {
        ARTIFACTS.map(|(name, _)| name).join(" ")
    }

    #[test]
    fn missing_artifact_lists_the_artifacts() {
        for line in ["", "--quick"] {
            let e = parse(&args(line)).unwrap_err();
            assert_eq!(e, UsageError::MissingArtifact);
            assert!(e.to_string().contains(&format!("artifacts: {}", names())));
        }
    }

    #[test]
    fn unknown_artifact_is_named_and_lists_the_artifacts() {
        let e = parse(&args("fig8 --quick")).unwrap_err();
        assert_eq!(e, UsageError::UnknownArtifact("fig8".into()));
        let msg = e.to_string();
        assert!(msg.starts_with("unknown artifact `fig8`\n"), "{msg}");
        assert!(msg.contains(&format!("artifacts: {}", names())), "{msg}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = parse(&args("table4 --quik")).unwrap_err();
        assert_eq!(e, UsageError::UnknownFlag("--quik".into()));
    }

    #[test]
    fn every_artifact_parses() {
        for (name, _) in ARTIFACTS {
            let inv = parse(&args(name)).unwrap();
            assert_eq!(ARTIFACTS[inv.artifact].0, name);
            assert!(!inv.hc.quick);
            assert_eq!(inv.hc.rc, RunConfig::full());
            assert!(inv.workloads.is_empty());
        }
    }

    #[test]
    fn quick_and_workloads_parse_in_any_position() {
        let inv = parse(&args("energy_breakdown tpc-c --quick")).unwrap();
        assert!(inv.hc.quick);
        assert_eq!(inv.hc.rc.instructions, 150_000);
        assert_eq!(inv.workloads, ["tpc-c"]);
        let inv = parse(&args("--quick traffic_debug swaptions canneal")).unwrap();
        assert!(inv.hc.quick);
        assert_eq!(inv.workloads, ["swaptions", "canneal"]);
    }

    #[test]
    #[should_panic(expected = "report lockbits (64 lock bits): \
                               D2M-FS violated value coherence on barnes (3 violations)")]
    fn a_violation_fails_the_artifact_naming_it() {
        let e = RunError::Coherence {
            system: "D2M-FS",
            workload: "barnes".into(),
            violations: 3,
        };
        require::<()>("lockbits (64 lock bits)", Err(e));
    }
}
