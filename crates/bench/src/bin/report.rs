//! Regenerates one paper artifact per run: `report <artifact> [--quick]
//! [workload…]`. The artifacts are listed in the crate docs and in the usage
//! text `report` prints when run without one.
//!
//! Each artifact returns its [`Report`], lines of text and [`Table`]s, and
//! `main` prints it only once the artifact has returned. A failed run or
//! sweep cell panics inside the artifact, so a failed artifact prints
//! nothing.

use std::fmt;
use std::process::ExitCode;

use d2m_bench::{cached_sweep, full_matrix, machine, parse_args, HarnessConfig};
use d2m_common::json::Json;
use d2m_core::{D2mFeatures, D2mSystem, D2mVariant};
use d2m_energy::EnergyEvent;
use d2m_sim::{
    run_one_checked, run_one_observed, run_system_observed, AnySystem, ConfigPoint, MatrixResult,
    RunConfig, RunError, RunMetrics, RunObservation, SweepSpec, SystemKind,
};
use d2m_workloads::{catalog, Category, WorkloadSpec};

/// An artifact: its report, from the harness run length and the positional
/// workloads (only `energy_breakdown` and `traffic_debug` read them).
type Artifact = fn(&HarnessConfig, &[String]) -> Report;

/// Every artifact, in usage order.
const ARTIFACTS: [(&str, Artifact); 16] = [
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

const NAN: f64 = f64::NAN;

/// The paper's reference values, as `(artifact, key, values)`. Percentages
/// are kept as the paper prints them (70 for 70%), ratios as ratios, and
/// `NAN` marks a cell the paper leaves empty.
#[rustfmt::skip]
const PAPER: [(&str, &str, &[f64]); 15] = [
    // Per suite: L1-I and L1-D miss %, late I and D hits %, then the Base-3L
    // L2, D2M-NS I and D, and D2M-NS-R I and D near-side hit ratios.
    ("table4", "Parallel", &[0.2, 1.9, 0.1, 2.9, NAN, 0.28, 0.51, 0.82, 0.71]),
    ("table4", "HPC",      &[0.0, 2.2, 0.0, 4.6, NAN, 0.17, 0.54, 0.44, 0.79]),
    ("table4", "Server",   &[0.4, 3.6, 0.3, 9.5, NAN, 0.82, 0.83, 0.95, 0.83]),
    ("table4", "Mobile",   &[2.2, 1.3, 1.8, 3.0, NAN, 0.56, 0.66, 0.96, 0.73]),
    ("table4", "Database", &[8.8, 3.3, 6.2, 4.2, 0.59, 0.26, 0.34, 0.97, 0.72]),
    ("table4", "Average",  &[2.3, 2.5, 1.7, 4.8, NAN, 0.42, 0.57, 0.83, 0.76]),
    // % of private-cache misses to private regions: average, Server.
    ("table5", "private_misses", &[68.0, 100.0]),
    // D2M-NS-R vs Base-2L: traffic ratio, % fewer messages, % fewer bytes.
    ("fig5_traffic", "nsr_traffic", &[0.30, 70.0, 65.0]),
    // % lower D2M-NS-R EDP than Base-2L and than Base-3L.
    ("fig6_edp", "nsr_edp_reduction", &[54.0, 40.0]),
    // % speedup over Base-2L of Base-3L, D2M-FS, D2M-NS and D2M-NS-R, and
    // % lower average L1-miss latency of D2M-NS-R than Base-2L.
    ("fig7_speedup", "speedup", &[4.0, 5.7, 7.0, 8.5]),
    ("fig7_speedup", "nsr_miss_latency_reduction", &[30.0]),
    // D2M-FS events per kilo memory operation in `pkmo`'s row order (cases
    // A, A by master location, B, C, D, D1–D4, E, F), then the % of misses
    // served without a directory (cases A and B).
    ("pkmo", "cases", &[12.5, 8.9, 2.7, 0.8, 1.7, 0.72, 0.82, 0.32, 0.02, 0.14, 0.34, NAN, NAN]),
    ("pkmo", "directory_free", &[90.0]),
    // MD3 accesses as % of Base-2L's and of Base-3L's directory accesses,
    // and MD2 accesses as % of Base-3L's L2-tag searches.
    ("structure_pressure", "pressure", &[11.0, 27.0, 58.0]),
    // D2M-NS-R % speedup and % direct near-side accesses at 1x, then at 2x.
    ("ablation_mdscale", "scale", &[8.5, 78.0, 9.5, 86.0]),
];

/// The paper's values under `key` of `artifact` in [`PAPER`].
///
/// # Panics
///
/// When [`PAPER`] has no such entry.
fn paper(artifact: &str, key: &str) -> &'static [f64] {
    PAPER
        .iter()
        .find(|p| p.0 == artifact && p.1 == key)
        .unwrap_or_else(|| panic!("no paper value {artifact}/{key}"))
        .2
}

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
            let report = (ARTIFACTS[inv.artifact].1)(&inv.hc, &inv.workloads);
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::from(2)
        }
    }
}

/// A table column: its header, width and alignment, and the separator
/// written before it (a space, or a group separator such as ` | `).
struct Column {
    head: String,
    width: usize,
    left: bool,
    sep: String,
}

/// A line of a table below its header.
enum Row {
    /// Formatted cells, one per column from the first; a row may stop short
    /// of the last columns.
    Cells(Vec<String>),
    /// A line of `-`.
    Rule,
    /// Text printed as it is, such as a suite's `-- <suite> --` line.
    Text(String),
}

/// A table: a header line naming its columns, then its rows.
#[derive(Default)]
struct Table {
    columns: Vec<Column>,
    rows: Vec<Row>,
    /// The width of its rules when not that of the header line.
    rule_width: Option<usize>,
}

impl Table {
    /// A table laid out by `layout`, a picture of its header line: each
    /// `{head:<width}` or `{head:>width}` is a left- or right-aligned column
    /// and the text before it is its separator.
    ///
    /// # Panics
    ///
    /// On a column that is not in that form.
    fn new(layout: &str) -> Table {
        let mut columns = Vec::new();
        let mut rest = layout;
        while let Some((sep, after)) = rest.split_once('{') {
            let (spec, after) = after.split_once('}').expect("`}` closes a column");
            let (head, width) = spec.rsplit_once(':').expect("`head:<width` column");
            columns.push(Column {
                head: head.into(),
                width: width[1..].parse().expect("column width"),
                left: width.starts_with('<'),
                sep: sep.into(),
            });
            rest = after;
        }
        Table {
            columns,
            ..Table::default()
        }
    }

    /// This table with rules `width` characters wide. The published tables'
    /// rules run past their header lines.
    fn rule_width(mut self, width: usize) -> Table {
        self.rule_width = Some(width);
        self
    }

    /// Adds a row of `cells`, separated by tabs.
    fn row(&mut self, cells: impl AsRef<str>) {
        let cells = cells.as_ref().split('\t').map(String::from).collect();
        self.rows.push(Row::Cells(cells));
    }

    fn rule(&mut self) {
        self.rows.push(Row::Rule);
    }

    fn text(&mut self, text: impl Into<String>) {
        self.rows.push(Row::Text(text.into()));
    }

    /// Writes `cells` as one line, each padded to its column's width.
    fn write_cells(&self, out: &mut impl fmt::Write, cells: &[impl AsRef<str>]) -> fmt::Result {
        for (i, (col, cell)) in self.columns.iter().zip(cells).enumerate() {
            if i > 0 {
                out.write_str(&col.sep)?;
            }
            let (cell, w) = (cell.as_ref(), col.width);
            if col.left {
                write!(out, "{cell:<w$}")?;
            } else {
                write!(out, "{cell:>w$}")?;
            }
        }
        writeln!(out)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut head = String::new();
        let heads: Vec<&str> = self.columns.iter().map(|c| c.head.as_str()).collect();
        self.write_cells(&mut head, &heads)?;
        f.write_str(&head)?;
        let rule = "-".repeat(self.rule_width.unwrap_or(head.chars().count() - 1));
        for row in &self.rows {
            match row {
                Row::Cells(cells) => self.write_cells(f, cells)?,
                Row::Rule => writeln!(f, "{rule}")?,
                Row::Text(text) => writeln!(f, "{text}")?,
            }
        }
        Ok(())
    }
}

/// A part of a [`Report`].
enum Block {
    /// A line of text (or lines, at its `\n`s).
    Text(String),
    Table(Table),
}

/// An artifact's output: lines of text and tables, in order.
#[derive(Default)]
struct Report(Vec<Block>);

impl Report {
    /// A report of `table` under the `== <title> ==` line, `hc`'s run length
    /// and a blank line.
    fn titled(title: &str, hc: &HarnessConfig, table: Table) -> Report {
        Report(vec![
            Block::Text(format!("== {title} ==")),
            Block::Text(format!("{}\n", run_length(hc))),
            Block::Table(table),
        ])
    }

    fn text(&mut self, text: impl Into<String>) {
        self.0.push(Block::Text(text.into()));
    }

    fn table(&mut self, table: Table) {
        self.0.push(Block::Table(table));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for block in &self.0 {
            match block {
                Block::Text(text) => writeln!(f, "{text}")?,
                Block::Table(table) => write!(f, "{table}")?,
            }
        }
        Ok(())
    }
}

/// The line under a report's title: the run length `hc` sets.
fn run_length(hc: &HarnessConfig) -> String {
    format!(
        "   {} instructions / workload ({} warmup){}",
        hc.rc.instructions,
        hc.rc.warmup_instructions,
        if hc.quick { "  [--quick]" } else { "" }
    )
}

/// A ratio as a percentage to one decimal.
fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// A paper cell: `-` where the paper gives no value, else `v` in `cell`'s
/// format.
fn paper_cell(v: f64, cell: impl Fn(f64) -> String) -> String {
    if v.is_nan() {
        "-".into()
    } else {
        cell(v)
    }
}

/// The result of a run that artifact `artifact` makes outside a sweep (a
/// sweep's failed cell fails the artifact in [`cached_sweep`]). An
/// ablation's `artifact` also names its setting.
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

/// The catalog workloads `names` lists, separated by spaces.
fn workloads(names: &str) -> Vec<WorkloadSpec> {
    let spec = |n| catalog::by_name(n).expect("workload");
    names.split(' ').map(spec).collect()
}

/// A table laid out by `layout` with rules `rule_width` wide, of a row per
/// catalog workload: its name, then the cells `row` makes from a lookup of
/// its run on each system. A `-- <suite> --` line opens each suite.
fn suite_table<'m>(
    m: &'m MatrixResult,
    layout: &str,
    rule_width: usize,
    mut row: impl FnMut(&dyn Fn(SystemKind) -> &'m RunMetrics) -> String,
) -> Table {
    let mut t = Table::new(layout).rule_width(rule_width);
    t.rule();
    let mut suite = None;
    for spec in catalog::all().expect("catalog specs are valid") {
        if suite != Some(spec.category) {
            suite = Some(spec.category);
            t.text(format!("-- {} --", spec.category.name()));
        }
        let cells = row(&|k| m.get(k, &spec.name).expect("run"));
        t.row(format!("{}\t{cells}", spec.name));
    }
    t.rule();
    t
}

/// Per suite, the geometric mean of `rel` (system vs Base-2L) for every
/// other system, each cell formatted by `cell`.
fn suite_gmean_table(
    m: &MatrixResult,
    rel: impl Fn(&RunMetrics, &RunMetrics) -> f64,
    cell: impl Fn(f64) -> String,
) -> Table {
    let mut t = Table::new("{suite:<10} {Base-3L:>9} {D2M-FS:>9} {D2M-NS:>9} {D2M-NS-R:>9}");
    for cat in Category::ALL.map(Category::name) {
        let cells: Vec<String> = SystemKind::ALL[1..]
            .iter()
            .map(|&k| cell(m.gmean_relative(k, SystemKind::Base2L, Some(cat), &rel)))
            .collect();
        t.row(format!("{cat}\t{}", cells.join("\t")));
    }
    t
}

/// Table IV: per-suite L1 miss ratios and late hits, and the near-side
/// (local-slice) hit ratios for the D2M variants (L2 hit ratio for
/// Base-3L). Paper reference rows are printed alongside.
fn table4(hc: &HarnessConfig, _: &[String]) -> Report {
    use SystemKind::{Base2L, Base3L, D2mNs, D2mNsR};
    // Misses and late hits per 100 instructions become per-access
    // percentages: 100/6 fetches and ~35 data accesses (the mem-op fraction
    // × 100) per 100 instructions.
    let (fetches, data) = (100.0 / 6.0, 35.0);
    // Each column's system and per-run value. Miss ratios are workload
    // properties, so they come from Base-2L.
    type PerRun<'a> = &'a dyn Fn(&RunMetrics) -> f64;
    let columns: [(SystemKind, PerRun); 9] = [
        (Base2L, &|r| r.l1i_miss_pct / fetches * 100.0),
        (Base2L, &|r| r.l1d_miss_pct / data * 100.0),
        (Base2L, &|r| r.late_i_pct / fetches * 100.0),
        (Base2L, &|r| r.late_d_pct / data * 100.0),
        (Base3L, &|r| (r.ns_hit_ratio_i + r.ns_hit_ratio_d) / 2.0),
        (D2mNs, &|r| r.ns_hit_ratio_i),
        (D2mNs, &|r| r.ns_hit_ratio_d),
        (D2mNsR, &|r| r.ns_hit_ratio_i),
        (D2mNsR, &|r| r.ns_hit_ratio_d),
    ];
    // The first four columns are percentages, the rest ratios.
    let cell = |i: usize, v: f64| if i < 4 { format!("{v:.1}") } else { pct(v) };
    let row = |label: &str, cells: Vec<String>| format!("{label}\t{}", cells.join("\t"));
    let measured = |label, vals: &[f64]| {
        let cells = vals.iter().enumerate().map(|(i, &v)| cell(i, v));
        row(label, cells.collect())
    };
    let paper_row = |suite| {
        let vals = paper("table4", suite).iter().enumerate();
        row(
            "  (paper)",
            vals.map(|(i, &v)| paper_cell(v, |v| cell(i, v))).collect(),
        )
    };

    let m = full_matrix(hc);
    let mut t = Table::new(
        "{suite:<10} | {L1I%:>6} {L1D%:>6} {lateI:>6} {lateD:>6} | {B3L:>6} \
         | {NS-I:>6} {NS-D:>6} | {NSR-I:>6} {NSR-D:>6}",
    )
    .rule_width(88);
    t.rule();
    let mut suites = Vec::new();
    for cat in Category::ALL.map(Category::name) {
        let vals: Vec<f64> = columns
            .iter()
            .map(|(kind, f)| m.mean_absolute(*kind, Some(cat), f))
            .collect();
        t.row(measured(cat, &vals));
        t.row(paper_row(cat));
        suites.push(vals);
    }
    t.rule();
    let means: Vec<f64> = (0..columns.len())
        .map(|i| suites.iter().map(|v| v[i]).sum::<f64>() / suites.len() as f64)
        .collect();
    t.row(measured("Average", &means));
    t.row(paper_row("Average"));

    let title = "Table IV — L1 miss ratios, late hits, near-side hit ratios";
    let mut r = Report::titled(title, hc, t);
    r.text(
        "\nNS hit ratios here = local-slice hits / all L1 misses of that side\n\
         (B3L column = L2 hits / all L1 misses). Paper §IV claims: NS data 58% → 76%\n\
         with replication; Database NS-R services 97% of L1-I misses locally.",
    );
    r
}

/// Table V: received invalidations (including region-grain false
/// invalidations) normalized to Base-2L, and the percentage of private-cache
/// misses that hit regions classified private. Paper headline: 68% of
/// misses are to private regions on average; Server mixes are 100% private.
fn table5(hc: &HarnessConfig, _: &[String]) -> Report {
    let m = full_matrix(hc);
    let layout = "{workload:<16} {inv(B2L)/KI:>12} {inv(NSR)rel%:>12} {priv-miss%:>12}";
    let mut priv_all = Vec::new();
    let t = suite_table(&m, layout, 58, |run| {
        let base = run(SystemKind::Base2L);
        let nsr = run(SystemKind::D2mNsR);
        let ki = base.instructions as f64 / 1000.0;
        let rel = match (base.invalidations, nsr.invalidations) {
            (0, 0) => 100.0,
            (0, _) => f64::INFINITY,
            (b, n) => n as f64 / b as f64 * 100.0,
        };
        priv_all.push(nsr.private_miss_frac);
        let inv = base.invalidations as f64 / ki;
        format!("{inv:.2}\t{rel:.0}\t{:.0}", nsr.private_miss_frac * 100.0)
    });
    let server = m.mean_absolute(SystemKind::D2mNsR, Some("Server"), |r| r.private_miss_frac);
    assert!(
        server > 0.999,
        "Server mixes must be fully private, got {server}"
    );

    let title = "Table V — invalidations vs Base-2L, private-region misses";
    let mut r = Report::titled(title, hc, t);
    for cat in Category::ALL.map(Category::name) {
        let p = m.mean_absolute(SystemKind::D2mNsR, Some(cat), |r| r.private_miss_frac);
        r.text(format!(
            "{cat:<10} private-miss fraction: {:>5.0}%",
            p * 100.0
        ));
    }
    let avg = priv_all.iter().sum::<f64>() / priv_all.len() as f64 * 100.0;
    let p = paper("table5", "private_misses");
    r.text(format!(
        "\naverage: {avg:.0}% of misses to private regions (paper: {}%; Server: {}%)",
        p[0], p[1]
    ));
    r
}

/// Figure 5: network traffic in messages per 1000 instructions, per
/// workload, for all five systems; D2M-specific traffic shown separately
/// (the paper's lighter bars). Prints per-suite and overall reductions
/// against the paper's headline (−70% for D2M-NS-R).
fn fig5_traffic(hc: &HarnessConfig, _: &[String]) -> Report {
    let m = full_matrix(hc);
    let layout =
        "{workload:<16} {Base-2L:>9} {Base-3L:>9} {D2M-FS:>9} {D2M-NS:>9} {D2M-NS-R:>9}   \
         {(d2m-msg):>8}";
    let t = suite_table(&m, layout, 86, |run| {
        let msgs = SystemKind::ALL.map(|k| format!("{:.1}", run(k).msgs_per_kilo_inst));
        let d2m = run(SystemKind::D2mNsR).d2m_msgs_per_kilo_inst;
        format!("{}\t{d2m:.1}", msgs.join("\t"))
    });

    let p = paper("fig5_traffic", "nsr_traffic");
    let title = "Figure 5 — network traffic (messages / 1000 instructions)";
    let mut r = Report::titled(title, hc, t);
    r.text(format!(
        "\n-- relative traffic vs Base-2L (gmean; paper: D2M-NS-R ≈ {:.2} overall) --",
        p[0]
    ));
    let gmeans = suite_gmean_table(&m, |s, b| s.traffic_vs(b), |v| format!("{v:.2}"));
    r.table(gmeans);
    let overall = m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
        s.traffic_vs(b)
    });
    r.text(format!(
        "\noverall D2M-NS-R traffic: {:.2}x Base-2L (measured {:.0}% reduction; paper: {}%)",
        overall,
        (1.0 - overall) * 100.0,
        p[1]
    ));
    let bytes = m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
        s.data_bytes_per_kilo_inst / b.data_bytes_per_kilo_inst.max(1e-9)
    });
    r.text(format!(
        "overall D2M-NS-R data-byte traffic: {bytes:.2}x Base-2L (paper: {}% reduction)",
        p[2]
    ));
    r
}

/// Figure 6: cache-hierarchy EDP (static + dynamic) normalized to Base-2L,
/// with the D2M-only (location tracker) energy share reported separately
/// (the paper's lighter bars). Paper headline: D2M-NS-R reduces EDP by 54%
/// vs Base-2L and 40% vs Base-3L.
fn fig6_edp(hc: &HarnessConfig, _: &[String]) -> Report {
    let m = full_matrix(hc);
    let layout =
        "{workload:<16} {Base-2L:>8} {Base-3L:>8} {D2M-FS:>8} {D2M-NS:>8} {D2M-NS-R:>8}   \
         {(md-en %):>9}";
    let t = suite_table(&m, layout, 84, |run| {
        let base = run(SystemKind::Base2L);
        let edp = SystemKind::ALL.map(|k| format!("{:.2}", run(k).edp_vs(base)));
        let md_en = run(SystemKind::D2mNsR).d2m_energy_frac * 100.0;
        format!("{}\t{md_en:.1}", edp.join("\t"))
    });

    let title = "Figure 6 — cache-hierarchy EDP normalized to Base-2L";
    let mut r = Report::titled(title, hc, t);
    r.text("\n-- EDP vs Base-2L (gmean) --");
    let gmeans = suite_gmean_table(&m, |s, b| s.edp_vs(b), |v| format!("{v:.2}"));
    r.table(gmeans);
    let below = |base| {
        let edp = m.gmean_relative(SystemKind::D2mNsR, base, None, |s, b| s.edp_vs(b));
        (1.0 - edp) * 100.0
    };
    let p = paper("fig6_edp", "nsr_edp_reduction");
    r.text(format!(
        "\nD2M-NS-R EDP: {:.0}% below Base-2L (paper: {}%), {:.0}% below Base-3L (paper: {}%)",
        below(SystemKind::Base2L),
        p[0],
        below(SystemKind::Base3L),
        p[1]
    ));
    // The cnn outlier check (paper §V-C): NS placement hurts cnn, replication recovers.
    let cnn2l = m.get(SystemKind::Base2L, "cnn").expect("run");
    let cnn_ns = m.get(SystemKind::D2mNs, "cnn").expect("run").edp_vs(cnn2l);
    let cnn_nsr = m.get(SystemKind::D2mNsR, "cnn").expect("run").edp_vs(cnn2l);
    r.text(format!(
        "cnn outlier: D2M-NS {cnn_ns:.2} vs D2M-NS-R {cnn_nsr:.2} (replication should help)"
    ));
    r
}

/// Figure 7: speedup over Base-2L under infinite bandwidth, plus the §V-D
/// L1-miss latency comparison. Paper headlines: Base-3L ≈ +4%, D2M-FS ≈
/// +5.7%, D2M-NS ≈ +7%, D2M-NS-R ≈ +8.5% (max 28%, Database); D2M-NS-R
/// cuts average L1 miss latency by 30%.
fn fig7_speedup(hc: &HarnessConfig, _: &[String]) -> Report {
    let m = full_matrix(hc);
    let others = &SystemKind::ALL[1..];
    let layout =
        "{workload:<16} {Base-3L:>8} {D2M-FS:>8} {D2M-NS:>8} {D2M-NS-R:>8}   {misslat-R:>9}";
    let t = suite_table(&m, layout, 74, |run| {
        let base = run(SystemKind::Base2L);
        let lat_rel = run(SystemKind::D2mNsR).avg_miss_latency / base.avg_miss_latency.max(1.0);
        let sp: Vec<String> = others
            .iter()
            .map(|&k| format!("{:.1}%", (run(k).speedup_vs(base) - 1.0) * 100.0))
            .collect();
        format!("{}\t{lat_rel:.2}x", sp.join("\t"))
    });

    let title = "Figure 7 — speedup over Base-2L (infinite bandwidth)";
    let mut r = Report::titled(title, hc, t);
    r.text("\n-- speedup vs Base-2L (gmean) --");
    let gmeans = suite_gmean_table(
        &m,
        |s, b| s.speedup_vs(b),
        |v| format!("{:.1}%", (v - 1.0) * 100.0),
    );
    r.table(gmeans);
    let overall: Vec<String> = others
        .iter()
        .zip(paper("fig7_speedup", "speedup"))
        .map(|(&k, p)| {
            let sp = m.gmean_relative(k, SystemKind::Base2L, None, |s, b| s.speedup_vs(b));
            format!("{} {:+.1}% (paper +{p})", k.name(), (sp - 1.0) * 100.0)
        })
        .collect();
    r.text(format!("\noverall: {}", overall.join(", ")));
    let lat = m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
        s.avg_miss_latency / b.avg_miss_latency.max(1.0)
    });
    r.text(format!(
        "average L1-miss latency, D2M-NS-R: {:.0}% below Base-2L (paper: {}%)",
        (1.0 - lat) * 100.0,
        paper("fig7_speedup", "nsr_miss_latency_reduction")[0]
    ));
    r
}

/// Appendix protocol-event mix: events per kilo memory operation (PKMO)
/// for the basic D2M-FS architecture, averaged across all suites — the
/// paper's case-by-case cost accounting (A 12.5, B 1.7, C 0.72, D 0.82
/// with D1 0.32 / D2 0.02 / D3 0.14 / D4 0.34), and the "~90% of misses are
/// directory-free" headline.
fn pkmo(hc: &HarnessConfig, _: &[String]) -> Report {
    let cfg = machine();
    let keys = [
        ("case.a", "A: read miss, MD hit"),
        ("case.a_llc", "   A → master in LLC"),
        ("case.a_mem", "   A → master in MEM"),
        ("case.a_remote", "   A → master remote node"),
        ("case.b", "B: write miss, private"),
        ("case.c", "C: write, shared"),
        ("case.d", "D: MD2 miss (ReadMM)"),
        ("case.d1", "   D1 untracked→private"),
        ("case.d2", "   D2 private→shared"),
        ("case.d3", "   D3 shared→shared"),
        ("case.d4", "   D4 uncached→private"),
        ("case.e", "E: evict master, private"),
        ("case.f", "F: evict master, shared"),
    ];
    let mut sums = vec![0f64; keys.len()];
    let mut memops = 0f64;
    let mut free_n = 0f64;
    let mut free_d = 0f64;
    for spec in catalog::all().expect("catalog specs are valid") {
        let run = run_one_checked(SystemKind::D2mFs, &cfg, &spec, &hc.rc);
        let m = require("pkmo", run);
        memops += (m.counters.get("loads") + m.counters.get("stores")) as f64;
        for (sum, (k, _)) in sums.iter_mut().zip(&keys) {
            *sum += m.counters.get(k) as f64;
        }
        let [a, b, c, d] =
            ["case.a", "case.b", "case.c", "case.d"].map(|k| m.counters.get(k) as f64);
        free_n += a + b;
        free_d += a + b + c + d;
    }

    let mut t = Table::new("{event:<30} {measured:>10} {paper:>10}").rule_width(54);
    t.rule();
    for ((sum, (_, label)), &p) in sums.iter().zip(keys).zip(paper("pkmo", "cases")) {
        let paper = paper_cell(p, |p| format!("{p:.2}"));
        t.row(format!("{label}\t{:.2}\t{paper}", sum / memops * 1000.0));
    }
    t.rule();
    let title = "Appendix — protocol events per kilo memory operation (D2M-FS)";
    let mut r = Report::titled(title, hc, t);
    r.text(format!(
        "directory-free misses (A+B)/(A+B+C+D): {:.0}%  (paper: ~{}%)",
        free_n / free_d * 100.0,
        paper("pkmo", "directory_free")[0]
    ));
    r
}

/// §V-B structure-pressure comparison: how often D2M's MD3 is consulted
/// versus the baselines' directory, and MD2 versus Base-3L's L2 tags.
/// Paper: MD3 accesses are 11% of Base-2L directory accesses and 27% of
/// Base-3L's; MD2 is accessed 58% as often as the Base-3L L2 tags.
fn structure_pressure(hc: &HarnessConfig, _: &[String]) -> Report {
    let m = full_matrix(hc);
    let layout = "{workload:<16} {MD3/dir(2L):>12} {MD3/dir(3L):>12} {MD2/L2tag:>12}";
    let mut t = Table::new(layout).rule_width(56);
    t.rule();
    let mut ratios = Vec::new();
    for spec in catalog::all().expect("catalog specs are valid") {
        let b2 = m.get(SystemKind::Base2L, &spec.name).expect("run");
        let b3 = m.get(SystemKind::Base3L, &spec.name).expect("run");
        let fs = m.get(SystemKind::D2mFs, &spec.name).expect("run");
        let row = [
            fs.dir_or_md3_accesses as f64 / b2.dir_or_md3_accesses.max(1) as f64,
            fs.dir_or_md3_accesses as f64 / b3.dir_or_md3_accesses.max(1) as f64,
            fs.md2_or_l2tag_accesses as f64 / b3.md2_or_l2tag_accesses.max(1) as f64,
        ];
        let [r1, r2, r3] = row.map(|v| v * 100.0);
        t.row(format!("{}\t{r1:.0}%\t{r2:.0}%\t{r3:.0}%", spec.name));
        ratios.push(row);
    }
    t.rule();

    let mut r = Report::titled("§V-B — metadata/directory structure pressure", hc, t);
    let lines = [
        ("average: MD3", "Base-2L directory accesses"),
        ("         MD3", "Base-3L directory accesses"),
        ("         MD2", "Base-3L L2-tag searches"),
    ];
    let pressure = paper("structure_pressure", "pressure");
    for (i, ((lead, what), p)) in lines.iter().zip(pressure).enumerate() {
        let mean = ratios.iter().map(|r| r[i]).sum::<f64>() / ratios.len() as f64 * 100.0;
        r.text(format!("{lead} = {mean:.0}% of {what:<26} (paper: {p}%)"));
    }
    r
}

/// Footnote-5 ablation: scale the MD1/MD2/MD3 capacities 1×/2×/4× and
/// measure D2M-NS-R speedup over Base-2L plus the fraction of LLC-level
/// reads serviced by a direct local-slice access. Paper: speedup 8.5% (1×)
/// → 9.5% (2×); direct NS accesses 78% → 86%.
fn ablation_mdscale(hc: &HarnessConfig, _: &[String]) -> Report {
    // A representative cross-suite sample keeps the sweep tractable.
    let specs = workloads("blackscholes canneal barnes fft facebook google mix1 mix2 tpc-c");

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

    let layout = "{scale:>6} {speedup:>10} {ns-local I:>12} {ns-local D:>12} {md2-miss/KI:>12}";
    let mut t = Table::new(layout).rule_width(58);
    t.rule();
    for scale in [1usize, 2, 4] {
        let m = MatrixResult::from_runs(res.runs_for_config(&format!("{scale}x")));
        let sp = (m.gmean_relative(SystemKind::D2mNsR, SystemKind::Base2L, None, |s, b| {
            s.speedup_vs(b)
        }) - 1.0)
            * 100.0;
        let ns_i = m.mean_absolute(SystemKind::D2mNsR, None, |r| r.ns_hit_ratio_i) * 100.0;
        let ns_d = m.mean_absolute(SystemKind::D2mNsR, None, |r| r.ns_hit_ratio_d) * 100.0;
        let d_rate = m.mean_absolute(SystemKind::D2mNsR, None, |r| {
            r.counters.get("case.d") as f64 / (r.instructions as f64 / 1000.0)
        });
        t.row(format!(
            "{scale}x\t{sp:.1}%\t{ns_i:.0}%\t{ns_d:.0}%\t{d_rate:.2}"
        ));
    }
    t.rule();

    let title = "Footnote 5 — metadata capacity ablation (1x/2x/4x)";
    let mut r = Report::titled(title, hc, t);
    let p = paper("ablation_mdscale", "scale");
    r.text(format!(
        "paper: 1x → +{}% speedup / {}% direct NS; 2x → +{}% / {}%",
        p[0], p[1], p[2], p[3]
    ));
    r
}

/// §IV-D ablation: dynamic indexing on the power-of-two-stride LU
/// workloads. Compares D2M-NS (no scrambling) with a scramble-only variant
/// (NS + dynamic indexing, replication off) so the effect is isolated.
/// Paper: scrambling dramatically reduces energy for malicious patterns
/// such as LU by eliminating conflict misses.
fn ablation_scramble(hc: &HarnessConfig, _: &[String]) -> Report {
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
    let layout = "{workload:<16} {memfills/KI:>14} {memfills/KI:>14} {reduction:>10}";
    let mut t = Table::new(layout).rule_width(58);
    t.row("\t(no scramble)\t(scrambled)");
    t.rule();
    for name in ["lu_cb", "lu_ncb", "fft", "swaptions"] {
        let (off, on) = (run(name, false), run(name, true));
        let reduction = (1.0 - on / off.max(1e-9)) * 100.0;
        t.row(format!("{name}\t{off:.2}\t{on:.2}\t{reduction:.0}%"));
    }
    t.rule();

    let mut r = Report::titled("§IV-D — dynamic-indexing (scramble) ablation", hc, t);
    r.text(
        "lu_cb/lu_ncb carry 256 KB power-of-two strides that collapse onto one\n\
         LLC set without scrambling; fft/swaptions are unaffected controls.",
    );
    r
}

/// Cache-bypass ablation (paper §I optimization list): streaming regions
/// skip LLC allocation when the region-metadata predictor has seen many
/// fills with no LLC reuse. Compares D2M-NS-R with and without bypassing on
/// streaming-heavy and reuse-heavy workloads.
fn ablation_bypass(hc: &HarnessConfig, _: &[String]) -> Report {
    let rc = one_phase(&hc.rc, hc.rc.warmup_instructions + hc.rc.instructions);
    let mut t = Table::new(
        "{workload:<16} {bypass:>8} {bypassed:>12} {LLC allocs:>12} {mem fills:>12} \
         {NS-local:>12}",
    )
    .rule_width(78);
    t.rule();
    for name in ["streamcluster", "radix", "canneal", "facebook", "swaptions"] {
        for bypass in [false, true] {
            let feats = D2mFeatures {
                bypass,
                ..D2mVariant::NearSideRepl.features()
            };
            let artifact = format!("ablation_bypass (bypass: {bypass})");
            let obs = ablation(&artifact, name, D2mVariant::NearSideRepl, feats, &rc);
            let c = &obs.metrics.counters;
            let setting = if bypass { "on" } else { "off" };
            t.row(format!(
                "{name}\t{setting}\t{}\t{}\t{}\t{}",
                c.get("bypassed_fills"),
                c.get("ns_alloc.local") + c.get("ns_alloc.remote"),
                c.get("mem.fills"),
                c.get("ns.local_d") + c.get("ns.local_i"),
            ));
        }
    }
    t.rule();

    let mut r = Report::titled("Cache-bypass ablation (D2M-NS-R ± bypass)", hc, t);
    r.text(
        "Streaming workloads shed LLC allocations (less slice churn) without\n\
         losing local NS hits; reuse-heavy workloads are unaffected.",
    );
    r
}

/// §III-A ablation: D2M with a *traditional* front end (unmodified core,
/// TLB + tagged L1) versus the full tag-less design. The paper claims such
/// a system still "achieves most of the reported D2M advantages" — here we
/// quantify what survives (traffic, miss latency) and what is lost (the
/// per-access TLB/tag energy the MD1 eliminates).
fn ablation_traditional(hc: &HarnessConfig, _: &[String]) -> Report {
    let rc = one_phase(&hc.rc, hc.rc.warmup_instructions + hc.rc.instructions);
    let layout = "{workload:<14} {front end:>12} {msgs/KI:>10} {frontend pJ/KI:>14} {miss-lat:>10}";
    let mut t = Table::new(layout).rule_width(66);
    t.rule();
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
            let design = if traditional {
                "TLB+tags"
            } else {
                "MD1 (tag-less)"
            };
            t.row(format!(
                "{name}\t{design}\t{:.1}\t{:.0}\t{:.1}",
                m.msgs_per_kilo_inst,
                frontend / ki,
                m.avg_miss_latency
            ));
        }
    }
    t.rule();

    let title = "§III-A ablation: traditional front end vs tag-less D2M";
    let mut r = Report::titled(title, hc, t);
    r.text(
        "Traffic and miss latency — the coherence-side advantages — survive the\n\
         traditional interface; the per-access front-end energy saving (MD1\n\
         replacing TLB + tag comparisons) is what the tag-less L1 adds.",
    );
    r
}

/// Appendix lock-bit study: collision rates of the MD3 blocking mechanism
/// for different lock-array sizes. Paper: 1 K lock bits give a negligible
/// collision rate.
fn lockbits(hc: &HarnessConfig, _: &[String]) -> Report {
    let rc = one_phase(&hc.rc, hc.rc.instructions);
    let layout = "{lock bits:<12} {workload:>10} {transactions:>14} {collisions:>14} {rate:>12}";
    let mut t = Table::new(layout).rule_width(68);
    t.rule();
    for bits in [64usize, 256, 1024, 4096] {
        for name in ["barnes", "tpc-c"] {
            let mut cfg = machine();
            cfg.md3_lock_bits = bits;
            let spec = catalog::by_name(name).expect("workload");
            let artifact = format!("lockbits ({bits} lock bits)");
            let run = run_one_checked(SystemKind::D2mFs, &cfg, &spec, &rc);
            let m = require(&artifact, run);
            let acquisitions = m.counters.get("lockbits.acquisitions");
            let collisions = m.counters.get("lockbits.collisions");
            let rate = collisions as f64 / acquisitions.max(1) as f64 * 100.0;
            t.row(format!(
                "{bits}\t{name}\t{acquisitions}\t{collisions}\t{rate:.3}%"
            ));
        }
    }
    t.rule();

    let mut r = Report::titled("Appendix — MD3 lock-bit collision rates", hc, t);
    r.text("paper: 1 K lock bits ⇒ negligible collision rate");
    r
}

/// Per-structure energy breakdown (the composition behind Figure 6's
/// stacked bars): where each system spends its dynamic energy on one
/// workload (the first positional, default `facebook`). The paper's claim:
/// "most energy is spent searching levels and moving data over the
/// interconnect and between cache levels", which D2M eliminates.
fn energy_breakdown(hc: &HarnessConfig, workloads: &[String]) -> Report {
    let cfg = machine();
    let name = workloads.first().map_or("facebook", String::as_str);
    let spec = catalog::by_name(name).expect("workload");
    let rc = one_phase(&hc.rc, hc.rc.instructions);
    let columns = SystemKind::ALL.map(|kind| {
        let obs = require("energy_breakdown", run_one_observed(kind, &cfg, &spec, &rc));
        let ki = obs.metrics.instructions as f64 / 1000.0;
        EnergyEvent::ALL.map(|e| event_pj(&obs, e) / ki)
    });
    let layout =
        "{structure:<12} {Base-2L:>10} {Base-3L:>10} {D2M-FS:>10} {D2M-NS:>10} {D2M-NS-R:>10}";
    let mut t = Table::new(layout).rule_width(68);
    t.rule();
    let row = |label: &str, vals: [f64; 5]| {
        format!("{label}\t{}", vals.map(|v| format!("{v:.1}")).join("\t"))
    };
    for (i, e) in EnergyEvent::ALL.iter().enumerate() {
        if columns.iter().all(|c| c[i] < 0.005) {
            continue;
        }
        t.row(row(e.name(), columns.map(|c| c[i])));
    }
    t.rule();
    t.row(row("total", columns.map(|c| c.iter().sum())));

    let title = "Energy breakdown by structure (dynamic pJ per kilo-instruction)";
    let mut r = Report::default();
    r.text(format!("== {title} =="));
    r.text(run_length(hc));
    r.text(format!("workload: {name}\n"));
    r.table(t);
    r.text(
        "\n(Structure accesses only; NoC/memory message energy is charged by the\n\
         runner from the interconnect counters and leakage over cycles.)",
    );
    r
}

/// The full workload catalog with its behavioural parameters — the
/// reproducible definition of what each named benchmark means in this
/// reproduction (see `d2m_workloads::spec` for the model).
fn workload_stats(_: &HarnessConfig, _: &[String]) -> Report {
    let layout = "{workload:<16} {suite:<9} {code-KL:>8} {hotC%:>7} {jump%:>7} {hot-ln:>8} \
                  {pHot%:>7} {warm-R:>7} {priv-ln:>8} {shar%:>7} {wr%:>6} {sharing:>12}";
    let mut t = Table::new(layout).rule_width(118);
    t.rule();
    for s in catalog::all().expect("catalog specs are valid") {
        t.row(format!(
            "{}\t{}\t{}\t{:.1}\t{:.0}\t{}\t{:.1}\t{}\t{}\t{:.1}\t{:.0}\t{:?}",
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
            s.sharing,
        ));
    }
    let mut r = Report::default();
    r.table(t);
    r.text(
        "\ncode-KL = code footprint in kilo-lines; hotC% = jumps targeting hot code;\n\
         warm-R = LLC-scale warm set in 16-line regions; priv-ln = total private\n\
         footprint in lines; shar% = shared-access fraction. Strided scans and\n\
         migratory epochs are in the catalog source.",
    );
    r
}

/// Calibration scratchpad: one representative workload per suite, all five
/// systems, headline comparators vs the paper's targets. Not a paper
/// artifact itself — used to tune workload/energy/latency parameters, and
/// kept in-tree so the calibration is reproducible.
fn calibrate(hc: &HarnessConfig, _: &[String]) -> Report {
    let specs =
        workloads("blackscholes canneal streamcluster barnes lu_cb facebook cnn mix1 mix2 tpc-c");
    let sweep = SweepSpec::single("calibrate", &machine(), &SystemKind::ALL, &specs, &hc.rc);
    let m = MatrixResult::from_runs(cached_sweep(&sweep).runs_for_config("default"));

    let mut t = Table::new(
        "{workload:<14} {system:>9} {msgs/KI:>7} {EDPrel:>7} {speedup:>7} {L1I%:>7} {L1D%:>7} \
         {misslat:>8} {NS-I:>7} {NS-D:>7} {priv:>6} {mem%:>6}",
    );
    for spec in &specs {
        let base = m.get(SystemKind::Base2L, &spec.name).unwrap();
        for kind in SystemKind::ALL {
            let r = m.get(kind, &spec.name).unwrap();
            t.row(format!(
                "{}\t{}\t{:.1}\t{:.2}\t{:.3}\t{:.2}\t{:.2}\t{:.1}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
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
            ));
        }
        t.text("");
    }

    let mut r = Report::titled("calibration sweep", hc, t);
    r.text("--- aggregates (gmean over the sampled workloads) ---");
    // The paper's Figure 5–7 and Table V headlines as ratios.
    let paper_speedups: Vec<String> = ["B3L", "FS", "NS", "NSR"]
        .iter()
        .zip(paper("fig7_speedup", "speedup"))
        .map(|(k, p)| format!("{k} {}", 1.0 + p / 100.0))
        .collect();
    let paper_edp = 1.0 - paper("fig6_edp", "nsr_edp_reduction")[0] / 100.0;
    let paper_traffic = paper("fig5_traffic", "nsr_traffic")[0];
    let paper_lat = 1.0 - paper("fig7_speedup", "nsr_miss_latency_reduction")[0] / 100.0;
    for &kind in &SystemKind::ALL[1..] {
        let sp = m.gmean_relative(kind, SystemKind::Base2L, None, |s, b| s.speedup_vs(b));
        let edp = m.gmean_relative(kind, SystemKind::Base2L, None, |s, b| s.edp_vs(b));
        let tr = m.gmean_relative(kind, SystemKind::Base2L, None, |s, b| s.traffic_vs(b));
        let lat = m.gmean_relative(kind, SystemKind::Base2L, None, |s, b| {
            s.avg_miss_latency / b.avg_miss_latency.max(1.0)
        });
        r.text(format!(
            "{:>9}: speedup {sp:5.3} (paper {})  edp {edp:5.2} (NSR {paper_edp:.2})  traffic {tr:5.2} (NSR {paper_traffic:.2})  misslat {lat:5.2} (NSR {paper_lat:.2})",
            kind.name(),
            paper_speedups.join(" ")
        ));
    }
    let priv_frac = m.mean_absolute(SystemKind::D2mFs, None, |r| r.private_miss_frac);
    r.text(format!(
        "private-miss fraction (D2M-FS mean): {priv_frac:.2} (paper {:.2})",
        paper("table5", "private_misses")[0] / 100.0
    ));
    r
}

/// Message-class breakdown for calibration: which protocol messages make up
/// each system's traffic on the given workloads (default `mix2 tpc-c`).
fn traffic_debug(hc: &HarnessConfig, workloads: &[String]) -> Report {
    let cfg = machine();
    let defaults = ["mix2".to_string(), "tpc-c".to_string()];
    let names = if workloads.is_empty() {
        &defaults[..]
    } else {
        workloads
    };
    let events = "md2.evictions md2.prunes md3.evictions case.a case.b case.c case.d1 case.d2 \
                  case.d3 case.d4 case.silent_upgrade md1.hits md1.accesses md2.hits \
                  md2.accesses md3.accesses case.d case.e case.f mem.fills";
    let mut r = Report::default();
    for name in names {
        let spec = catalog::by_name(name).expect("workload");
        r.text(format!("=== {name} ==="));
        for kind in [SystemKind::Base2L, SystemKind::D2mFs, SystemKind::D2mNsR] {
            let m = require("traffic_debug", run_one_checked(kind, &cfg, &spec, &hc.rc));
            r.text(format!(
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
            ));
            let ki = m.instructions as f64 / 1000.0;
            let messages = m
                .counters
                .iter()
                .filter_map(|(k, v)| Some((k.strip_prefix("noc.msg.")?, v)));
            let events = events.split_whitespace().map(|k| (k, m.counters.get(k)));
            for (key, v) in messages.chain(events).filter(|&(_, v)| v > 0) {
                r.text(format!("  {key:<24} {:>10.2}/KI", v as f64 / ki));
            }
        }
        r.text("");
    }
    r
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

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.545), "54.5");
    }

    #[test]
    fn every_paper_value_belongs_to_one_artifact_and_key() {
        for (i, (artifact, key, values)) in PAPER.iter().enumerate() {
            assert!(ARTIFACTS.iter().any(|a| a.0 == *artifact), "{artifact}");
            assert!(!values.is_empty(), "{artifact}/{key}");
            assert_eq!(
                PAPER.iter().position(|p| p.0 == *artifact && p.1 == *key),
                Some(i),
                "{artifact}/{key} listed twice"
            );
        }
    }

    #[test]
    fn columns_pad_to_their_width_and_alignment() {
        let mut t = Table::new("{name:<6} {n:>4} {x:>3}");
        t.row("ab\t7\t1.5");
        t.row("toolong\t12345");
        t.text("-- note --");
        assert_eq!(
            t.to_string(),
            "name      n   x\nab        7 1.5\ntoolong 12345\n-- note --\n"
        );
    }

    #[test]
    fn a_rule_is_as_wide_as_the_header_line_unless_set() {
        let mut t = Table::new("{suite:<7} {(wide head):>4}");
        t.rule();
        let lines: Vec<String> = t.to_string().lines().map(String::from).collect();
        assert_eq!(lines, ["suite   (wide head)", "-------------------"]);
        let t = t.rule_width(22);
        assert!(t.to_string().ends_with(&format!("\n{}\n", "-".repeat(22))));
    }

    #[test]
    fn group_separators_replace_the_space_before_their_column() {
        let mut t = Table::new("{suite:<5} | {a:>3} {b:>3}   {c:>3}");
        t.row("HPC\t1\t2\t3");
        assert_eq!(
            t.to_string(),
            "suite |   a   b     c\nHPC   |   1   2     3\n"
        );
    }

    #[test]
    fn a_missing_paper_value_renders_as_a_dash() {
        assert_eq!(paper_cell(f64::NAN, pct), "-");
        assert_eq!(paper_cell(0.59, pct), "59.0");
        let b3l = paper_cell(paper("table4", "HPC")[4], pct);
        let mut t = Table::new("{suite:<10} | {B3L:>6}");
        t.row(format!("  (paper)\t{b3l}"));
        assert_eq!(t.to_string().lines().nth(1), Some("  (paper)  |      -"));
    }

    #[test]
    fn a_report_prints_its_lines_and_tables_in_order() {
        let mut t = Table::new("{a:<1}");
        t.row("x");
        let mut r = Report::titled("T", &parse_args(&args("--quick")), t);
        r.text("\nend");
        assert_eq!(
            r.to_string(),
            "== T ==\n   150000 instructions / workload (80000 warmup)  [--quick]\n\na\nx\n\nend\n"
        );
    }
}
