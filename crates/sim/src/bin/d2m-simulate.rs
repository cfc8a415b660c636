//! Command-line front end: run any (system, workload) pair on any machine
//! configuration and print the metrics as a table or JSON — or run a whole
//! fault-tolerant sweep grid with checkpoint/resume.
//!
//! ```text
//! d2m-simulate --system d2m-ns-r --workload tpc-c --instructions 2000000
//! d2m-simulate --system base-2l --workload canneal --json
//! d2m-simulate --system d2m-ns --workload tpc-c --histograms
//! d2m-simulate --system d2m-ns --workload tpc-c --trace-out obs.json
//! d2m-simulate --sweep nightly --out sweep.json --checkpoint sweep.ckpt
//! d2m-simulate --sweep nightly --out sweep.json --checkpoint sweep.ckpt --resume
//! d2m-simulate --list
//! ```
//!
//! In sweep mode a failing cell (panic, corrupted metadata, coherence
//! violation) is reported in the JSON and on stderr but never aborts the
//! grid, and `--checkpoint`/`--resume` make the run killable at any point:
//! the resumed output is byte-identical to an uninterrupted run.

use d2m_common::config::MachineConfig;
use d2m_sim::{
    default_jobs, run_one_checked, run_one_observed, run_sweep_checkpointed, run_sweep_with_jobs,
    ConfigPoint, RunConfig, SweepResult, SweepSpec, SystemKind,
};
use d2m_workloads::catalog;
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: d2m-simulate [--system NAME] [--workload NAME] \
         [--instructions N] [--warmup N] [--seed N] [--md-scale 1|2|4] \
         [--json] [--trace-out PATH] [--histograms] [--list]\n\
         or:    d2m-simulate --sweep NAME [--workloads A,B,..] [--systems X,Y,..] \
         [--md-scales 1,2,..] [--instructions N] [--warmup N] [--seed N] \
         [--jobs N] [--out PATH] [--checkpoint PATH] [--resume]\n\
         systems: base-2l base-3l d2m-fs d2m-ns d2m-ns-r\n\
         --trace-out PATH  write the full observation (metrics, per-phase\n\
                           counters, probe histograms, traffic matrix,\n\
                           energy breakdown) as deterministic JSON to PATH\n\
         --histograms      print the probe report (per-level/per-endpoint\n\
                           counts, latency and hop histograms) to stdout\n\
         --sweep NAME      run a (config x workload x system) grid; failing\n\
                           cells are isolated, never fatal. Defaults: every\n\
                           catalog workload, all five systems, --md-scales 1\n\
         --out PATH        write the sweep result JSON to PATH (default:\n\
                           stdout)\n\
         --checkpoint PATH journal each completed cell to PATH (fsync'd);\n\
                           with --resume, skip cells already journaled there.\n\
                           The resumed result is byte-identical to an\n\
                           uninterrupted run"
    );
    std::process::exit(2)
}

fn parse_system(s: &str) -> Option<SystemKind> {
    match s.to_ascii_lowercase().as_str() {
        "base-2l" | "base2l" => Some(SystemKind::Base2L),
        "base-3l" | "base3l" => Some(SystemKind::Base3L),
        "d2m-fs" | "fs" => Some(SystemKind::D2mFs),
        "d2m-ns" | "ns" => Some(SystemKind::D2mNs),
        "d2m-ns-r" | "ns-r" | "nsr" => Some(SystemKind::D2mNsR),
        _ => None,
    }
}

/// Parses one `--md-scale` or `--md-scales` value, a metadata capacity
/// factor; anything but a power of two is a usage error naming the value.
fn parse_md_scale(s: &str) -> usize {
    match s.trim().parse::<usize>() {
        Ok(scale) if scale.is_power_of_two() => scale,
        _ => {
            eprintln!(
                "error: bad --md-scale(s) value {s:?} (expected a power of two: 1, 2, 4, ...)"
            );
            usage()
        }
    }
}

/// Parsed sweep-mode flags (`--sweep` and friends).
struct SweepArgs {
    name: String,
    workloads: Option<String>,
    systems: Option<String>,
    md_scales: Option<String>,
    jobs: Option<usize>,
    out: Option<String>,
    checkpoint: Option<String>,
    resume: bool,
}

/// Builds the [`SweepSpec`] a sweep invocation describes. Comma lists keep
/// their order; unknown names are usage errors naming the culprit.
fn sweep_spec(sa: &SweepArgs, rc: &RunConfig) -> SweepSpec {
    let systems = match &sa.systems {
        None => SystemKind::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| {
                parse_system(s).unwrap_or_else(|| {
                    eprintln!("error: unknown system {s:?}");
                    usage()
                })
            })
            .collect(),
    };
    let workloads = match &sa.workloads {
        None => match catalog::all() {
            Ok(specs) => specs,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        Some(list) => list
            .split(',')
            .map(|w| match catalog::by_name(w) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("error: {e}; try --list");
                    usage()
                }
            })
            .collect(),
    };
    let configs = match &sa.md_scales {
        None => vec![ConfigPoint {
            label: "default".to_string(),
            config: MachineConfig::default(),
        }],
        Some(list) => list
            .split(',')
            .map(|s| {
                let scale = parse_md_scale(s);
                ConfigPoint {
                    label: if scale == 1 {
                        "default".to_string()
                    } else {
                        format!("md{scale}x")
                    },
                    config: MachineConfig::default().scale_metadata(scale),
                }
            })
            .collect(),
    };
    SweepSpec {
        name: sa.name.clone(),
        configs,
        systems,
        workloads,
        instructions: rc.instructions,
        warmup_instructions: rc.warmup_instructions,
        master_seed: rc.seed,
    }
}

/// Runs sweep mode. Failed cells are summarized on stderr but leave the
/// exit status at 0 — partial results are results; operational failures
/// (unwritable output, bad journal) exit nonzero.
fn run_sweep_mode(sa: &SweepArgs, rc: &RunConfig) -> ! {
    if sa.resume && sa.checkpoint.is_none() {
        eprintln!("error: --resume requires --checkpoint PATH");
        usage();
    }
    let spec = sweep_spec(sa, rc);
    let jobs = sa.jobs.unwrap_or_else(default_jobs);
    eprintln!(
        "[sweep:{}] {} cells on {} jobs",
        spec.name,
        spec.num_cells(),
        jobs.min(spec.num_cells().max(1))
    );
    let res: SweepResult = match &sa.checkpoint {
        None => run_sweep_with_jobs(&spec, jobs),
        Some(path) => match run_sweep_checkpointed(&spec, jobs, Path::new(path), sa.resume) {
            Ok(res) => res,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
    };
    for c in res.failures() {
        eprintln!(
            "[sweep:{}] cell {} failed ({}/{}/{}): {}",
            res.name,
            c.index,
            c.config,
            c.system.name(),
            c.workload,
            c.error.as_deref().unwrap_or("unknown")
        );
    }
    eprintln!(
        "[sweep:{}] done in {:.1}s: {} cells, {} failed",
        res.name,
        res.wall_secs,
        res.cells.len(),
        res.failures().len()
    );
    let text = res.to_json_string();
    match &sa.out {
        None => println!("{text}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("error: cannot write {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut system = SystemKind::D2mNsR;
    let mut workload = "tpc-c".to_string();
    let mut rc = RunConfig::quick();
    let mut json = false;
    let mut md_scale = 1usize;
    let mut trace_out: Option<String> = None;
    let mut histograms = false;
    let mut sweep_name: Option<String> = None;
    let mut sweep_workloads: Option<String> = None;
    let mut sweep_systems: Option<String> = None;
    let mut sweep_md_scales: Option<String> = None;
    let mut sweep_jobs: Option<usize> = None;
    let mut sweep_out: Option<String> = None;
    let mut sweep_checkpoint: Option<String> = None;
    let mut sweep_resume = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                let specs = match catalog::all() {
                    Ok(specs) => specs,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                };
                for s in specs {
                    println!("{:<16} ({})", s.name, s.category.name());
                }
                return;
            }
            "--json" => json = true,
            "--histograms" => histograms = true,
            "--trace-out" => trace_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--system" => match it.next().and_then(|v| parse_system(v)) {
                Some(k) => system = k,
                None => usage(),
            },
            "--workload" => workload = it.next().cloned().unwrap_or_else(|| usage()),
            "--instructions" => {
                rc.instructions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--warmup" => {
                rc.warmup_instructions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                rc.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--md-scale" => md_scale = parse_md_scale(it.next().unwrap_or_else(|| usage())),
            "--sweep" => sweep_name = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--workloads" => sweep_workloads = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--systems" => sweep_systems = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--md-scales" => sweep_md_scales = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--jobs" => {
                sweep_jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--out" => sweep_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--checkpoint" => {
                sweep_checkpoint = Some(it.next().cloned().unwrap_or_else(|| usage()))
            }
            "--resume" => sweep_resume = true,
            _ => usage(),
        }
    }
    if let Some(name) = sweep_name {
        run_sweep_mode(
            &SweepArgs {
                name,
                workloads: sweep_workloads,
                systems: sweep_systems,
                md_scales: sweep_md_scales,
                jobs: sweep_jobs,
                out: sweep_out,
                checkpoint: sweep_checkpoint,
                resume: sweep_resume,
            },
            &rc,
        );
    }
    if sweep_workloads.is_some()
        || sweep_systems.is_some()
        || sweep_md_scales.is_some()
        || sweep_jobs.is_some()
        || sweep_out.is_some()
        || sweep_checkpoint.is_some()
        || sweep_resume
    {
        eprintln!("error: sweep flags require --sweep NAME");
        usage();
    }
    let spec = match catalog::by_name(&workload) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}; try --list");
            std::process::exit(2);
        }
    };
    let cfg = MachineConfig::default().scale_metadata(md_scale);

    let observe = trace_out.is_some() || histograms;
    let (m, obs) = if observe {
        match run_one_observed(system, &cfg, &spec, &rc) {
            Ok(o) => (o.metrics.clone(), Some(o)),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match run_one_checked(system, &cfg, &spec, &rc) {
            Ok(m) => (m, None),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    };

    if let Some(o) = &obs {
        if let Some(path) = &trace_out {
            let text = o.to_json().to_string_pretty();
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("error: cannot write {path:?}: {e}");
                std::process::exit(1);
            }
        }
        if histograms {
            println!("{}", o.probe.report().to_string_pretty());
            if json {
                // --json --histograms: metrics follow the probe report.
                use d2m_common::ToJson;
                println!("{}", m.to_json().to_string_pretty());
            }
            return;
        }
    }
    if json {
        use d2m_common::ToJson;
        println!("{}", m.to_json().to_string_pretty());
    } else {
        println!("system        {}", m.system);
        println!("workload      {} ({})", m.workload, m.category);
        println!("instructions  {}", m.instructions);
        println!("cycles        {}  (ipc {:.2})", m.cycles, m.ipc);
        println!(
            "msgs/KI       {:.1}  (d2m-specific {:.1})",
            m.msgs_per_kilo_inst, m.d2m_msgs_per_kilo_inst
        );
        println!("L1I miss      {:.2} / 100 inst", m.l1i_miss_pct);
        println!("L1D miss      {:.2} / 100 inst", m.l1d_miss_pct);
        println!("miss latency  {:.1} cycles", m.avg_miss_latency);
        println!(
            "NS local      I {:.0}%  D {:.0}%",
            m.ns_hit_ratio_i * 100.0,
            m.ns_hit_ratio_d * 100.0
        );
        println!("private miss  {:.0}%", m.private_miss_frac * 100.0);
        println!("energy        {:.3e} pJ   EDP {:.3e}", m.energy_pj, m.edp);
    }
}
