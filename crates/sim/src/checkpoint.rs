//! Per-cell checkpoint journal: kill/resume for long-running sweeps.
//!
//! A full paper grid (45 workloads × 5 systems × config points) is hours of
//! wall-clock inside one [`run_sweep_with_jobs`](crate::run_sweep_with_jobs)
//! call. [`run_sweep_checkpointed`] makes that call killable: it runs on the
//! same driver as every other sweep, whose per-cell hook appends each
//! completed cell to a journal file — one compact JSON line, fsync'd before
//! the worker moves on — and a rerun with `resume = true` skips every
//! journaled cell.
//! The final [`SweepResult`] is assembled in cell-index order from journaled
//! and freshly-run cells alike, so its JSON is **byte-identical** to an
//! uninterrupted run — across any kill/resume point and any worker-thread
//! count (`tests/sweep_fault_tolerance.rs` and `ci.sh` prove this with
//! injected kills).
//!
//! # Journal format
//!
//! Line 1 is a header binding the journal to its spec:
//!
//! ```text
//! {"journal":"d2m-sweep-checkpoint","version":1,"name":…,"master_seed":…,
//!  "num_cells":…,"fingerprint":…}
//! ```
//!
//! `fingerprint` is [`d2m_common::fnv1a_64`] over the spec's compact
//! deterministic JSON, so resuming against a journal written for *any*
//! different grid, run length or seed is rejected with
//! [`CheckpointError::SpecMismatch`] instead of silently mixing results.
//! Each subsequent line is one [`CellResult`]. Lines are appended in
//! completion order — under a parallel pool that order is scheduling-
//! dependent, but each *line* is a deterministic encoding and the journal is
//! only ever read back into an index-keyed table, so scheduling never leaks
//! into results. A truncated final line (the process died mid-write) is
//! detected and discarded on resume; that cell is simply re-run.
//!
//! # Fault points
//!
//! After each append (write + fsync) the `checkpoint` fault point fires
//! with the 1-based append sequence number as its key and the sweep name as
//! its scope: `D2M_FAULT=checkpoint:3:exit` kills the process right after
//! the third journaled cell, which is how CI exercises a real mid-sweep
//! kill.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use d2m_common::fnv1a_64;
use d2m_common::json::{FromJson, Json, ToJson};

use crate::sweep::{drive, CellResult, SharedTraces, SweepResult, SweepSpec};

/// Journal format version; bumped on any incompatible layout change.
const JOURNAL_VERSION: u64 = 1;

/// Why a checkpointed sweep could not run or resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// The journal could not be created, read, appended or synced.
    Io {
        /// Journal path.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The journal exists but is not a well-formed checkpoint journal.
    Corrupt {
        /// Journal path.
        path: PathBuf,
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The journal was written for a different sweep spec.
    SpecMismatch {
        /// Journal path.
        path: PathBuf,
        /// Which header field disagreed, and how.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, error } => {
                write!(f, "checkpoint journal {}: {error}", path.display())
            }
            CheckpointError::Corrupt { path, line, detail } => write!(
                f,
                "checkpoint journal {} line {line}: {detail}",
                path.display()
            ),
            CheckpointError::SpecMismatch { path, detail } => write!(
                f,
                "checkpoint journal {} belongs to a different sweep: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// The spec fingerprint stored in (and checked against) journal headers.
fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    fnv1a_64(spec.to_json().to_string_compact().as_bytes())
}

fn header_json(spec: &SweepSpec) -> Json {
    Json::Obj(vec![
        (
            "journal".to_string(),
            Json::Str("d2m-sweep-checkpoint".to_string()),
        ),
        ("version".to_string(), Json::U64(JOURNAL_VERSION)),
        ("name".to_string(), Json::Str(spec.name.clone())),
        ("master_seed".to_string(), Json::U64(spec.master_seed)),
        ("num_cells".to_string(), Json::U64(spec.num_cells() as u64)),
        ("fingerprint".to_string(), Json::U64(spec_fingerprint(spec))),
    ])
}

fn check_header(spec: &SweepSpec, header: &Json, path: &Path) -> Result<(), CheckpointError> {
    let mismatch = |detail: String| CheckpointError::SpecMismatch {
        path: path.to_path_buf(),
        detail,
    };
    let expect = header_json(spec);
    for (key, want) in match &expect {
        Json::Obj(fields) => fields.iter(),
        _ => unreachable!("header_json builds an object"),
    } {
        let got = header.get(key);
        if got != Some(want) {
            return Err(mismatch(format!(
                "header field {key:?} is {} (expected {})",
                got.map_or("missing".to_string(), Json::to_string_compact),
                want.to_string_compact()
            )));
        }
    }
    Ok(())
}

/// Parses an existing journal into an index-keyed table of completed cells.
///
/// Tolerates exactly one kind of damage: a final line that does not parse,
/// which is what a kill mid-append leaves behind; it is reported on stderr
/// and the cell re-runs. Damage anywhere else is [`CheckpointError::Corrupt`].
fn load_journal(spec: &SweepSpec, path: &Path) -> Result<Vec<Option<CellResult>>, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    let corrupt = |line: usize, detail: String| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        line,
        detail,
    };
    let mut done: Vec<Option<CellResult>> = vec![None; spec.num_cells()];
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return Err(corrupt(1, "empty journal (missing header)".to_string()));
    }
    let header =
        Json::parse(lines[0]).map_err(|e| corrupt(1, format!("unparseable header: {e}")))?;
    check_header(spec, &header, path)?;
    for (i, line) in lines.iter().enumerate().skip(1) {
        let lineno = i + 1;
        let is_last = i == lines.len() - 1;
        let cell = match Json::parse(line).and_then(|j| CellResult::from_json(&j)) {
            Ok(c) => c,
            Err(e) if is_last => {
                // A kill mid-append leaves a truncated tail; losing that one
                // cell is the designed-for case, not corruption.
                eprintln!(
                    "warning: checkpoint journal {}: discarding truncated final line {lineno} ({e})",
                    path.display()
                );
                break;
            }
            Err(e) => return Err(corrupt(lineno, format!("unparseable cell: {e}"))),
        };
        let index = cell.index as usize;
        if index >= done.len() {
            return Err(corrupt(
                lineno,
                format!("cell index {index} out of range (grid has {})", done.len()),
            ));
        }
        if cell.seed != spec.cell_seed(index) {
            return Err(corrupt(
                lineno,
                format!("cell {index} seed does not match the spec's derivation"),
            ));
        }
        // Appends are idempotent; if a cell ever appears twice, the later
        // (most recently journaled) line wins.
        done[index] = Some(cell);
    }
    Ok(done)
}

/// An open journal.
struct Journal {
    file: File,
    /// Cell lines appended by *this* run (resumed cells excluded); the
    /// `checkpoint` fault-point key.
    appended: u64,
}

impl Journal {
    /// Appends one line followed by fsync, so a completed cell survives any
    /// later kill.
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()
    }
}

/// Runs a sweep with a per-cell checkpoint journal at `path`.
///
/// With `resume = false` any existing journal at `path` is discarded and
/// the whole grid runs. With `resume = true` and an existing journal, cells
/// already journaled are loaded instead of re-run (after validating the
/// journal belongs to exactly this spec); with `resume = true` and no
/// journal the sweep simply starts fresh. Either way the returned
/// [`SweepResult`] — cells in index order, failures included — serializes
/// byte-identically to [`crate::sweep::run_sweep_with_jobs`] on the same
/// spec.
///
/// Cells fail in isolation exactly as in
/// [`crate::sweep::run_sweep_with_jobs`]: a panicking or failing cell is
/// journaled as a failed [`CellResult`] and does not abort the sweep. Cells
/// share their group's trace as there too; on resume, only groups that still
/// have unjournaled cells record theirs.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the journal cannot be created, read or
/// appended (an append failure aborts the sweep — silently continuing
/// without durability would defeat the point of asking for a checkpoint);
/// [`CheckpointError::Corrupt`] for a damaged journal (other than the
/// expected truncated tail); [`CheckpointError::SpecMismatch`] when the
/// journal belongs to a different spec.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn run_sweep_checkpointed(
    spec: &SweepSpec,
    jobs: usize,
    path: &Path,
    resume: bool,
) -> Result<SweepResult, CheckpointError> {
    checkpointed(spec, jobs, path, resume, &SharedTraces::new(spec))
}

fn checkpointed(
    spec: &SweepSpec,
    jobs: usize,
    path: &Path,
    resume: bool,
    traces: &SharedTraces<'_>,
) -> Result<SweepResult, CheckpointError> {
    let io_err = |error: std::io::Error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    };
    let resuming = resume && path.exists();
    let done = if resuming {
        load_journal(spec, path)?
    } else {
        vec![None; spec.num_cells()]
    };
    let file = if resuming {
        OpenOptions::new().append(true).open(path)
    } else {
        File::create(path)
    }
    .map_err(io_err)?;
    let mut journal = Journal { file, appended: 0 };
    if !resuming {
        journal
            .append(&header_json(spec).to_string_compact())
            .map_err(io_err)?;
    }

    let journal = Mutex::new(journal);
    let append_cell = |cell: &CellResult| {
        let seq = {
            let mut j = journal.lock().unwrap_or_else(PoisonError::into_inner);
            j.append(&cell.to_json().to_string_compact())?;
            j.appended += 1;
            j.appended
        };
        // Fire outside the lock, and isolated: a `panic` rule here must not
        // take down the pool (the cell is already durable).
        let _ = catch_unwind(AssertUnwindSafe(|| {
            d2m_common::faultpoint::fire("checkpoint", &spec.name, seq)
        }));
        Ok(())
    };
    drive(spec, jobs, traces, done, false, append_cell)
        .map(|(result, _)| result)
        .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::sweep::run_sweep_with_jobs;
    use crate::systems::SystemKind;
    use d2m_common::MachineConfig;
    use d2m_workloads::catalog;

    fn spec(name: &str) -> SweepSpec {
        SweepSpec::single(
            name,
            &MachineConfig::default(),
            &[SystemKind::Base2L, SystemKind::D2mNsR],
            &[catalog::by_name("swaptions").unwrap()],
            &RunConfig {
                instructions: 15_000,
                warmup_instructions: 5_000,
                seed: 11,
            },
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("d2m-ckpt-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_journals_every_cell() {
        let s = spec("ckpt-basic");
        let path = tmp("basic.ckpt");
        let res = run_sweep_checkpointed(&s, 2, &path, false).unwrap();
        assert_eq!(
            res.to_json_string(),
            run_sweep_with_jobs(&s, 1).to_json_string()
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1 + s.num_cells());
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("d2m-sweep-checkpoint"));
    }

    #[test]
    fn resume_from_complete_journal_runs_nothing_and_is_identical() {
        let s = spec("ckpt-complete");
        let path = tmp("complete.ckpt");
        let full = run_sweep_checkpointed(&s, 2, &path, false).unwrap();
        let resumed = run_sweep_checkpointed(&s, 2, &path, true).unwrap();
        assert_eq!(full.to_json_string(), resumed.to_json_string());
        // Nothing was re-run, so nothing was appended.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1 + s.num_cells());
    }

    #[test]
    fn resume_mid_group_records_only_the_unfinished_groups_trace() {
        // Two groups of five systems; journal all of the first group and
        // two of the second's five cells, as a kill mid-group leaves it.
        let mut s = spec("ckpt-mid-group");
        s.systems = SystemKind::ALL.to_vec();
        s.workloads.push(catalog::by_name("mix2").unwrap());
        let path = tmp("mid-group.ckpt");
        let full = run_sweep_checkpointed(&s, 1, &path, false).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: Vec<&str> = text.lines().take(1 + 5 + 2).collect();
        for jobs in [1, 3] {
            std::fs::write(&path, cut.join("\n") + "\n").unwrap();
            let traces = SharedTraces::new(&s);
            let resumed = checkpointed(&s, jobs, &path, true, &traces).unwrap();
            assert_eq!(
                resumed.to_json_string(),
                full.to_json_string(),
                "jobs={jobs}"
            );
            assert_eq!(traces.recorded(), [0, 1], "jobs={jobs}");
            assert_eq!(traces.live(), 0, "jobs={jobs}");
            assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 11);
        }
    }

    #[test]
    fn journal_with_a_retired_retry_count_still_resumes() {
        // Journals written while the engine still retried cells carry an
        // `attempts` key on retried cells. Such a cell must load as it is.
        let s = spec("ckpt-old-journal");
        let path = tmp("old-journal.ckpt");
        let clean = run_sweep_checkpointed(&s, 1, &path, false).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let cell = lines[2].strip_suffix('}').unwrap();
        assert!(cell.starts_with("{\"index\":1,"), "{cell}");
        lines[2] = format!("{cell},\"attempts\":2}}");
        let old = lines.join("\n") + "\n";
        std::fs::write(&path, &old).unwrap();
        // Re-running cell 1 would fail it, so equal JSON means it loaded.
        let _g = d2m_common::faultpoint::arm("cell@ckpt-old-journal:1:panic").unwrap();
        let resumed = run_sweep_checkpointed(&s, 1, &path, true).unwrap();
        assert_eq!(resumed.to_json_string(), clean.to_json_string());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            old,
            "nothing appended"
        );
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_spec() {
        let s = spec("ckpt-a");
        let path = tmp("mismatch.ckpt");
        run_sweep_checkpointed(&s, 1, &path, false).unwrap();
        let mut other = spec("ckpt-a");
        other.master_seed += 1;
        let err = run_sweep_checkpointed(&other, 1, &path, true).unwrap_err();
        assert!(matches!(err, CheckpointError::SpecMismatch { .. }), "{err}");
        assert!(err.to_string().contains("master_seed"), "{err}");
    }

    #[test]
    fn resume_rejects_mid_journal_corruption() {
        let s = spec("ckpt-corrupt");
        let path = tmp("corrupt.ckpt");
        run_sweep_checkpointed(&s, 1, &path, false).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{not json";
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = run_sweep_checkpointed(&s, 1, &path, true).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn without_resume_an_existing_journal_is_restarted() {
        let s = spec("ckpt-restart");
        let path = tmp("restart.ckpt");
        run_sweep_checkpointed(&s, 1, &path, false).unwrap();
        let res = run_sweep_checkpointed(&s, 1, &path, false).unwrap();
        assert_eq!(
            res.to_json_string(),
            run_sweep_with_jobs(&s, 1).to_json_string()
        );
        // Restarted, not appended: exactly one header + one line per cell.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1 + s.num_cells());
    }
}
