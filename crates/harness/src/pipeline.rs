//! Fail-soft, resumable execution of the experiment suite.
//!
//! [`Pipeline::run`] drives a list of [`Experiment`]s the way `run-all`
//! needs: each experiment runs under `catch_unwind` with a bounded-backoff
//! retry budget, a failure is recorded and the run *continues* with the
//! remaining experiments (fail-soft), and every state transition is
//! persisted to the [`Manifest`] so an
//! interrupted run — crash, SIGKILL, injected fault — resumes with
//! `--resume`, skipping experiments whose artifacts are already on disk
//! and verified against their recorded digests.

use crate::manifest::{digest, Manifest, Status};
use crate::report::{Args, Table};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

/// Default number of attempts per experiment (first try + retries).
pub const DEFAULT_MAX_ATTEMPTS: u64 = 3;

/// Environment variable overriding the base retry backoff in
/// milliseconds (default 500; each retry doubles it). Tests set it to 0.
pub const RETRY_BASE_MS_ENV: &str = "SIM_RETRY_BASE_MS";

/// Bounded exponential backoff before retry `attempt` (0-based): the
/// [`RETRY_BASE_MS_ENV`] base (default 500 ms) doubled per attempt,
/// capped at 64x. Shared by the pipeline's experiment retries and the
/// `evolve-islands` worker respawn loop.
pub fn retry_backoff(attempt: u64) -> Duration {
    let base = std::env::var(RETRY_BASE_MS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500u64);
    Duration::from_millis(base.saturating_mul(1u64 << attempt.min(6)))
}

/// One named experiment: a closure producing its table, plus the CSV file
/// name the table lands in under the output directory.
pub struct Experiment {
    name: String,
    file: String,
    run: Box<dyn Fn() -> Table>,
}

impl Experiment {
    /// Creates an experiment. `name` is the manifest/`--only` key; `file`
    /// is the CSV name relative to `--out`.
    pub fn new(name: &str, file: &str, run: impl Fn() -> Table + 'static) -> Experiment {
        Experiment {
            name: name.to_string(),
            file: file.to_string(),
            run: Box::new(run),
        }
    }
}

/// Outcome summary of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// Experiments that ran to completion this invocation.
    pub completed: Vec<String>,
    /// Experiments skipped because a resume found them already done.
    pub skipped: Vec<String>,
    /// Experiments that exhausted their retry budget, with the error.
    pub failed: Vec<(String, String)>,
}

impl PipelineReport {
    /// Whether every selected experiment is now done.
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }
}

/// The experiment pipeline driver. See the module docs.
pub struct Pipeline {
    out: Option<String>,
    resume: bool,
    only: Vec<String>,
    max_attempts: u64,
}

impl Pipeline {
    /// Builds a pipeline from parsed CLI arguments.
    pub fn new(args: &Args) -> Pipeline {
        Pipeline {
            out: args.out.clone(),
            resume: args.resume,
            only: args.only.clone(),
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }

    /// Overrides the per-experiment attempt budget (minimum 1).
    pub fn max_attempts(mut self, n: u64) -> Pipeline {
        self.max_attempts = n.max(1);
        self
    }

    fn manifest_path(&self) -> Option<PathBuf> {
        self.out
            .as_ref()
            .map(|dir| PathBuf::from(dir).join("manifest.json"))
    }

    fn selected(&self, name: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|n| n == name)
    }

    /// Loads the resume manifest if one exists and matches this run's
    /// inputs; otherwise starts fresh (with a warning when a mismatched
    /// manifest is being ignored).
    fn initial_manifest(&self, scale: &str, mode: &str) -> Manifest {
        if self.resume {
            if let Some(path) = self.manifest_path() {
                if let Some(m) = Manifest::load(&path) {
                    if m.scale == scale && m.mode == mode {
                        return m;
                    }
                    eprintln!(
                        "run-all: --resume ignored: manifest at {} was recorded at \
                         scale={} mode={} but this run uses scale={scale} mode={mode}; \
                         starting fresh",
                        path.display(),
                        m.scale,
                        m.mode,
                    );
                } else if path.exists() {
                    eprintln!(
                        "run-all: --resume ignored: manifest at {} is unreadable; \
                         starting fresh",
                        path.display()
                    );
                }
            } else {
                eprintln!("run-all: --resume has no effect without --out");
            }
        }
        Manifest::new(scale, mode)
    }

    /// Whether a resume can skip `name`: manifest says done AND the
    /// artifact on disk matches the recorded digest.
    fn verified_done(&self, manifest: &Manifest, name: &str) -> bool {
        let Some(entry) = manifest.entry(name) else {
            return false;
        };
        if entry.status != Status::Done {
            return false;
        }
        let Some(dir) = &self.out else {
            return false;
        };
        match std::fs::read(PathBuf::from(dir).join(&entry.file)) {
            Ok(bytes) => {
                if digest(&bytes) == entry.digest {
                    true
                } else {
                    eprintln!(
                        "run-all: artifact {} does not match its manifest digest; \
                         re-running {name}",
                        entry.file
                    );
                    false
                }
            }
            Err(_) => {
                eprintln!(
                    "run-all: artifact {} is missing; re-running {name}",
                    entry.file
                );
                false
            }
        }
    }

    fn persist(&self, manifest: &Manifest) {
        if let Some(path) = self.manifest_path() {
            if let Err(e) = manifest.save(&path) {
                eprintln!("run-all: could not persist manifest: {e}");
            }
        }
    }

    fn backoff(attempt: u64) -> Duration {
        retry_backoff(attempt)
    }

    /// Runs the experiments in order. `scale` and `mode` are the run-input
    /// labels recorded in the manifest (a resume refuses to mix them).
    pub fn run(&self, experiments: &[Experiment], scale: &str, mode: &str) -> PipelineReport {
        let mut manifest = self.initial_manifest(scale, mode);
        for e in experiments {
            manifest.entry_mut(&e.name, &e.file);
        }
        self.persist(&manifest);

        let mut report = PipelineReport {
            completed: Vec::new(),
            skipped: Vec::new(),
            failed: Vec::new(),
        };
        for e in experiments {
            if !self.selected(&e.name) {
                continue;
            }
            if self.resume && self.verified_done(&manifest, &e.name) {
                println!("[{}] already done, skipping (--resume)\n", e.name);
                report.skipped.push(e.name.clone());
                continue;
            }
            match self.run_one(e, &mut manifest) {
                Ok(()) => report.completed.push(e.name.clone()),
                Err(err) => report.failed.push((e.name.clone(), err)),
            }
        }

        if !report.failed.is_empty() {
            eprintln!("run-all: {} experiment(s) failed:", report.failed.len());
            for (name, err) in &report.failed {
                eprintln!("  {name}: {err}");
            }
        }
        report
    }

    /// One experiment with its retry budget. `Err` carries the last error
    /// after the budget is exhausted.
    fn run_one(&self, e: &Experiment, manifest: &mut Manifest) -> Result<(), String> {
        let mut last_error = String::new();
        for attempt in 0..self.max_attempts {
            {
                let entry = manifest.entry_mut(&e.name, &e.file);
                entry.status = Status::Running;
                entry.attempts += 1;
            }
            self.persist(manifest);

            match catch_unwind(AssertUnwindSafe(&e.run)) {
                Ok(table) => {
                    println!("{table}");
                    let csv = table.to_csv_string();
                    let mut written = None;
                    if let Some(dir) = &self.out {
                        let path = PathBuf::from(dir).join(&e.file);
                        match table.write_csv(&path) {
                            Ok(()) => {
                                println!("wrote {}\n", path.display());
                                written = Some(digest(csv.as_bytes()));
                            }
                            Err(err) => {
                                last_error = format!("writing {}: {err}", path.display());
                            }
                        }
                    } else {
                        written = Some(String::new());
                    }
                    if let Some(d) = written {
                        let entry = manifest.entry_mut(&e.name, &e.file);
                        entry.status = Status::Done;
                        entry.digest = d;
                        entry.error.clear();
                        self.persist(manifest);
                        return Ok(());
                    }
                }
                Err(panic) => {
                    // `as_ref` to reach the payload; a plain `&panic`
                    // would coerce the Box itself into the `dyn Any`.
                    last_error = panic_message(panic.as_ref());
                }
            }

            let entry = manifest.entry_mut(&e.name, &e.file);
            entry.status = Status::Failed;
            entry.error = last_error.clone();
            self.persist(manifest);
            if attempt + 1 < self.max_attempts {
                let wait = Self::backoff(attempt);
                eprintln!(
                    "[{}] attempt {} failed ({last_error}); retrying in {wait:?}",
                    e.name,
                    attempt + 1
                );
                std::thread::sleep(wait);
            }
        }
        eprintln!(
            "[{}] giving up after {} attempt(s): {last_error}",
            e.name, self.max_attempts
        );
        Err(last_error)
    }
}

/// Extracts a readable message from a `catch_unwind` payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn table(marker: &str) -> Table {
        let mut t = Table::new("t", &["v"]);
        t.row(vec![marker.to_string()]);
        t
    }

    fn temp_out(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("plru-test-pipeline-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir.to_string_lossy().into_owned()
    }

    fn args(out: &str, resume: bool) -> Args {
        Args {
            out: Some(out.to_string()),
            resume,
            ..Args::default()
        }
    }

    #[test]
    fn fail_soft_continues_and_reports() {
        std::env::set_var(RETRY_BASE_MS_ENV, "0");
        let out = temp_out("failsoft");
        let experiments = vec![
            Experiment::new("ok-1", "ok1.csv", || table("one")),
            Experiment::new("bad", "bad.csv", || panic!("synthetic failure")),
            Experiment::new("ok-2", "ok2.csv", || table("two")),
        ];
        let report = Pipeline::new(&args(&out, false)).run(&experiments, "quick", "WI");
        assert_eq!(report.completed, vec!["ok-1", "ok-2"]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, "bad");
        assert!(report.failed[0].1.contains("synthetic failure"));
        assert!(!report.all_ok());

        let m = Manifest::load(&PathBuf::from(&out).join("manifest.json")).unwrap();
        assert_eq!(m.entry("ok-1").unwrap().status, Status::Done);
        assert_eq!(m.entry("bad").unwrap().status, Status::Failed);
        assert_eq!(m.entry("bad").unwrap().attempts, DEFAULT_MAX_ATTEMPTS);
        assert!(m.entry("bad").unwrap().error.contains("synthetic failure"));
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        std::env::set_var(RETRY_BASE_MS_ENV, "0");
        let out = temp_out("retry");
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let experiments = vec![Experiment::new("flaky", "flaky.csv", move || {
            if c.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            table("finally")
        })];
        let report = Pipeline::new(&args(&out, false)).run(&experiments, "quick", "WI");
        assert!(report.all_ok());
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let m = Manifest::load(&PathBuf::from(&out).join("manifest.json")).unwrap();
        assert_eq!(m.entry("flaky").unwrap().status, Status::Done);
        assert_eq!(m.entry("flaky").unwrap().attempts, 3);
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn resume_skips_verified_done_and_reruns_tampered() {
        std::env::set_var(RETRY_BASE_MS_ENV, "0");
        let out = temp_out("resume");
        let runs = Arc::new(AtomicUsize::new(0));
        let make = |runs: &Arc<AtomicUsize>| {
            let r = runs.clone();
            vec![
                Experiment::new("a", "a.csv", {
                    let r = r.clone();
                    move || {
                        r.fetch_add(1, Ordering::SeqCst);
                        table("a")
                    }
                }),
                Experiment::new("b", "b.csv", {
                    let r = r.clone();
                    move || {
                        r.fetch_add(1, Ordering::SeqCst);
                        table("b")
                    }
                }),
            ]
        };
        let report = Pipeline::new(&args(&out, false)).run(&make(&runs), "quick", "WI");
        assert!(report.all_ok());
        assert_eq!(runs.load(Ordering::SeqCst), 2);

        // Resume: both verified done, nothing re-runs.
        let report = Pipeline::new(&args(&out, true)).run(&make(&runs), "quick", "WI");
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(report.skipped, vec!["a", "b"]);

        // Tamper with one artifact: its digest no longer matches, so a
        // resume re-runs exactly that experiment.
        std::fs::write(PathBuf::from(&out).join("a.csv"), b"tampered").unwrap();
        let report = Pipeline::new(&args(&out, true)).run(&make(&runs), "quick", "WI");
        assert_eq!(runs.load(Ordering::SeqCst), 3);
        assert_eq!(report.skipped, vec!["b"]);
        assert_eq!(report.completed, vec!["a"]);
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn resume_refuses_mismatched_inputs() {
        std::env::set_var(RETRY_BASE_MS_ENV, "0");
        let out = temp_out("mismatch");
        let runs = Arc::new(AtomicUsize::new(0));
        let make = |runs: &Arc<AtomicUsize>| {
            let r = runs.clone();
            vec![Experiment::new("a", "a.csv", move || {
                r.fetch_add(1, Ordering::SeqCst);
                table("a")
            })]
        };
        Pipeline::new(&args(&out, false)).run(&make(&runs), "quick", "WI");
        // Same experiments, different scale: the manifest must not be
        // trusted, so the experiment runs again.
        Pipeline::new(&args(&out, true)).run(&make(&runs), "medium", "WI");
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn only_filter_restricts_run() {
        std::env::set_var(RETRY_BASE_MS_ENV, "0");
        let out = temp_out("only");
        let runs = Arc::new(AtomicUsize::new(0));
        let r = runs.clone();
        let experiments = vec![
            Experiment::new("a", "a.csv", {
                let r = r.clone();
                move || {
                    r.fetch_add(1, Ordering::SeqCst);
                    table("a")
                }
            }),
            Experiment::new("b", "b.csv", {
                let r = r.clone();
                move || {
                    r.fetch_add(1, Ordering::SeqCst);
                    table("b")
                }
            }),
        ];
        let mut a = args(&out, false);
        a.only = vec!["b".to_string()];
        let report = Pipeline::new(&a).run(&experiments, "quick", "WI");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(report.completed, vec!["b"]);
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn injected_csv_fault_is_retried_and_recovers() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        std::env::set_var(RETRY_BASE_MS_ENV, "0");
        let out = temp_out("faultcsv");
        let experiments = vec![Experiment::new("x", "x.csv", || table("x"))];
        // First CSV write tears; the retry succeeds.
        let report = sim_fault::with_plan("torn@x.csv:n=1", || {
            Pipeline::new(&args(&out, false)).run(&experiments, "quick", "WI")
        });
        assert!(report.all_ok(), "failed: {:?}", report.failed);
        let m = Manifest::load(&PathBuf::from(&out).join("manifest.json")).unwrap();
        assert_eq!(m.entry("x").unwrap().status, Status::Done);
        assert_eq!(m.entry("x").unwrap().attempts, 2);
        let text = std::fs::read_to_string(PathBuf::from(&out).join("x.csv")).unwrap();
        assert!(text.contains('x'));
        std::fs::remove_dir_all(&out).ok();
    }
}
