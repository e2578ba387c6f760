//! Kill-and-resume integration tests: drive the real `run-all` and
//! `evolve-vectors` binaries, crash them mid-run with deterministic
//! injected faults (`SIM_FAULT=exit@...` terminates the process with exit
//! code 86 at the targeted write, tmp file flushed but not committed),
//! resume with `--resume`, and require the final artifacts to be
//! **byte-identical** to an uninterrupted reference run.
//!
//! The binaries are compiled with fault injection here because cargo
//! unifies this test target's `sim-fault/injection` dev-dependency
//! feature into the whole build graph; release builds keep the no-op
//! hooks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `sim_core::persist::FAULT_EXIT_CODE`: the injected-crash exit status.
const FAULT_EXIT: i32 = 86;

/// Cheap experiment subset: no GA, no hierarchy captures, a few seconds
/// at micro scale. `tab-overhead` sits between the other two so a crash
/// on it leaves work both before (to skip) and after (to run) on resume.
const SUBSET: &str = "tab-vectors,tab-overhead,fig01";

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plru-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_all(out: &Path, cache: &Path, fault: Option<&str>, resume: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run-all"));
    cmd.args(["--scale", "micro", "--only", SUBSET, "--out"])
        .arg(out)
        .env("SIM_CACHE_DIR", cache)
        .env("SIM_RETRY_BASE_MS", "0")
        .env_remove("SIM_FAULT");
    if let Some(f) = fault {
        cmd.env("SIM_FAULT", f);
    }
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().expect("spawn run-all")
}

fn evolve(out: &Path, fault: Option<&str>, resume: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_evolve-vectors"));
    cmd.args(["--scale", "micro", "--out"])
        .arg(out)
        .env_remove("SIM_FAULT");
    if let Some(f) = fault {
        cmd.env("SIM_FAULT", f);
    }
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().expect("spawn evolve-vectors")
}

/// Every `*.csv` in `dir`, by file name.
fn csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&path).expect("readable csv"));
        }
    }
    out
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn crashed_run_all_resumes_byte_identical() {
    let cache = temp("cache-a");
    let ref_out = temp("ref-a");
    let out = temp("crash-a");

    let reference = run_all(&ref_out, &cache, None, false);
    assert!(reference.status.success(), "reference run must pass");
    let want = csvs(&ref_out);
    assert_eq!(want.len(), 3, "reference produced the whole subset");

    // Crash: the process exits (code 86) while committing tab-overhead's
    // CSV — after the tmp file is flushed, before the rename.
    let crashed = run_all(&out, &cache, Some("exit@tab-overhead.csv"), false);
    assert_eq!(
        crashed.status.code(),
        Some(FAULT_EXIT),
        "injected exit fault must terminate the run (is fault injection \
         compiled in?); stderr: {}",
        String::from_utf8_lossy(&crashed.stderr)
    );
    assert!(
        !out.join("tab-overhead.csv").exists(),
        "interrupted artifact must not be committed"
    );
    let manifest = harness::manifest::Manifest::load(&out.join("manifest.json"))
        .expect("manifest survives the crash");
    assert_eq!(
        manifest.entry("tab-vectors").unwrap().status,
        harness::manifest::Status::Done
    );
    assert_eq!(
        manifest.entry("tab-overhead").unwrap().status,
        harness::manifest::Status::Running,
        "the manifest names the interrupted experiment"
    );

    // Resume: completed work is skipped, the interrupted experiment and
    // everything after it runs, and the results match the reference
    // byte for byte.
    let resumed = run_all(&out, &cache, None, true);
    assert!(
        resumed.status.success(),
        "resume must succeed; stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let log = stdout_of(&resumed);
    assert!(
        log.contains("[tab-vectors] already done, skipping"),
        "resume must skip completed experiments; stdout: {log}"
    );
    assert_eq!(csvs(&out), want, "resumed run must be byte-identical");

    for dir in [&cache, &ref_out, &out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Resume works after a kill at every persisted step: for k = 1, 2, …
/// the run is killed at its k-th atomic write (a clause with no target
/// matches every write label: CSVs, the manifest, spills), resumed, and
/// compared with the reference, until a run finishes without reaching a
/// k-th write.
#[test]
fn resume_after_a_kill_at_every_persisted_write() {
    let started = std::time::Instant::now();
    let cache = temp("cache-k");
    let ref_out = temp("ref-k");
    let reference = run_all(&ref_out, &cache, None, false);
    assert!(reference.status.success(), "reference run must pass");
    let want = csvs(&ref_out);
    assert_eq!(want.len(), 3, "reference produced the whole subset");

    let mut k = 1;
    loop {
        let out = temp(&format!("kill-{k}"));
        let crashed = run_all(&out, &cache, Some(&format!("exit:n={k}")), false);
        if crashed.status.success() {
            // Fewer than k writes: every persisted step has been killed.
            let _ = std::fs::remove_dir_all(&out);
            break;
        }
        assert_eq!(
            crashed.status.code(),
            Some(FAULT_EXIT),
            "a kill at write {k} must be the injected exit; stderr: {}",
            String::from_utf8_lossy(&crashed.stderr)
        );
        let resumed = run_all(&out, &cache, None, true);
        assert!(
            resumed.status.success(),
            "resume after a kill at write {k} must succeed; stderr: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            csvs(&out),
            want,
            "resume after a kill at write {k} must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&out);
        k += 1;
        assert!(k < 1000, "the subset run never finished without a kill");
    }
    let writes = k - 1;
    assert!(
        writes >= 4,
        "the subset persists its 3 CSVs and a manifest, yet only {writes} writes were seen"
    );
    println!(
        "killed and resumed at each of {writes} persisted writes in {:.1} s",
        started.elapsed().as_secs_f64()
    );

    for dir in [&cache, &ref_out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn exhausted_retries_fail_soft_then_resume_recovers() {
    let cache = temp("cache-b");
    let out = temp("failsoft-b");

    // A sticky ENOSPC on fig01's artifact burns all retry attempts; the
    // run must still finish the other experiments and exit nonzero.
    let failed = run_all(&out, &cache, Some("enospc@fig01.csv:sticky"), false);
    assert!(!failed.status.success(), "a failed experiment is reported");
    assert_ne!(
        failed.status.code(),
        Some(FAULT_EXIT),
        "fail-soft, not a crash"
    );
    let manifest = harness::manifest::Manifest::load(&out.join("manifest.json")).unwrap();
    assert_eq!(
        manifest.entry("fig01").unwrap().status,
        harness::manifest::Status::Failed
    );
    assert_eq!(manifest.entry("fig01").unwrap().attempts, 3);
    assert_eq!(
        manifest.entry("tab-vectors").unwrap().status,
        harness::manifest::Status::Done,
        "unaffected experiments still complete"
    );

    // With the fault gone, a resume re-runs exactly the failed experiment.
    let resumed = run_all(&out, &cache, None, true);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let log = stdout_of(&resumed);
    assert!(log.contains("[tab-vectors] already done, skipping"));
    assert!(out.join("fig01.csv").exists());
    let manifest = harness::manifest::Manifest::load(&out.join("manifest.json")).unwrap();
    assert_eq!(
        manifest.entry("fig01").unwrap().status,
        harness::manifest::Status::Done
    );

    for dir in [&cache, &out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn crashed_evolve_vectors_resumes_bit_identical() {
    let ref_out = temp("ev-ref");
    let out = temp("ev-crash");

    let reference = evolve(&ref_out, None, false);
    assert!(
        reference.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let want = std::fs::read(ref_out.join("evolved-vectors.txt")).expect("reference artifact");

    // Crash during the fourth checkpoint commit, deep inside the GA
    // stages.
    let crashed = evolve(&out, Some("exit@.ckpt:n=4"), false);
    assert_eq!(
        crashed.status.code(),
        Some(FAULT_EXIT),
        "injected exit fault must terminate the run; stderr: {}",
        String::from_utf8_lossy(&crashed.stderr)
    );
    assert!(
        !out.join("evolved-vectors.txt").exists(),
        "no artifact yet at crash time"
    );
    assert!(
        std::fs::read_dir(out.join("checkpoints"))
            .map(|rd| rd.count() > 0)
            .unwrap_or(false),
        "checkpoints exist for the resume"
    );

    // The resumed run must continue the interrupted GA bit-identically:
    // same best vectors, same fitness digits, byte-for-byte artifact.
    let resumed = evolve(&out, None, true);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(stdout_of(&resumed).contains("resuming from checkpoints"));
    let got = std::fs::read(out.join("evolved-vectors.txt")).expect("resumed artifact");
    assert_eq!(
        got, want,
        "resumed evolve-vectors must match the uninterrupted run byte-for-byte"
    );
    assert!(
        std::fs::read_dir(out.join("checkpoints"))
            .map(|rd| rd.count() == 0)
            .unwrap_or(true),
        "checkpoints are cleared after a successful run"
    );

    for dir in [&ref_out, &out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
