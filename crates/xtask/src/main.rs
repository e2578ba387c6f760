#![forbid(unsafe_code)]

//! Workspace automation (`cargo xtask <command>`).
//!
//! * `ci [JOB...]` — the CI gate, defined once. One table ([`STEPS`])
//!   lists the steps of each job of `.github/workflows/ci.yml`: `test`,
//!   `lint`, `verify`, `serve` and `faults` (the advisory Miri job
//!   aside). Each workflow job is checkout, toolchain, cache and one
//!   `cargo xtask ci <job>`, so a local run is the CI run. With no JOB,
//!   all five run in that order. A failed step does not stop the run:
//!   every step runs, and the run ends with one
//!   `PASS|FAIL <job>/<step> <secs>s` line per step and a nonzero exit if
//!   any failed. The multi-process drills (the serve restart, the island
//!   smoke, the SIGKILL kill-and-resume smoke, the traced ga-generation
//!   run) each work in a directory under `target/xtask-ci/` that is
//!   cleared first, and kill and reap every process they start, even when
//!   they fail.
//! * `lint` — the source-hygiene and roster-coverage gate: audits the
//!   `unsafe` whitelist, checks every policy in the harness roster has a
//!   `sim-verify` differential twin, statically analyzes every published
//!   paper vector, and checks that artifact writes go through the
//!   crash-safe `sim_core::persist` path instead of raw
//!   `fs::write`/`File::create`. Clippy is a step of `ci test`.
//! * `model-check` — the roster-wide verification gate, five passes:
//!   1. the PLRU tree sweep: every tree state of the production
//!      `gippr::PlruTree` under plain PLRU, classic vectors, and every
//!      published paper vector, at associativities 2–16 (victim, position
//!      bijection and round-trip, promotion convergence), cross-checked
//!      against the naive mirror over the complete state space;
//!   2. the bounded roster sweep: every baseline-roster policy adapted
//!      onto `sim_lint::BoundedChecker` via `sim_verify::PolicyModel`,
//!      proving victim totality, never-evict-invalid, policy-declared
//!      metadata invariants, and (where state is bounded) promotion-orbit
//!      convergence over tiny-cache state graphs;
//!   3. the shard-affinity pass: every `SetLocal` policy explored on
//!      interleaved multi-set streams against isolated per-set twins;
//!   4. the slice-kernel equivalence sweep: every kernel the roster
//!      advertises (plus the published paper vectors) checked lane-by-lane
//!      against the scalar interpreters, the packed PLRU lanes against the
//!      naive mirror at every lane write, the single-access entry
//!      (`SlicedCache::access_block`) against `feed` and a residency model
//!      of the lines it reports displaced, and the miss-count mode
//!      (`SlicedCache::count_misses`, the "counted" column) against a
//!      full-mode twin: hit, packed words and duel state after each access;
//!   5. the Mattson qualification audit plus seeded-defect self-tests
//!      (drifting PLRU hit orbit, poisoned ARC `p` update, fake-`SetLocal`
//!      fixture, poisoned lane transitions) proving each checker catches
//!      its defect class.
//!
//!   `--policy NAME` restricts every pass to one policy family (a tree
//!   sweep rule runs under the family its vector belongs to);
//!   `--budget-secs N` caps the bounded sweeps' wall clock (CI uses this
//!   to stay under a minute). Nonzero exit on any counterexample.

use std::collections::BTreeSet;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("usage: cargo xtask <ci|lint|model-check> [options]");
            return ExitCode::FAILURE;
        }
    };
    let failures = match cmd {
        "ci" => ci(rest),
        "lint" if rest.is_empty() => lint(),
        "lint" => {
            eprintln!("`lint` takes no options, got {rest:?}");
            return ExitCode::FAILURE;
        }
        "model-check" => model_check(rest),
        other => {
            eprintln!("unknown command {other:?}; expected `ci`, `lint` or `model-check`");
            return ExitCode::FAILURE;
        }
    };
    if failures == 0 {
        println!("xtask {cmd}: ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {cmd}: {failures} failure(s)");
        ExitCode::FAILURE
    }
}

/// Workspace root: xtask is always compiled from `crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the root")
        .to_path_buf()
}

// ---------------------------------------------------------------------------
// ci
// ---------------------------------------------------------------------------

/// What a CI step runs. Every command runs from the workspace root with
/// the step's environment added to the caller's.
enum Action {
    /// `cargo` with these arguments.
    Cargo(&'static [&'static str]),
    /// This xtask with these arguments, as `cargo xtask …` runs it.
    Xtask(&'static [&'static str]),
    /// A workspace binary from `target/release/`, built by an earlier step
    /// of the same job.
    Release(&'static str, &'static [&'static str]),
    /// A scripted check, run in a cleared directory of its own.
    Drill(fn(&Ctx) -> Result<(), String>),
}

/// One step of one CI job.
struct Step {
    job: &'static str,
    name: &'static str,
    env: &'static [(&'static str, &'static str)],
    action: Action,
}

const fn step(job: &'static str, name: &'static str, action: Action) -> Step {
    Step {
        job,
        name,
        env: &[],
        action,
    }
}

/// Every CI job's steps, in run order. `ci.yml` runs each job as the one
/// step `cargo xtask ci <job>`, and a unit test keeps the two files' jobs
/// equal. The `serve` and `faults` jobs' `cargo test` steps stay in the
/// debug profile, so their suites run with overflow checks on.
const STEPS: &[Step] = &[
    step("test", "fmt", Action::Cargo(&["fmt", "--all", "--check"])),
    // The workspace's one clippy run.
    step(
        "test",
        "clippy",
        Action::Cargo(&[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ]),
    ),
    // Broken or ambiguous intra-doc links fail.
    Step {
        env: &[("RUSTDOCFLAGS", "-D warnings")],
        ..step(
            "test",
            "rustdoc",
            Action::Cargo(&["doc", "--workspace", "--no-deps"]),
        )
    },
    step(
        "test",
        "build",
        Action::Cargo(&["build", "--release", "--workspace"]),
    ),
    step(
        "test",
        "test",
        Action::Cargo(&["test", "--workspace", "--release"]),
    ),
    // Belady MIN vs its naive reference (3 workloads, 4 geometries): the
    // set-bucketed, pool-parallel MIN must reproduce the two-pass
    // reference's CacheStats at the oracle geometry and at 1-, 4- and
    // 16-way shapes.
    step(
        "test",
        "min",
        Action::Release("sim-verify", &["--min", "--accesses", "200k"]),
    ),
    // L1/L2 capture vs its reference loop (3 workloads, 4 hierarchies):
    // the packed-kernel capture must emit the reference loop's LLC stream
    // record for record at paper_scaled(3), paper_scaled(4) and tiny 2-
    // and 4-way shapes, with and without writebacks.
    step(
        "test",
        "capture",
        Action::Release("sim-verify", &["--capture", "--accesses", "200k"]),
    ),
    // Miss-count mode vs the reference models (every kernel policy, 3
    // workloads): GA fitness counts misses with the sliced kernel's
    // miss-count mode, which must count the naive reference cache's
    // misses exactly.
    step(
        "test",
        "misses",
        Action::Release("sim-verify", &["--misses", "--accesses", "200k"]),
    ),
    // The same check on a longer stream from another seed: the count
    // mode's match-only scan and one-load fill check must still count
    // every reference miss.
    step(
        "test",
        "misses-1m",
        Action::Release(
            "sim-verify",
            &["--misses", "--accesses", "1M", "--seed", "20131207"],
        ),
    ),
    // perfbench compiles against the crates' public items; a refactor that
    // removes or renames one fails here, not in a benchmark run.
    step(
        "test",
        "perfbench",
        Action::Cargo(&[
            "test",
            "--release",
            "--offline",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ]),
    ),
    step("test", "ga-traced", Action::Drill(traced_ga_generation)),
    // Source hygiene, roster coverage and paper vectors.
    step("lint", "lint", Action::Xtask(&["lint"])),
    // The five model-check passes; the budget caps the bounded roster
    // sweeps, the only passes whose cost grows with the state budget.
    step(
        "lint",
        "model-check",
        Action::Xtask(&["model-check", "--budget-secs", "45"]),
    ),
    step(
        "verify",
        "build",
        Action::Cargo(&["build", "--release", "-p", "sim-verify"]),
    ),
    // Differential replay: all policies, 3 workloads, 500k accesses.
    step(
        "verify",
        "differential",
        Action::Cargo(&[
            "run",
            "--release",
            "-p",
            "sim-verify",
            "--",
            "--policy",
            "all",
            "--accesses",
            "500k",
            "--seed",
            "20130604",
        ]),
    ),
    step("verify", "packed-2m", Action::Drill(packed_baselines_2m)),
    // Mattson single-pass profile vs per-config replay (ways 2-16): one
    // stack-distance capture per workload must reproduce the replay
    // engine's true-LRU hit/miss/MPKI numbers at every associativity.
    step(
        "verify",
        "mattson",
        Action::Cargo(&[
            "run",
            "--release",
            "-p",
            "sim-verify",
            "--",
            "--mattson",
            "--accesses",
            "500k",
            "--seed",
            "20130604",
        ]),
    ),
    // Invariants and minimization tests.
    step(
        "verify",
        "tests",
        Action::Cargo(&["test", "--release", "-p", "sim-verify"]),
    ),
    // Protocol fuzz and round trips, outbox proptests, the deadline
    // wheel, snapshot bit-identity, and the socket-level e2e battery with
    // injected disconnects, stalls, accept failures and disk faults.
    step(
        "serve",
        "sim-serve",
        Action::Cargo(&["test", "-p", "sim-serve"]),
    ),
    // The trace container's malformed-input corpus.
    step(
        "serve",
        "malformed",
        Action::Cargo(&["test", "-p", "traces", "--test", "malformed"]),
    ),
    step("serve", "restart-drill", Action::Drill(serve_restart_drill)),
    // Dev builds compile the sim-fault injection points in through
    // dev-dependency feature unification; every `injected_*` test
    // exercises one named fault and its recovery path.
    step(
        "faults",
        "injected",
        Action::Cargo(&["test", "-p", "sim-core", "-p", "harness", "injected"]),
    ),
    // Drives the real run-all / evolve-vectors / evolve-islands binaries,
    // crashes them at injected write faults (SIM_FAULT=exit@...),
    // including an island worker killed mid-migration, resumes, and
    // requires byte-identical artifacts.
    step(
        "faults",
        "resume",
        Action::Cargo(&[
            "test", "-p", "harness", "--test", "resume", "--test", "faults", "--test", "islands",
        ]),
    ),
    step("faults", "islands-smoke", Action::Drill(island_smoke)),
    // Real processes over real sockets: three concurrent tenants, one
    // client SIGKILLed mid-stream, one pathologically slow; then the
    // daemon itself is SIGKILLed, restarted over its snapshot dir, and the
    // dead tenant resumes. Every surviving stats file must be
    // byte-identical to the single-process reference.
    step(
        "faults",
        "chaos",
        Action::Cargo(&["test", "-p", "harness", "--test", "serve"]),
    ),
    Step {
        env: &[("SIM_RETRY_BASE_MS", "0")],
        ..step("faults", "kill-resume", Action::Drill(kill_resume_smoke))
    },
];

/// The CI jobs in the order a bare `cargo xtask ci` runs them: each job
/// of [`STEPS`], in order of first appearance.
fn ci_jobs() -> Vec<&'static str> {
    let mut jobs: Vec<&str> = Vec::new();
    for s in STEPS {
        if !jobs.contains(&s.job) {
            jobs.push(s.job);
        }
    }
    jobs
}

/// `cargo xtask ci [JOB...]`: runs every step of each named job (all
/// jobs when none is named), then prints one summary line per step.
/// Returns the number of failed steps.
fn ci(args: &[String]) -> usize {
    let known = ci_jobs();
    let jobs: Vec<&str> = if args.is_empty() {
        known.clone()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(bad) = jobs.iter().find(|j| !known.contains(j)) {
        eprintln!("ci: unknown job {bad:?}; expected one or more of {known:?}");
        return 1;
    }
    let root = workspace_root();
    let mut summary = Vec::new();
    let mut failures = 0;
    for job in jobs {
        for step in STEPS.iter().filter(|s| s.job == job) {
            println!("\n==> ci {job}/{}: {}", step.name, describe(step));
            let started = Instant::now();
            let result = run_step(&root, step);
            let verdict = match result {
                Ok(()) => "PASS",
                Err(e) => {
                    eprintln!("ci {job}/{}: {e}", step.name);
                    failures += 1;
                    "FAIL"
                }
            };
            summary.push(format!(
                "{verdict} {job}/{} {:.1}s",
                step.name,
                started.elapsed().as_secs_f64()
            ));
        }
    }
    println!("\nxtask ci summary:");
    for line in summary {
        println!("{line}");
    }
    failures
}

/// The command line a step runs, for its header line.
fn describe(step: &Step) -> String {
    let env: String = step
        .env
        .iter()
        .map(|(k, v)| format!("{k}={v:?} "))
        .collect();
    let command = match &step.action {
        Action::Cargo(args) => format!("cargo {}", args.join(" ")),
        Action::Xtask(args) => format!("cargo xtask {}", args.join(" ")),
        Action::Release(bin, args) => format!("target/release/{bin} {}", args.join(" ")),
        Action::Drill(_) => format!("drill in target/xtask-ci/{}-{}", step.job, step.name),
    };
    format!("{env}{command}")
}

/// Runs one step. A panicking drill fails its step, not the whole run;
/// its processes are reaped as the panic unwinds.
fn run_step(root: &Path, step: &Step) -> Result<(), String> {
    let cx = Ctx {
        root,
        dir: root
            .join("target/xtask-ci")
            .join(format!("{}-{}", step.job, step.name)),
        env: step.env,
    };
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &step.action {
        Action::Cargo(args) => run(cx.cmd("cargo").args(*args)),
        Action::Xtask(args) => {
            let me = std::env::current_exe().map_err(|e| format!("locating xtask: {e}"))?;
            run(cx.cmd(me).args(*args))
        }
        Action::Release(bin, args) => run(cx.cmd(cx.release(bin)).args(*args)),
        Action::Drill(drill) => {
            // A stale directory from an earlier run could turn a drill's
            // first run into a resume that passes without testing anything.
            match std::fs::remove_dir_all(&cx.dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("clearing {}: {e}", cx.dir.display()));
                }
                _ => {}
            }
            std::fs::create_dir_all(&cx.dir)
                .map_err(|e| format!("creating {}: {e}", cx.dir.display()))?;
            drill(&cx)
        }
    }));
    attempt.unwrap_or_else(|_| Err("panicked".to_string()))
}

/// What a step's commands run with.
struct Ctx<'a> {
    root: &'a Path,
    /// The drill's own directory, cleared before the drill starts.
    dir: PathBuf,
    env: &'static [(&'static str, &'static str)],
}

impl Ctx<'_> {
    /// `program`, run from the workspace root with the step's environment.
    fn cmd(&self, program: impl AsRef<OsStr>) -> Command {
        let mut cmd = Command::new(program);
        cmd.current_dir(self.root).envs(self.env.iter().copied());
        cmd
    }

    /// The release build of workspace binary `bin`.
    fn release(&self, bin: &str) -> PathBuf {
        self.root.join("target/release").join(bin)
    }

    /// `name` inside the drill's directory.
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// The program and arguments of `cmd`, for error messages.
fn shown(cmd: &Command) -> String {
    std::iter::once(cmd.get_program())
        .chain(cmd.get_args())
        .map(|a| a.to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs `cmd` to completion; an error unless it exits 0.
fn run(cmd: &mut Command) -> Result<(), String> {
    let status = cmd
        .status()
        .map_err(|e| format!("launching `{}`: {e}", shown(cmd)))?;
    exited_ok(cmd, status)
}

fn exited_ok(cmd: &Command, status: ExitStatus) -> Result<(), String> {
    if status.success() {
        Ok(())
    } else {
        Err(format!("`{}` exited with {status}", shown(cmd)))
    }
}

/// A spawned process that is SIGKILLed and reaped when dropped, so a drill
/// that fails or panics partway leaves nothing running.
struct Reaped(Child);

impl Reaped {
    fn spawn(cmd: &mut Command) -> Result<Reaped, String> {
        cmd.spawn()
            .map(Reaped)
            .map_err(|e| format!("launching `{}`: {e}", shown(cmd)))
    }

    /// SIGKILLs the process (`kill -9`) and reaps it. True if it had
    /// already exited on its own.
    fn kill(mut self) -> bool {
        let exited = matches!(self.0.try_wait(), Ok(Some(_)));
        let _ = self.0.kill();
        let _ = self.0.wait();
        exited
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        // Both are no-ops on a process already reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Polls for `path` to exist with content, every 100 ms for up to 10 s,
/// and returns its trimmed content.
fn await_port_file(path: &Path) -> Result<String, String> {
    for _ in 0..100 {
        if let Ok(text) = std::fs::read_to_string(path) {
            if !text.is_empty() {
                return Ok(text.trim().to_string());
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(format!("{} did not appear within 10 s", path.display()))
}

/// `cmp a b`: an error naming the first differing byte unless the two
/// files are byte-identical.
fn cmp(a: &Path, b: &Path) -> Result<(), String> {
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("cmp: {}: {e}", p.display()));
    let (x, y) = (read(a)?, read(b)?);
    if x == y {
        return Ok(());
    }
    let at = x.iter().zip(&y).take_while(|(p, q)| p == q).count();
    Err(format!(
        "{} {} differ: byte {}{}",
        a.display(),
        b.display(),
        at + 1,
        if at == x.len().min(y.len()) {
            " (one file is a prefix of the other)"
        } else {
            ""
        }
    ))
}

/// Builds one release binary of the harness package.
fn build_harness_bin(cx: &Ctx, bin: &str) -> Result<(), String> {
    run(cx
        .cmd("cargo")
        .args(["build", "--release", "-p", "harness", "--bin", bin]))
}

/// The check applied to the traced benchmark run's result line (its last
/// stdout line). It stays in Python because `harness::manifest`'s JSON
/// subset reads neither floats nor booleans.
const GA_RESULT_CHECK: &str = "import json, sys; \
    r = json.loads(sys.stdin.read().splitlines()[-1]); \
    print(r[\"correct\"], r[\"failed\"]); \
    sys.exit(0 if r[\"correct\"] is True and r[\"failed\"] == 0 else 1)";

/// Traced ga-generation benchmark run (1 s). perfbench's unit tests never
/// reach the traced probes; the ga probe re-times the context build's
/// layers and is the one reader of a fitness context's routed view. Fails
/// unless both processes of `run.py | check` exit 0: the run itself, and
/// the check that its result line reports correct and 0 failed operations.
fn traced_ga_generation(cx: &Ctx) -> Result<(), String> {
    let mut bench_cmd = cx.cmd("python3");
    bench_cmd
        .args(["perfbench/run.py", "--workload", "ga-generation"])
        .args(["--seconds", "1", "--trace", "1"])
        .stdout(Stdio::piped());
    let mut bench = Reaped::spawn(&mut bench_cmd)?;
    let stdout = bench.0.stdout.take().expect("stdout is piped");
    let checked = run(cx
        .cmd("python3")
        .args(["-c", GA_RESULT_CHECK])
        .stdin(stdout));
    let status = bench
        .0
        .wait()
        .map_err(|e| format!("waiting for `{}`: {e}", shown(&bench_cmd)))?;
    exited_ok(&bench_cmd, status)?;
    checked
}

/// Packed baselines vs reference twins (2M accesses, ~15 PD
/// recomputations). PDP recomputes its protecting distance every 128K
/// accesses, so the 500k differential reaches only a few recomputations.
/// FIFO's stack kernel stands in for the round-robin pointer only after
/// long runs of fills, so its policy gets the long run too. SHiP and
/// Random run the mono engine's shared access body, which every mono
/// baseline takes, so they get the long run as well.
fn packed_baselines_2m(cx: &Ctx) -> Result<(), String> {
    for policy in ["arc", "awrp", "pdp", "ehc", "fifo", "ship", "random"] {
        run(cx.cmd(cx.release("sim-verify")).args([
            "--policy",
            policy,
            "--accesses",
            "2M",
            "--seed",
            "20131207",
        ]))?;
    }
    Ok(())
}

/// The release daemon's restart drill, with no injection features
/// compiled in: stream a tenant partway, SIGKILL the client and then the
/// daemon, restart the daemon over the same snapshot dir, resume, and
/// compare with the in-process reference byte for byte.
fn serve_restart_drill(cx: &Ctx) -> Result<(), String> {
    build_harness_bin(cx, "serve")?;
    let serve = cx.release("serve");
    let snaps = cx.path("snaps");
    let stats = cx.path("t.txt");
    let daemon = Reaped::spawn(
        cx.cmd(&serve)
            .args(["--listen", "127.0.0.1:0", "--snapshot-dir"])
            .arg(&snaps)
            .args(["--snapshot-every", "64", "--port-file"])
            .arg(cx.path("port1.txt")),
    )?;
    let addr = await_port_file(&cx.path("port1.txt"))?;
    let client = Reaped::spawn(
        cx.cmd(&serve)
            .args(["--client", "--connect", &addr, "--tenant", "t"])
            .args(["--accesses", "12000", "--seed", "9", "--batch", "16"])
            .args(["--slow-ms", "5", "--out"])
            .arg(&stats),
    )?;
    std::thread::sleep(Duration::from_secs(2));
    if client.kill() {
        println!("client finished early");
    }
    std::thread::sleep(Duration::from_secs(1));
    daemon.kill();
    let daemon = Reaped::spawn(
        cx.cmd(&serve)
            .args(["--listen", "127.0.0.1:0", "--snapshot-dir"])
            .arg(&snaps)
            .arg("--port-file")
            .arg(cx.path("port2.txt")),
    )?;
    let addr = await_port_file(&cx.path("port2.txt"))?;
    run(cx
        .cmd(&serve)
        .args(["--client", "--connect", &addr, "--tenant", "t"])
        .args(["--accesses", "12000", "--seed", "9", "--batch", "64"])
        .args(["--resume", "--out"])
        .arg(&stats))?;
    daemon.kill();
    let reference = cx.path("t.ref.txt");
    run(cx
        .cmd(&serve)
        .args(["--reference", "--accesses", "12000", "--seed", "9", "--out"])
        .arg(&reference))?;
    cmp(&stats, &reference)?;
    println!("restarted daemon reproduced reference stats byte-for-byte");
    Ok(())
}

/// Island fleet smoke (2 islands x tiny GA, resumable): the real
/// parent/worker process fleet at micro scale, then a `--resume` that
/// must short-circuit on the verified manifest.
fn island_smoke(cx: &Ctx) -> Result<(), String> {
    build_harness_bin(cx, "evolve-islands")?;
    let islands = cx.release("evolve-islands");
    let out = cx.path("islands-smoke");
    run(cx.cmd(&islands).arg("--smoke").arg("--out").arg(&out))?;
    let artifact = out.join("evolved-islands.txt");
    if std::fs::metadata(&artifact).map_or(true, |m| m.len() == 0) {
        return Err(format!("{} is missing or empty", artifact.display()));
    }
    let mut resume = cx.cmd(&islands);
    resume
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .arg("--resume")
        .stderr(Stdio::inherit());
    let output = resume
        .output()
        .map_err(|e| format!("launching `{}`: {e}", shown(&resume)))?;
    let log = String::from_utf8_lossy(&output.stdout);
    print!("{log}");
    exited_ok(&resume, output.status)?;
    if !log.contains("already done, skipping") {
        return Err("the --resume run did not print \"already done, skipping\"".to_string());
    }
    Ok(())
}

/// SIGKILL kill-and-resume smoke: the un-instrumented release `run-all`,
/// killed from outside 3 s in. `--resume` must complete the run, and every
/// CSV must match an uninterrupted reference run byte for byte.
fn kill_resume_smoke(cx: &Ctx) -> Result<(), String> {
    build_harness_bin(cx, "run-all")?;
    let run_all = |cache: &str, out: &str| {
        let mut cmd = cx.cmd(cx.release("run-all"));
        cmd.env("SIM_CACHE_DIR", cx.path(cache))
            .args(["--scale", "micro", "--out"])
            .arg(cx.path(out));
        cmd
    };
    run(&mut run_all("smoke-cache-ref", "smoke-ref"))?;
    let victim = Reaped::spawn(&mut run_all("smoke-cache", "smoke-out"))?;
    std::thread::sleep(Duration::from_secs(3));
    if victim.kill() {
        println!("run finished before the kill");
    }
    run(run_all("smoke-cache", "smoke-out").arg("--resume"))?;
    let mut compared = 0;
    let listing = std::fs::read_dir(cx.path("smoke-ref")).map_err(|e| e.to_string())?;
    for entry in listing {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().expect("a listed file has a name");
            cmp(&path, &cx.path("smoke-out").join(name))?;
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("the reference run wrote no CSV to compare".to_string());
    }
    println!("resumed artifacts byte-identical ({compared} CSVs)");
    Ok(())
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

fn lint() -> usize {
    let root = workspace_root();
    let mut failures = 0;
    failures += lint_unsafe_hygiene(&root);
    failures += lint_policy_twins();
    failures += lint_paper_vectors();
    failures += lint_direct_writes(&root);
    failures += lint_island_atomicity(&root);
    failures
}

/// The `unsafe` keyword, assembled at runtime so this source file does not
/// trip its own token scan.
fn unsafe_token() -> String {
    ["un", "safe"].concat()
}

/// Strips `//` line comments (including `///` docs) so prose mentioning
/// the forbidden token does not count as usage.
fn strip_line_comments(source: &str) -> String {
    source
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Whether stripped source uses the `unsafe` keyword (as code, not as the
/// `unsafe_code`/`unsafe_op_in_unsafe_fn` lint names inside attributes).
fn uses_unsafe_keyword(stripped: &str) -> bool {
    let tok = unsafe_token();
    stripped.match_indices(&tok).any(|(i, _)| {
        let after = &stripped[i + tok.len()..];
        // `unsafe_code` / `unsafe_op_in_unsafe_fn` continue with `_`;
        // keyword usage continues with whitespace, `{`, or `(`.
        !after.starts_with('_')
    })
}

fn rust_sources_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Audit 1: the `unsafe` whitelist.
///
/// * Every crate root except `sim-core`'s carries `#![forbid(unsafe_code)]`.
/// * `sim-core`'s root carries `#![deny(unsafe_code)]` (overridable by the
///   whitelisted module, which `forbid` would not be) plus
///   `#![deny(unsafe_op_in_unsafe_fn)]`.
/// * `sim-core/src/pool.rs` is the only file using the keyword, with
///   exactly four sites, each annotated `// SAFETY:`.
/// * The bit-sliced kernel module (`sim-core/src/slice.rs`) opts back up
///   to `forbid` inside sim-core's `deny` root: packed-word tricks must
///   stay entirely safe code.
fn lint_unsafe_hygiene(root: &Path) -> usize {
    let mut failures = 0;
    let mut fail = |msg: String| {
        eprintln!("lint(hygiene): {msg}");
        failures += 1;
    };

    // Crate roots and their required attributes.
    let mut roots: Vec<(PathBuf, &str)> = vec![(root.join("src/lib.rs"), "forbid")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let crate_dir = entry.expect("readable dir entry").path();
        let kind = if crate_dir.file_name().is_some_and(|n| n == "sim-core") {
            "deny"
        } else {
            "forbid"
        };
        for candidate in ["src/lib.rs", "src/main.rs"] {
            let path = crate_dir.join(candidate);
            if path.is_file() {
                roots.push((path, kind));
            }
        }
    }
    for (path, kind) in &roots {
        let source = std::fs::read_to_string(path).expect("crate root is readable");
        let attr = format!("#![{kind}({}_code)]", unsafe_token());
        if !source.contains(&attr) {
            fail(format!("{} lacks `{attr}`", path.display()));
        }
        if *kind == "deny" {
            let attr = format!("#![deny({tok}_op_in_{tok}_fn)]", tok = unsafe_token());
            if !source.contains(&attr) {
                fail(format!("{} lacks `{attr}`", path.display()));
            }
        }
    }

    // High-risk modules must carry their own inner `forbid`: the
    // bit-sliced kernel sits inside sim-core's (merely `deny`) root, and
    // the related-work baselines with intricate invariant-carrying state
    // (ARC's lists, AWRP's clocks, EHC's tables) are pinned the same way
    // so none can quietly gain an `allow` escape hatch.
    for module in [
        "crates/sim-core/src/slice.rs",
        "crates/baselines/src/arc.rs",
        "crates/baselines/src/awrp.rs",
        "crates/baselines/src/ehc.rs",
    ] {
        let path = root.join(module);
        let source = std::fs::read_to_string(&path).expect("audited module is readable");
        let attr = format!("#![forbid({}_code)]", unsafe_token());
        if !source.contains(&attr) {
            fail(format!("{} lacks `{attr}`", path.display()));
        }
    }

    // Keyword scan: pool.rs is the only permitted user.
    let mut sources = Vec::new();
    rust_sources_under(root, &mut sources);
    let whitelist = root.join("crates/sim-core/src/pool.rs");
    let mut saw_whitelist = false;
    for path in &sources {
        let source = std::fs::read_to_string(path).expect("source is readable");
        let stripped = strip_line_comments(&source);
        if *path == whitelist {
            saw_whitelist = true;
            let tok = unsafe_token();
            // Keyword sites only: `unsafe_code` in the module's own
            // `allow` attribute continues with `_` and does not count.
            let sites = stripped
                .match_indices(&tok)
                .filter(|(i, _)| !stripped[i + tok.len()..].starts_with('_'))
                .count();
            let safety_comments = source
                .lines()
                .filter(|l| l.trim_start().starts_with("// SAFETY:"))
                .count();
            if sites != 4 {
                fail(format!(
                    "{} has {sites} {} sites, expected exactly 4",
                    path.display(),
                    unsafe_token()
                ));
            }
            if safety_comments != 4 {
                fail(format!(
                    "{} has {safety_comments} `// SAFETY:` comments, expected exactly 4 \
                     (one per site)",
                    path.display()
                ));
            }
        } else if uses_unsafe_keyword(&stripped) {
            fail(format!(
                "{} uses the {} keyword outside the whitelisted pool module",
                path.display(),
                unsafe_token()
            ));
        }
    }
    if !saw_whitelist {
        fail("whitelisted pool module not found".to_string());
    }

    if failures == 0 {
        println!(
            "lint: {} hygiene ok ({} sources, 1 whitelisted module)",
            unsafe_token(),
            sources.len()
        );
    }
    failures
}

/// Audit 2: every policy the harness can run has a `sim-verify`
/// differential twin, and the paper policies are covered too.
fn lint_policy_twins() -> usize {
    let mut failures = 0;
    let twins: BTreeSet<String> = sim_verify::roster("all")
        .iter()
        .map(|pair| pair.name.to_string())
        .collect();

    let mut required: Vec<String> = harness::policies::baseline_roster(0)
        .iter()
        .map(|(name, _)| match *name {
            // The differential roster keys on lowercase short names.
            "PseudoLRU" => "plru".to_string(),
            other => other.to_lowercase(),
        })
        .collect();
    // The paper's own policies are constructed ad hoc by experiments
    // (not part of the baseline roster) but must be verified as well.
    for paper in ["gippr", "giplr", "dgippr2", "dgippr4"] {
        required.push(paper.to_string());
    }
    // The related-work roster members are required by name, not only via
    // the baseline roster, so dropping one from the roster cannot
    // silently drop its verification twin.
    for related in ["ehc", "awrp", "arc"] {
        required.push(related.to_string());
    }

    for name in required {
        if !twins.contains(&name) {
            eprintln!("lint(twins): policy {name:?} has no sim-verify reference twin");
            failures += 1;
        }
    }

    // The bounded model checker must cover exactly the harness roster:
    // adding a policy to the shoot-out without a model-check entry (or
    // vice versa) is a coverage gap this pins shut.
    let baseline: Vec<String> = harness::policies::baseline_roster(0)
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    let mck: Vec<String> = sim_verify::mck_roster(0)
        .iter()
        .map(|e| e.name.to_string())
        .collect();
    if baseline != mck {
        eprintln!(
            "lint(twins): sim_verify::mck_roster {mck:?} is out of sync with \
             harness baseline_roster {baseline:?}"
        );
        failures += 1;
    }

    if failures == 0 {
        println!(
            "lint: policy twin coverage ok ({} pairs, {} model-check entries)",
            twins.len(),
            mck.len()
        );
    }
    failures
}

/// Audit 3: every published paper vector passes the static analyzer.
fn lint_paper_vectors() -> usize {
    let mut vectors: Vec<(String, Vec<u8>)> = vec![
        ("GIPLR-best".into(), gippr::vectors::GIPLR_BEST_RAW.to_vec()),
        ("WI-GIPPR".into(), gippr::vectors::WI_GIPPR_RAW.to_vec()),
        (
            "PERLBENCH-WN1".into(),
            gippr::vectors::PERLBENCH_WN1_RAW.to_vec(),
        ),
    ];
    for (i, raw) in gippr::vectors::WI_2DGIPPR_RAW.iter().enumerate() {
        vectors.push((format!("WI-2-DGIPPR[{i}]"), raw.to_vec()));
    }
    for (i, raw) in gippr::vectors::WI_4DGIPPR_RAW.iter().enumerate() {
        vectors.push((format!("WI-4-DGIPPR[{i}]"), raw.to_vec()));
    }

    let mut failures = 0;
    for (name, raw) in &vectors {
        match sim_lint::analyze(raw) {
            Ok(analysis) if analysis.is_degenerate() => {
                eprintln!("lint(vectors): {name} is degenerate: {analysis}");
                failures += 1;
            }
            Ok(analysis) => {
                println!(
                    "lint: {name}: {} ({} lints)",
                    analysis.class(),
                    analysis.lints().len()
                );
            }
            Err(e) => {
                eprintln!("lint(vectors): {name} is malformed: {e}");
                failures += 1;
            }
        }
    }
    failures
}

/// Audit 4: artifact writes go through `sim_core::persist`.
///
/// Raw `fs::write` / `File::create` calls bypass the crash-safe atomic
/// write path (tmp + fsync + rename) and its fault-injection points, so a
/// crash mid-write can leave torn artifacts. Outside `persist.rs` itself,
/// vendored crates, xtask, and test code (`tests/` directories and the
/// trailing `#[cfg(test)]` module of a file), every such call must carry
/// a `// lint: direct-write` justification on the same line.
fn lint_direct_writes(root: &Path) -> usize {
    let mut failures = 0;
    let mut sources = Vec::new();
    rust_sources_under(root, &mut sources);
    let persist = root.join("crates/sim-core/src/persist.rs");
    let mut scanned = 0;
    for path in &sources {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rel_str.starts_with("crates/vendor-")
            || rel_str.starts_with("crates/xtask/")
            || rel_str.contains("/tests/")
            || *path == persist
        {
            continue;
        }
        scanned += 1;
        let source = std::fs::read_to_string(path).expect("source is readable");
        for (lineno, line) in source.lines().enumerate() {
            // By repo idiom the `#[cfg(test)]` module closes out a file;
            // test code may write scratch files however it likes.
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            let code = line.split("//").next().unwrap_or("");
            if (code.contains("fs::write(") || code.contains("File::create("))
                && !line.contains("lint: direct-write")
            {
                eprintln!(
                    "lint(direct-writes): {rel_str}:{}: raw file write bypasses \
                     sim_core::persist::atomic_write; route it through persist or \
                     annotate `// lint: direct-write` with a reason",
                    lineno + 1
                );
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("lint: direct-write audit ok ({scanned} sources)");
    }
    failures
}

/// Audit 5: crash-recovery state is crash-safe by construction.
///
/// Two subsystems promise kill-anywhere, resume-bit-identically: the GA
/// (the checkpoints of every stage — Fig 12, `evolve-vectors` and each
/// island, all written by the one generation loop in `island.rs` — plus
/// migration mailboxes, worker results and the fleet manifest) and the
/// serving daemon (per-tenant session snapshots, the published port
/// file). Both rest on every durable write going through
/// `sim_core::persist::atomic_write`. The negative direct-write audit
/// above catches raw `fs::write` calls; this positive audit fails if
/// those sources stop routing through the crash-safe helpers entirely
/// (say, a refactor to a hand-rolled writer whose call shape the
/// negative audit's pattern list misses).
fn lint_island_atomicity(root: &Path) -> usize {
    let checks: &[(&str, &[&str])] = &[
        (
            "crates/evolve/src/checkpoint.rs",
            &[
                "persist::atomic_write",
                "save_mailbox",
                "save_snapshot",
                "save_result",
            ],
        ),
        (
            "crates/evolve/src/island.rs",
            &[
                "checkpoint::save_mailbox",
                "checkpoint::save_snapshot",
                "checkpoint::save_result",
            ],
        ),
        (
            "crates/harness/src/bin/evolve-islands.rs",
            &["atomic_write"],
        ),
        ("crates/harness/src/manifest.rs", &["atomic_write"]),
        // Serving daemon: session snapshots stream from the journal's
        // blocks through atomic_write_parts, with retry...
        (
            "crates/sim-serve/src/session.rs",
            &["persist::atomic_write_parts", "write_snapshot_parts"],
        ),
        // ...and the server parks sessions only via the session's
        // streaming snapshot writer.
        (
            "crates/sim-serve/src/server.rs",
            &["save_snapshot", "snapshot_session"],
        ),
        // Port file and client stats files are poll-read by other
        // processes, so a torn write is an immediate race.
        ("crates/harness/src/bin/serve.rs", &["atomic_write"]),
    ];
    let mut failures = 0;
    for (rel, needles) in checks {
        let path = root.join(rel);
        let Ok(source) = std::fs::read_to_string(&path) else {
            eprintln!("lint(island-atomicity): {rel} is missing or unreadable");
            failures += 1;
            continue;
        };
        for needle in *needles {
            if !mentions(&source, needle) {
                eprintln!(
                    "lint(island-atomicity): {rel} no longer references `{needle}`; \
                     GA checkpoint/mailbox/manifest writes must stay on the \
                     sim_core::persist::atomic_write path"
                );
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("lint: island-atomicity audit ok ({} sources)", checks.len());
    }
    failures
}

/// True when `source` names `needle` as a whole identifier (path): an
/// occurrence that is the prefix of a longer name, as `atomic_write` is
/// of `atomic_write_parts`, does not count.
fn mentions(source: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    source.match_indices(needle).any(|(at, _)| {
        !source[..at].ends_with(ident) && !source[at + needle.len()..].starts_with(ident)
    })
}

// ---------------------------------------------------------------------------
// model-check
// ---------------------------------------------------------------------------

/// Value of a `--flag VALUE` pair, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Whether a `--policy` filter selects roster entry `name`. Accepts the
/// roster spelling case-insensitively plus the `plru` short name.
fn filter_matches(filter: &str, name: &str) -> bool {
    filter.eq_ignore_ascii_case(name)
        || (name == "PseudoLRU" && filter.eq_ignore_ascii_case("plru"))
}

fn model_check(args: &[String]) -> usize {
    let max_ways: usize = flag_value(args, "--max-ways")
        .map(|v| v.parse().expect("--max-ways takes an integer"))
        .unwrap_or(16);
    let policy_filter: Option<String> = flag_value(args, "--policy").map(str::to_string);
    let budget: Option<Duration> = flag_value(args, "--budget-secs")
        .map(|v| Duration::from_secs_f64(v.parse().expect("--budget-secs takes seconds")));

    let roster = sim_verify::mck_roster(0x51CE);
    if let Some(f) = &policy_filter {
        let paper = ["GIPPR", "GIPLR", "RRIP-IPV", "DGIPPR"];
        if !roster.iter().any(|e| filter_matches(f, e.name))
            && !paper.iter().any(|p| filter_matches(f, p))
        {
            let known: Vec<&str> = roster.iter().map(|e| e.name).chain(paper).collect();
            eprintln!("model-check: --policy {f:?} matches none of {known:?}");
            return 1;
        }
    }
    let matches = |name: &str| {
        policy_filter
            .as_deref()
            .map_or(true, |f| filter_matches(f, name))
    };

    let started = Instant::now();
    // Budget split: the two BoundedChecker sweeps dominate the wall clock;
    // hand each run an equal slice of 80% of the budget, reserving the
    // rest for the fixed-cost exhaustive passes.
    let bounded_runs = roster.iter().filter(|e| matches(e.name)).count() * 4;
    let per_run = budget.map(|b| b.mul_f64(0.8) / bounded_runs.max(1) as u32);

    let mut failures = plru_tree_sweep(&matches, max_ways);
    failures += roster_bounded_pass(&roster, &matches, per_run);
    failures += affinity_pass(&roster, &matches, per_run);
    failures += kernel_sweep_pass(&roster, &matches, max_ways);
    if matches("LRU") {
        failures += mattson_pass();
    }
    if policy_filter.is_none() {
        failures += checker_selftests();
    }
    println!(
        "model-check: {:.1}s elapsed{}",
        started.elapsed().as_secs_f64(),
        budget.map_or(String::new(), |b| format!(
            " (budget {:.0}s)",
            b.as_secs_f64()
        ))
    );
    failures
}

/// Pass 1: the exhaustive PLRU tree sweep of the production tree, one row
/// per rule the filter selects, then the mirror cross-check at each
/// associativity that ran a rule.
fn plru_tree_sweep(matches: &dyn Fn(&str) -> bool, max_ways: usize) -> usize {
    let mut failures = 0;
    let mut header = false;
    for ways in [2usize, 4, 8, 16] {
        if ways > max_ways {
            continue;
        }
        let rules: Vec<_> = rules_for(ways)
            .into_iter()
            .filter(|(family, _, _)| matches(family))
            .collect();
        if rules.is_empty() {
            continue;
        }
        if !header {
            header = true;
            println!(
                "{:>4}  {:<28} {:>12}  verdict",
                "ways", "rule", "tree states"
            );
        }
        for (_, name, rule) in rules {
            match sim_lint::ModelChecker::new(ways, rule).run::<gippr::PlruTree>() {
                Ok(report) => println!("{ways:>4}  {name:<28} {:>12}  ok", report.tree_states),
                Err(ce) => {
                    println!("{ways:>4}  {name:<28} {:>12}  COUNTEREXAMPLE", "");
                    eprintln!("{ce}");
                    failures += 1;
                }
            }
        }
        let label = "cross-check vs mirror";
        match sim_lint::cross_check::<gippr::PlruTree, sim_lint::MirrorTree>(ways) {
            Ok(states) => println!("{ways:>4}  {label:<28} {states:>12}  ok"),
            Err(ce) => {
                println!("{ways:>4}  {label:<28} {:>12}  COUNTEREXAMPLE", "");
                eprintln!("{ce}");
                failures += 1;
            }
        }
    }
    failures
}

/// The tiny geometries the bounded roster sweep explores. Small enough
/// for BFS to close or nearly close the reachable set, large enough to
/// exercise multi-set interaction (dueling leader maps, ARC's global
/// target, SHiP's shared tables).
fn bounded_geometries() -> [(sim_core::CacheGeometry, usize); 2] {
    [
        (
            sim_core::CacheGeometry::from_sets(4, 2, 64).expect("valid tiny geometry"),
            2,
        ),
        (
            sim_core::CacheGeometry::from_sets(4, 4, 64).expect("valid tiny geometry"),
            2,
        ),
    ]
}

/// Pass 2: bounded BFS over every roster policy's tiny-cache state graph.
/// Victim totality, never-evict-invalid, and `audit_invariants` are
/// checked on every transition; promotion-orbit convergence runs for the
/// policies whose canonical state is bounded.
fn roster_bounded_pass(
    roster: &[sim_verify::MckEntry],
    matches: &dyn Fn(&str) -> bool,
    per_run: Option<Duration>,
) -> usize {
    use sim_lint::PolicyState;

    println!("\nbounded roster sweep (BFS with state hashing, invariants on every transition):");
    println!(
        "{:<10} {:>5} {:>7} {:>9} {:>12} {:>7} {:>13}  verdict",
        "policy", "ways", "inputs", "states", "transitions", "orbits", "stop"
    );
    let mut failures = 0;
    for entry in roster {
        if !matches(entry.name) {
            continue;
        }
        for (geom, bps) in bounded_geometries() {
            let mut model =
                sim_verify::PolicyModel::new(entry.name, geom, bps, entry.build.clone());
            let mut checker = sim_lint::BoundedChecker::new()
                .with_max_states(4096)
                .with_max_depth(24);
            if !entry.orbit_converges {
                // PDP's periodic access counter and AWRP's idle-way ages
                // are genuinely unbounded: constant-input orbits mint
                // fresh states forever, so only the budgeted BFS applies.
                checker = checker.with_orbits(0, 0);
            }
            if let Some(b) = per_run {
                checker = checker.with_budget(b);
            }
            match checker.run(&mut model) {
                Ok(r) => println!(
                    "{:<10} {:>5} {:>7} {:>9} {:>12} {:>7} {:>13}  ok",
                    entry.name,
                    geom.ways(),
                    model.num_inputs(),
                    r.states,
                    r.transitions,
                    r.orbits_checked,
                    r.stop.to_string(),
                ),
                Err(trail) => {
                    println!("{:<10} {:>5}  COUNTEREXAMPLE", entry.name, geom.ways());
                    eprintln!("{trail}");
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// Pass 3: the shard-affinity checker. Every policy claiming `SetLocal`
/// is explored on interleaved multi-set streams while isolated per-set
/// twins replay each set's subsequence; outcomes and per-set audit
/// digests must match at every reachable state.
fn affinity_pass(
    roster: &[sim_verify::MckEntry],
    matches: &dyn Fn(&str) -> bool,
    per_run: Option<Duration>,
) -> usize {
    println!("\nshard-affinity pass (interleaved vs isolated per-set replicas):");
    println!(
        "{:<10} {:>5} {:>9} {:>12} {:>13}  verdict",
        "policy", "ways", "states", "transitions", "stop"
    );
    let mut failures = 0;
    let mut checked = 0;
    for entry in roster {
        if !matches(entry.name) {
            continue;
        }
        for (geom, bps) in bounded_geometries() {
            let geom = sim_core::CacheGeometry::from_sets(2, geom.ways(), 64)
                .expect("valid tiny geometry");
            let mut model =
                match sim_verify::AffinityModel::new(entry.name, geom, bps, entry.build.clone()) {
                    Ok(m) => m,
                    // Global policies are legitimately interleaving-
                    // sensitive; the contract only binds SetLocal claims.
                    Err(_) => continue,
                };
            let mut checker = sim_lint::BoundedChecker::new()
                .with_max_states(2048)
                .with_max_depth(16);
            if !entry.orbit_converges {
                checker = checker.with_orbits(0, 0);
            }
            if let Some(b) = per_run {
                checker = checker.with_budget(b);
            }
            match checker.run(&mut model) {
                Ok(r) => {
                    checked += 1;
                    println!(
                        "{:<10} {:>5} {:>9} {:>12} {:>13}  ok",
                        entry.name,
                        geom.ways(),
                        r.states,
                        r.transitions,
                        r.stop.to_string(),
                    );
                }
                Err(trail) => {
                    println!("{:<10} {:>5}  COUNTEREXAMPLE", entry.name, geom.ways());
                    eprintln!("{trail}");
                    failures += 1;
                }
            }
        }
    }
    println!("affinity pass: {checked} SetLocal policy/geometry combinations verified");
    failures
}

/// Pass 4: the slice-kernel equivalence sweep. Every kernel the roster
/// advertises — plus the published paper vectors and the RRIP-IPV
/// variants — is checked against the scalar interpreters at every lane
/// offset with poisoned sibling lanes.
fn kernel_sweep_pass(
    roster: &[sim_verify::MckEntry],
    matches: &dyn Fn(&str) -> bool,
    max_ways: usize,
) -> usize {
    use sim_core::ReplacementPolicy;

    println!("\nslice-kernel equivalence sweep (packed lanes vs scalar policy):");
    println!(
        "{:<22} {:>5} {:>6} {:>10} {:>12} {:>9} {:>9}  verdict",
        "kernel", "ways", "lanes", "states", "transitions", "accesses", "counted"
    );
    let mut failures = 0;
    for ways in [2usize, 4, 8, 16] {
        if ways > max_ways {
            continue;
        }
        let geom = sim_core::CacheGeometry::from_sets(64, ways, 64).expect("valid probe geometry");
        let mut kernels: Vec<(String, sim_core::SliceKernel)> = Vec::new();
        for entry in roster {
            if !matches(entry.name) {
                continue;
            }
            if let Some(k) = (entry.build)(&geom).slice_kernel() {
                kernels.push((entry.name.to_string(), k));
            }
        }
        if matches("RRIP-IPV") {
            for (label, vector) in [
                ("RRIP-IPV[srrip]", baselines::RripIpvPolicy::srrip_vector()),
                ("RRIP-IPV[cautious]", [0, 0, 1, 2, 3]),
            ] {
                let policy =
                    baselines::RripIpvPolicy::new(&geom, vector).expect("valid RRIP-IPV vector");
                if let Some(k) = policy.slice_kernel() {
                    kernels.push((label.to_string(), k));
                }
            }
        }
        if ways == 16 {
            // The paper's duels on one leader per side (the sweep checks
            // tables and side dispatch, not the layout).
            let dgippr = |vectors: Vec<gippr::Ipv>| {
                gippr::DgipprPolicy::with_config(&geom, vectors, 1, "DGIPPR")
                    .expect("16-way paper vectors")
            };
            let paper: [(&str, Box<dyn sim_core::ReplacementPolicy>); 5] = [
                (
                    "DGIPPR[wi2]",
                    Box::new(dgippr(gippr::vectors::wi_2dgippr().to_vec())),
                ),
                (
                    "DGIPPR[wi4]",
                    Box::new(dgippr(gippr::vectors::wi_4dgippr().to_vec())),
                ),
                (
                    "GIPPR[wi]",
                    Box::new(
                        gippr::GipprPolicy::new(&geom, gippr::vectors::wi_gippr())
                            .expect("16-way paper vector"),
                    ),
                ),
                (
                    "GIPLR[best]",
                    Box::new(
                        gippr::GiplrPolicy::new(&geom, gippr::vectors::giplr_best())
                            .expect("16-way paper vector"),
                    ),
                ),
                (
                    "GIPPR[perlbench]",
                    Box::new(
                        gippr::GipprPolicy::new(&geom, gippr::vectors::perlbench_wn1())
                            .expect("16-way paper vector"),
                    ),
                ),
            ];
            for (label, policy) in paper {
                let short = label.split('[').next().unwrap_or(label);
                if !matches(short) {
                    continue;
                }
                if let Some(k) = policy.slice_kernel() {
                    kernels.push((label.to_string(), k));
                }
            }
        }
        // One sweep per distinct kernel shape; several roster entries
        // advertise the same kernel (e.g. LRU and the all-zero stack IPV).
        let mut seen = BTreeSet::new();
        for (label, kernel) in kernels {
            if !seen.insert(format!("{kernel:?}")) {
                continue;
            }
            match sim_core::kernel_soundness_sweep(&kernel, ways) {
                Ok(r) => println!(
                    "{:<22} {:>5} {:>6} {:>10} {:>12} {:>9} {:>9}  ok{}",
                    label,
                    ways,
                    r.lanes,
                    r.states,
                    r.transitions,
                    r.accesses,
                    r.count_accesses,
                    if r.exhaustive { "" } else { " (sampled walk)" }
                ),
                Err(e) => {
                    println!("{label:<22} {ways:>5}  COUNTEREXAMPLE");
                    eprintln!("kernel sweep ({label}, {ways} ways): {e}");
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// Pass 5a: the Mattson fast-path qualification audit. The single-pass
/// profiler trusts `policy_qualifies` to admit only LRU-equivalent
/// policies; verify the qualifying roster set is exactly {LRU} and that
/// LRU matches an independent reference over all short streams.
fn mattson_pass() -> usize {
    let geom = sim_core::CacheGeometry::from_sets(2, 2, 64).expect("valid tiny geometry");
    match sim_verify::mattson_qualification_audit(geom, 2, 6) {
        Ok(names) if names == ["LRU"] => {
            println!(
                "\nmattson qualification audit: {{LRU}} qualifies; verified \
                 hit/evict-equivalent to the reference over all depth-6 streams"
            );
            0
        }
        Ok(names) => {
            eprintln!(
                "mattson qualification audit: qualifying set {names:?} != [\"LRU\"] — \
                 if a new LRU-equivalent policy was added, update the pin here and in \
                 sim-verify::mck deliberately"
            );
            1
        }
        Err(e) => {
            eprintln!("mattson qualification audit: {e}");
            1
        }
    }
}

/// Pass 5b: seeded-defect self-tests — each checker must catch the
/// defect class it exists for. A checker that reports `ok` on poisoned
/// input is worse than no checker.
fn checker_selftests() -> usize {
    use std::sync::Arc;

    println!("\nchecker self-tests (seeded defects must be caught):");
    let mut failures = 0;
    let mut expect = |label: &str, caught: bool, detail: String| {
        if caught {
            println!("  {label:<46} caught");
        } else {
            eprintln!("model-check(self-test): {label} NOT caught: {detail}");
            failures += 1;
        }
    };

    // Drifting hit orbit: the tree sweep's convergence check must see a
    // position write that also counts up off the written way's path (an
    // IPV rule, so the plain-PLRU fixpoint check cannot fire first).
    let r = sim_lint::ModelChecker::new(16, sim_lint::PromotionRule::Ipv(vec![0; 17]))
        .run::<DriftingTree>();
    expect(
        "tree sweep: drifting PLRU hit orbit",
        r.as_ref()
            .is_err_and(|ce| ce.invariant.contains("promotion convergence")),
        format!("{r:?}"),
    );

    // Poisoned lane transitions: the kernel sweep must flag a cross-lane
    // XOR in the PLRU interpreter and nibble corruption in the stack and
    // RRIP interpreters.
    let plru = sim_core::SliceKernel::PlruIpv { ipv: vec![0; 5] };
    let r = sim_core::slice::kernel_soundness_sweep_poisoned(&plru, 4);
    expect(
        "kernel sweep: cross-lane PLRU leak",
        r.as_ref().is_err_and(|e| e.contains("lane boundary")),
        format!("{r:?}"),
    );
    let stack = sim_core::SliceKernel::StackIpv { ipv: vec![0; 5] };
    let r = sim_core::slice::kernel_soundness_sweep_poisoned(&stack, 4);
    expect(
        "kernel sweep: stack nibble corruption",
        r.as_ref().is_err_and(|e| e.contains("on_hit")),
        format!("{r:?}"),
    );
    let rrip = sim_core::SliceKernel::RripIpv {
        vector: baselines::RripIpvPolicy::srrip_vector(),
    };
    let r = sim_core::slice::kernel_soundness_sweep_poisoned(&rrip, 4);
    expect(
        "kernel sweep: RRIP nibble corruption",
        r.as_ref().is_err_and(|e| e.contains("on_hit")),
        format!("{r:?}"),
    );
    // Swapped duel sides: the sweep must notice a side applying another
    // side's table, for a PLRU duel and for a bimodal duel.
    let geom = sim_core::CacheGeometry::from_sets(64, 4, 64).expect("valid probe geometry");
    let duels: [(&str, Box<dyn sim_core::ReplacementPolicy>); 2] = [
        (
            "kernel sweep: swapped PLRU duel sides",
            Box::new(
                gippr::DgipprPolicy::with_config(
                    &geom,
                    vec![gippr::Ipv::lru(4), gippr::Ipv::lru_insertion(4)],
                    1,
                    "DGIPPR",
                )
                .expect("4-way duel"),
            ),
        ),
        (
            "kernel sweep: swapped bimodal duel sides",
            Box::new(baselines::DrripPolicy::with_config(&geom, 1, 4).expect("4-way duel")),
        ),
    ];
    for (label, policy) in duels {
        let kernel = policy
            .slice_kernel()
            .expect("duel policies advertise a kernel");
        let r = sim_core::slice::kernel_soundness_sweep_poisoned(&kernel, 4);
        expect(
            label,
            r.as_ref().is_err_and(|e| e.contains("Duel side")),
            format!("{r:?}"),
        );
    }

    // Poisoned ARC `p` update: the bounded checker must reach the
    // unclamped growth past ways * P_SCALE and report a minimal trail.
    let build: sim_verify::SharedFactory = Arc::new(|g: &sim_core::CacheGeometry| {
        let mut p = baselines::ArcPolicy::new(g);
        p.poison_p_clamp();
        Box::new(p) as Box<dyn sim_core::ReplacementPolicy>
    });
    let geom = sim_core::CacheGeometry::from_sets(1, 2, 64).expect("valid tiny geometry");
    let mut model = sim_verify::PolicyModel::new("ARC[poisoned-p]", geom, 4, build);
    let r = sim_lint::BoundedChecker::new()
        .with_max_states(8192)
        .with_max_depth(10)
        .with_orbits(0, 0)
        .run(&mut model);
    expect(
        "bounded sweep: poisoned ARC p clamp",
        r.as_ref().is_err_and(|t| t.invariant.contains("exceeds")),
        match &r {
            Ok(rep) => format!("completed: {rep:?}"),
            Err(t) => t.invariant.clone(),
        },
    );

    // Fake SetLocal claim: the affinity pass must see the global cursor
    // leak across sets.
    let build: sim_verify::SharedFactory = Arc::new(|g: &sim_core::CacheGeometry| {
        Box::new(sim_verify::mck::SneakyGlobal::new(g)) as Box<dyn sim_core::ReplacementPolicy>
    });
    let geom = sim_core::CacheGeometry::from_sets(2, 2, 64).expect("valid tiny geometry");
    let r = sim_verify::AffinityModel::new("SneakyGlobal", geom, 2, build)
        .map_err(|e| e.to_string())
        .and_then(|mut m| {
            sim_lint::BoundedChecker::new()
                .with_max_states(512)
                .with_max_depth(8)
                .run(&mut m)
                .map_err(|t| t.invariant.clone())
                .map(|_| ())
        });
    expect(
        "affinity pass: fake SetLocal global cursor",
        r.as_ref()
            .is_err_and(|e| e.contains("shard-affinity violation")),
        format!("{r:?}"),
    );

    failures
}

/// The production tree with a seeded defect: every position write also
/// counts up in the tree bits off the written way's path. Writes still
/// land, and victim and bijection hold in every state, but a way's hit
/// orbit never revisits a state (at 16 ways the 11 off-path bits cycle
/// only after 2048 hits).
#[derive(Clone)]
struct DriftingTree(gippr::PlruTree);

impl sim_lint::PlruState for DriftingTree {
    fn from_bits(ways: usize, bits: u64) -> Self {
        DriftingTree(gippr::PlruTree::from_raw_bits(ways, bits))
    }
    fn bits(&self) -> u64 {
        self.0.raw_bits()
    }
    fn ways(&self) -> usize {
        self.0.ways()
    }
    fn victim(&self) -> usize {
        self.0.victim()
    }
    fn position(&self, way: usize) -> usize {
        self.0.position(way)
    }
    fn set_position(&mut self, way: usize, position: usize) {
        self.0.set_position(way, position);
        let ways = self.0.ways();
        let mut path = 0u64;
        let mut node = (ways + way) / 2;
        while node >= 1 {
            path |= 1 << (node - 1);
            node /= 2;
        }
        // Setting the path bits first makes the carry skip them.
        let bits = self.0.raw_bits();
        let off_path = ((1u64 << (ways - 1)) - 1) & !path;
        let next = ((bits | path) + 1) & off_path | (bits & path);
        self.0 = gippr::PlruTree::from_raw_bits(ways, next);
    }
}

/// The tree-sweep rules for one associativity, each with the `--policy`
/// family it runs under: plain PLRU and the classic LRU/LIP vectors
/// (PseudoLRU), then the published paper vectors (natively at 16 ways,
/// rescaled below).
fn rules_for(ways: usize) -> Vec<(&'static str, String, sim_lint::PromotionRule)> {
    use sim_lint::PromotionRule;

    let mut lip = vec![0u8; ways + 1];
    lip[ways] = (ways - 1) as u8;
    let mut rules = vec![
        ("PseudoLRU", "plru".to_string(), PromotionRule::Plru),
        (
            "PseudoLRU",
            "lru vector".to_string(),
            PromotionRule::Ipv(vec![0; ways + 1]),
        ),
        (
            "PseudoLRU",
            "lip vector".to_string(),
            PromotionRule::Ipv(lip),
        ),
    ];
    let paper: Vec<(&str, &str, gippr::Ipv)> = vec![
        ("GIPLR", "giplr-best", gippr::vectors::giplr_best()),
        ("GIPPR", "wi-gippr", gippr::vectors::wi_gippr()),
        ("GIPPR", "perlbench-wn1", gippr::vectors::perlbench_wn1()),
    ];
    for (family, name, ipv) in paper {
        let scaled = if ways == 16 {
            ipv
        } else {
            ipv.rescaled(ways).expect("16 -> smaller rescale is valid")
        };
        rules.push((
            family,
            format!("{name}{}", if ways == 16 { "" } else { " (rescaled)" }),
            PromotionRule::Ipv(scaled.entries().to_vec()),
        ));
    }
    if ways == 16 {
        for (i, ipv) in gippr::vectors::wi_4dgippr().into_iter().enumerate() {
            rules.push((
                "DGIPPR",
                format!("wi-4-dgippr[{i}]"),
                PromotionRule::Ipv(ipv.entries().to_vec()),
            ));
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::{ci, ci_jobs, mentions, workspace_root, Reaped, STEPS};
    use std::collections::BTreeSet;

    /// Each job of a workflow file with the `run:` command of each of its
    /// check steps: every step but checkout, cache and the toolchain
    /// install. A check step with no `run:` reads as `<no run>`.
    fn workflow_checks(yml: &str) -> Vec<(String, Vec<String>)> {
        let mut jobs: Vec<(String, Vec<String>)> = Vec::new();
        // The step being read: whether it is set-up, and its `run:`.
        let mut step: Option<(bool, Option<String>)> = None;
        let mut in_jobs = false;
        let flush = |jobs: &mut Vec<(String, Vec<String>)>,
                     step: &mut Option<(bool, Option<String>)>| {
            if let Some((false, run)) = step.take() {
                let job = jobs.last_mut().expect("a step belongs to a job");
                job.1.push(run.unwrap_or_else(|| "<no run>".to_string()));
            }
        };
        for line in yml.lines() {
            let text = line.trim_start();
            let indent = line.len() - text.len();
            if line == "jobs:" {
                in_jobs = true;
            } else if in_jobs && indent == 2 && text.ends_with(':') {
                flush(&mut jobs, &mut step);
                jobs.push((text.trim_end_matches(':').to_string(), Vec::new()));
            } else if in_jobs && (indent == 6 || indent == 8) {
                let field = match text.strip_prefix("- ") {
                    Some(first) if indent == 6 => {
                        flush(&mut jobs, &mut step);
                        step = Some((false, None));
                        first
                    }
                    _ => text,
                };
                let Some((setup, run)) = step.as_mut() else {
                    continue;
                };
                if let Some(uses) = field.strip_prefix("uses: ") {
                    *setup |=
                        uses.starts_with("actions/checkout@") || uses.starts_with("actions/cache@");
                } else if let Some(cmd) = field.strip_prefix("run: ") {
                    *setup |= cmd.starts_with("rustup toolchain install ");
                    *run = Some(cmd.to_string());
                }
            }
        }
        flush(&mut jobs, &mut step);
        jobs
    }

    #[test]
    fn ci_yml_runs_each_job_as_one_xtask_ci_step() {
        let path = workspace_root().join(".github/workflows/ci.yml");
        let yml = std::fs::read_to_string(&path).expect("ci.yml is readable");
        let mut workflow = BTreeSet::new();
        for (job, checks) in workflow_checks(&yml) {
            // Miri needs nightly, which the step table's toolchain lacks.
            if job == "miri" {
                continue;
            }
            assert_eq!(
                checks,
                [format!("cargo xtask ci {job}")],
                "ci.yml job `{job}`: its only check step must be `cargo xtask ci {job}`"
            );
            workflow.insert(job);
        }
        let table: BTreeSet<String> = ci_jobs().into_iter().map(String::from).collect();
        assert_eq!(
            workflow, table,
            "ci.yml's jobs and xtask's STEPS table must name the same jobs"
        );
    }

    #[test]
    fn workflow_reader_sees_every_check_step() {
        let yml = "\
on: push
jobs:
  a:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: Rust toolchain
        run: rustup toolchain install stable --profile minimal
      - uses: actions/cache@v4
        with:
          path: |
            target
      - name: Check
        run: cargo xtask ci a
  b:
    steps:
      - run: |
          cargo test
      - uses: some/action@v1
      - name: Gate
        run: cargo xtask ci b
        env:
          X: \"1\"
";
        let jobs = workflow_checks(yml);
        let want: Vec<(String, Vec<String>)> = vec![
            ("a".into(), vec!["cargo xtask ci a".into()]),
            (
                "b".into(),
                vec!["|".into(), "<no run>".into(), "cargo xtask ci b".into()],
            ),
        ];
        assert_eq!(jobs, want);
    }

    #[test]
    fn step_names_are_unique_within_a_job() {
        let mut seen = BTreeSet::new();
        for s in STEPS {
            assert!(seen.insert((s.job, s.name)), "{}/{} twice", s.job, s.name);
        }
        assert_eq!(ci_jobs(), ["test", "lint", "verify", "serve", "faults"]);
    }

    #[test]
    fn an_unknown_job_runs_nothing() {
        assert_eq!(ci(&["test".to_string(), "nope".to_string()]), 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_dropped_guard_kills_and_reaps_its_process() {
        let guard = Reaped::spawn(std::process::Command::new("sleep").arg("60")).unwrap();
        let proc_dir = std::path::PathBuf::from(format!("/proc/{}", guard.0.id()));
        assert!(proc_dir.exists());
        drop(guard);
        assert!(
            !proc_dir.exists(),
            "killed, and reaped rather than a zombie"
        );
    }

    #[test]
    fn needles_match_whole_identifiers_only() {
        let src = "use sim_core::persist::atomic_write_parts;\nsave_snapshot(&p)";
        assert!(mentions(src, "persist::atomic_write_parts"));
        assert!(mentions(src, "save_snapshot"));
        assert!(
            !mentions(src, "persist::atomic_write"),
            "a prefix of a longer name"
        );
        assert!(!mentions(src, "snapshot"), "a suffix of a longer name");
        assert!(mentions("atomic_write(p, b)", "atomic_write"));
    }
}
