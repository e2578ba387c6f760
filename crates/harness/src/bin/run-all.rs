//! Regenerates the paper's complete evaluation in one command: every
//! figure and table, printed and (with `--out`) written as CSV.
//!
//! Usage: `run-all [--scale quick|medium|paper] [--wn1] [--out DIR]
//! [--resume] [--only NAME[,NAME...]]`
//!
//! Each experiment runs fail-soft with a bounded retry budget; progress is
//! recorded in `<out>/manifest.json` after every experiment, so an
//! interrupted run (crash, kill, power loss) picks up where it left off
//! with `--resume` — completed experiments are skipped after their CSV
//! artifacts are verified against the manifest's digests. If any
//! experiment still fails after retries, the remaining ones run anyway, a
//! failure summary is printed, and the exit code is nonzero.
//!
//! Note: Figure 12 runs 3 + 87 genetic algorithms and dominates the run
//! time; everything else finishes in seconds at quick scale.

use harness::experiments::{
    ablations, assoc_sweep, fig01, fig04, fig10, fig11, fig12, fig13, multicore_tab, overhead,
    vectors_tab, VectorMode,
};
use harness::{Args, Experiment, Pipeline};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let scale = args.scale;
    let mode = VectorMode::from_flag(args.wn1);
    println!(
        "regenerating the full evaluation at {scale} scale ({} vectors)\n",
        mode.label()
    );

    // Captured workloads spill to disk so repeated runs skip the L1/L2
    // simulation entirely; workload_cache() resolves the directory
    // (SIM_CACHE_DIR, else results/cache/) and prunes stale spill files
    // once at initialization.
    let cache = harness::workload_cache();

    let experiments = vec![
        Experiment::new("tab-vectors", "tab-vectors.csv", vectors_tab::run),
        Experiment::new("tab-overhead", "tab-overhead.csv", overhead::run),
        Experiment::new("fig01", "fig01.csv", move || fig01::run(scale)),
        Experiment::new("fig04", "fig04.csv", move || fig04::run(scale)),
        Experiment::new("fig10", "fig10.csv", move || fig10::run(scale, mode)),
        Experiment::new("fig11", "fig11.csv", move || fig11::run(scale, mode)),
        Experiment::new("fig13", "fig13.csv", move || fig13::run(scale, mode).table),
        Experiment::new("tab-ablations", "tab-ablations.csv", move || {
            ablations::run(scale)
        }),
        Experiment::new("tab-assoc", "tab-assoc.csv", move || {
            assoc_sweep::run(scale)
        }),
        Experiment::new("tab-multicore", "tab-multicore.csv", move || {
            multicore_tab::run(scale)
        }),
        Experiment::new("fig12", "fig12.csv", move || fig12::run(scale)),
    ];

    let report = Pipeline::new(&args).run(&experiments, &scale.to_string(), mode.label());

    println!(
        "done: {} completed, {} skipped, {} failed. workload cache: {} fresh captures, \
         {} loaded from disk ({}).",
        report.completed.len(),
        report.skipped.len(),
        report.failed.len(),
        cache.captures(),
        cache.disk_loads(),
        cache
            .disk_dir()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "no spill dir".into()),
    );
    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
