#![forbid(unsafe_code)]

//! Differential-oracle runner.
//!
//! ```text
//! cargo run -p sim-verify --release -- --policy all --accesses 1M --seed 1
//! ```
//!
//! Replays every requested policy pair over the three synthetic workloads
//! and exits nonzero if any access diverges between the optimized simulator
//! and the naive reference models. `--mattson` checks the stack-distance
//! profile against per-associativity replay instead, and `--min` the
//! optimized Belady MIN against its naive reference.

use sim_verify::diff::{diff_replay, oracle_geometry, roster};
use sim_verify::refmodels::ref_min_misses;
use sim_verify::workloads::workloads;
use std::process::ExitCode;

/// The `--mattson` mode: one single-pass stack-distance profile per
/// workload must reproduce per-configuration `replay_llc` hit/miss
/// counts (and MPKI) for true LRU at every associativity in {2,4,8,16},
/// at a fixed set count. One profile answers all four sweeps — the
/// whole point of the Mattson tentpole — so any disagreement here means
/// either the profiler or the replay engine broke.
fn mattson_check(seed: u64, accesses: usize) -> ExitCode {
    let sets = 1024usize;
    let max_ways = 16usize;
    let streams = workloads(seed, accesses);
    let perf = mem_model::WindowPerfModel::default();
    println!(
        "sim-verify --mattson: {} workload(s) x {} accesses, {} sets, ways 2..={} (seed {})",
        streams.len(),
        accesses,
        sets,
        max_ways,
        seed
    );
    let mut failures = 0u32;
    for (wname, stream) in &streams {
        let warmup = mem_model::default_warmup(stream.len());
        let profile_geom = sim_core::CacheGeometry::from_sets(sets, max_ways, 64)
            .expect("static geometry is valid");
        let profile =
            sim_core::StackDistanceProfile::capture(stream, &profile_geom, warmup, max_ways);
        for ways in [2usize, 4, 8, 16] {
            let geom = sim_core::CacheGeometry::from_sets(sets, ways, 64)
                .expect("static geometry is valid");
            let replay = mem_model::replay_llc(
                stream,
                geom,
                Box::new(baselines::TrueLru::new(&geom)),
                warmup,
                &perf,
            );
            let ok = profile.hits(ways) == replay.stats.hits
                && profile.misses(ways) == replay.stats.misses
                && profile.accesses() == replay.stats.accesses
                && profile.instructions() == replay.instructions
                && profile.mpki(ways) == replay.mpki();
            if ok {
                println!(
                    "  ok   {wname:<14} {ways:>2} ways: {} hits / {} misses (MPKI {:.3})",
                    replay.stats.hits,
                    replay.stats.misses,
                    replay.mpki()
                );
            } else {
                failures += 1;
                println!(
                    "  FAIL {wname:<14} {ways:>2} ways: profile {}h/{}m vs replay {}h/{}m",
                    profile.hits(ways),
                    profile.misses(ways),
                    replay.stats.hits,
                    replay.stats.misses,
                );
            }
        }
    }
    if failures > 0 {
        eprintln!("sim-verify --mattson: {failures} disagreement(s)");
        ExitCode::FAILURE
    } else {
        println!("sim-verify --mattson: profile and replay agree at every associativity");
        ExitCode::SUCCESS
    }
}

/// The `--min` mode: the set-bucketed, pool-parallel
/// [`mem_model::min_misses`] must reproduce the naive two-pass
/// [`ref_min_misses`] on every `CacheStats` field, per workload, at the
/// oracle geometry and at 1-, 4- and 16-way shapes of a 256-set cache
/// (small enough that every workload evicts constantly).
fn min_check(seed: u64, accesses: usize) -> ExitCode {
    let mut geoms = vec![oracle_geometry()];
    for ways in [1usize, 4, 16] {
        geoms.push(
            sim_core::CacheGeometry::from_sets(256, ways, 64).expect("static geometry is valid"),
        );
    }
    let streams = workloads(seed, accesses);
    println!(
        "sim-verify --min: {} workload(s) x {} accesses, {} geometries (seed {})",
        streams.len(),
        accesses,
        geoms.len(),
        seed
    );
    let mut failures = 0u32;
    for (wname, stream) in &streams {
        let warmup = mem_model::default_warmup(stream.len());
        for geom in &geoms {
            let fast = mem_model::min_misses(stream, *geom, warmup);
            let naive = ref_min_misses(stream, *geom, warmup);
            if fast == naive {
                println!(
                    "  ok   {wname:<14} {geom}: {} misses / {} evictions",
                    fast.misses, fast.evictions
                );
            } else {
                failures += 1;
                println!("  FAIL {wname:<14} {geom}: optimized {fast:?} vs reference {naive:?}");
            }
        }
    }
    if failures > 0 {
        eprintln!("sim-verify --min: {failures} disagreement(s)");
        ExitCode::FAILURE
    } else {
        println!("sim-verify --min: optimized and reference MIN agree everywhere");
        ExitCode::SUCCESS
    }
}

struct Args {
    policy: String,
    accesses: usize,
    seed: u64,
    mattson: bool,
    min: bool,
}

fn parse_count(s: &str) -> Result<usize, String> {
    let (digits, mult) = match s.to_ascii_lowercase() {
        ref t if t.ends_with('m') => (s[..s.len() - 1].to_string(), 1_000_000),
        ref t if t.ends_with('k') => (s[..s.len() - 1].to_string(), 1_000),
        _ => (s.to_string(), 1),
    };
    digits
        .parse::<usize>()
        .map(|n| n * mult)
        .map_err(|e| format!("bad count {s:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        policy: "all".to_string(),
        accesses: 1_000_000,
        seed: 1,
        mattson: false,
        min: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--policy" => args.policy = value()?,
            "--accesses" => args.accesses = parse_count(&value()?)?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--mattson" => args.mattson = true,
            "--min" => args.min = true,
            "--help" | "-h" => return Err(
                "usage: sim-verify [--policy NAME|all] [--accesses N[k|M]] [--seed N] [--mattson] [--min]"
                    .to_string(),
            ),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.mattson {
        return mattson_check(args.seed, args.accesses);
    }
    if args.min {
        return min_check(args.seed, args.accesses);
    }
    let pairs = roster(&args.policy);
    if pairs.is_empty() {
        eprintln!(
            "no policy named {:?}; known: {}",
            args.policy,
            roster("all")
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    }

    let geom = oracle_geometry();
    let streams = workloads(args.seed, args.accesses);
    println!(
        "sim-verify: {} policy pair(s) x {} workload(s) x {} accesses (seed {})",
        pairs.len(),
        streams.len(),
        args.accesses,
        args.seed
    );

    let mut divergences = 0u32;
    for pair in &pairs {
        for (wname, stream) in &streams {
            match diff_replay(pair, geom, stream) {
                Ok(stats) => println!(
                    "  ok   {:<16} {:<14} miss ratio {:.4} ({} evictions, {} writebacks)",
                    pair.name,
                    wname,
                    stats.miss_ratio(),
                    stats.evictions,
                    stats.writebacks,
                ),
                Err(d) => {
                    divergences += 1;
                    println!("  FAIL {:<16} {:<14}", pair.name, wname);
                    println!("{d}");
                }
            }
        }
    }

    if divergences > 0 {
        eprintln!("sim-verify: {divergences} divergence(s) found");
        ExitCode::FAILURE
    } else {
        println!("sim-verify: all models agree");
        ExitCode::SUCCESS
    }
}
