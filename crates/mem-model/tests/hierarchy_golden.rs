//! Golden results of the three-level [`Hierarchy`].
//!
//! Each case runs one trace through the scaled paper hierarchy under one
//! LLC policy and compares the full [`CacheStats`] of
//! L1, L2 and the LLC, and the count of accesses each [`ServiceLevel`]
//! serviced, with values recorded before the private-level walk was
//! shared with the capture. The run resets the statistics partway (the
//! warm-up boundary) so the counters after a reset are pinned too.
//!
//! Two traces are SPEC workload models, which mostly miss L1 and L2; the
//! third mixes hot, warm and cold regions with stores so every level
//! hits, evicts and writes back. SHiP and SDBP read the access's PC, so
//! their cases also pin the context the walk hands the LLC.

use baselines::{DrripPolicy, SdbpPolicy, ShipPolicy};
use gippr::PlruPolicy;
use mem_model::{Hierarchy, HierarchyConfig, ServiceLevel};
use sim_core::{Access, CacheStats, ReplacementPolicy};
use traces::spec2006::Spec2006;

/// Accesses per run, and the access after which statistics reset.
const ACCESSES: usize = 40_000;
const WARMUP: usize = 10_000;

/// `[accesses, hits, misses, evictions, writebacks, bypasses]`.
type Stats = [u64; 6];

/// One recorded run: L1, L2 and LLC statistics after the reset, then the
/// accesses serviced by L1, L2, the LLC and memory over the whole run.
struct Golden {
    l1: Stats,
    l2: Stats,
    llc: Stats,
    serviced: [u64; 4],
}

fn stats(s: &CacheStats) -> Stats {
    [
        s.accesses,
        s.hits,
        s.misses,
        s.evictions,
        s.writebacks,
        s.bypasses,
    ]
}

/// The traces, by name: `"mix"` or a SPEC model.
const TRACES: [&str; 3] = ["403.gcc", "471.omnetpp", "mix"];
const POLICIES: [&str; 4] = ["PLRU", "DRRIP", "SHiP", "SDBP"];

fn trace(name: &str) -> Vec<Access> {
    if let Some(bench) = Spec2006::from_name(name) {
        return bench
            .workload()
            .scaled_down(5)
            .generator(0)
            .take(ACCESSES)
            .collect();
    }
    // Xorshift draws: half from 12 hot blocks (L1 holds 16 lines), a
    // third from 100 warm blocks (L2 holds 128), the rest from 4096 cold
    // blocks (the LLC holds 2048). Each region has its own PCs.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..ACCESSES as u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (region, blocks, pc) = match x % 6 {
                0..=2 => (0, 12, 0x400),
                3 | 4 => (1 << 20, 100, 0x800),
                _ => (2 << 20, 4096, 0xc00),
            };
            let addr = (region + (x >> 8) % blocks) * 64 + (x >> 40) % 64;
            let pc = pc + (x >> 50) % 4 * 8;
            let a = if i % 3 == 0 {
                Access::write(addr, pc)
            } else {
                Access::read(addr, pc)
            };
            a.with_icount_delta((i % 7) as u32 + 1)
        })
        .collect()
}

fn run(name: &str, policy: &str) -> Golden {
    let cfg = HierarchyConfig::paper_scaled(5).unwrap();
    let llc: Box<dyn ReplacementPolicy> = match policy {
        "PLRU" => Box::new(PlruPolicy::new(&cfg.llc)),
        "DRRIP" => Box::new(DrripPolicy::new(&cfg.llc).unwrap()),
        "SHiP" => Box::new(ShipPolicy::new(&cfg.llc)),
        "SDBP" => Box::new(SdbpPolicy::new(&cfg.llc)),
        other => panic!("no policy {other}"),
    };
    let mut h = Hierarchy::new(cfg, llc);
    let refs = trace(name);
    let mut serviced = [0u64; 4];
    for (i, a) in refs.iter().enumerate() {
        if i == WARMUP {
            h.reset_stats();
        }
        let level = match h.access(a) {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => 1,
            ServiceLevel::Llc => 2,
            ServiceLevel::Memory => 3,
        };
        serviced[level] += 1;
    }
    Golden {
        l1: stats(h.l1_stats()),
        l2: stats(h.l2_stats()),
        llc: stats(h.llc_stats()),
        serviced,
    }
}

/// Recorded results, in `TRACES` × `POLICIES` order.
const GOLDEN: [Golden; 12] = [
    // 403.gcc PLRU
    Golden {
        l1: [30000, 41, 29959, 29959, 9076, 0],
        l2: [39035, 9410, 29625, 29625, 9046, 0],
        llc: [38671, 27376, 11295, 11295, 5511, 0],
        serviced: [67, 457, 23261, 16215],
    },
    // 403.gcc DRRIP
    Golden {
        l1: [30000, 41, 29959, 29959, 9076, 0],
        l2: [39035, 9410, 29625, 29625, 9046, 0],
        llc: [38671, 27005, 11666, 11666, 4418, 0],
        serviced: [67, 457, 23282, 16194],
    },
    // 403.gcc SHiP
    Golden {
        l1: [30000, 41, 29959, 29959, 9076, 0],
        l2: [39035, 9410, 29625, 29625, 9046, 0],
        llc: [38671, 27666, 11005, 11005, 4234, 0],
        serviced: [67, 457, 23950, 15526],
    },
    // 403.gcc SDBP
    Golden {
        l1: [30000, 41, 29959, 29959, 9076, 0],
        l2: [39035, 9410, 29625, 29625, 9046, 0],
        llc: [38671, 27376, 11295, 11295, 5511, 0],
        serviced: [67, 457, 23261, 16215],
    },
    // 471.omnetpp PLRU
    Golden {
        l1: [30000, 18, 29982, 29982, 8968, 0],
        l2: [38950, 9084, 29866, 29866, 8961, 0],
        llc: [38827, 10879, 27948, 27948, 8724, 0],
        serviced: [24, 152, 2463, 37361],
    },
    // 471.omnetpp DRRIP
    Golden {
        l1: [30000, 18, 29982, 29982, 8968, 0],
        l2: [38950, 9084, 29866, 29866, 8961, 0],
        llc: [38827, 11910, 26917, 26917, 8890, 0],
        serviced: [24, 152, 4786, 35038],
    },
    // 471.omnetpp SHiP
    Golden {
        l1: [30000, 18, 29982, 29982, 8968, 0],
        l2: [38950, 9084, 29866, 29866, 8961, 0],
        llc: [38827, 11293, 27534, 27534, 10194, 0],
        serviced: [24, 152, 5827, 33997],
    },
    // 471.omnetpp SDBP
    Golden {
        l1: [30000, 18, 29982, 29982, 8968, 0],
        l2: [38950, 9084, 29866, 29866, 8961, 0],
        llc: [38827, 10745, 28082, 28082, 8983, 0],
        serviced: [24, 152, 2605, 37219],
    },
    // mix PLRU
    Golden {
        l1: [30000, 8769, 21231, 21231, 8602, 0],
        l2: [29833, 21289, 8544, 8544, 3794, 0],
        llc: [12338, 9634, 2704, 2037, 820, 0],
        serviced: [11819, 16993, 7094, 4094],
    },
    // mix DRRIP
    Golden {
        l1: [30000, 8769, 21231, 21231, 8602, 0],
        l2: [29833, 21289, 8544, 8544, 3794, 0],
        llc: [12338, 9482, 2856, 2189, 414, 0],
        serviced: [11819, 16993, 7045, 4143],
    },
    // mix SHiP
    Golden {
        l1: [30000, 8769, 21231, 21231, 8602, 0],
        l2: [29833, 21289, 8544, 8544, 3794, 0],
        llc: [12338, 9590, 2748, 2081, 445, 0],
        serviced: [11819, 16993, 7076, 4112],
    },
    // mix SDBP
    Golden {
        l1: [30000, 8769, 21231, 21231, 8602, 0],
        l2: [29833, 21289, 8544, 8544, 3794, 0],
        llc: [12338, 9621, 2717, 2050, 829, 0],
        serviced: [11819, 16993, 7086, 4102],
    },
];

#[test]
fn hierarchy_matches_recorded_stats() {
    let mut mismatches = Vec::new();
    for (i, (name, policy)) in TRACES
        .iter()
        .flat_map(|t| POLICIES.iter().map(move |p| (*t, *p)))
        .enumerate()
    {
        let got = run(name, policy);
        let want = &GOLDEN[i];
        if (got.l1, got.l2, got.llc, got.serviced) != (want.l1, want.l2, want.llc, want.serviced) {
            mismatches.push(format!(
                "{name} {policy}: l1 {:?} l2 {:?} llc {:?} serviced {:?}",
                got.l1, got.l2, got.llc, got.serviced
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Instructions count whole runs, across the reset.
#[test]
fn instructions_restart_at_the_reset() {
    let cfg = HierarchyConfig::paper_scaled(5).unwrap();
    let mut h = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
    let refs = trace("mix");
    h.run(refs[..WARMUP].iter().copied());
    h.reset_stats();
    h.run(refs[WARMUP..].iter().copied());
    let want: u64 = refs[WARMUP..]
        .iter()
        .map(|a| u64::from(a.icount_delta))
        .sum();
    assert_eq!(h.instructions(), want);
}
