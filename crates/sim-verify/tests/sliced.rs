//! Differential test for the bit-sliced kernel engine:
//! [`mem_model::replay_llc_sliced`] must reproduce the monomorphized
//! [`mem_model::replay_llc_mono`] result — every statistics field and the
//! cycle estimate, to the bit — for every roster policy that describes
//! itself as a `SliceKernel`, on every oracle workload
//! (hot_cold / scan_thrash / pointer_chase).
//!
//! The sliced engine interprets packed state (4 PLRU trees per `u64`,
//! SWAR nibble stacks and RRPV arrays, and set-dueling state beside them
//! for DIP, DRRIP and DGIPPR), so this is the roster-wide proof that the
//! packing is exact, not approximate.

use mem_model::cpi::WindowPerfModel;
use mem_model::{replay_llc, replay_llc_sliced};
use sim_core::SliceKernel;
use sim_verify::diff::{oracle_geometry, roster};
use sim_verify::workloads::workloads;

/// 1 M accesses per workload in release (the documented verification
/// depth); trimmed in debug so plain `cargo test` stays fast while still
/// covering warm-up, cold fills, and steady state.
const ACCESSES: usize = if cfg!(debug_assertions) {
    150_000
} else {
    1_000_000
};

#[test]
fn sliced_replay_matches_mono_for_qualifying_roster() {
    let geom = oracle_geometry();
    let perf = WindowPerfModel::default();
    let qualifying: Vec<_> = roster("all")
        .into_iter()
        .filter(|p| (p.optimized)(&geom).slice_kernel().is_some())
        .collect();
    // LRU, FIFO, PseudoLRU, SRRIP, GIPPR, GIPLR, RRIP-IPV, plus the duel
    // kernels of DIP, DRRIP, 2-DGIPPR and 4-DGIPPR.
    let names: Vec<&str> = qualifying.iter().map(|p| p.name).collect();
    for duel in ["dip", "drrip", "dgippr2", "dgippr4"] {
        assert!(
            names.contains(&duel),
            "{duel} must run on a duel kernel: {names:?}"
        );
    }
    assert!(names.contains(&"fifo"), "FIFO runs on a stack kernel");
    assert!(
        qualifying.len() >= 11,
        "expected the set-local and duel kernel roster, got {names:?}"
    );

    for (wname, stream) in workloads(0x51ced, ACCESSES) {
        let warmup = mem_model::llc::default_warmup(stream.len());
        for pair in &qualifying {
            let kernel = (pair.optimized)(&geom)
                .slice_kernel()
                .expect("filtered on Some");
            let sliced = replay_llc_sliced(&stream, geom, &kernel, warmup, &perf)
                .expect("oracle geometry is 16-way — every kernel supports it");
            let mono = replay_llc(&stream, geom, (pair.optimized)(&geom), warmup, &perf);
            assert_eq!(
                sliced, mono,
                "sliced engine diverged from mono for policy {} on workload {wname}",
                pair.name
            );
        }
    }
}

#[test]
fn kernels_are_advertised_only_where_they_are_exact() {
    // The sliced engine never calls back into the policy object. A
    // global-state policy may therefore only advertise a duel kernel,
    // whose leader roles, PSEL counters and bimodal tick the engine
    // carries itself; anything else global (RNG, samplers, predictors,
    // ARC's target, a bypass duel) must advertise none.
    let geom = oracle_geometry();
    for pair in roster("all") {
        let p = (pair.optimized)(&geom);
        if p.shard_affinity() == sim_core::ShardAffinity::Global {
            assert!(
                matches!(p.slice_kernel(), None | Some(SliceKernel::Duel { .. })),
                "global-state policy {} may advertise only a duel kernel",
                pair.name
            );
        }
    }
    for name in [
        "random",
        "pdp",
        "ship",
        "sdbp",
        "ehc",
        "arc",
        "brrip",
        "dgippr4-bypass",
    ] {
        let pair = roster(name)
            .pop()
            .unwrap_or_else(|| panic!("{name} is in the roster"));
        assert!(
            (pair.optimized)(&geom).slice_kernel().is_none(),
            "{name} must not advertise a slice kernel"
        );
    }
}
