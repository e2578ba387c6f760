//! Exhaustive model checking of the production [`PlruTree`].
//!
//! The `sim-lint` checker is generic over its tree substrate, so these
//! tests prove the invariants — victim totality, the position↔tree
//! bijection and its write round-trip, promotion convergence from every
//! tree state — for the bit-packed tree the simulator actually ships, not
//! a model of it. Debug-profile rule sweeps stop at 8 ways to stay fast;
//! `cargo xtask model-check` runs them at 16 ways in release.

use gippr::{vectors, PlruTree};
use sim_lint::{cross_check, MirrorTree, ModelChecker, PromotionRule};

#[test]
fn plain_plru_is_clean_on_the_production_tree() {
    for ways in [2usize, 4, 8] {
        let report = ModelChecker::new(ways, PromotionRule::Plru)
            .run::<PlruTree>()
            .unwrap_or_else(|ce| panic!("counterexample at {ways} ways:\n{ce}"));
        assert_eq!(report.tree_states, 1u64 << (ways - 1));
    }
}

#[test]
fn classic_vectors_are_clean_on_the_production_tree() {
    for ways in [2usize, 4, 8] {
        // LRU: promote to MRU, insert at MRU.
        let lru = vec![0u8; ways + 1];
        // LIP: promote to MRU, insert at the victim position.
        let mut lip = vec![0u8; ways + 1];
        lip[ways] = (ways - 1) as u8;
        for ipv in [lru, lip] {
            ModelChecker::new(ways, PromotionRule::Ipv(ipv.clone()))
                .run::<PlruTree>()
                .unwrap_or_else(|ce| panic!("counterexample for {ipv:?} at {ways} ways:\n{ce}"));
        }
    }
}

#[test]
fn paper_vectors_are_clean_when_rescaled_to_8_ways() {
    // The published vectors target 16 ways; `rescaled` maps them down so
    // the debug-profile exhaustive sweep stays cheap. The 16-way originals
    // run under `cargo xtask model-check` in release.
    for ipv in [
        vectors::giplr_best(),
        vectors::wi_gippr(),
        vectors::perlbench_wn1(),
    ] {
        let small = ipv.rescaled(8).expect("16 -> 8 rescale is valid");
        ModelChecker::new(8, PromotionRule::Ipv(small.entries().to_vec()))
            .run::<PlruTree>()
            .unwrap_or_else(|ce| panic!("counterexample for {small}:\n{ce}"));
    }
}

#[test]
fn production_tree_matches_naive_mirror_exhaustively() {
    // Complete-state-space differential check: every tree state, every
    // (way, position) write, both substrates must agree bit for bit.
    for ways in [2usize, 4, 8, 16] {
        let states = cross_check::<PlruTree, MirrorTree>(ways)
            .unwrap_or_else(|ce| panic!("substrate disagreement at {ways} ways:\n{ce}"));
        assert_eq!(states, 1u64 << (ways - 1));
    }
}
