//! The exhaustive PLRU model checker.
//!
//! `sim-verify` spot-checks the simulator's invariants along whatever
//! states a replayed trace happens to visit. This module *proves* them
//! instead, by sweeping the complete state space of one set's tree: every
//! one of the `2^(k-1)` PLRU bit patterns is checked for
//!
//! * the `bits`/`from_bits` encoding round-trip,
//! * victim-selection totality (the victim walk lands on a real way
//!   sitting at position `k - 1`),
//! * the position↔tree bijection (per-way positions form a permutation of
//!   `0..k`),
//! * the position-write round-trip (`set_position` then `position` agree
//!   for every `(way, position)` pair), and
//! * *promotion convergence*: repeatedly hitting any way settles into a
//!   cycle of bounded length (a one-step fixpoint for plain PLRU; the
//!   vector's promotion orbit for an IPV).
//!
//! Every state a cache set can reach is one of these bit patterns, and no
//! invariant above consults the valid mask (positions are defined for
//! invalid ways too, and filling consults only the mask until the set is
//! full), so the sweep covers every reachable state and every way of it.
//!
//! The checker is generic over [`PlruState`] so the production
//! `gippr::PlruTree` — not a model of it — is the object being checked;
//! [`MirrorTree`](crate::mirror::MirrorTree) exists to check the checker.

use std::fmt;

/// One set's worth of PLRU replacement state, as the checker drives it.
///
/// `bits` is the canonical `u64` encoding (node `i` of the heap-indexed
/// tree at bit `i - 1`); two substrates agree on a state iff their `bits`
/// agree, which is what lets the checker cross-check implementations.
pub trait PlruState: Clone {
    /// Reconstructs a state from its canonical encoding.
    fn from_bits(ways: usize, bits: u64) -> Self;
    /// The canonical encoding of this state.
    fn bits(&self) -> u64;
    /// Associativity.
    fn ways(&self) -> usize;
    /// The way the victim walk selects.
    fn victim(&self) -> usize;
    /// `way`'s pseudo recency position (0 = MRU, `ways - 1` = victim).
    fn position(&self, way: usize) -> usize;
    /// Rewrites `way`'s root-to-leaf path so it occupies `position`.
    fn set_position(&mut self, way: usize, position: usize);
}

/// How hits and fills drive the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromotionRule {
    /// Plain tree PseudoLRU: promote to pseudo-MRU on hit and fill.
    Plru,
    /// GIPPR: an insertion/promotion vector `V[0..=k]` — a hit at
    /// position `p` rewrites to `V[p]`, a fill lands at `V[k]`.
    Ipv(Vec<u8>),
}

impl PromotionRule {
    /// A short display name for reports.
    pub fn name(&self) -> String {
        match self {
            PromotionRule::Plru => "plru".to_string(),
            PromotionRule::Ipv(v) => format!("ipv{v:?}"),
        }
    }

    fn on_hit<S: PlruState>(&self, state: &mut S, way: usize) {
        match self {
            PromotionRule::Plru => state.set_position(way, 0),
            PromotionRule::Ipv(v) => {
                let p = state.position(way);
                state.set_position(way, usize::from(v[p]));
            }
        }
    }
}

/// A violated invariant and the tree state that witnesses it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Associativity being checked.
    pub ways: usize,
    /// The promotion rule in force.
    pub rule: String,
    /// Which invariant broke.
    pub invariant: String,
    /// Tree bits of the offending state.
    pub state_bits: u64,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated at {} ways (rule {}): bits {:#b}",
            self.invariant, self.ways, self.rule, self.state_bits
        )
    }
}

/// Statistics from a successful check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Associativity checked.
    pub ways: usize,
    /// Tree states swept exhaustively (`2^(ways-1)`).
    pub tree_states: u64,
}

/// The exhaustive checker for one `(ways, rule)` configuration.
#[derive(Debug, Clone)]
pub struct ModelChecker {
    ways: usize,
    rule: PromotionRule,
}

/// Longest hit orbit tolerated before declaring non-convergence. The
/// promotion orbit of a `k`-entry vector has preperiod + period ≤ `k`
/// tree-position steps; double it for slack.
fn orbit_bound(ways: usize) -> usize {
    2 * ways + 2
}

impl ModelChecker {
    /// Creates a checker.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a power of two in `2..=16` (the exhaustive
    /// sweep is `2^(ways-1)` states; wider trees need a different
    /// strategy), or if an [`PromotionRule::Ipv`] rule's length is not
    /// `ways + 1` or holds an out-of-range entry.
    pub fn new(ways: usize, rule: PromotionRule) -> Self {
        assert!(
            ways.is_power_of_two() && (2..=16).contains(&ways),
            "model checker sweeps ways 2..=16, got {ways}"
        );
        if let PromotionRule::Ipv(v) = &rule {
            assert_eq!(v.len(), ways + 1, "IPV length must be ways + 1");
            assert!(
                v.iter().all(|&e| usize::from(e) < ways),
                "IPV entry out of range for {ways} ways"
            );
        }
        ModelChecker { ways, rule }
    }

    /// Associativity this checker covers.
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn fail(&self, invariant: &str, bits: u64) -> Box<Counterexample> {
        Box::new(Counterexample {
            ways: self.ways,
            rule: self.rule.name(),
            invariant: invariant.to_string(),
            state_bits: bits,
        })
    }

    /// Sweeps every tree bit pattern of substrate `S`.
    ///
    /// # Errors
    ///
    /// Returns the first [`Counterexample`] found, in ascending order of
    /// tree bits.
    pub fn run<S: PlruState>(&self) -> Result<CheckReport, Box<Counterexample>> {
        let k = self.ways;
        let tree_states = 1u64 << (k - 1);
        // converged[bits * k + way]: the hit orbit of `way` from `bits` is
        // proven to settle. Every state along a proven orbit is itself
        // proven, so total orbit work is linear in `(state, way)` pairs.
        let mut converged = vec![false; tree_states as usize * k];
        for bits in 0..tree_states {
            let s = S::from_bits(k, bits);
            if s.bits() != bits {
                return Err(self.fail("bits/from_bits round-trip", bits));
            }
            self.check_victim_and_bijection(&s, bits)?;
            for way in 0..k {
                for pos in 0..k {
                    let mut t = s.clone();
                    t.set_position(way, pos);
                    if t.position(way) != pos {
                        return Err(
                            self.fail(&format!("position round-trip (way {way}, pos {pos})"), bits)
                        );
                    }
                }
                self.check_convergence(&s, bits, way, &mut converged)?;
            }
        }
        Ok(CheckReport {
            ways: k,
            tree_states,
        })
    }

    fn check_victim_and_bijection<S: PlruState>(
        &self,
        s: &S,
        bits: u64,
    ) -> Result<(), Box<Counterexample>> {
        let k = self.ways;
        let v = s.victim();
        if v >= k {
            return Err(self.fail("victim totality", bits));
        }
        if s.position(v) != k - 1 {
            return Err(self.fail("victim at position k-1", bits));
        }
        let mut seen = 0u64;
        for w in 0..k {
            let p = s.position(w);
            if p >= k || seen & (1 << p) != 0 {
                return Err(self.fail("position bijection", bits));
            }
            seen |= 1 << p;
        }
        Ok(())
    }

    /// Proves that repeatedly hitting `way` from `s` settles into a
    /// bounded cycle (and, for plain PLRU, a one-step fixpoint).
    fn check_convergence<S: PlruState>(
        &self,
        s: &S,
        bits: u64,
        way: usize,
        converged: &mut [bool],
    ) -> Result<(), Box<Counterexample>> {
        let k = self.ways;
        let proven = |b: u64| b as usize * k + way;
        if converged[proven(bits)] {
            return Ok(());
        }
        let mut t = s.clone();
        let mut path = vec![bits];
        let mut settled = false;
        for step in 0..orbit_bound(k) {
            self.rule.on_hit(&mut t, way);
            let b = t.bits();
            if matches!(self.rule, PromotionRule::Plru) && step == 1 && b != path[1] {
                return Err(self.fail("plru promotion fixpoint", bits));
            }
            if converged[proven(b)] || path.contains(&b) {
                settled = true;
                break;
            }
            path.push(b);
        }
        if !settled {
            return Err(self.fail(&format!("promotion convergence (way {way})"), bits));
        }
        for b in path {
            converged[proven(b)] = true;
        }
        Ok(())
    }
}

/// Sweeps two substrates over the complete tree space and every
/// `(way, position)` write, returning the number of states compared or
/// the first disagreement. This is the exhaustive version of the
/// `sim-verify` PLRU differential pair.
///
/// # Errors
///
/// Returns a [`Counterexample`] naming the disagreeing operation.
pub fn cross_check<A: PlruState, B: PlruState>(ways: usize) -> Result<u64, Box<Counterexample>> {
    assert!(
        ways.is_power_of_two() && (2..=16).contains(&ways),
        "cross-check sweeps ways 2..=16, got {ways}"
    );
    let fail = |invariant: String, bits: u64| {
        Box::new(Counterexample {
            ways,
            rule: "cross-check".to_string(),
            invariant,
            state_bits: bits,
        })
    };
    for bits in 0..(1u64 << (ways - 1)) {
        let a = A::from_bits(ways, bits);
        let b = B::from_bits(ways, bits);
        if a.victim() != b.victim() {
            return Err(fail(
                format!("victim {} vs {}", a.victim(), b.victim()),
                bits,
            ));
        }
        for w in 0..ways {
            if a.position(w) != b.position(w) {
                return Err(fail(format!("position(way {w})"), bits));
            }
            for p in 0..ways {
                let mut ta = a.clone();
                let mut tb = b.clone();
                ta.set_position(w, p);
                tb.set_position(w, p);
                if ta.bits() != tb.bits() {
                    return Err(fail(format!("set_position(way {w}, pos {p})"), bits));
                }
            }
        }
    }
    Ok(1u64 << (ways - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::MirrorTree;

    #[test]
    fn plru_clean_up_to_8_ways() {
        for ways in [2usize, 4, 8] {
            let report = ModelChecker::new(ways, PromotionRule::Plru)
                .run::<MirrorTree>()
                .unwrap_or_else(|c| panic!("{c}"));
            assert_eq!(report.tree_states, 1 << (ways - 1));
        }
    }

    #[test]
    fn lip_vector_clean_on_mirror() {
        for ways in [2usize, 4, 8] {
            let mut v = vec![0u8; ways + 1];
            v[ways] = (ways - 1) as u8;
            ModelChecker::new(ways, PromotionRule::Ipv(v))
                .run::<MirrorTree>()
                .unwrap_or_else(|c| panic!("{c}"));
        }
    }

    #[test]
    fn oscillating_vector_still_converges_to_a_cycle() {
        // V[0] = 2, V[2] = 0 oscillates — a cycle, not a fixpoint, which
        // the convergence invariant (bounded cycle) accepts for IPVs.
        let v = vec![2u8, 1, 0, 3, 0];
        ModelChecker::new(4, PromotionRule::Ipv(v))
            .run::<MirrorTree>()
            .unwrap_or_else(|c| panic!("{c}"));
    }

    /// A substrate with a broken victim walk, to prove the checker sees it.
    #[derive(Clone)]
    struct BrokenVictim(MirrorTree);

    impl PlruState for BrokenVictim {
        fn from_bits(ways: usize, bits: u64) -> Self {
            BrokenVictim(MirrorTree::from_bits(ways, bits))
        }
        fn bits(&self) -> u64 {
            self.0.bits()
        }
        fn ways(&self) -> usize {
            self.0.ways()
        }
        fn victim(&self) -> usize {
            // Always way 0, regardless of the tree: wrong whenever the
            // tree points elsewhere.
            0
        }
        fn position(&self, way: usize) -> usize {
            self.0.position(way)
        }
        fn set_position(&mut self, way: usize, position: usize) {
            self.0.set_position(way, position);
        }
    }

    #[test]
    fn broken_victim_is_caught_with_counterexample() {
        let err = ModelChecker::new(4, PromotionRule::Plru)
            .run::<BrokenVictim>()
            .expect_err("broken substrate must fail");
        assert!(err.invariant.contains("victim"), "{err}");
        assert!(!err.to_string().is_empty());
    }

    /// A substrate whose position write is off by one in the write path.
    #[derive(Clone)]
    struct BrokenWrite(MirrorTree);

    impl PlruState for BrokenWrite {
        fn from_bits(ways: usize, bits: u64) -> Self {
            BrokenWrite(MirrorTree::from_bits(ways, bits))
        }
        fn bits(&self) -> u64 {
            self.0.bits()
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
            // Drops the low position bit: Multi-step-LRU-style compact
            // encoding bug that trace tests rarely trip.
            self.0.set_position(way, position & !1);
        }
    }

    #[test]
    fn broken_write_is_caught_in_tree_sweep() {
        let err = ModelChecker::new(8, PromotionRule::Plru)
            .run::<BrokenWrite>()
            .expect_err("broken write must fail");
        assert!(err.invariant.contains("round-trip"), "{err}");
    }

    /// A substrate whose every position write also counts up in the tree
    /// bits off the written way's path. Each write still lands (positions
    /// round-trip, and victim and bijection hold in every state), but a
    /// way's hit orbit never revisits a state: at 16 ways its 11 off-path
    /// bits cycle only after 2048 hits.
    #[derive(Clone)]
    struct DriftingWrite(MirrorTree);

    impl PlruState for DriftingWrite {
        fn from_bits(ways: usize, bits: u64) -> Self {
            DriftingWrite(MirrorTree::from_bits(ways, bits))
        }
        fn bits(&self) -> u64 {
            self.0.bits()
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
            let bits = self.0.bits();
            let off_path = ((1u64 << (ways - 1)) - 1) & !path;
            let next = ((bits | path) + 1) & off_path | (bits & path);
            self.0 = MirrorTree::from_bits(ways, next);
        }
    }

    #[test]
    fn drifting_hit_orbit_is_caught_by_convergence() {
        // An IPV rule: plain PLRU would trip its one-step fixpoint first.
        let err = ModelChecker::new(16, PromotionRule::Ipv(vec![0; 17]))
            .run::<DriftingWrite>()
            .expect_err("a drifting orbit must fail");
        assert!(err.invariant.contains("promotion convergence"), "{err}");
        assert_eq!(err.state_bits, 0, "the first state already drifts");
    }

    #[test]
    fn seeded_poison_state_is_caught() {
        /// Misbehaves only in one specific tree state, which the
        /// exhaustive sweep must reach and report by its bits.
        #[derive(Clone)]
        struct TrickyTree {
            inner: MirrorTree,
            poisoned: bool,
        }
        impl PlruState for TrickyTree {
            fn from_bits(ways: usize, bits: u64) -> Self {
                TrickyTree {
                    inner: MirrorTree::from_bits(ways, bits),
                    // Bit pattern 0b11 marks the poisoned state for 4
                    // ways.
                    poisoned: bits == 0b011,
                }
            }
            fn bits(&self) -> u64 {
                self.inner.bits()
            }
            fn ways(&self) -> usize {
                self.inner.ways()
            }
            fn victim(&self) -> usize {
                if self.poisoned {
                    self.inner.ways() // out of range
                } else {
                    self.inner.victim()
                }
            }
            fn position(&self, way: usize) -> usize {
                self.inner.position(way)
            }
            fn set_position(&mut self, way: usize, position: usize) {
                self.inner.set_position(way, position);
            }
        }

        // The sweep indexes the poisoned bits directly; make sure the
        // counterexample names them.
        let err = ModelChecker::new(4, PromotionRule::Plru)
            .run::<TrickyTree>()
            .expect_err("poisoned tree must fail");
        assert_eq!(err.state_bits, 0b011);
        assert!(err.invariant.contains("victim"));
    }

    #[test]
    fn mirror_cross_checks_against_itself() {
        for ways in [2usize, 4, 8] {
            let states = cross_check::<MirrorTree, MirrorTree>(ways).unwrap();
            assert_eq!(states, 1 << (ways - 1));
        }
    }

    #[test]
    fn cross_check_catches_disagreement() {
        let err = cross_check::<MirrorTree, BrokenWrite>(4).expect_err("must disagree");
        assert!(err.invariant.contains("set_position"), "{err}");
    }

    #[test]
    fn rejects_bad_configs() {
        let caught = std::panic::catch_unwind(|| ModelChecker::new(32, PromotionRule::Plru));
        assert!(caught.is_err(), "ways 32 exceeds the sweepable range");
        let caught =
            std::panic::catch_unwind(|| ModelChecker::new(4, PromotionRule::Ipv(vec![0; 3])));
        assert!(caught.is_err(), "short vector must be rejected");
    }

    #[test]
    fn report_fields_are_plausible() {
        let r = ModelChecker::new(4, PromotionRule::Plru)
            .run::<MirrorTree>()
            .unwrap();
        assert_eq!(r.ways, 4);
        assert_eq!(r.tree_states, 8);
    }
}
