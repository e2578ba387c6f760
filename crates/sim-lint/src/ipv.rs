//! The IPV static analyzer.
//!
//! An insertion/promotion vector `V[0..=k]` for a `k`-way set fully
//! determines — with no workload in sight — which recency positions a block
//! can ever occupy, which positions shelter a block from eviction pressure,
//! and whether the vector is degenerate (no block can ever reach pseudo-MRU,
//! the paper's footnote-1 pathology). This module decides all of that by
//! fixed-point iteration over the vector's single-step transition relation.
//!
//! # Transition semantics
//!
//! The analysis tracks one block's position `p` under the paper's
//! Section 2.3 true-LRU shifting semantics. One event moves it:
//!
//! * **self-hit** — the block is referenced: `p → V[p]`.
//! * **foreign hit at `q ≠ p`** — the block at `q` moves to `V[q]`,
//!   shifting the interval between: if `V[q] < q`, occupants of
//!   `[V[q], q)` slide down (`p → p + 1`); if `V[q] > q`, occupants of
//!   `(q, V[q]]` slide up (`p → p - 1`).
//! * **insertion** — a miss inserts a new block at `V[k]`, sliding
//!   occupants of `[V[k], k-1)` down one; the previous occupant of
//!   `k - 1` is evicted.
//!
//! These are exactly the edges `gippr::Ipv::is_degenerate` walks; the
//! analyzer generalizes that single reachability query into the full
//! report and is the one implementation both `gippr` and `evolve` consult.

use std::error::Error;
use std::fmt;

/// Widest associativity the analyzer supports (positions fit a `u64` set).
pub const MAX_ASSOC: usize = 64;

/// A structural error that makes `entries` not an IPV at all.
///
/// Contrast with [`IpvLint`]: an error means the vector cannot drive a
/// cache; a lint flags a well-formed vector with notable behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpvLintError {
    /// Fewer than 3 entries (a 2-way vector is the smallest meaningful one)
    /// or more than [`MAX_ASSOC`] + 1.
    WrongShape(usize),
    /// Entry `index` holds `value`, outside `0..assoc`.
    PositionOutOfRange {
        /// Index of the offending entry.
        index: usize,
        /// The offending value.
        value: u8,
        /// Exclusive position bound (the associativity).
        assoc: usize,
    },
}

impl fmt::Display for IpvLintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpvLintError::WrongShape(n) => {
                write!(f, "IPV needs 3..={} entries, got {n}", MAX_ASSOC + 1)
            }
            IpvLintError::PositionOutOfRange {
                index,
                value,
                assoc,
            } => write!(f, "IPV entry {index} is {value}, outside 0..{assoc}"),
        }
    }
}

impl Error for IpvLintError {}

/// A statically detected behavioural property worth flagging.
///
/// Lints are advisory: several published paper vectors trip them by
/// design (the genetic algorithm found demotion and oscillation useful),
/// so callers decide which lints are acceptable in which context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpvLint {
    /// `V[i] > i`: a hit *demotes* the block toward the victim position,
    /// violating the classic promotion constraint `V[i] ≤ i`. Legal — the
    /// paper's evolved vectors use pessimistic promotion deliberately —
    /// but a red flag in a hand-written vector.
    DemotesOnHit {
        /// The hit position `i`.
        index: usize,
        /// Its demotion target `V[i]`.
        target: usize,
    },
    /// The insertion position is `k - 1`: every incoming block lands on
    /// the victim position and is evicted by the next miss unless it hits
    /// first (LIP-style; intentional for scan resistance).
    InsertsAtVictim,
    /// Positions no block can ever occupy. Dead positions waste encoding
    /// space and usually indicate a vector that behaves like a
    /// lower-associativity one.
    DeadPositions(
        /// The unreachable positions, ascending.
        Vec<usize>,
    ),
    /// Repeated hits starting from some reachable position never settle:
    /// the promotion orbit enters a cycle of length ≥ 2 instead of a
    /// fixpoint (`V[p] = p` or the MRU self-loop).
    OscillatingPromotion {
        /// A reachable position whose orbit oscillates.
        start: usize,
        /// The positions of the cycle, in orbit order.
        cycle: Vec<usize>,
    },
    /// Pseudo-MRU (position 0) is unreachable from the insertion
    /// position: the paper's footnote-1 degeneracy. The fatal lint — the
    /// vector cannot express any recency ordering worth evaluating.
    UnreachableMru,
}

impl fmt::Display for IpvLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpvLint::DemotesOnHit { index, target } => {
                write!(f, "hit at position {index} demotes to {target}")
            }
            IpvLint::InsertsAtVictim => write!(f, "inserts at the victim position"),
            IpvLint::DeadPositions(ps) => write!(f, "unreachable positions {ps:?}"),
            IpvLint::OscillatingPromotion { start, cycle } => {
                write!(
                    f,
                    "promotion orbit from {start} oscillates through {cycle:?}"
                )
            }
            IpvLint::UnreachableMru => write!(f, "pseudo-MRU unreachable (degenerate)"),
        }
    }
}

/// The behavioural class of a vector, decided statically.
///
/// Precedence when several descriptions fit:
/// [`Degenerate`](IpvClass::Degenerate) >
/// [`Protective`](IpvClass::Protective) >
/// [`ThrashResistant`](IpvClass::ThrashResistant) >
/// [`LruLike`](IpvClass::LruLike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpvClass {
    /// Pseudo-MRU is unreachable; no recency ordering can form.
    Degenerate,
    /// Some reachable position is *protected*: no foreign hit or
    /// insertion can push a block out of it, so a resident block survives
    /// arbitrary eviction pressure until its own next hit moves it.
    Protective,
    /// Insertion lands in the lower half of the stack (`V[k] ≥ k / 2`):
    /// incoming blocks must earn promotion before displacing the working
    /// set, the LIP-style scan-resistance mechanism.
    ThrashResistant,
    /// Insertion and promotion both work the upper stack; behaviour is
    /// recency-dominated like classic LRU.
    LruLike,
}

impl fmt::Display for IpvClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IpvClass::Degenerate => "degenerate",
            IpvClass::Protective => "protective",
            IpvClass::ThrashResistant => "thrash-resistant",
            IpvClass::LruLike => "LRU-like",
        };
        f.write_str(s)
    }
}

/// The full static report for one vector. Built by [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpvAnalysis {
    assoc: usize,
    entries: Vec<u8>,
    reachable: u64,
    protected: u64,
    lints: Vec<IpvLint>,
    class: IpvClass,
}

/// Analyzes raw vector entries `V[0..=k]` (`k = entries.len() - 1`).
///
/// Works on raw bytes rather than a policy type so the analyzer sits below
/// every simulator crate in the dependency graph; `gippr::Ipv` guarantees
/// the same invariants this function re-checks.
///
/// # Errors
///
/// Returns [`IpvLintError`] if the shape or any entry makes `entries` not
/// an IPV. Behavioural findings are never errors — they land in
/// [`IpvAnalysis::lints`].
pub fn analyze(entries: &[u8]) -> Result<IpvAnalysis, IpvLintError> {
    if entries.len() < 3 || entries.len() > MAX_ASSOC + 1 {
        return Err(IpvLintError::WrongShape(entries.len()));
    }
    let assoc = entries.len() - 1;
    if let Some((index, &value)) = entries
        .iter()
        .enumerate()
        .find(|(_, &v)| usize::from(v) >= assoc)
    {
        return Err(IpvLintError::PositionOutOfRange {
            index,
            value,
            assoc,
        });
    }

    let v = |i: usize| usize::from(entries[i]);
    let ins = v(assoc);
    let reachable = reachable_fixed_point(entries);
    let protected = protected_mask(entries);

    let mut lints = Vec::new();
    for i in 0..assoc {
        if v(i) > i {
            lints.push(IpvLint::DemotesOnHit {
                index: i,
                target: v(i),
            });
        }
    }
    if ins == assoc - 1 {
        lints.push(IpvLint::InsertsAtVictim);
    }
    let dead: Vec<usize> = (0..assoc).filter(|&p| reachable & (1 << p) == 0).collect();
    if !dead.is_empty() {
        lints.push(IpvLint::DeadPositions(dead));
    }
    for p in 0..assoc {
        if reachable & (1 << p) == 0 {
            continue;
        }
        if let Some(cycle) = oscillation(entries, p) {
            lints.push(IpvLint::OscillatingPromotion { start: p, cycle });
            break; // one witness is enough; orbits overlap heavily
        }
    }
    let degenerate = reachable & 1 == 0;
    if degenerate {
        lints.push(IpvLint::UnreachableMru);
    }

    let class = if degenerate {
        IpvClass::Degenerate
    } else if (0..assoc - 1).any(|p| reachable & protected & (1 << p) != 0) {
        IpvClass::Protective
    } else if ins >= assoc / 2 {
        IpvClass::ThrashResistant
    } else {
        IpvClass::LruLike
    };

    Ok(IpvAnalysis {
        assoc,
        entries: entries.to_vec(),
        reachable,
        protected,
        lints,
        class,
    })
}

/// Closes `{V[k]}` under the single-step transition relation by iterating
/// to a fixed point. Terminates in at most `k` rounds: the reachable set
/// only grows and has at most `k` members.
fn reachable_fixed_point(entries: &[u8]) -> u64 {
    let assoc = entries.len() - 1;
    let v = |i: usize| usize::from(entries[i]);
    let ins = v(assoc);
    let mut reach: u64 = 1 << ins;
    loop {
        let mut next = reach;
        for p in 0..assoc {
            if reach & (1 << p) == 0 {
                continue;
            }
            // Self-hit.
            next |= 1 << v(p);
            // Foreign hit at q: shifts p by one if p lies in the moved
            // interval.
            for q in 0..assoc {
                if q == p {
                    continue;
                }
                let t = v(q);
                if t < q && t <= p && p < q {
                    next |= 1 << (p + 1);
                }
                if t > q && q < p && p <= t {
                    next |= 1 << (p - 1);
                }
            }
            // Insertion slides [ins, k-1) down one.
            if p >= ins && p < assoc - 1 {
                next |= 1 << (p + 1);
            }
        }
        if next == reach {
            return reach;
        }
        reach = next;
    }
}

/// Positions no *foreign* event can push toward the victim: `p` is
/// protected iff the insertion point lies strictly below it (`p < V[k]`)
/// and no hit interval `[V[q], q)` with `V[q] < q` covers it. The victim
/// position `k - 1` is never protected. A block in a protected position
/// can still demote itself via its own hit when `V[p] > p`.
fn protected_mask(entries: &[u8]) -> u64 {
    let assoc = entries.len() - 1;
    let v = |i: usize| usize::from(entries[i]);
    let ins = v(assoc);
    let mut mask = 0u64;
    'pos: for p in 0..assoc - 1 {
        if p >= ins {
            continue;
        }
        for q in 0..assoc {
            let t = v(q);
            if t < q && t <= p && p < q {
                continue 'pos;
            }
        }
        mask |= 1 << p;
    }
    mask
}

/// Follows the promotion orbit `p → V[p] → V[V[p]] → …`. Returns the
/// cycle it enters if that cycle has length ≥ 2 (oscillation), `None` if
/// the orbit reaches a fixpoint `V[t] = t`.
fn oscillation(entries: &[u8], start: usize) -> Option<Vec<usize>> {
    let assoc = entries.len() - 1;
    let v = |i: usize| usize::from(entries[i]);
    let mut seen = vec![usize::MAX; assoc];
    let mut t = start;
    let mut step = 0usize;
    while seen[t] == usize::MAX {
        seen[t] = step;
        step += 1;
        t = v(t);
    }
    if v(t) == t {
        return None;
    }
    let mut cycle = vec![t];
    let mut u = v(t);
    while u != t {
        cycle.push(u);
        u = v(u);
    }
    Some(cycle)
}

impl IpvAnalysis {
    /// Associativity `k` of the analyzed vector.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The analyzed entries, `V[0..=k]`.
    pub fn entries(&self) -> &[u8] {
        &self.entries
    }

    /// The insertion position `V[k]`.
    pub fn insertion(&self) -> usize {
        usize::from(self.entries[self.assoc])
    }

    /// Reachable positions, ascending.
    pub fn reachable_positions(&self) -> Vec<usize> {
        (0..self.assoc)
            .filter(|&p| self.reachable & (1 << p) != 0)
            .collect()
    }

    /// Positions no block can ever occupy, ascending.
    pub fn dead_positions(&self) -> Vec<usize> {
        (0..self.assoc)
            .filter(|&p| self.reachable & (1 << p) == 0)
            .collect()
    }

    /// Protected positions (see [`IpvClass::Protective`]), ascending.
    pub fn protected_positions(&self) -> Vec<usize> {
        (0..self.assoc)
            .filter(|&p| self.protected & (1 << p) != 0)
            .collect()
    }

    /// Whether pseudo-MRU is unreachable (the paper's footnote-1 check).
    pub fn is_degenerate(&self) -> bool {
        self.reachable & 1 == 0
    }

    /// Whether every reachable promotion orbit settles at a fixpoint.
    pub fn converges_to_fixpoint(&self) -> bool {
        !self
            .lints
            .iter()
            .any(|l| matches!(l, IpvLint::OscillatingPromotion { .. }))
    }

    /// All advisory lints, in detection order.
    pub fn lints(&self) -> &[IpvLint] {
        &self.lints
    }

    /// The behavioural classification.
    pub fn class(&self) -> IpvClass {
        self.class
    }
}

impl fmt::Display for IpvAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-way {}: insert@{}, {} reachable, {} dead, {} protected, {} lint(s)",
            self.assoc,
            self.class,
            self.insertion(),
            self.reachable_positions().len(),
            self.dead_positions().len(),
            self.protected_positions().len(),
            self.lints.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(k: usize) -> Vec<u8> {
        vec![0; k + 1]
    }

    fn lip(k: usize) -> Vec<u8> {
        let mut v = vec![0u8; k + 1];
        v[k] = (k - 1) as u8;
        v
    }

    #[test]
    fn rejects_malformed_vectors() {
        assert_eq!(analyze(&[0, 0]), Err(IpvLintError::WrongShape(2)));
        assert_eq!(analyze(&[0; 70]), Err(IpvLintError::WrongShape(70)));
        assert_eq!(
            analyze(&[0, 4, 0, 0, 1]),
            Err(IpvLintError::PositionOutOfRange {
                index: 1,
                value: 4,
                assoc: 4
            })
        );
    }

    #[test]
    fn lru_is_lru_like_and_clean() {
        let a = analyze(&lru(16)).unwrap();
        assert_eq!(a.class(), IpvClass::LruLike);
        assert!(a.lints().is_empty(), "{:?}", a.lints());
        assert_eq!(a.reachable_positions(), (0..16).collect::<Vec<_>>());
        assert!(a.protected_positions().is_empty());
        assert!(a.converges_to_fixpoint());
    }

    #[test]
    fn lip_is_thrash_resistant() {
        let a = analyze(&lip(16)).unwrap();
        assert_eq!(a.class(), IpvClass::ThrashResistant);
        assert!(a.lints().contains(&IpvLint::InsertsAtVictim));
        assert!(!a.is_degenerate());
    }

    #[test]
    fn identity_promotions_with_lru_insertion_are_degenerate() {
        // V[i] = i, insert at k-1: hits never move anything, insertions
        // only refill k-1. Nothing ever climbs.
        let mut v: Vec<u8> = (0..16).collect();
        v.push(15);
        let a = analyze(&v).unwrap();
        assert_eq!(a.class(), IpvClass::Degenerate);
        assert!(a.is_degenerate());
        assert!(a.lints().contains(&IpvLint::UnreachableMru));
        assert_eq!(a.reachable_positions(), vec![15]);
        assert_eq!(a.dead_positions(), (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn protective_vector_detected() {
        // 4-way: V = [1, 1, 1, 1 | 1]. Position 0 is reachable (a hit on
        // the MRU block demotes it to 1, pulling the position-1 block up)
        // and protected (no foreign hit interval or insertion covers 0).
        let a = analyze(&[1, 1, 1, 1, 1]).unwrap();
        assert_eq!(a.class(), IpvClass::Protective);
        assert_eq!(a.protected_positions(), vec![0]);
        assert!(a.reachable_positions().contains(&0));
    }

    #[test]
    fn demotion_lint_fires() {
        let a = analyze(&[0, 0, 3, 0, 0]).unwrap();
        assert!(a.lints().iter().any(|l| matches!(
            l,
            IpvLint::DemotesOnHit {
                index: 2,
                target: 3
            }
        )));
    }

    #[test]
    fn oscillating_orbit_detected() {
        // V[0] = 2, V[2] = 0: repeated hits bounce between 0 and 2.
        let a = analyze(&[2, 1, 0, 3, 0]).unwrap();
        assert!(!a.converges_to_fixpoint());
        let osc = a
            .lints()
            .iter()
            .find_map(|l| match l {
                IpvLint::OscillatingPromotion { cycle, .. } => Some(cycle.clone()),
                _ => None,
            })
            .expect("oscillation lint");
        let mut sorted = osc;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2]);
    }

    #[test]
    fn two_way_vectors_work() {
        let a = analyze(&[0, 0, 1]).unwrap();
        assert_eq!(a.assoc(), 2);
        assert!(!a.is_degenerate());
        assert_eq!(a.class(), IpvClass::ThrashResistant, "ins 1 >= 2/2");
    }

    #[test]
    fn dead_positions_reported() {
        // 4-way, insert at 0, promote everything to 0: only shifts move
        // blocks down, so all positions are reachable. Contrast with
        // insert at 2, V[i] = min(i, 2)-ish shapes that strand position 0.
        let all = analyze(&lru(4)).unwrap();
        assert!(all.dead_positions().is_empty());
        // V = [0, 1, 2, 3 | 3]: degenerate with dead 0..3.
        let a = analyze(&[0, 1, 2, 3, 3]).unwrap();
        assert_eq!(a.dead_positions(), vec![0, 1, 2]);
    }

    #[test]
    fn display_summary_mentions_class() {
        let a = analyze(&lip(8)).unwrap();
        let s = a.to_string();
        assert!(s.contains("thrash-resistant"), "{s}");
        assert!(!IpvLint::InsertsAtVictim.to_string().is_empty());
        assert!(!IpvClass::Degenerate.to_string().is_empty());
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!IpvLintError::WrongShape(1).to_string().is_empty());
        let e = IpvLintError::PositionOutOfRange {
            index: 0,
            value: 9,
            assoc: 4,
        };
        assert!(!e.to_string().is_empty());
    }
}
