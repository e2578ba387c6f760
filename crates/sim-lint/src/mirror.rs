//! A deliberately naive tree-PseudoLRU substrate.
//!
//! [`MirrorTree`] reimplements the paper's four tree algorithms (victim
//! walk, promote, position read, position write) over a `Vec<bool>` of
//! node bits — no packing, no bit tricks — as an independent second
//! implementation. The model checker's self-tests run against it, and it
//! is the one naive reference the packed trees are checked against over
//! the *complete* state space: [`mck::cross_check`](crate::mck::cross_check)
//! sweeps it against the production `gippr::PlruTree`, and `sim-core`'s
//! kernel soundness sweep checks every lane write and hit/fill transition
//! of the bit-sliced replay state against it. Together they turn the
//! differential-testing idea of `sim-verify` into a proof for the tree
//! algebra.

use crate::mck::PlruState;

/// A `Vec<bool>` tree-PLRU state for one set.
///
/// Node `i` (heap-indexed from 1, children `2i` and `2i + 1`) stores its
/// bit at `nodes[i]`; way `w`'s leaf is node `ways + w`. The canonical
/// `u64` encoding used by [`PlruState::bits`] places node `i` at bit
/// `i - 1`, matching `gippr::PlruTree::raw_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorTree {
    /// `nodes[0]` is unused padding so the heap indexing stays 1-based.
    nodes: Vec<bool>,
    ways: usize,
}

impl MirrorTree {
    /// Creates an all-zero tree.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a power of two in `2..=64`.
    pub fn new(ways: usize) -> Self {
        assert!(
            ways.is_power_of_two() && (2..=64).contains(&ways),
            "mirror tree needs a power-of-two associativity in 2..=64, got {ways}"
        );
        MirrorTree {
            nodes: vec![false; ways],
            ways,
        }
    }
}

impl PlruState for MirrorTree {
    fn from_bits(ways: usize, bits: u64) -> Self {
        let mut t = MirrorTree::new(ways);
        for node in 1..ways {
            t.nodes[node] = bits >> (node - 1) & 1 == 1;
        }
        t
    }

    fn bits(&self) -> u64 {
        let mut bits = 0u64;
        for node in 1..self.ways {
            if self.nodes[node] {
                bits |= 1 << (node - 1);
            }
        }
        bits
    }

    fn ways(&self) -> usize {
        self.ways
    }

    fn victim(&self) -> usize {
        let mut node = 1;
        while node < self.ways {
            node = 2 * node + usize::from(self.nodes[node]);
        }
        node - self.ways
    }

    fn position(&self, way: usize) -> usize {
        assert!(way < self.ways, "way {way} out of range");
        let mut node = self.ways + way;
        let mut pos = 0usize;
        let mut level = 0u32;
        while node > 1 {
            let parent = node / 2;
            let is_right = node % 2 == 1;
            // The parent's bit contributes 1 to this level iff it points
            // toward the block.
            let toward = if is_right {
                self.nodes[parent]
            } else {
                !self.nodes[parent]
            };
            if toward {
                pos |= 1 << level;
            }
            node = parent;
            level += 1;
        }
        pos
    }

    fn set_position(&mut self, way: usize, position: usize) {
        assert!(way < self.ways, "way {way} out of range");
        assert!(position < self.ways, "position {position} out of range");
        let mut node = self.ways + way;
        let mut level = 0u32;
        while node > 1 {
            let parent = node / 2;
            let is_right = node % 2 == 1;
            let toward = position >> level & 1 == 1;
            self.nodes[parent] = if is_right { toward } else { !toward };
            node = parent;
            level += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_victimizes_way_zero() {
        let t = MirrorTree::new(8);
        assert_eq!(t.victim(), 0);
        assert_eq!(t.position(0), 7, "the victim sits at the bottom");
    }

    #[test]
    fn set_position_round_trips() {
        let mut t = MirrorTree::new(16);
        for way in 0..16 {
            for pos in 0..16 {
                t.set_position(way, pos);
                assert_eq!(t.position(way), pos);
            }
        }
    }

    #[test]
    fn bits_round_trip() {
        for bits in 0..128u64 {
            let t = MirrorTree::from_bits(8, bits);
            assert_eq!(t.bits(), bits);
        }
    }

    #[test]
    fn positions_always_a_permutation() {
        for bits in 0..128u64 {
            let t = MirrorTree::from_bits(8, bits);
            let mut ps: Vec<usize> = (0..8).map(|w| t.position(w)).collect();
            ps.sort_unstable();
            assert_eq!(ps, (0..8).collect::<Vec<_>>(), "bits {bits:#b}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_bad_ways() {
        let _ = MirrorTree::new(6);
    }
}
