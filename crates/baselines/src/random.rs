//! Seeded random replacement.

use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy};

/// Uniform random victim selection.
///
/// The paper's Figure 4 shows random replacement averaging 99.9 % of LRU's
/// performance — the motivating observation that LRU's intuition buys very
/// little at the LLC. The generator is a self-contained xorshift64*, so
/// runs are reproducible from the seed and the policy carries no `rand`
/// state in its hardware accounting (a real implementation would use an
/// LFSR; we count zero metadata bits per set).
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    ways: usize,
    state: u64,
}

impl RandomPolicy {
    /// Creates a random policy with a fixed default seed.
    pub fn new(geom: &CacheGeometry) -> Self {
        Self::with_seed(geom, 0x9e37_79b9_7f4a_7c15)
    }

    /// Creates a random policy with an explicit seed (must be nonzero; a
    /// zero seed is remapped to a fixed constant).
    pub fn with_seed(geom: &CacheGeometry, seed: u64) -> Self {
        RandomPolicy {
            ways: geom.ways(),
            state: if seed == 0 {
                0xdead_beef_cafe_f00d
            } else {
                seed
            },
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64* (Vigna): small, fast, good enough for victim picking.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn name(&self) -> &str {
        "Random"
    }

    fn victim(&mut self, _set: usize, _ctx: &AccessContext) -> usize {
        // `CacheGeometry` admits only power-of-two associativities, so the
        // mask draws exactly what `% ways` would, without a divide.
        (self.next() & (self.ways as u64 - 1)) as usize
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessContext) {}

    fn on_fill(&mut self, _set: usize, _way: usize, _ctx: &AccessContext) {}

    fn bits_per_set(&self) -> u64 {
        0
    }

    // The RNG word is the only state, and it is shared across sets (hence
    // the default `Global` affinity). Its 2^64 − 1 cycle means the bounded
    // checker explores a budget-truncated slice rather than closing the
    // state space — exactly what the `BoundedReport::complete` flag is for.
    fn audit_global_digest(&self) -> Vec<u8> {
        self.state.to_le_bytes().to_vec()
    }

    fn audit_invariants(&self) -> Result<(), String> {
        // xorshift64* is a bijection on nonzero words; reaching zero would
        // wedge the generator forever.
        if self.state == 0 {
            return Err("random policy RNG state collapsed to zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(4, 16, 64).unwrap()
    }

    #[test]
    fn victims_in_range_and_varied() {
        let mut p = RandomPolicy::new(&geom());
        let mut seen = [false; 16];
        for _ in 0..1000 {
            let v = p.victim(0, &AccessContext::blank());
            assert!(v < 16);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws should hit every way");
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RandomPolicy::with_seed(&geom(), 7);
        let mut b = RandomPolicy::with_seed(&geom(), 7);
        for _ in 0..50 {
            assert_eq!(
                a.victim(0, &AccessContext::blank()),
                b.victim(0, &AccessContext::blank())
            );
        }
    }

    #[test]
    fn masked_draw_equals_the_modulo_draw() {
        for ways in [1usize, 2, 4, 8, 16, 32] {
            let g = CacheGeometry::from_sets(4, ways, 64).unwrap();
            let mut p = RandomPolicy::with_seed(&g, 7);
            let mut twin = p.clone();
            for _ in 0..1000 {
                let want = (twin.next() % ways as u64) as usize;
                assert_eq!(p.victim(0, &AccessContext::blank()), want, "ways={ways}");
            }
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut p = RandomPolicy::with_seed(&geom(), 0);
        // A zero xorshift state would be stuck at zero forever.
        let first = p.victim(0, &AccessContext::blank());
        let varied = (0..100).any(|_| p.victim(0, &AccessContext::blank()) != first);
        assert!(varied);
    }

    #[test]
    fn zero_metadata() {
        assert_eq!(RandomPolicy::new(&geom()).bits_per_set(), 0);
    }
}
