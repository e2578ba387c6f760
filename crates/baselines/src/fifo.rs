//! First-in-first-out replacement.

use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy, ShardAffinity, SliceKernel};

/// FIFO: evict the block that was *filled* longest ago, ignoring hits.
///
/// One of the classic policies "known for over 45 years" (Denning); kept as
/// an ablation baseline to separate the value of recency tracking (LRU vs.
/// FIFO) from the value of insertion/promotion flexibility (GIPPR vs.
/// PLRU). Cost: a `log2 k`-bit round-robin pointer per set.
///
/// The packed replay engine runs it as a recency stack that ignores hits
/// (see [`FifoPolicy::slice_kernel`](ReplacementPolicy::slice_kernel)).
#[derive(Debug, Clone)]
pub struct FifoPolicy {
    ways: usize,
    next: Vec<u8>,
}

impl FifoPolicy {
    /// Creates a FIFO policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        FifoPolicy {
            ways: geom.ways(),
            next: vec![0; geom.sets()],
        }
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        usize::from(self.next[set])
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessContext) {}

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        // Advance the pointer only when the fill consumed the pointed-to
        // way (cold fills into invalid ways land in way order and keep the
        // FIFO order intact).
        if usize::from(self.next[set]) == way {
            self.next[set] = ((way + 1) % self.ways) as u8;
        }
    }

    fn bits_per_set(&self) -> u64 {
        u64::from(self.ways.trailing_zeros())
    }

    // All state is the per-set `next` pointer.
    fn shard_affinity(&self) -> ShardAffinity {
        ShardAffinity::SetLocal
    }

    /// A stack IPV that leaves a hit where it is (`V[p] = p`) and inserts
    /// at the top (`V[k] = 0`), so stack order is fill order and the
    /// victim at the bottom is the oldest fill. That is the round-robin
    /// pointer exactly: the kernel starts each set at the identity stack
    /// (way `p` at position `p`) and the cache fills the first invalid
    /// way, so cold fills land in way order and leave way 0 at the bottom
    /// of a full set, where the pointer has wrapped back to 0.
    fn slice_kernel(&self) -> Option<SliceKernel> {
        let hold = (0..self.ways).map(|p| p as u8);
        Some(SliceKernel::StackIpv {
            ipv: hold.chain([0]).collect(),
        })
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        Some(vec![self.next[set]])
    }

    fn audit_invariants(&self) -> Result<(), String> {
        match self.next.iter().position(|&n| usize::from(n) >= self.ways) {
            Some(set) => Err(format!(
                "FIFO pointer {} in set {set} is out of range (ways = {})",
                self.next[set], self.ways
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SetAssocCache;

    #[test]
    fn evicts_in_fill_order_despite_hits() {
        let g = CacheGeometry::from_sets(1, 4, 64).unwrap();
        let mut c = SetAssocCache::new(g, Box::new(FifoPolicy::new(&g)));
        let ctx = AccessContext::blank();
        for blk in 0..4u64 {
            c.access_block(blk, &ctx);
        }
        c.access_block(0, &ctx); // hit must not refresh FIFO order
        let out = c.access_block(10, &ctx);
        assert_eq!(out.evicted.unwrap().block_addr, 0);
        let out = c.access_block(11, &ctx);
        assert_eq!(out.evicted.unwrap().block_addr, 1);
    }

    #[test]
    fn pointer_wraps_around() {
        let g = CacheGeometry::from_sets(1, 2, 64).unwrap();
        let mut c = SetAssocCache::new(g, Box::new(FifoPolicy::new(&g)));
        let ctx = AccessContext::blank();
        for blk in 0..6u64 {
            c.access_block(blk, &ctx);
        }
        // Blocks 4 and 5 resident now.
        assert!(c.probe(4));
        assert!(c.probe(5));
    }

    #[test]
    fn pointer_cost() {
        let g = CacheGeometry::from_sets(4, 16, 64).unwrap();
        assert_eq!(FifoPolicy::new(&g).bits_per_set(), 4);
    }
}
