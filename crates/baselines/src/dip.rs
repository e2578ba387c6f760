//! DIP: Dynamic Insertion Policy (Qureshi et al., ISCA 2007).

use gippr::RecencyStack;
use sim_core::dueling::{DuelController, DuelingError};
use sim_core::slice::Bimodal;
use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy, SliceKernel};

/// Probability denominator for BIP's occasional MRU insertion (1/32).
const BIP_EPSILON: u64 = 32;

/// DIP: set-dueling between traditional MRU insertion (classic LRU) and
/// *bimodal* insertion (BIP: insert at the LRU position except for a 1/32
/// chance of MRU insertion), on full true-LRU recency stacks.
///
/// DIP is the intellectual ancestor of DGIPPR's adaptivity: the paper notes
/// the WI-2-DGIPPR vector pair "clearly duel between PLRU and PMRU
/// insertion, just as DIP would do". It pays full LRU cost (`k log2 k`
/// bits per set) plus a 10-bit PSEL counter.
#[derive(Debug, Clone)]
pub struct DipPolicy {
    stacks: Vec<RecencyStack>,
    duel: DuelController,
    ways: usize,
    bip_tick: u64,
}

impl DipPolicy {
    /// Creates DIP with 32 leader sets per policy and a 10-bit PSEL.
    ///
    /// # Errors
    ///
    /// Returns [`DuelingError`] if the geometry cannot host the leader
    /// layout.
    pub fn new(geom: &CacheGeometry) -> Result<Self, DuelingError> {
        Self::with_config(geom, 32, 10)
    }

    /// Fully configurable constructor.
    ///
    /// # Errors
    ///
    /// Returns [`DuelingError`] if the geometry cannot host the leader
    /// layout.
    pub fn with_config(
        geom: &CacheGeometry,
        leaders_per_policy: usize,
        psel_bits: u32,
    ) -> Result<Self, DuelingError> {
        Ok(DipPolicy {
            stacks: vec![RecencyStack::new(geom.ways()); geom.sets()],
            duel: DuelController::two(geom.sets(), leaders_per_policy, psel_bits)?,
            ways: geom.ways(),
            bip_tick: 0,
        })
    }

    /// Which insertion policy (0 = LRU/MRU-insert, 1 = BIP) followers use.
    pub fn winner(&self) -> usize {
        self.duel.winner()
    }
}

impl ReplacementPolicy for DipPolicy {
    fn name(&self) -> &str {
        "DIP"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.stacks[set].lru_way()
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.stacks[set].move_to(way, 0);
    }

    fn on_miss(&mut self, set: usize, _ctx: &AccessContext) {
        self.duel.record_miss(set);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let policy = self.duel.policy_for_set(set);
        let target = if policy == 0 {
            0 // traditional MRU insertion
        } else {
            // BIP: LRU-position insertion with an occasional MRU insertion.
            self.bip_tick += 1;
            if self.bip_tick % BIP_EPSILON == 0 {
                0
            } else {
                self.ways - 1
            }
        };
        self.stacks[set].move_to(way, target);
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::lru_bits_per_set(self.ways)
    }

    fn global_bits(&self) -> u64 {
        self.duel.counter_bits()
    }

    // A stack duel: both sides promote hits to MRU; side 0 inserts at
    // MRU, side 1 (BIP) at LRU except every 32nd BIP fill, at MRU.
    fn slice_kernel(&self) -> Option<SliceKernel> {
        let k = self.ways;
        let mut bip = vec![0u8; k + 1];
        bip[k] = (k - 1) as u8;
        let map = self.duel.leader_map();
        Some(SliceKernel::Duel {
            sides: vec![
                SliceKernel::StackIpv {
                    ipv: vec![0; k + 1],
                },
                SliceKernel::StackIpv { ipv: bip },
            ],
            leaders_per_side: map.leaders_per_policy(),
            salt: map.salt(),
            psel_bits: self.duel.psel_bits(),
            bimodal: Some(Bimodal {
                side: 1,
                every: BIP_EPSILON,
                rare: 0,
            }),
        })
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        Some(self.stacks[set].positions().to_vec())
    }

    // BIP's tick only matters modulo the bimodal epsilon.
    fn audit_global_digest(&self) -> Vec<u8> {
        let mut d = self.duel.audit_digest();
        d.extend_from_slice(&(self.bip_tick % BIP_EPSILON).to_le_bytes());
        d
    }

    fn audit_invariants(&self) -> Result<(), String> {
        match self.stacks.iter().position(|s| !s.is_permutation()) {
            Some(set) => Err(format!(
                "DIP recency stack in set {set} is no longer a permutation"
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::dueling::SetRole;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(1024, 16, 64).unwrap()
    }

    fn ctx() -> AccessContext {
        AccessContext::blank()
    }

    #[test]
    fn lru_leaders_insert_at_mru() {
        let g = geom();
        let mut p = DipPolicy::new(&g).unwrap();
        let map = *p.duel.leader_map();
        let lru_leader = (0..g.sets())
            .find(|&s| map.role(s) == SetRole::Leader(0))
            .unwrap();
        p.on_fill(lru_leader, 7, &ctx());
        assert_eq!(p.stacks[lru_leader].position(7), 0);
    }

    #[test]
    fn bip_leaders_mostly_insert_at_lru() {
        let g = geom();
        let mut p = DipPolicy::new(&g).unwrap();
        let map = *p.duel.leader_map();
        let bip_leader = (0..g.sets())
            .find(|&s| map.role(s) == SetRole::Leader(1))
            .unwrap();
        let mut lru_inserts = 0;
        for i in 0..320 {
            p.on_fill(bip_leader, i % 16, &ctx());
            if p.stacks[bip_leader].position(i % 16) == 15 {
                lru_inserts += 1;
            }
        }
        assert!(
            lru_inserts >= 300,
            "roughly 31/32 of BIP fills go to LRU, got {lru_inserts}"
        );
        assert!(lru_inserts < 320, "but not all of them");
    }

    #[test]
    fn duel_converges_to_less_missing_policy() {
        let g = geom();
        let mut p = DipPolicy::new(&g).unwrap();
        let map = *p.duel.leader_map();
        for _ in 0..200 {
            for s in 0..g.sets() {
                if map.role(s) == SetRole::Leader(0) {
                    p.on_miss(s, &ctx());
                }
            }
        }
        assert_eq!(
            p.winner(),
            1,
            "policy 0's leaders missing more flips followers to BIP"
        );
    }

    #[test]
    fn storage_cost() {
        let p = DipPolicy::new(&geom()).unwrap();
        assert_eq!(p.bits_per_set(), 64, "DIP pays full LRU cost");
        assert_eq!(p.global_bits(), 10);
    }
}
