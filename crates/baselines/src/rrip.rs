//! The RRIP family: SRRIP, BRRIP, and DRRIP (Jaleel et al., ISCA 2010).
//!
//! Each block carries an `m`-bit re-reference prediction value (RRPV): 0
//! means "re-referenced soon", `2^m - 1` means "re-referenced in the distant
//! future". The victim is a block predicted distant; hits reset a block's
//! RRPV to 0 (hit-priority promotion). SRRIP inserts at `max - 1` ("long"),
//! BRRIP usually at `max` with an occasional `max - 1`; DRRIP set-duels the
//! two. With the paper's 2-bit RRPVs, DRRIP costs 32 bits/set — the policy
//! the paper calls "the most efficient of the published high-performance
//! cache replacement schemes", and which GIPPR halves again.

use sim_core::dueling::{DuelController, DuelingError};
use sim_core::slice::{Bimodal, SliceKernel};
use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy, ShardAffinity};

/// RRPV width used throughout (the RRIP paper's recommended 2 bits).
pub const RRPV_BITS: u32 = 2;

/// BRRIP inserts "long" instead of "distant" once per this many fills.
const BRRIP_EPSILON: u64 = 32;

/// Shared RRPV array logic for all three policies.
#[derive(Debug, Clone)]
struct RrpvTable {
    rrpv: Vec<u8>,
    ways: usize,
    max: u8,
}

impl RrpvTable {
    fn new(geom: &CacheGeometry) -> Self {
        let max = ((1u16 << RRPV_BITS) - 1) as u8;
        RrpvTable {
            // Start every (invalid) line at max so cold sets victimize way 0
            // deterministically.
            rrpv: vec![max; geom.sets() * geom.ways()],
            ways: geom.ways(),
            max,
        }
    }

    /// SRRIP victim search: find the first block with RRPV == max,
    /// incrementing all RRPVs until one exists.
    #[inline]
    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        loop {
            if let Some(w) = (0..self.ways).find(|&w| self.rrpv[base + w] == self.max) {
                return w;
            }
            for w in 0..self.ways {
                self.rrpv[base + w] += 1;
            }
        }
    }

    fn set(&mut self, set: usize, way: usize, value: u8) {
        self.rrpv[set * self.ways + way] = value;
    }

    fn get(&self, set: usize, way: usize) -> u8 {
        self.rrpv[set * self.ways + way]
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::rrip_bits_per_set(self.ways, RRPV_BITS)
    }

    fn set_digest(&self, set: usize) -> Vec<u8> {
        let base = set * self.ways;
        self.rrpv[base..base + self.ways].to_vec()
    }

    fn check_bounds(&self) -> Result<(), String> {
        match self.rrpv.iter().position(|&v| v > self.max) {
            Some(idx) => Err(format!(
                "RRPV {} at line {idx} exceeds max {} ({}-bit field)",
                self.rrpv[idx], self.max, RRPV_BITS
            )),
            None => Ok(()),
        }
    }
}

/// Static RRIP: insert with RRPV `max - 1`, promote hits to 0.
#[derive(Debug, Clone)]
pub struct SrripPolicy {
    table: RrpvTable,
}

impl SrripPolicy {
    /// Creates SRRIP for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        SrripPolicy {
            table: RrpvTable::new(geom),
        }
    }

    /// Current RRPV of a line (test/diagnostic aid).
    pub fn rrpv(&self, set: usize, way: usize) -> u8 {
        self.table.get(set, way)
    }
}

impl ReplacementPolicy for SrripPolicy {
    fn name(&self) -> &str {
        "SRRIP"
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.table.victim(set)
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.table.set(set, way, 0);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.table.set(set, way, self.table.max - 1);
    }

    fn bits_per_set(&self) -> u64 {
        self.table.bits_per_set()
    }

    // Pure per-set RRPV state. (BRRIP/DRRIP stay `Global`: the bimodal
    // `tick` and the PSEL duel observe the whole-stream miss sequence.)
    fn shard_affinity(&self) -> ShardAffinity {
        ShardAffinity::SetLocal
    }

    // SRRIP as an RRIP vector: hits promote to 0, fills insert at max - 1.
    fn slice_kernel(&self) -> Option<SliceKernel> {
        Some(SliceKernel::RripIpv {
            vector: [0, 0, 0, 0, self.table.max - 1],
        })
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        Some(self.table.set_digest(set))
    }

    fn audit_invariants(&self) -> Result<(), String> {
        self.table.check_bounds()
    }
}

/// Bimodal RRIP: insert with RRPV `max`, occasionally (1/32) `max - 1`.
#[derive(Debug, Clone)]
pub struct BrripPolicy {
    table: RrpvTable,
    tick: u64,
}

impl BrripPolicy {
    /// Creates BRRIP for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        BrripPolicy {
            table: RrpvTable::new(geom),
            tick: 0,
        }
    }
}

impl ReplacementPolicy for BrripPolicy {
    fn name(&self) -> &str {
        "BRRIP"
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.table.victim(set)
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.table.set(set, way, 0);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.tick += 1;
        let value = if self.tick % BRRIP_EPSILON == 0 {
            self.table.max - 1
        } else {
            self.table.max
        };
        self.table.set(set, way, value);
    }

    fn bits_per_set(&self) -> u64 {
        self.table.bits_per_set()
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        Some(self.table.set_digest(set))
    }

    // The bimodal tick influences behaviour only through `tick mod epsilon`,
    // so digesting the residue keeps the state space finite without merging
    // distinguishable states.
    fn audit_global_digest(&self) -> Vec<u8> {
        (self.tick % BRRIP_EPSILON).to_le_bytes().to_vec()
    }

    fn audit_invariants(&self) -> Result<(), String> {
        self.table.check_bounds()
    }
}

/// Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion on one
/// shared RRPV array, with a 10-bit PSEL counter.
#[derive(Debug, Clone)]
pub struct DrripPolicy {
    table: RrpvTable,
    duel: DuelController,
    tick: u64,
}

impl DrripPolicy {
    /// Creates DRRIP with 32 leader sets per policy and a 10-bit PSEL.
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
        Ok(DrripPolicy {
            table: RrpvTable::new(geom),
            duel: DuelController::two(geom.sets(), leaders_per_policy, psel_bits)?,
            tick: 0,
        })
    }

    /// Which insertion policy (0 = SRRIP, 1 = BRRIP) followers use.
    pub fn winner(&self) -> usize {
        self.duel.winner()
    }
}

impl ReplacementPolicy for DrripPolicy {
    fn name(&self) -> &str {
        "DRRIP"
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.table.victim(set)
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.table.set(set, way, 0);
    }

    #[inline]
    fn on_miss(&mut self, set: usize, _ctx: &AccessContext) {
        self.duel.record_miss(set);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let value = if self.duel.policy_for_set(set) == 0 {
            self.table.max - 1 // SRRIP insertion
        } else {
            self.tick += 1;
            if self.tick % BRRIP_EPSILON == 0 {
                self.table.max - 1
            } else {
                self.table.max
            }
        };
        self.table.set(set, way, value);
    }

    fn bits_per_set(&self) -> u64 {
        self.table.bits_per_set()
    }

    fn global_bits(&self) -> u64 {
        self.duel.counter_bits()
    }

    // An RRIP duel: hits promote to 0 on both sides; side 0 (SRRIP)
    // inserts at max - 1, side 1 (BRRIP) at max except every 32nd BRRIP
    // fill, at max - 1.
    fn slice_kernel(&self) -> Option<SliceKernel> {
        let max = self.table.max;
        let map = self.duel.leader_map();
        Some(SliceKernel::Duel {
            sides: vec![
                SliceKernel::RripIpv {
                    vector: [0, 0, 0, 0, max - 1],
                },
                SliceKernel::RripIpv {
                    vector: [0, 0, 0, 0, max],
                },
            ],
            leaders_per_side: map.leaders_per_policy(),
            salt: map.salt(),
            psel_bits: self.duel.psel_bits(),
            bimodal: Some(Bimodal {
                side: 1,
                every: BRRIP_EPSILON,
                rare: max - 1,
            }),
        })
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        Some(self.table.set_digest(set))
    }

    fn audit_global_digest(&self) -> Vec<u8> {
        let mut d = self.duel.audit_digest();
        d.extend_from_slice(&(self.tick % BRRIP_EPSILON).to_le_bytes());
        d
    }

    fn audit_invariants(&self) -> Result<(), String> {
        self.table.check_bounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::dueling::SetRole;
    use sim_core::SetAssocCache;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(1024, 16, 64).unwrap()
    }

    fn ctx() -> AccessContext {
        AccessContext::blank()
    }

    #[test]
    fn srrip_inserts_long_and_promotes_to_zero() {
        let g = geom();
        let mut p = SrripPolicy::new(&g);
        p.on_fill(0, 3, &ctx());
        assert_eq!(p.rrpv(0, 3), 2, "insert at max-1 = 2");
        p.on_hit(0, 3, &ctx());
        assert_eq!(p.rrpv(0, 3), 0);
    }

    #[test]
    fn srrip_victim_ages_set_until_distant_found() {
        let g = geom();
        let mut p = SrripPolicy::new(&g);
        for w in 0..16 {
            p.on_fill(0, w, &ctx()); // everyone at RRPV 2
        }
        let v = p.victim(0, &ctx());
        assert_eq!(v, 0, "aging makes all distant; first way wins");
        assert_eq!(p.rrpv(0, 5), 3, "other lines aged to max");
    }

    #[test]
    fn srrip_prefers_existing_distant_block() {
        let g = geom();
        let mut p = SrripPolicy::new(&g);
        for w in 0..16 {
            p.on_fill(0, w, &ctx());
        }
        p.on_hit(0, 0, &ctx()); // way 0 at 0
        let _ = p.victim(0, &ctx()); // ages set: way 0 -> 1, others -> 3
        p.on_fill(0, 1, &ctx()); // way 1 now at 2
        assert_eq!(
            p.victim(0, &ctx()),
            2,
            "first block at max wins, not ways 0/1"
        );
    }

    #[test]
    fn brrip_rarely_inserts_long() {
        let g = geom();
        let mut p = BrripPolicy::new(&g);
        let mut long_inserts = 0;
        for i in 0..320 {
            p.on_fill(0, i % 16, &ctx());
            if p.table.get(0, i % 16) == 2 {
                long_inserts += 1;
            }
        }
        assert_eq!(long_inserts, 10, "exactly 1/32 of fills are long");
    }

    #[test]
    fn drrip_storage_matches_paper() {
        let p = DrripPolicy::new(&geom()).unwrap();
        assert_eq!(p.bits_per_set(), 32, "2 bits x 16 ways");
        assert_eq!(p.global_bits(), 10);
    }

    #[test]
    fn drrip_duel_converges() {
        let g = geom();
        let mut p = DrripPolicy::new(&g).unwrap();
        let map = *p.duel.leader_map();
        for _ in 0..300 {
            for s in 0..g.sets() {
                if map.role(s) == SetRole::Leader(1) {
                    p.on_miss(s, &ctx());
                }
            }
        }
        assert_eq!(p.winner(), 0, "BRRIP leaders missing more selects SRRIP");
    }

    #[test]
    fn drrip_scan_resistance_beats_lru_on_streaming_mix() {
        // A small working set plus an endless scan: DRRIP should hold on to
        // the working set much better than LRU.
        let g = CacheGeometry::from_sets(64, 8, 64).unwrap();
        let mut drrip = SetAssocCache::new(g, Box::new(DrripPolicy::new(&g).unwrap()));
        let mut lru = SetAssocCache::new(g, Box::new(crate::lru::TrueLru::new(&g)));
        let ws_blocks = 256u64; // half the 512-block cache
        let mut scan = 10_000u64;
        for round in 0..400 {
            for b in 0..ws_blocks {
                drrip.access_block(b, &ctx());
                lru.access_block(b, &ctx());
            }
            // A scan long enough to destroy an LRU-managed working set.
            if round % 2 == 0 {
                for _ in 0..1024 {
                    drrip.access_block(scan, &ctx());
                    lru.access_block(scan, &ctx());
                    scan += 1;
                }
            }
        }
        assert!(
            drrip.stats().misses < lru.stats().misses,
            "DRRIP {} vs LRU {} misses",
            drrip.stats().misses,
            lru.stats().misses
        );
    }
}
