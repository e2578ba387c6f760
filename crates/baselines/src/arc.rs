//! ARC-style adaptive replacement (Megiddo & Modha, FAST 2003; analysed
//! in arXiv 1503.07624).
//!
//! ARC splits each set's residents into a recency list T1 (touched
//! once since fill) and a frequency list T2 (touched again), shadowed
//! by ghost lists B1/B2 remembering recently evicted block addresses
//! from each side. A ghost hit is evidence the corresponding list was
//! sized too small, and nudges a single adaptation target `p` — the
//! desired T1 share — which the victim rule then chases: evict from T1
//! while it exceeds `p` ways, from T2 otherwise. The original operates
//! on a fully-associative store; this baseline scopes the lists per set
//! (capacity = associativity) and keeps `p` cache-global, which is what
//! makes it [`ShardAffinity::Global`](sim_core::ShardAffinity::Global): ghost hits in any set move the
//! target every other set duels against.

#![forbid(unsafe_code)]

use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy};

/// Fixed-point scale for the adaptation target `p` (per-set T1 ways).
const P_SCALE: u64 = 16;

/// Per-set ARC bookkeeping: list membership and the recency clock.
///
/// Bit `w` of `t1`/`t2` puts way `w` on that resident list; bit `i` of
/// `b1`/`b2` marks ghost slot `i` of that list valid.
#[derive(Debug, Clone, Copy, Default)]
struct SetState {
    t1: u64,
    t2: u64,
    b1: u64,
    b2: u64,
    /// Every touch and every ghost insert takes the next value, so the
    /// stamps of one list order its members MRU → LRU.
    clock: u64,
}

/// ARC with per-set lists and one global adaptation target.
///
/// Each list is a membership mask over fixed slots, ordered by recency
/// stamps from a per-set clock instead of by position: T1 and T2 are masks
/// over the set's ways, and B1 and B2 each own `ways` ghost slots holding
/// a block address and a stamp. The victim is the stamp-min of the chosen
/// list, a ghost lookup is one compare mask, and a ghost insert takes a
/// free slot or, when the list is full, its oldest — so nothing is ever
/// shifted. Stamps are packed above the way index in the victim key; the
/// clock rises by at most two per access to the set, so the key cannot
/// overflow before 2^57 accesses to one set, which no replay reaches.
///
/// The policy keeps its own copy of each line's block address (written
/// in `on_fill` from the access context) because the eviction callback
/// only names the way, and the ghost lists need the address.
#[derive(Debug, Clone)]
pub struct ArcPolicy {
    geom: CacheGeometry,
    ways: usize,
    /// log2(ways): the victim key keeps the slot index below this bit.
    way_bits: u32,
    sets: Vec<SetState>,
    /// Per line: the stamp of its last touch and its block address.
    stamp: Vec<u64>,
    blocks: Vec<u64>,
    /// Per set, `2 * ways` ghost slots: B1's first, then B2's.
    ghost_block: Vec<u64>,
    ghost_stamp: Vec<u64>,
    /// T1 target in [`P_SCALE`]-ths of a way, in `0..=ways * P_SCALE`.
    p: u64,
    /// Set in `on_miss` on a ghost hit; routes the following fill to T2.
    fill_to_t2: bool,
    /// Seeded-defect switch: skip the upper clamp when growing `p`.
    poison_p_clamp: bool,
}

/// Mask of the slots in `slots` that hold `block`.
#[inline]
fn match_mask(slots: &[u64], block: u64) -> u64 {
    slots
        .iter()
        .enumerate()
        .fold(0, |m, (i, &b)| m | (u64::from(b == block) << i))
}

/// The member of `mask` with the smallest stamp: the list's LRU end.
#[inline]
fn oldest(stamps: &[u64], mask: u64, way_bits: u32) -> usize {
    let key = stamps
        .iter()
        .enumerate()
        .map(|(i, &st)| {
            // All ones unless slot `i` is a member: no branch per slot.
            let absent = (mask >> i & 1).wrapping_sub(1);
            (st << way_bits) | i as u64 | absent
        })
        .fold(u64::MAX, u64::min);
    (key & ((1 << way_bits) - 1)) as usize
}

/// The members of `mask` ordered MRU first (descending stamp).
fn by_recency(stamps: &[u64], mask: u64) -> Vec<usize> {
    let mut members: Vec<usize> = (0..stamps.len()).filter(|&i| mask >> i & 1 != 0).collect();
    members.sort_unstable_by_key(|&i| std::cmp::Reverse(stamps[i]));
    members
}

impl ArcPolicy {
    /// Creates ARC for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        let lines = geom.sets() * geom.ways();
        ArcPolicy {
            geom: *geom,
            ways: geom.ways(),
            way_bits: geom.ways().trailing_zeros(),
            sets: vec![SetState::default(); geom.sets()],
            stamp: vec![0; lines],
            blocks: vec![0; lines],
            ghost_block: vec![0; 2 * lines],
            ghost_stamp: vec![0; 2 * lines],
            p: 0,
            fill_to_t2: false,
            poison_p_clamp: false,
        }
    }

    /// The current T1 target in ways (diagnostic aid; truncating).
    pub fn t1_target(&self) -> u64 {
        self.p / P_SCALE
    }

    /// Disables the upper clamp on the adaptation target `p`, so repeated
    /// B1 ghost hits push it past `ways * P_SCALE`. This is a *seeded
    /// defect* used to prove the bounded model checker catches broken `p`
    /// updates; it exercises the production `on_miss` path with only the
    /// clamp removed.
    #[doc(hidden)]
    pub fn poison_p_clamp(&mut self) {
        self.poison_p_clamp = true;
    }

    /// A set's resident list (`t2` false: T1), MRU first.
    fn resident_list(&self, set: usize, t2: bool) -> Vec<usize> {
        let s = &self.sets[set];
        let base = set * self.ways;
        by_recency(
            &self.stamp[base..base + self.ways],
            if t2 { s.t2 } else { s.t1 },
        )
    }

    /// A set's ghost list (`b2` false: B1) as block addresses, MRU first.
    fn ghost_list(&self, set: usize, b2: bool) -> Vec<u64> {
        let s = &self.sets[set];
        let base = (2 * set + usize::from(b2)) * self.ways;
        let slots = base..base + self.ways;
        by_recency(&self.ghost_stamp[slots], if b2 { s.b2 } else { s.b1 })
            .into_iter()
            .map(|i| self.ghost_block[base + i])
            .collect()
    }
}

impl ReplacementPolicy for ArcPolicy {
    fn name(&self) -> &str {
        "ARC"
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        let s = &self.sets[set];
        // REPLACE: shed T1 while it holds more than the target share (or
        // T2 has nothing to give); otherwise shed T2. Victims come from
        // each list's LRU end.
        let from_t1 = s.t1 != 0 && (s.t2 == 0 || u64::from(s.t1.count_ones()) * P_SCALE > self.p);
        let list = if from_t1 { s.t1 } else { s.t2 };
        assert!(list != 0, "victim asked of a set with no residents");
        let base = set * self.ways;
        oldest(&self.stamp[base..base + self.ways], list, self.way_bits)
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        // Any reuse promotes to T2's MRU position.
        let s = &mut self.sets[set];
        s.t1 &= !(1 << way);
        s.t2 |= 1 << way;
        s.clock += 1;
        self.stamp[set * self.ways + way] = s.clock;
    }

    #[inline]
    fn on_miss(&mut self, set: usize, ctx: &AccessContext) {
        let block = self.geom.block_of(ctx.addr);
        let base = 2 * set * self.ways;
        let ghosts = &self.ghost_block[base..base + 2 * self.ways];
        let s = &mut self.sets[set];
        // A block sits in at most one ghost slot: it is ghosted only on
        // eviction, and the miss that refills it drops its ghost.
        let in_b1 = match_mask(&ghosts[..self.ways], block) & s.b1;
        let in_b2 = match_mask(&ghosts[self.ways..], block) & s.b2;
        if in_b1 != 0 {
            // Recency ghost hit: T1 was too small — grow the target.
            s.b1 &= !in_b1;
            let step = u64::from(s.b2.count_ones() / s.b1.count_ones().max(1)).max(1);
            self.p = if self.poison_p_clamp {
                self.p + step * P_SCALE
            } else {
                (self.p + step * P_SCALE).min(self.ways as u64 * P_SCALE)
            };
            self.fill_to_t2 = true;
        } else if in_b2 != 0 {
            // Frequency ghost hit: T2 was too small — shrink the target.
            s.b2 &= !in_b2;
            let step = u64::from(s.b1.count_ones() / s.b2.count_ones().max(1)).max(1);
            self.p = self.p.saturating_sub(step * P_SCALE);
            self.fill_to_t2 = true;
        } else {
            self.fill_to_t2 = false;
        }
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize) {
        let s = &mut self.sets[set];
        let bit = 1 << way;
        // T1 members and (defensively) untracked ways ghost into B1.
        let to_b2 = s.t2 & bit != 0;
        s.t1 &= !bit;
        s.t2 &= !bit;
        let valid = if to_b2 { &mut s.b2 } else { &mut s.b1 };
        let base = (2 * set + usize::from(to_b2)) * self.ways;
        // A free slot if the list has one, else its oldest.
        let slot = if valid.count_ones() < self.ways as u32 {
            (!*valid).trailing_zeros() as usize
        } else {
            oldest(
                &self.ghost_stamp[base..base + self.ways],
                *valid,
                self.way_bits,
            )
        };
        *valid |= 1 << slot;
        s.clock += 1;
        self.ghost_block[base + slot] = self.blocks[set * self.ways + way];
        self.ghost_stamp[base + slot] = s.clock;
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        let idx = set * self.ways + way;
        self.blocks[idx] = self.geom.block_of(ctx.addr);
        let to_t2 = std::mem::take(&mut self.fill_to_t2);
        let s = &mut self.sets[set];
        let bit = 1 << way;
        s.t1 &= !bit;
        s.t2 &= !bit;
        if to_t2 {
            s.t2 |= bit;
        } else {
            s.t1 |= bit;
        }
        s.clock += 1;
        self.stamp[idx] = s.clock;
    }

    fn bits_per_set(&self) -> u64 {
        // List id + position per line at the stack-LRU figure, plus two
        // ghost lists of `ways` 16-bit compressed tags each (a hardware
        // ARC would store partial tags; the simulator's full addresses
        // are a modelling convenience, not accounted storage).
        self.ways as u64
            + sim_core::overhead::lru_bits_per_set(self.ways)
            + 2 * self.ways as u64 * 16
    }

    fn global_bits(&self) -> u64 {
        // The adaptation target.
        16
    }

    // One global `p` trained by every set's ghost hits: sharding would
    // split the adaptation stream. Default ShardAffinity::Global is
    // correct and load-bearing.

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let mut d = Vec::new();
        // Resident lists with their block addresses (only resident ways'
        // `blocks` entries are behaviourally live — evicted ways keep a
        // stale copy that the next fill overwrites before any read), then
        // the ghost lists, each MRU first. Free ghost slots and raw stamps
        // stay out: only the order they induce is behaviour.
        for t2 in [false, true] {
            for w in self.resident_list(set, t2) {
                d.push(w as u8);
                d.extend_from_slice(&self.blocks[set * self.ways + w].to_le_bytes());
            }
            d.push(0xff);
        }
        for b2 in [false, true] {
            for b in self.ghost_list(set, b2) {
                d.extend_from_slice(&b.to_le_bytes());
            }
            d.push(0xff);
        }
        Some(d)
    }

    fn audit_global_digest(&self) -> Vec<u8> {
        let mut d = self.p.to_le_bytes().to_vec();
        d.push(u8::from(self.fill_to_t2));
        d
    }

    fn audit_invariants(&self) -> Result<(), String> {
        let cap = self.ways as u64 * P_SCALE;
        if self.p > cap {
            return Err(format!(
                "ARC adaptation target p = {} exceeds {cap} (ways * P_SCALE)",
                self.p
            ));
        }
        let out_of_range = if self.ways == 64 {
            0
        } else {
            u64::MAX << self.ways
        };
        for (set, s) in self.sets.iter().enumerate() {
            if (s.b1 | s.b2) & out_of_range != 0 {
                return Err(format!(
                    "ARC ghost lists in set {set} exceed capacity {}: B1 {:#x}, B2 {:#x}",
                    self.ways, s.b1, s.b2
                ));
            }
            if (s.t1 | s.t2) & out_of_range != 0 {
                return Err(format!(
                    "ARC resident lists in set {set} name ways beyond {}",
                    self.ways
                ));
            }
            if s.t1 & s.t2 != 0 {
                return Err(format!(
                    "ARC way {} in set {set} appears on T1/T2 more than once",
                    (s.t1 & s.t2).trailing_zeros()
                ));
            }
            let base = set * self.ways;
            let mut stamps: Vec<u64> = (0..self.ways)
                .filter(|&w| (s.t1 | s.t2) >> w & 1 != 0)
                .map(|w| self.stamp[base + w])
                .collect();
            stamps.sort_unstable();
            if stamps.windows(2).any(|p| p[0] == p[1]) || stamps.last() > Some(&s.clock) {
                return Err(format!(
                    "ARC recency stamps in set {set} are not distinct past clock values"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{Access, SetAssocCache, ShardAffinity};

    fn geom(sets: usize, ways: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, ways, 64).unwrap()
    }

    fn cache(sets: usize, ways: usize) -> SetAssocCache {
        let g = geom(sets, ways);
        SetAssocCache::new(g, Box::new(ArcPolicy::new(&g)))
    }

    fn rd(blk: u64) -> AccessContext {
        Access::read(blk * 64, 0).context()
    }

    #[test]
    fn single_touch_blocks_stay_in_t1_and_evict_first() {
        // Fill a 4-way set, re-touch two blocks (→ T2), then force an
        // eviction: a T1 (single-touch) block must go, and of those the
        // older one.
        let mut c = cache(1, 4);
        for b in 0..4u64 {
            c.access_block(b, &rd(b));
        }
        c.access_block(0, &rd(0));
        c.access_block(1, &rd(1));
        let out = c.access_block(10, &rd(10));
        assert_eq!(out.evicted.unwrap().block_addr, 2, "T1 LRU evicts first");
    }

    #[test]
    fn ghost_hit_routes_refill_to_t2_and_moves_p() {
        let g = geom(1, 2);
        let mut p = ArcPolicy::new(&g);
        // Fill 0,1; evict 0 (a T1 member → ghost B1); refill 0.
        p.on_fill(0, 0, &rd(0));
        p.on_fill(0, 1, &rd(1));
        p.on_evict(0, 0);
        assert_eq!(p.ghost_list(0, false), vec![0]);
        p.on_miss(0, &rd(0));
        assert!(p.t1_target() >= 1, "B1 hit grows the T1 target");
        p.on_fill(0, 0, &rd(0));
        assert_eq!(
            p.resident_list(0, true),
            vec![0],
            "ghost-hit refill lands in T2"
        );
        assert_eq!(p.resident_list(0, false), vec![1]);
    }

    #[test]
    fn b2_ghost_hit_shrinks_p() {
        let g = geom(1, 2);
        let mut p = ArcPolicy::new(&g);
        p.p = 2 * P_SCALE;
        p.on_fill(0, 0, &rd(0));
        p.on_hit(0, 0, &rd(0)); // way 0 → T2
        p.on_evict(0, 0);
        assert_eq!(p.ghost_list(0, true), vec![0]);
        p.on_miss(0, &rd(0));
        assert!(p.p < 2 * P_SCALE, "B2 hit shrinks the T1 target");
    }

    #[test]
    fn loop_plus_scan_prefers_the_loop() {
        // A small loop re-touched every round (T2 material) survives a
        // long scan of single-touch blocks, which ARC confines to T1.
        let mut c = cache(16, 4);
        let loop_blocks: Vec<u64> = (0..32).collect();
        let mut scan = 1 << 20;
        for _ in 0..40 {
            for &b in &loop_blocks {
                c.access_block(b, &rd(b));
            }
            for _ in 0..64 {
                c.access_block(scan, &rd(scan));
                scan += 1;
            }
        }
        let before = c.stats().hits;
        for &b in &loop_blocks {
            c.access_block(b, &rd(b));
        }
        assert!(
            c.stats().hits - before >= 24,
            "loop working set largely resident, got {} of 32",
            c.stats().hits - before
        );
    }

    #[test]
    fn resident_lists_always_partition_the_set() {
        let mut c = cache(4, 4);
        let mut x = 7u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.access_block(x % 64, &rd(x % 64));
        }
        // Reach into the policy via a fresh replay to check invariants.
        let g = geom(4, 4);
        let mut p = ArcPolicy::new(&g);
        let mut filled = [0usize; 4];
        let mut x = 7u64;
        let mut resident: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let blk = x % 64;
            let set = g.set_of_block(blk);
            let ctx = rd(blk);
            if let Some(w) = resident[set].iter().position(|&b| b == blk) {
                p.on_hit(set, w, &ctx);
            } else {
                p.on_miss(set, &ctx);
                let w = if filled[set] < 4 {
                    resident[set].push(blk);
                    filled[set] += 1;
                    filled[set] - 1
                } else {
                    let w = p.victim(set, &ctx);
                    p.on_evict(set, w);
                    resident[set][w] = blk;
                    w
                };
                p.on_fill(set, w, &ctx);
            }
            let (t1, t2) = (p.resident_list(set, false), p.resident_list(set, true));
            assert_eq!(t1.len() + t2.len(), filled[set]);
            for w in 0..filled[set] {
                assert_eq!(
                    t1.contains(&w) as usize + t2.contains(&w) as usize,
                    1,
                    "way {w} must be on exactly one list"
                );
            }
            assert!(p.ghost_list(set, false).len() <= 4 && p.ghost_list(set, true).len() <= 4);
            assert!(p.p <= 4 * P_SCALE);
            p.audit_invariants().unwrap();
        }
    }

    #[test]
    fn victim_is_the_lru_end_of_the_chosen_list() {
        let g = geom(1, 4);
        let mut p = ArcPolicy::new(&g);
        for w in [2, 0, 3, 1] {
            p.on_fill(0, w, &rd(w as u64));
        }
        assert_eq!(p.resident_list(0, false), vec![1, 3, 0, 2]);
        assert_eq!(p.victim(0, &rd(9)), 2, "T1's LRU end");
        // T2 = [1, 3]; with the target at every way, T1 keeps its share
        // and T2 gives up its LRU end.
        p.on_hit(0, 3, &rd(3));
        p.on_hit(0, 1, &rd(1));
        p.p = 4 * P_SCALE;
        assert_eq!(p.victim(0, &rd(9)), 3, "T2's LRU end");
        p.p = 0;
        assert_eq!(p.victim(0, &rd(9)), 2);
    }

    #[test]
    fn full_ghost_list_overwrites_its_oldest_entry() {
        let g = geom(1, 2);
        let mut p = ArcPolicy::new(&g);
        for b in 0..5u64 {
            let w = (b % 2) as usize;
            if b >= 2 {
                p.on_miss(0, &rd(b));
                p.on_evict(0, w);
            }
            p.on_fill(0, w, &rd(b));
        }
        // Blocks 0, 1, 2 were evicted from T1 in that order; B1 holds two.
        assert_eq!(p.ghost_list(0, false), vec![2, 1]);
        // A B1 hit frees a slot, and the next ghost reuses it.
        p.on_miss(0, &rd(1));
        assert_eq!(p.ghost_list(0, false), vec![2]);
        p.on_evict(0, 1);
        assert_eq!(p.ghost_list(0, false), vec![3, 2]);
        p.audit_invariants().unwrap();
    }

    #[test]
    fn declared_shape_and_storage() {
        let g = geom(4, 16);
        let p = ArcPolicy::new(&g);
        assert_eq!(p.shard_affinity(), ShardAffinity::Global);
        assert_eq!(p.global_bits(), 16);
        assert_eq!(
            p.bits_per_set(),
            16 + sim_core::overhead::lru_bits_per_set(16) + 2 * 16 * 16
        );
    }
}
