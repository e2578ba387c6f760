//! EHC: Expected-Hit-Count replacement (Vakil-Ghahani et al., CAL 2018;
//! arXiv 1808.05024).
//!
//! EHC observes that reuse *distance* is a proxy — what a replacement
//! decision actually wants is the number of hits a line will deliver
//! before it goes dead. A global Expected-Hit-Count Table (EHCT),
//! indexed by a hash of the filling instruction's PC, learns per
//! signature how many hits lines from that instruction typically see in
//! one residency. The victim is the line with the fewest *remaining*
//! expected hits (expectation minus hits already delivered); the table
//! is trained on eviction with the line's observed hit count. Like
//! SHiP, this needs the memory instruction's PC at the LLC — the extra
//! channel GIPPR deliberately avoids — so it rides in the roster as a
//! related-work baseline, not a contender under the paper's constraints.

#![forbid(unsafe_code)]

use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy};

/// log2 of the EHCT size.
const EHCT_BITS: u32 = 12;
/// Width of the per-line hit counter, the low bits of each line's word.
const HIT_BITS: u32 = 4;
/// Hit-count ceiling (4-bit counters, per the paper's small-counter
/// design point).
const HITS_MAX: u8 = (1 << HIT_BITS) - 1;

/// Expected-Hit-Count replacement over a PC-signature table.
///
/// Per-line state: one `u16` holding the fill signature in its high 12
/// bits and a saturating 4-bit hit counter in its low bits, so the victim
/// scan reads one array. Global state: the EHCT, trained on eviction with
/// an exponential moving average (new = (old + observed) / 2, truncating)
/// so one outlier residency cannot erase a learned expectation, while a
/// signature that stops being reused still decays all the way to zero.
#[derive(Debug, Clone)]
pub struct EhcPolicy {
    ways: usize,
    /// log2(ways): the victim key keeps the way index below this bit.
    way_bits: u32,
    /// Per line: `signature << HIT_BITS | hits`.
    lines: Vec<u16>,
    /// Sized so that every 12-bit signature indexes it without a check.
    ehct: Box<[u8; 1 << EHCT_BITS]>,
}

impl EhcPolicy {
    /// Creates EHC for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        EhcPolicy {
            ways: geom.ways(),
            way_bits: geom.ways().trailing_zeros(),
            lines: vec![0; geom.sets() * geom.ways()],
            // Optimistic start: unseen signatures expect one hit, so new
            // instructions aren't evicted on sight.
            ehct: Box::new([1; 1 << EHCT_BITS]),
        }
    }

    /// The EHCT signature for a memory instruction PC.
    pub fn signature_of(pc: u64) -> u16 {
        let folded = (pc >> 2) ^ (pc >> 14) ^ (pc >> 33);
        (folded & ((1 << EHCT_BITS) - 1)) as u16
    }

    /// Current learned expectation for a signature (diagnostic aid).
    pub fn expected_hits(&self, sig: u16) -> u8 {
        self.ehct[usize::from(sig)]
    }
}

/// Splits a line word into its fill signature and hit count.
#[inline]
fn unpack(line: u16) -> (u16, u8) {
    (line >> HIT_BITS, (line & u16::from(HITS_MAX)) as u8)
}

impl ReplacementPolicy for EhcPolicy {
    fn name(&self) -> &str {
        "EHC"
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        // Fewest remaining expected hits loses. The way index rides in the
        // key's low bits, so one plain `min` picks the victim and ties
        // fall to the lowest way.
        let base = set * self.ways;
        let key = self.lines[base..base + self.ways]
            .iter()
            .enumerate()
            .map(|(w, &line)| {
                let (sig, hits) = unpack(line);
                let remaining = self.ehct[usize::from(sig)].saturating_sub(hits);
                (u32::from(remaining) << self.way_bits) | w as u32
            })
            .min()
            .expect("ways > 0");
        key as usize & (self.ways - 1)
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let line = &mut self.lines[set * self.ways + way];
        *line += u16::from(unpack(*line).1 != HITS_MAX);
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize) {
        let (sig, hits) = unpack(self.lines[set * self.ways + way]);
        let expected = &mut self.ehct[usize::from(sig)];
        // Exponential moving average toward the observed hit count.
        // Truncation matters: a signature that stops being reused must
        // be able to decay all the way to zero.
        *expected = (*expected + hits) / 2;
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        self.lines[set * self.ways + way] = Self::signature_of(ctx.pc) << HIT_BITS;
    }

    fn bits_per_set(&self) -> u64 {
        // Full signature + 4-bit hit counter per line (like SHiP we store
        // the signature unhashed and account honestly — an upper bound).
        self.ways as u64 * (u64::from(EHCT_BITS) + 4)
    }

    fn global_bits(&self) -> u64 {
        (1u64 << EHCT_BITS) * 4
    }

    // The EHCT is one table shared by every set and trained on evictions
    // from all of them; sharding would split its training stream.
    // Default ShardAffinity::Global is correct and load-bearing.

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let base = set * self.ways;
        let mut d = Vec::with_capacity(self.ways * 3);
        for &line in &self.lines[base..base + self.ways] {
            let (sig, hits) = unpack(line);
            d.extend_from_slice(&sig.to_le_bytes());
            d.push(hits);
        }
        Some(d)
    }

    fn audit_global_digest(&self) -> Vec<u8> {
        // Only touched entries can ever differ from the optimistic init
        // value, so a sparse (index, value) digest stays tiny while still
        // distinguishing every reachable table state.
        let mut d = Vec::new();
        for (i, &v) in self.ehct.iter().enumerate() {
            if v != 1 {
                d.extend_from_slice(&(i as u16).to_le_bytes());
                d.push(v);
            }
        }
        d
    }

    fn audit_invariants(&self) -> Result<(), String> {
        // Hit counters cannot leave their 4-bit field: `on_hit` stops at
        // HITS_MAX. Init is 1 and training averages toward a value ≤
        // HITS_MAX, so the expectation can never leave it either.
        if let Some(sig) = self.ehct.iter().position(|&e| e > HITS_MAX) {
            return Err(format!(
                "EHCT expectation {} for signature {sig} exceeds {HITS_MAX}",
                self.ehct[sig]
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{ShardAffinity, SliceKernel};

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(64, 16, 64).unwrap()
    }

    fn ctx(pc: u64) -> AccessContext {
        AccessContext {
            pc,
            addr: 0,
            is_write: false,
        }
    }

    #[test]
    fn zero_reuse_signature_decays_and_loses() {
        let g = geom();
        let mut p = EhcPolicy::new(&g);
        let dead_pc = 0x4000u64;
        let warm_pc = 0x8000u64;
        // Train: dead_pc's lines never hit, warm_pc's lines hit a lot.
        for i in 0..8usize {
            p.on_fill(0, i % 16, &ctx(dead_pc));
            p.on_evict(0, i % 16);
        }
        for _ in 0..8usize {
            p.on_fill(0, 0, &ctx(warm_pc));
            for _ in 0..4 {
                p.on_hit(0, 0, &ctx(warm_pc));
            }
            p.on_evict(0, 0);
        }
        assert_eq!(p.expected_hits(EhcPolicy::signature_of(dead_pc)), 0);
        assert!(p.expected_hits(EhcPolicy::signature_of(warm_pc)) >= 3);
        // A set holding one dead-signature line among freshly-filled warm
        // ones (expectation not yet consumed) evicts the dead line.
        for w in 0..16usize {
            p.on_fill(1, w, &ctx(warm_pc));
        }
        p.on_fill(1, 7, &ctx(dead_pc));
        assert_eq!(p.victim(1, &ctx(0)), 7);
    }

    #[test]
    fn delivered_hits_consume_the_expectation() {
        let g = geom();
        let mut p = EhcPolicy::new(&g);
        let pc = 0x1234u64;
        let sig = EhcPolicy::signature_of(pc);
        // Learn an expectation of ~4 hits.
        for _ in 0..6 {
            p.on_fill(0, 0, &ctx(pc));
            for _ in 0..4 {
                p.on_hit(0, 0, &ctx(pc));
            }
            p.on_evict(0, 0);
        }
        let learned = p.expected_hits(sig);
        assert!(learned >= 3, "EMA should approach 4, got {learned}");
        // Two lines, same signature: the one that already delivered its
        // hits has less remaining value and is the victim.
        p.on_fill(2, 0, &ctx(pc));
        p.on_fill(2, 1, &ctx(pc));
        for w in 2..16usize {
            p.on_fill(2, w, &ctx(pc));
            for _ in 0..usize::from(HITS_MAX) {
                p.on_hit(2, w, &ctx(pc));
            }
        }
        for _ in 0..learned {
            p.on_hit(2, 1, &ctx(pc));
        }
        assert_eq!(p.victim(2, &ctx(0)), 1, "spent line loses to fresh line");
    }

    #[test]
    fn training_is_an_ema_not_an_overwrite() {
        let g = geom();
        let mut p = EhcPolicy::new(&g);
        let pc = 0x42u64;
        let sig = EhcPolicy::signature_of(pc);
        for _ in 0..5 {
            p.on_fill(0, 3, &ctx(pc));
            for _ in 0..8 {
                p.on_hit(0, 3, &ctx(pc));
            }
            p.on_evict(0, 3);
        }
        let high = p.expected_hits(sig);
        // One dead residency must not zero the expectation.
        p.on_fill(0, 3, &ctx(pc));
        p.on_evict(0, 3);
        assert!(p.expected_hits(sig) >= high / 2);
        assert!(p.expected_hits(sig) < high);
    }

    #[test]
    fn ties_fall_to_the_lowest_way() {
        let g = CacheGeometry::from_sets(2, 8, 64).unwrap();
        let mut p = EhcPolicy::new(&g);
        for w in 0..8usize {
            p.on_fill(1, w, &ctx(0x40));
        }
        assert_eq!(p.victim(1, &ctx(0)), 0, "all owe one hit: way 0");
        // Ways 3 and 5 deliver their expected hit and tie at zero.
        p.on_hit(1, 5, &ctx(0x40));
        p.on_hit(1, 3, &ctx(0x40));
        assert_eq!(p.victim(1, &ctx(0)), 3);
        // A saturated counter stays spent and keeps the tie.
        for _ in 0..40 {
            p.on_hit(1, 5, &ctx(0x40));
        }
        assert_eq!(p.victim(1, &ctx(0)), 3);
        assert_eq!(p.audit_set_digest(1).unwrap()[5 * 3 + 2], HITS_MAX);
    }

    #[test]
    fn declared_shape_and_storage() {
        let p = EhcPolicy::new(&geom());
        assert_eq!(p.shard_affinity(), ShardAffinity::Global);
        assert_eq!(p.slice_kernel(), None::<SliceKernel>);
        assert_eq!(p.bits_per_set(), 16 * 16);
        assert_eq!(p.global_bits(), 4096 * 4);
    }
}
