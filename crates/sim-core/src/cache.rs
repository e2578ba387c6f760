//! A set-associative cache driving a pluggable replacement policy.

use crate::access::AccessContext;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use crate::stats::CacheStats;

/// One cache line packed into a `u64`: the tag in the low 62 bits, with
/// valid at bit 62 and dirty at bit 63. Packing keeps a 16-way set's
/// metadata inside two cache lines (16 bytes/line with separate flag
/// bytes needed four), which roughly halves the memory traffic of the
/// tag scan — the single hottest loop in the simulator. Tags are block
/// addresses shifted right by `log2(sets)`, so with 64-byte lines even a
/// full 64-bit byte address leaves the top two bits free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line(u64);

pub(crate) const LINE_VALID: u64 = 1 << 62;
pub(crate) const LINE_DIRTY: u64 = 1 << 63;
pub(crate) const LINE_TAG_MASK: u64 = LINE_VALID - 1;

/// One branchless pass over a set's packed line words, the tag scan of
/// both engines ([`SetAssocCache`] and the bit-sliced
/// [`SlicedCache`](crate::SlicedCache)): `(match_mask, valid_mask)` with
/// bit `way` set iff that way holds `tag` (whatever its dirty bit) / holds
/// a valid line.
///
/// A plain OR-reduction with no early exit: with `-C target-cpu=native`
/// LLVM lowers it to wide loads, packed compares and a movemask, and
/// under the sliced engine's literal way count the loop unrolls
/// completely. A hand-chunked 4-lane form measured within noise of this
/// loop in the sliced step (PLRU, LRU, GIPPR, DGIPPR) and 15–25 % slower
/// in the mono engine, so there is only this one.
#[inline(always)]
pub(crate) fn scan_set(words: impl Iterator<Item = u64>, tag: u64) -> (u64, u64) {
    let want = tag | LINE_VALID;
    let mut match_mask = 0u64;
    let mut valid_mask = 0u64;
    for (way, word) in words.enumerate() {
        match_mask |= u64::from(word & !LINE_DIRTY == want) << way;
        valid_mask |= u64::from(word & LINE_VALID != 0) << way;
    }
    (match_mask, valid_mask)
}

impl Line {
    #[inline]
    fn new(tag: u64, dirty: bool) -> Self {
        debug_assert_eq!(tag & !LINE_TAG_MASK, 0, "tag overflows packed line");
        Line(tag | LINE_VALID | if dirty { LINE_DIRTY } else { 0 })
    }

    #[inline]
    fn valid(self) -> bool {
        self.0 & LINE_VALID != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.0 & LINE_DIRTY != 0
    }

    #[inline]
    fn tag(self) -> u64 {
        self.0 & LINE_TAG_MASK
    }

    /// True iff valid with this tag, whatever the dirty bit.
    #[inline]
    fn matches(self, tag: u64) -> bool {
        self.0 & !LINE_DIRTY == tag | LINE_VALID
    }

    #[inline]
    fn set_dirty(&mut self, dirty: bool) {
        if dirty {
            self.0 |= LINE_DIRTY;
        }
    }
}

/// A block displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block (line) address of the displaced block.
    pub block_addr: u64,
    /// Whether the block was dirty and must be written downstream.
    pub dirty: bool,
}

/// The result of one cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was resident.
    pub hit: bool,
    /// The block displaced by the fill, if any.
    pub evicted: Option<Evicted>,
    /// Whether the incoming block bypassed the cache entirely.
    pub bypassed: bool,
}

/// A set-associative cache with tags, per-line dirty bits, and statistics.
///
/// The cache stores *block addresses*; callers convert byte addresses via
/// [`CacheGeometry::block_of`] or use [`SetAssocCache::access`].
///
/// The policy type parameter defaults to `Box<dyn ReplacementPolicy>`, so
/// `SetAssocCache` written without parameters is the dynamically-dispatched
/// cache used by factory-driven sweeps. Hot paths (the GA fitness loop)
/// instead instantiate [`SetAssocCache::with_policy`] at a concrete policy
/// type, monomorphizing every callback into the replay loop.
///
/// # Example
///
/// ```
/// use sim_core::{Access, CacheGeometry, SetAssocCache};
/// use sim_core::policy::fifo_like_fixture::AlwaysWayZero;
///
/// # fn main() -> Result<(), sim_core::GeometryError> {
/// let geom = CacheGeometry::new(4096, 4, 64)?;
/// let mut cache = SetAssocCache::new(geom, Box::new(AlwaysWayZero::new(&geom)));
/// let a = Access::read(0x1000, 0);
/// assert!(!cache.access(&a).hit); // cold miss
/// assert!(cache.access(&a).hit); // now resident
///
/// // Monomorphized equivalent — no virtual dispatch in the access path:
/// let mut fast = SetAssocCache::with_policy(geom, AlwaysWayZero::new(&geom));
/// assert!(!fast.access(&a).hit);
/// # Ok(())
/// # }
/// ```
pub struct SetAssocCache<P: ReplacementPolicy = Box<dyn ReplacementPolicy>> {
    geom: CacheGeometry,
    lines: Vec<Line>,
    policy: P,
    stats: CacheStats,
}

impl<P: ReplacementPolicy> std::fmt::Debug for SetAssocCache<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("geom", &self.geom)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SetAssocCache {
    /// Creates an empty cache using a boxed `policy` for replacement
    /// decisions (the dynamic-dispatch compatibility entry point; see
    /// [`SetAssocCache::with_policy`] for the monomorphized one).
    pub fn new(geom: CacheGeometry, policy: Box<dyn ReplacementPolicy>) -> Self {
        SetAssocCache::with_policy(geom, policy)
    }
}

impl<P: ReplacementPolicy> SetAssocCache<P> {
    /// Creates an empty cache driving `policy` with static dispatch.
    pub fn with_policy(geom: CacheGeometry, policy: P) -> Self {
        SetAssocCache {
            geom,
            lines: vec![Line::default(); geom.sets() * geom.ways()],
            policy,
            stats: CacheStats::new(),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. after a warm-up phase) without touching
    /// contents or policy state.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// The policy driving this cache.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Looks up a byte-addressed access, filling on miss.
    #[inline]
    pub fn access(&mut self, access: &crate::access::Access) -> AccessOutcome {
        self.access_block(self.geom.block_of(access.addr), &access.context())
    }

    /// [`SetAssocCache::access`] for callers that only need the hit/miss
    /// outcome (the replay loop): identical state transitions and
    /// statistics, but skips assembling the [`Evicted`] record — on a
    /// replayed LLC miss nobody consumes the displaced block's address,
    /// and reconstructing it costs a shift/or per miss in the hottest
    /// loop of the simulator.
    #[inline]
    pub fn access_fast(&mut self, access: &crate::access::Access) -> bool {
        let block_addr = self.geom.block_of(access.addr);
        let ctx = access.context();
        let set = self.geom.set_of_block(block_addr);
        let tag = self.geom.tag_of_block(block_addr);
        self.access_tagged(set, tag, &ctx)
    }

    /// [`SetAssocCache::access_fast`] with the set/tag arithmetic already
    /// done. The sharded replay engine pre-routes each access to its set
    /// once per *stream* and then drives every policy from the packed
    /// buckets, so the hot loop must accept pre-split coordinates instead
    /// of re-deriving them per policy.
    #[inline]
    pub fn access_tagged(&mut self, set: usize, tag: u64, ctx: &AccessContext) -> bool {
        let ways = self.geom.ways();
        let base = set * ways;
        self.stats.accesses += 1;

        let (match_mask, valid_mask) =
            scan_set(self.lines[base..base + ways].iter().map(|l| l.0), tag);

        if match_mask != 0 {
            let way = match_mask.trailing_zeros() as usize;
            self.lines[base + way].set_dirty(ctx.is_write);
            self.stats.hits += 1;
            self.policy.on_hit(set, way, ctx);
            return true;
        }

        self.stats.misses += 1;
        self.policy.on_miss(set, ctx);
        if self.policy.should_bypass(set, ctx) {
            self.stats.bypasses += 1;
            return false;
        }

        let first_invalid = (!valid_mask).trailing_zeros() as usize;
        let fill_way = if first_invalid < ways {
            first_invalid
        } else {
            let w = self.policy.victim(set, ctx);
            assert!(
                w < ways,
                "policy {} returned way {w} >= {ways}",
                self.policy.name()
            );
            self.stats.evictions += 1;
            if self.lines[base + w].dirty() {
                self.stats.writebacks += 1;
            }
            self.policy.on_evict(set, w);
            w
        };
        self.lines[base + fill_way] = Line::new(tag, ctx.is_write);
        self.policy.on_fill(set, fill_way, ctx);
        false
    }

    /// Looks up `block_addr`, filling on miss. `ctx` is forwarded to the
    /// policy callbacks.
    #[inline]
    pub fn access_block(&mut self, block_addr: u64, ctx: &AccessContext) -> AccessOutcome {
        let set = self.geom.set_of_block(block_addr);
        let tag = self.geom.tag_of_block(block_addr);
        let ways = self.geom.ways();
        let base = set * ways;
        self.stats.accesses += 1;

        // One branchless pass over the set builds a match mask and a valid
        // mask (wide compares, no early exit); `trailing_zeros` then yields
        // the hit way and the first invalid way. Tags are unique within a
        // set, so at most one bit matches.
        let (match_mask, valid_mask) =
            scan_set(self.lines[base..base + ways].iter().map(|l| l.0), tag);

        if match_mask != 0 {
            let way = match_mask.trailing_zeros() as usize;
            self.lines[base + way].set_dirty(ctx.is_write);
            self.stats.hits += 1;
            self.policy.on_hit(set, way, ctx);
            return AccessOutcome {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }
        let invalid = match (!valid_mask).trailing_zeros() as usize {
            w if w < ways => w,
            _ => usize::MAX,
        };

        // Miss path.
        self.stats.misses += 1;
        self.policy.on_miss(set, ctx);
        if self.policy.should_bypass(set, ctx) {
            self.stats.bypasses += 1;
            return AccessOutcome {
                hit: false,
                evicted: None,
                bypassed: true,
            };
        }

        // Prefer an invalid way; otherwise ask the policy for a victim.
        let (fill_way, evicted) = match (invalid != usize::MAX).then_some(invalid) {
            Some(w) => (w, None),
            None => {
                let w = self.policy.victim(set, ctx);
                assert!(
                    w < ways,
                    "policy {} returned way {w} >= {ways}",
                    self.policy.name()
                );
                let old = self.lines[base + w];
                self.stats.evictions += 1;
                if old.dirty() {
                    self.stats.writebacks += 1;
                }
                self.policy.on_evict(set, w);
                (
                    w,
                    Some(Evicted {
                        block_addr: self.geom.block_from_parts(set, old.tag()),
                        dirty: old.dirty(),
                    }),
                )
            }
        };

        self.lines[base + fill_way] = Line::new(tag, ctx.is_write);
        self.policy.on_fill(set, fill_way, ctx);
        AccessOutcome {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    /// Returns whether `block_addr` is currently resident (no side effects).
    pub fn probe(&self, block_addr: u64) -> bool {
        let set = self.geom.set_of_block(block_addr);
        let tag = self.geom.tag_of_block(block_addr);
        let base = set * self.geom.ways();
        (0..self.geom.ways()).any(|w| self.lines[base + w].matches(tag))
    }

    /// Invalidates `block_addr` if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, block_addr: u64) -> Option<bool> {
        let set = self.geom.set_of_block(block_addr);
        let tag = self.geom.tag_of_block(block_addr);
        let base = set * self.geom.ways();
        for w in 0..self.geom.ways() {
            let l = &mut self.lines[base + w];
            if l.matches(tag) {
                let dirty = l.dirty();
                *l = Line::default();
                self.policy.on_evict(set, w);
                return Some(dirty);
            }
        }
        None
    }

    /// Number of valid lines in `set` (test/diagnostic aid).
    pub fn occupancy(&self, set: usize) -> usize {
        let base = set * self.geom.ways();
        (0..self.geom.ways())
            .filter(|&w| self.lines[base + w].valid())
            .count()
    }

    /// Block addresses currently resident in `set`, in way order.
    pub fn resident_blocks(&self, set: usize) -> Vec<u64> {
        let base = set * self.geom.ways();
        (0..self.geom.ways())
            .filter_map(|w| {
                let l = self.lines[base + w];
                l.valid().then(|| self.geom.block_from_parts(set, l.tag()))
            })
            .collect()
    }

    /// Total replacement-metadata bits (per-set plus global) for this cache.
    pub fn replacement_bits(&self) -> u64 {
        self.policy.bits_per_set() * self.geom.sets() as u64 + self.policy.global_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::policy::fifo_like_fixture::AlwaysWayZero;

    /// The one tag scan against per-way reads of the line words, for
    /// every mix of invalid, clean, dirty and other-tag lines at widths
    /// from 1 to 64 ways (the mask width).
    #[test]
    fn scan_set_matches_per_way_reads() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for ways in [1usize, 2, 3, 4, 5, 7, 8, 12, 15, 16, 32, 64] {
            for _ in 0..200 {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let tag = next() & 0xff;
                let lines: Vec<Line> = (0..ways)
                    .map(|_| {
                        let r = next();
                        Line(match r % 5 {
                            0 => 0,                             // invalid
                            1 => tag | LINE_VALID,              // clean match
                            2 => tag | LINE_VALID | LINE_DIRTY, // dirty match
                            3 => tag | LINE_DIRTY,              // invalid, stale tag
                            _ => (r >> 8 & 0xff) | LINE_VALID,  // other tag
                        })
                    })
                    .collect();
                let (m, v) = scan_set(lines.iter().map(|l| l.0), tag);
                for (way, line) in lines.iter().enumerate() {
                    let what = format!("ways {ways}, way {way}, line {:#x}", line.0);
                    assert_eq!(m >> way & 1 == 1, line.matches(tag), "{what}");
                    assert_eq!(v >> way & 1 == 1, line.valid(), "{what}");
                }
                if ways < 64 {
                    assert_eq!(
                        (m >> ways, v >> ways),
                        (0, 0),
                        "ways {ways}: bits past the set"
                    );
                }
            }
        }
    }

    fn small_cache() -> SetAssocCache {
        let geom = CacheGeometry::new(1024, 4, 64).unwrap(); // 4 sets x 4 ways
        SetAssocCache::new(geom, Box::new(AlwaysWayZero::new(&geom)))
    }

    fn blk(set: usize, tag: u64) -> u64 {
        (tag << 2) | set as u64 // 4 sets
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache();
        let ctx = AccessContext::blank();
        assert!(!c.access_block(blk(0, 1), &ctx).hit);
        assert!(c.access_block(blk(0, 1), &ctx).hit);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn fills_invalid_ways_before_evicting() {
        let mut c = small_cache();
        let ctx = AccessContext::blank();
        for tag in 0..4 {
            let out = c.access_block(blk(1, tag), &ctx);
            assert!(
                out.evicted.is_none(),
                "no eviction while set has invalid ways"
            );
        }
        assert_eq!(c.occupancy(1), 4);
        let out = c.access_block(blk(1, 99), &ctx);
        assert_eq!(
            out.evicted,
            Some(Evicted {
                block_addr: blk(1, 0),
                dirty: false
            })
        );
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small_cache();
        let wctx = AccessContext {
            is_write: true,
            ..AccessContext::blank()
        };
        let rctx = AccessContext::blank();
        c.access_block(blk(2, 0), &wctx); // dirty fill into way 0
        for tag in 1..4 {
            c.access_block(blk(2, tag), &rctx);
        }
        let out = c.access_block(blk(2, 50), &rctx); // evicts way 0 (dirty)
        assert!(out.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small_cache();
        let rctx = AccessContext::blank();
        let wctx = AccessContext {
            is_write: true,
            ..AccessContext::blank()
        };
        c.access_block(blk(3, 7), &rctx); // clean fill
        c.access_block(blk(3, 7), &wctx); // write hit dirties it
        for tag in 0..3 {
            c.access_block(blk(3, tag), &rctx);
        }
        let out = c.access_block(blk(3, 40), &rctx);
        assert!(out.evicted.unwrap().dirty);
    }

    #[test]
    fn probe_and_invalidate() {
        let mut c = small_cache();
        let ctx = AccessContext::blank();
        c.access_block(blk(0, 5), &ctx);
        assert!(c.probe(blk(0, 5)));
        assert!(!c.probe(blk(0, 6)));
        assert_eq!(c.invalidate(blk(0, 5)), Some(false));
        assert!(!c.probe(blk(0, 5)));
        assert_eq!(c.invalidate(blk(0, 5)), None);
    }

    #[test]
    fn byte_address_entry_point() {
        let mut c = small_cache();
        // Two addresses in the same 64-byte line are one block.
        assert!(!c.access(&Access::read(0x1000, 0)).hit);
        assert!(c.access(&Access::read(0x1030, 0)).hit);
    }

    #[test]
    fn resident_blocks_reconstructs_addresses() {
        let mut c = small_cache();
        let ctx = AccessContext::blank();
        for tag in [3u64, 9, 12] {
            c.access_block(blk(2, tag), &ctx);
        }
        let mut resident = c.resident_blocks(2);
        resident.sort_unstable();
        assert_eq!(resident, vec![blk(2, 3), blk(2, 9), blk(2, 12)]);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small_cache();
        let ctx = AccessContext::blank();
        c.access_block(blk(0, 1), &ctx);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(
            c.access_block(blk(0, 1), &ctx).hit,
            "contents survive reset"
        );
    }

    #[test]
    fn replacement_bits_scales_with_sets() {
        let c = small_cache();
        assert_eq!(c.replacement_bits(), 0); // fixture policy is stateless
    }
}
