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
/// [`SetAssocCache`]'s one access body: `(match_mask, valid_mask)` with
/// bit `way` set iff that way holds `tag` (whatever its dirty bit) /
/// holds a valid line. The mono engine's chunk loop passes a literal
/// associativity, so the scan unrolls fully at 2, 4, 8 and 16 ways.
/// (The bit-sliced [`SlicedCache`](crate::SlicedCache) builds the match
/// mask alone: its valid lines form a prefix of each set, so one load
/// answers whether a set is full.)
///
/// A plain OR-reduction with no early exit: with `-C target-cpu=native`
/// LLVM lowers it to wide loads, packed compares and a movemask. A
/// hand-chunked 4-lane form measured 15–25 % slower in the mono engine.
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

/// What one pass of [`access_body`] did.
#[derive(Clone, Copy)]
enum Step {
    Hit,
    /// A miss the policy chose not to fill.
    Bypassed,
    /// A miss that filled; the line it displaced (invalid when the fill
    /// took an empty way).
    Filled(Line),
}

/// The per-access protocol of every [`SetAssocCache`] entry point, over
/// split borrows so a caller can keep `stats` in a local copy (the chunk
/// loop does; a counter bumped through `&mut self` is reloaded and stored
/// around every inlined policy callback). `ways` is `geom.ways()`, passed
/// as a literal where the caller dispatched on it, so the tag scan
/// unrolls fully.
///
/// One branchless pass over the set builds a match mask and a valid mask
/// (wide compares, no early exit); `trailing_zeros` then yields the hit
/// way and the first invalid way. Tags are unique within a set, so at
/// most one bit matches. A miss prefers an invalid way and otherwise asks
/// the policy for a victim.
#[inline(always)]
fn access_body<P: ReplacementPolicy>(
    ways: usize,
    geom: &CacheGeometry,
    lines: &mut [Line],
    policy: &mut P,
    stats: &mut CacheStats,
    block_addr: u64,
    ctx: &AccessContext,
) -> Step {
    let set = geom.set_of_block(block_addr);
    let tag = geom.tag_of_block(block_addr);
    let base = set * ways;
    let lines = &mut lines[base..base + ways];
    stats.accesses += 1;

    let (match_mask, valid_mask) = scan_set(lines.iter().map(|l| l.0), tag);

    if match_mask != 0 {
        let way = match_mask.trailing_zeros() as usize;
        lines[way].set_dirty(ctx.is_write);
        stats.hits += 1;
        policy.on_hit(set, way, ctx);
        return Step::Hit;
    }

    stats.misses += 1;
    policy.on_miss(set, ctx);
    if policy.should_bypass(set, ctx) {
        stats.bypasses += 1;
        return Step::Bypassed;
    }

    let first_invalid = (!valid_mask).trailing_zeros() as usize;
    let (fill_way, old) = if first_invalid < ways {
        (first_invalid, Line::default())
    } else {
        let w = policy.victim(set, ctx);
        assert!(
            w < ways,
            "policy {} returned way {w} >= {ways}",
            policy.name()
        );
        let old = lines[w];
        stats.evictions += 1;
        if old.dirty() {
            stats.writebacks += 1;
        }
        policy.on_evict(set, w);
        (w, old)
    };
    lines[fill_way] = Line::new(tag, ctx.is_write);
    policy.on_fill(set, fill_way, ctx);
    Step::Filled(old)
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
/// cache, one virtual call per policy callback. Hot paths instantiate
/// [`SetAssocCache::with_policy`] at a concrete policy type instead,
/// monomorphizing every callback into the replay loop; the replay engines
/// reach that type even from a boxed policy, through
/// [`IntoMonoEngine`](crate::IntoMonoEngine).
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
    ///
    /// It runs the one access body the mono engine's chunk loop runs, and
    /// its lookup, fill and callback order is the protocol the bit-sliced
    /// engine's full mode reproduces.
    #[inline]
    pub fn access_fast(&mut self, access: &crate::access::Access) -> bool {
        let SetAssocCache {
            geom,
            lines,
            policy,
            stats,
        } = self;
        let block = geom.block_of(access.addr);
        let step = access_body(
            geom.ways(),
            geom,
            lines,
            policy,
            stats,
            block,
            &access.context(),
        );
        matches!(step, Step::Hit)
    }

    /// Looks up `block_addr`, filling on miss. `ctx` is forwarded to the
    /// policy callbacks.
    #[inline]
    pub fn access_block(&mut self, block_addr: u64, ctx: &AccessContext) -> AccessOutcome {
        let SetAssocCache {
            geom,
            lines,
            policy,
            stats,
        } = self;
        let step = access_body(geom.ways(), geom, lines, policy, stats, block_addr, ctx);
        let set = geom.set_of_block(block_addr);
        let evicted = |old: Line| Evicted {
            block_addr: geom.block_from_parts(set, old.tag()),
            dirty: old.dirty(),
        };
        AccessOutcome {
            hit: matches!(step, Step::Hit),
            evicted: match step {
                Step::Filled(old) => old.valid().then(|| evicted(old)),
                Step::Hit | Step::Bypassed => None,
            },
            bypassed: matches!(step, Step::Bypassed),
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

/// The most accesses one [`MonoEngine::feed_chunk`] call takes: one bit
/// of the returned hit mask each.
pub const MONO_CHUNK: usize = 64;

/// A [`SetAssocCache`] behind one virtual call per chunk of accesses,
/// not per policy callback.
///
/// [`IntoMonoEngine::into_mono_engine`](crate::IntoMonoEngine::into_mono_engine)
/// builds one for the policy's
/// concrete type, so a factory-built `Box<dyn ReplacementPolicy>` still
/// replays with every callback inlined into the chunk loop. That loop
/// runs the access body [`access_fast`](SetAssocCache::access_fast) runs,
/// with the statistics in a local copy written back once per chunk and
/// the associativity a literal at 2, 4, 8 and 16 ways.
pub trait MonoEngine: Send {
    /// Runs `accesses` (at most [`MONO_CHUNK`] of them) through the
    /// cache, in order. Bit `i` of the result is set iff `accesses[i]`
    /// hit.
    fn feed_chunk(&mut self, accesses: &[crate::access::Access]) -> u64;

    /// Statistics accumulated so far.
    fn stats(&self) -> &CacheStats;

    /// Zeroes the statistics; contents and policy state stay warm.
    fn reset_stats(&mut self);
}

/// [`access_body`] over one chunk; bit `i` of the result is set iff
/// `accesses[i]` hit.
#[inline(always)]
fn chunk_loop<P: ReplacementPolicy>(
    ways: usize,
    geom: &CacheGeometry,
    lines: &mut [Line],
    policy: &mut P,
    stats: &mut CacheStats,
    accesses: &[crate::access::Access],
) -> u64 {
    let mut hits = 0u64;
    for (i, a) in accesses.iter().enumerate() {
        let block = geom.block_of(a.addr);
        let step = access_body(ways, geom, lines, policy, stats, block, &a.context());
        hits |= u64::from(matches!(step, Step::Hit)) << i;
    }
    hits
}

impl<P: ReplacementPolicy> MonoEngine for SetAssocCache<P> {
    #[inline]
    fn feed_chunk(&mut self, accesses: &[crate::access::Access]) -> u64 {
        debug_assert!(accesses.len() <= MONO_CHUNK, "chunk of {}", accesses.len());
        let SetAssocCache {
            geom,
            lines,
            policy,
            stats,
        } = self;
        // A local copy keeps the counters in registers across the inlined
        // policy callbacks; it is written back once per chunk. Literal
        // associativities monomorphize the body with a constant `ways`, so
        // the tag scan unrolls; other widths take the runtime arm.
        let mut local = *stats;
        let hits = match geom.ways() {
            2 => chunk_loop(2, geom, lines, policy, &mut local, accesses),
            4 => chunk_loop(4, geom, lines, policy, &mut local, accesses),
            8 => chunk_loop(8, geom, lines, policy, &mut local, accesses),
            16 => chunk_loop(16, geom, lines, policy, &mut local, accesses),
            w => chunk_loop(w, geom, lines, policy, &mut local, accesses),
        };
        *stats = local;
        hits
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        SetAssocCache::reset_stats(self);
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
