//! Set-sharded stream routing for single-pass multi-policy replay.
//!
//! Cache sets are independent state machines: for any policy whose
//! transitions are per-set ([`ShardAffinity::SetLocal`]), the final state
//! and statistics of a replay depend only on the per-set subsequences of
//! the access stream, not on their interleaving. [`ShardedStream`]
//! exploits this by routing a captured stream once — one pre-pass doing
//! the set-index math — into `S` contiguous-set-range buckets, after
//! which every (policy × shard) pair can be replayed concurrently and
//! the per-shard [`CacheStats`] summed in fixed shard order, giving
//! results bit-identical to a sequential replay *and* bit-identical
//! run-to-run.
//!
//! Buckets are stored struct-of-arrays (packed block-address words and a
//! parallel PC array) so the replay scan stays branchless: the set and
//! tag fall out of the pre-split block address with a mask and a shift,
//! with no per-policy re-derivation.
//!
//! Timing reconstruction: hit/miss outcomes of a sharded replay arrive
//! bucket-by-bucket, but the cycle model
//! (`mem_model::PerfAccumulator`) consumes them in global stream order.
//! Each [`ShardRun`] therefore carries a hit bitmap over its bucket's
//! measured entries; [`ShardedStream::shard_of`] and
//! [`ShardedStream::icount`] let a merge pass replay those bits in exact
//! global order with one cursor per shard.

use crate::access::{Access, AccessKind};
use crate::cache::{MonoEngine, SetAssocCache, MONO_CHUNK};
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use crate::stats::CacheStats;

pub use crate::policy::ShardAffinity;

/// High bit of a packed bucket word marks a write; the low 63 bits are the
/// block address. With 64-byte lines a full 64-bit byte address leaves six
/// spare high bits, so the flag can never collide with address bits.
const WRITE_FLAG: u64 = 1 << 63;

/// One shard's slice of the stream, struct-of-arrays.
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// Block address | [`WRITE_FLAG`], in stream order.
    blk: Vec<u64>,
    /// Program counter of each access, parallel to `blk`.
    pc: Vec<u64>,
    /// Entries `[0, warm)` come from the stream's global warm-up prefix.
    warm: usize,
}

/// A captured access stream routed by set index into `S` buckets covering
/// contiguous, disjoint set ranges (shard `s` owns sets
/// `[s * sets/S, (s+1) * sets/S)`).
///
/// Routing is stable: within a bucket, accesses keep their stream order,
/// so every per-set subsequence is exactly what a sequential replay would
/// present to that set.
#[derive(Debug, Clone)]
pub struct ShardedStream {
    geom: CacheGeometry,
    buckets: Vec<Bucket>,
    /// Shard owning each *measured* access, in global stream order.
    shard_of: Vec<u16>,
    /// `icount_delta` of each measured access, in global stream order.
    icount: Vec<u32>,
    warmup: usize,
    shard_shift: u32,
}

/// The outcome of replaying one policy instance over one shard.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Statistics over the shard's measured entries (warm-up excluded).
    pub stats: CacheStats,
    /// Bit `i` set iff the shard's `i`-th measured access hit, packed 64
    /// per word in bucket order.
    pub hits: Vec<u64>,
}

impl ShardedStream {
    /// Routes `stream` into `shards` buckets for `geom`. The first
    /// `warmup` accesses are marked as warm-up: sharded replays run them
    /// to populate cache and policy state, then reset statistics —
    /// exactly the sequential warm-up contract, applied per set.
    ///
    /// `shards` must be a power of two no larger than `geom.sets()` (and
    /// at most 65 536, so shard ids fit in a `u16`).
    pub fn build(stream: &[Access], geom: &CacheGeometry, warmup: usize, shards: usize) -> Self {
        assert!(
            shards.is_power_of_two() && shards <= geom.sets() && shards <= 1 << 16,
            "shards must be a power of two in [1, min(sets, 65536)], got {shards}"
        );
        let warmup = warmup.min(stream.len());
        let shard_shift = geom.sets().trailing_zeros() - shards.trailing_zeros();

        // Pass 1: exact bucket sizes, so the fill pass never reallocates.
        let mut counts = vec![0usize; shards];
        for a in stream {
            let set = geom.set_of(a.addr);
            counts[set >> shard_shift] += 1;
        }
        let mut buckets: Vec<Bucket> = counts
            .iter()
            .map(|&n| Bucket {
                blk: Vec::with_capacity(n),
                pc: Vec::with_capacity(n),
                warm: 0,
            })
            .collect();

        // Pass 2: route. Warm-up entries land first in each bucket (the
        // stream is scanned in order), so `[0, warm)` is the warm prefix.
        let measured = stream.len() - warmup;
        let mut shard_of = Vec::with_capacity(measured);
        let mut icount = Vec::with_capacity(measured);
        for (i, a) in stream.iter().enumerate() {
            let block = geom.block_of(a.addr);
            debug_assert_eq!(block & WRITE_FLAG, 0, "block address overflows packed word");
            let s = geom.set_of_block(block) >> shard_shift;
            let b = &mut buckets[s];
            b.blk
                .push(block | if a.is_write() { WRITE_FLAG } else { 0 });
            b.pc.push(a.pc);
            if i < warmup {
                b.warm += 1;
            } else {
                shard_of.push(s as u16);
                icount.push(a.icount_delta);
            }
        }

        ShardedStream {
            geom: *geom,
            buckets,
            shard_of,
            icount,
            warmup,
            shard_shift,
        }
    }

    /// [`ShardedStream::build`] with the shard count chosen for a target
    /// parallelism: the largest power of two ≤ `max(target, 1)`, clamped
    /// to the set count. A few shards per worker would balance better,
    /// but each (policy × shard) task allocates a full tag array, so the
    /// engine keeps shard granularity coarse.
    pub fn for_parallelism(
        stream: &[Access],
        geom: &CacheGeometry,
        warmup: usize,
        target: usize,
    ) -> Self {
        let shards = prev_power_of_two(target.max(1))
            .min(geom.sets())
            .min(1 << 16);
        Self::build(stream, geom, warmup, shards)
    }

    /// The geometry the stream was routed for.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.buckets.len()
    }

    /// Total routed accesses (warm-up + measured).
    pub fn len(&self) -> usize {
        self.warmup + self.shard_of.len()
    }

    /// True iff the stream was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of the global warm-up prefix.
    pub fn warmup(&self) -> usize {
        self.warmup
    }

    /// Shard owning each measured access, in global stream order.
    pub fn shard_of(&self) -> &[u16] {
        &self.shard_of
    }

    /// `icount_delta` of each measured access, in global stream order.
    pub fn icount(&self) -> &[u32] {
        &self.icount
    }

    /// The shard owning `set`.
    pub fn shard_of_set(&self, set: usize) -> usize {
        set >> self.shard_shift
    }

    /// Number of measured accesses routed to `shard`.
    pub fn measured_in(&self, shard: usize) -> usize {
        let b = &self.buckets[shard];
        b.blk.len() - b.warm
    }

    /// Replays `policy` over `shard` on a fresh full-geometry cache.
    ///
    /// The cache spans all sets (policies index state by absolute set
    /// number), but only this shard's sets are ever touched, so the
    /// per-set transitions are exactly those of a sequential replay. The
    /// warm prefix runs first, statistics reset, then the measured
    /// entries replay while their hit bits are recorded.
    pub fn replay_shard<P: ReplacementPolicy>(&self, shard: usize, policy: P) -> ShardRun {
        self.replay_shard_on(shard, &mut SetAssocCache::with_policy(self.geom, policy))
    }

    /// [`replay_shard`](Self::replay_shard) on a cold mono engine of this
    /// stream's geometry, such as the one a boxed policy builds for its
    /// concrete type with
    /// [`into_mono_engine`](crate::IntoMonoEngine::into_mono_engine).
    /// Entries run in chunks of [`MONO_CHUNK`], the measured ones aligned
    /// so that each chunk's hit mask is one word of the bitmap.
    pub fn replay_shard_on(&self, shard: usize, engine: &mut dyn MonoEngine) -> ShardRun {
        let b = &self.buckets[shard];
        let line_shift = self.geom.line_bytes().trailing_zeros();
        let mut chunk = [Access::read(0, 0); MONO_CHUNK];
        let mut feed = |engine: &mut dyn MonoEngine, from: usize, to: usize| {
            let n = to - from;
            for (slot, i) in chunk.iter_mut().zip(from..to) {
                *slot = self.unpack(b, i, line_shift);
            }
            engine.feed_chunk(&chunk[..n])
        };
        for from in (0..b.warm).step_by(MONO_CHUNK) {
            feed(engine, from, (from + MONO_CHUNK).min(b.warm));
        }
        engine.reset_stats();
        let end = b.blk.len();
        let hits = (b.warm..end)
            .step_by(MONO_CHUNK)
            .map(|from| feed(engine, from, (from + MONO_CHUNK).min(end)))
            .collect();
        ShardRun {
            stats: *engine.stats(),
            hits,
        }
    }

    /// Sums per-shard statistics in fixed (ascending shard) order. The
    /// counters are `u64` sums, so any order gives the same totals; the
    /// fixed order is the documented determinism contract.
    pub fn merge_stats<'a, I>(runs: I) -> CacheStats
    where
        I: IntoIterator<Item = &'a ShardRun>,
    {
        let mut total = CacheStats::new();
        for r in runs {
            total += r.stats;
        }
        total
    }

    /// Bucket entry `i` as an access whose context is the one a
    /// sequential replay passes the policy.
    #[inline]
    fn unpack(&self, b: &Bucket, i: usize, line_shift: u32) -> Access {
        let word = b.blk[i];
        Access {
            // Reconstructed from the block address: sub-line bits are
            // gone. Part of the `SetLocal` contract (policies must not
            // read them); `Global` policies never take this path.
            addr: (word & !WRITE_FLAG) << line_shift,
            pc: b.pc[i],
            kind: if word & WRITE_FLAG != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            icount_delta: 0,
        }
    }

    /// Iterates a shard's measured hit bits in bucket order (test aid and
    /// merge-pass building block).
    pub fn hit_at(run: &ShardRun, j: usize) -> bool {
        run.hits[j >> 6] >> (j & 63) & 1 != 0
    }
}

/// Largest power of two ≤ `n` (`n` ≥ 1).
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::policy::fifo_like_fixture::AlwaysWayZero;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(64, 4, 64).unwrap()
    }

    fn synthetic(n: usize) -> Vec<Access> {
        // Deterministic xorshift mix of hot blocks and a scan.
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = if i % 3 == 0 {
                    (state % 128) * 64
                } else {
                    (state % 8192) * 64
                };
                let a = if state & 1 == 0 {
                    Access::read(addr, state % 1024)
                } else {
                    Access::write(addr, state % 1024)
                };
                a.with_icount_delta((state % 7) as u32 + 1)
            })
            .collect()
    }

    #[test]
    fn routing_preserves_order_and_ranges() {
        let geom = geom();
        let stream = synthetic(5000);
        let sharded = ShardedStream::build(&stream, &geom, 1000, 8);
        assert_eq!(sharded.shards(), 8);
        assert_eq!(sharded.len(), 5000);
        assert_eq!(sharded.warmup(), 1000);

        // Every access lands in the bucket owning its set range, in order.
        let sets_per_shard = geom.sets() / 8;
        let mut cursors = [0usize; 8];
        for a in &stream {
            let set = geom.set_of(a.addr);
            let s = set / sets_per_shard;
            let b = &sharded.buckets[s];
            let i = cursors[s];
            assert_eq!(b.blk[i] & !WRITE_FLAG, geom.block_of(a.addr));
            assert_eq!(b.blk[i] & WRITE_FLAG != 0, a.kind != AccessKind::Read);
            assert_eq!(b.pc[i], a.pc);
            cursors[s] += 1;
        }
        for (s, b) in sharded.buckets.iter().enumerate() {
            assert_eq!(cursors[s], b.blk.len());
        }

        // shard_of/icount cover exactly the measured suffix, in order.
        assert_eq!(sharded.shard_of().len(), 4000);
        for (k, a) in stream[1000..].iter().enumerate() {
            assert_eq!(
                sharded.shard_of()[k] as usize,
                geom.set_of(a.addr) / sets_per_shard
            );
            assert_eq!(sharded.icount()[k], a.icount_delta);
        }
    }

    #[test]
    fn warm_prefix_counts_sum_to_warmup() {
        let sharded = ShardedStream::build(&synthetic(3000), &geom(), 700, 4);
        let warm_total: usize = sharded.buckets.iter().map(|b| b.warm).sum();
        assert_eq!(warm_total, 700);
        let measured_total: usize = (0..4).map(|s| sharded.measured_in(s)).sum();
        assert_eq!(measured_total, 2300);
    }

    #[test]
    fn sharded_stats_match_sequential() {
        let geom = geom();
        let stream = synthetic(8000);
        let warmup = 2000;

        let mut seq = SetAssocCache::with_policy(geom, AlwaysWayZero);
        for a in &stream[..warmup] {
            seq.access_fast(a);
        }
        seq.reset_stats();
        let mut seq_hits = Vec::with_capacity(stream.len() - warmup);
        for a in &stream[warmup..] {
            seq_hits.push(seq.access_fast(a));
        }

        for shards in [1usize, 2, 16, 64] {
            let sharded = ShardedStream::build(&stream, &geom, warmup, shards);
            let runs: Vec<ShardRun> = (0..shards)
                .map(|s| sharded.replay_shard(s, AlwaysWayZero))
                .collect();
            assert_eq!(ShardedStream::merge_stats(&runs), *seq.stats());

            // Hit bitmaps replayed in global order equal the sequential
            // hit sequence.
            let mut cursors = vec![0usize; shards];
            for (k, &s) in sharded.shard_of().iter().enumerate() {
                let hit = ShardedStream::hit_at(&runs[s as usize], cursors[s as usize]);
                assert_eq!(hit, seq_hits[k], "access {k}");
                cursors[s as usize] += 1;
            }
        }
    }

    #[test]
    fn for_parallelism_clamps_to_power_of_two() {
        let stream = synthetic(100);
        let g = geom();
        assert_eq!(
            ShardedStream::for_parallelism(&stream, &g, 0, 5).shards(),
            4
        );
        assert_eq!(
            ShardedStream::for_parallelism(&stream, &g, 0, 1).shards(),
            1
        );
        assert_eq!(
            ShardedStream::for_parallelism(&stream, &g, 0, 1000).shards(),
            64
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_shards() {
        ShardedStream::build(&[], &geom(), 0, 3);
    }

    #[test]
    fn warmup_clamped_to_stream_length() {
        let stream = synthetic(10);
        let sharded = ShardedStream::build(&stream, &geom(), 50, 2);
        assert_eq!(sharded.warmup(), 10);
        assert_eq!(sharded.shard_of().len(), 0);
    }
}
