//! Belady's MIN: the offline optimal replacement policy.
//!
//! MIN evicts the block whose next reference lies farthest in the future
//! (Belady, 1966). The paper measures it with an in-house trace-based
//! simulator to bound how much room remains above every online policy
//! (Figure 10: MIN reaches 67.5 % of LRU's misses); it deliberately does
//! *not* report MIN speedups, because "the MIN algorithm is not
//! well-defined in a system that allows out-of-order issue" — we follow
//! suit and expose miss counts only.
//!
//! Sets never interact, so the simulation works set by set:
//!
//! 1. **Bucket.** The stream is cut into pieces (the warm-up and the
//!    measured part, each split once per pool executor), and each piece
//!    is counting-sorted by set on the pool, stably, into its own range of
//!    one block buffer. A set's bucket is its run in every piece,
//!    concatenated in stream order; inside it, the bucket position orders
//!    references exactly as the stream index does.
//! 2. **Link.** Each set's next-use chain comes from a reverse scan of
//!    its bucket with a small open-addressed table sized to that bucket,
//!    which stays in cache. The keys are block addresses under a fixed
//!    multiplicative hash, so a crafted trace can lengthen probes but
//!    never change a count.
//! 3. **Simulate.** Each set runs on one flat row of `ways` next-use
//!    stamps, with no tags: stamp `j` belongs only to the block referenced
//!    at position `j`, so that block is resident exactly when the way
//!    that took stamp `j` still holds it, an O(1) check. A miss evicts the
//!    argmax of the row (a free way outranks every stamp, so cold misses
//!    fill first), and the chosen way takes the new next use.
//! 4. **Fan out.** Contiguous set ranges of about equal access count run
//!    as tasks on [`sim_core::pool::global`], as many as its executor cap,
//!    and their integer counters are summed.

use sim_core::{pool, Access, CacheGeometry, CacheStats};
use std::sync::Mutex;

/// The next use of a block that is never referenced again in its set.
const NEVER: u32 = u32::MAX - 1;
/// A way holding no block, and an empty link-table slot. It outranks
/// [`NEVER`], so a miss fills free ways before it evicts anything.
const FREE: u32 = u32::MAX;

/// Simulates Belady's MIN over a captured LLC access stream, counting
/// the portion after `warmup` accesses.
///
/// Every access fills on a miss (MIN here never bypasses), evicting the
/// resident block whose next reference is farthest away. The returned
/// [`CacheStats`] holds `accesses`, `hits`, `misses` and `evictions` over
/// the measured window (stream indices `warmup..`); `writebacks` and
/// `bypasses` are always 0. A `warmup` at or past the end of the stream
/// measures nothing and returns all zeros.
///
/// **Ties.** Two occupants of a set can share a next use only if neither
/// is referenced again: every later reference belongs to exactly one
/// block, so every finite next use in a set is unique. Evicting either
/// dead block leaves the same future hits and misses, so any tie rule
/// gives identical counts; this one takes the lowest way.
///
/// **Memory.** 8 bytes per access for the set buckets (one buffer,
/// allocated on the calling thread), plus, per running task, at most 64
/// bytes per access of the largest set it handles (the gathered bucket,
/// its next-use chain, the link table and the stamp-to-way index).
/// Positions within a set are `u32`, so one set may receive at most
/// `u32::MAX - 1` accesses; more panics.
///
/// See the module docs for the algorithm. The counts equal those of the
/// naive two-pass simulation (`sim_verify::refmodels::ref_min_misses`)
/// on every field.
///
/// # Example
///
/// ```
/// use mem_model::min_misses;
/// use sim_core::{Access, CacheGeometry};
///
/// # fn main() -> Result<(), sim_core::GeometryError> {
/// let geom = CacheGeometry::from_sets(1, 2, 64)?;
/// // Three blocks alternating in a 2-way set: MIN keeps the useful two.
/// let stream: Vec<Access> =
///     [0u64, 64, 128, 0, 64, 128].iter().map(|&a| Access::read(a, 0)).collect();
/// let stats = min_misses(&stream, geom, 0);
/// assert_eq!(stats.misses, 4, "optimal misses: 3 cold + 1");
/// # Ok(())
/// # }
/// ```
pub fn min_misses(stream: &[Access], geom: CacheGeometry, warmup: usize) -> CacheStats {
    let pool = pool::global();
    let buckets = SetBuckets::new(stream, geom, warmup, pool.cap());
    let cuts = buckets.cuts(pool.cap());
    pool.run(cuts.len() - 1, usize::MAX, |g| {
        let mut sim = SetSim::new(geom.ways());
        let mut stats = CacheStats::new();
        for set in cuts[g]..cuts[g + 1] {
            sim.simulate(&buckets, set, &mut stats);
        }
        stats
    })
    .into_iter()
    .fold(CacheStats::new(), |a, b| a + b)
}

/// The stream bucketed by set. The stream is cut into pieces, and each
/// piece is counting-sorted by set into its own range of `blocks`; set
/// `s`'s bucket is its run in every piece, in piece order.
struct SetBuckets {
    /// Every access's block, piece by piece.
    blocks: Vec<u64>,
    pieces: Vec<Piece>,
    sets: usize,
}

/// One contiguous piece of the stream, sorted by set.
struct Piece {
    /// Where the piece starts, in the stream and in `SetBuckets::blocks`.
    base: usize,
    /// Set `s`'s run is `start[s]..start[s + 1]`, relative to `base`.
    start: Vec<usize>,
    /// Whether the piece lies in the warm-up.
    warm: bool,
}

impl SetBuckets {
    /// Cuts the warm-up and the measured part into `split` pieces each
    /// and sorts the pieces on the pool.
    fn new(stream: &[Access], geom: CacheGeometry, warmup: usize, split: usize) -> Self {
        let warmup = warmup.min(stream.len());
        let mut blocks = vec![0u64; stream.len()];
        let (warm_out, measured_out) = blocks.split_at_mut(warmup);
        let (warm_in, measured_in) = stream.split_at(warmup);
        // Each task sorts one piece into that piece's own slice of
        // `blocks`, handed over behind an uncontended lock.
        let jobs: Vec<_> = [
            (true, warm_in, warm_out),
            (false, measured_in, measured_out),
        ]
        .into_iter()
        .flat_map(|(warm, input, out)| {
            let chunk = input.len().div_ceil(split).max(1);
            input
                .chunks(chunk)
                .zip(out.chunks_mut(chunk))
                .map(move |(input, out)| (warm, input, Mutex::new(out)))
        })
        .collect();
        let starts = pool::global().run(jobs.len(), usize::MAX, |i| {
            let (_, input, out) = &jobs[i];
            let mut out = out.lock().expect("each piece is sorted by one task");
            sort_by_set(input, geom, &mut out)
        });
        let mut base = 0;
        let pieces = jobs
            .into_iter()
            .zip(starts)
            .map(|((warm, input, _), start)| {
                base += input.len();
                Piece {
                    base: base - input.len(),
                    start,
                    warm,
                }
            })
            .collect();
        SetBuckets {
            blocks,
            pieces,
            sets: geom.sets(),
        }
    }

    /// Set `s`'s run in `piece`.
    fn run(&self, piece: &Piece, s: usize) -> &[u64] {
        &self.blocks[piece.base + piece.start[s]..piece.base + piece.start[s + 1]]
    }

    /// Boundaries of at most `groups` contiguous set ranges holding about
    /// equal numbers of accesses: range `g` is sets `cuts[g]..cuts[g + 1]`.
    fn cuts(&self, groups: usize) -> Vec<usize> {
        let mut start = vec![0usize; self.sets + 1];
        for s in 0..self.sets {
            let len: usize = self
                .pieces
                .iter()
                .map(|p| p.start[s + 1] - p.start[s])
                .sum();
            start[s + 1] = start[s] + len;
        }
        let groups = groups.clamp(1, self.sets);
        let n = start[self.sets];
        let mut cuts: Vec<usize> = (0..groups)
            .map(|g| start[..self.sets].partition_point(|&o| o * groups < g * n))
            .collect();
        cuts.push(self.sets);
        cuts
    }
}

/// Stable counting sort of `part`'s blocks by set into `out`; returns the
/// run boundaries (`start[s]..start[s + 1]` is set `s`'s run).
fn sort_by_set(part: &[Access], geom: CacheGeometry, out: &mut [u64]) -> Vec<usize> {
    let sets = geom.sets();
    let mut start = vec![0usize; sets + 1];
    for a in part {
        start[geom.set_of(a.addr) + 1] += 1;
    }
    for s in 0..sets {
        start[s + 1] += start[s];
    }
    let mut cursor = start[..sets].to_vec();
    for a in part {
        let block = geom.block_of(a.addr);
        let c = &mut cursor[geom.set_of_block(block)];
        out[*c] = block;
        *c += 1;
    }
    start
}

/// One task's scratch, reused across its sets: a set's gathered bucket,
/// its next-use chain, the link table that builds the chain, and the
/// occupant row.
struct SetSim {
    bucket: Vec<u64>,
    /// `next[j]`: bucket position of the next reference to the block at
    /// position `j`, or [`NEVER`].
    next: Vec<u32>,
    /// Open-addressed link table: block keys and the latest position of
    /// each ([`FREE`] marks an empty slot).
    keys: Vec<u64>,
    last: Vec<u32>,
    /// The next-use stamp held by each way, or [`FREE`].
    row: Vec<u32>,
    /// `way_of[t]`: the way that last took stamp `t` (slot `len` absorbs
    /// the [`NEVER`] stamps).
    way_of: Vec<u32>,
}

impl SetSim {
    fn new(ways: usize) -> Self {
        SetSim {
            bucket: Vec::new(),
            next: Vec::new(),
            keys: Vec::new(),
            last: Vec::new(),
            row: vec![FREE; ways],
            way_of: Vec::new(),
        }
    }

    /// Simulates set `s`, adding the counts of its measured accesses to
    /// `stats`.
    fn simulate(&mut self, buckets: &SetBuckets, s: usize, stats: &mut CacheStats) {
        self.bucket.clear();
        let mut warm = 0;
        for p in &buckets.pieces {
            let run = buckets.run(p, s);
            self.bucket.extend_from_slice(run);
            warm += if p.warm { run.len() } else { 0 };
        }
        let n = self.bucket.len();
        if n == 0 {
            return;
        }
        assert!(
            n <= NEVER as usize,
            "min_misses: set {s} receives more than u32::MAX - 1 accesses"
        );
        self.link();
        self.row.fill(FREE);
        self.way_of.clear();
        self.way_of.resize(n + 1, 0);
        let (mut hits, mut evictions) = (0u64, 0u64);
        for (j, &next) in self.next.iter().enumerate() {
            let counted = u64::from(j >= warm);
            // Stamp `j` is unique to the block referenced at `j`, so the
            // way that took it still holds it exactly when that block is
            // resident.
            let mut w = self.way_of[j] as usize;
            if self.row[w] == j as u32 {
                hits += counted;
            } else {
                let farthest = self.row.iter().copied().max().unwrap_or(FREE);
                w = self.row.iter().position(|&t| t == farthest).unwrap_or(0);
                evictions += counted & u64::from(farthest != FREE);
            }
            self.row[w] = next;
            self.way_of[(next as usize).min(n)] = w as u32;
        }
        let accesses = (n - warm) as u64;
        stats.accesses += accesses;
        stats.hits += hits;
        stats.misses += accesses - hits;
        stats.evictions += evictions;
    }

    /// Fills `self.next` for the gathered bucket by a reverse scan, with a
    /// table of at least twice its length so probes stay short.
    fn link(&mut self) {
        let n = self.bucket.len();
        let bits = (2 * n).next_power_of_two().trailing_zeros();
        let mask = (1usize << bits) - 1;
        self.keys.clear();
        self.keys.resize(mask + 1, 0);
        self.last.clear();
        self.last.resize(mask + 1, FREE);
        self.next.clear();
        self.next.resize(n, NEVER);
        for (j, &block) in self.bucket.iter().enumerate().rev() {
            // Fibonacci hashing: the top bits of the product mix every
            // bit of the block, including the set bits all keys share.
            let mut slot = (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize;
            loop {
                let last = self.last[slot];
                if last == FREE || self.keys[slot] == block {
                    if last != FREE {
                        self.next[j] = last;
                    }
                    self.keys[slot] = block;
                    self.last[slot] = j as u32;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpi::WindowPerfModel;
    use crate::llc::replay_llc;
    use baselines::TrueLru;

    fn reads(blocks: &[u64]) -> Vec<Access> {
        blocks.iter().map(|&b| Access::read(b * 64, 0)).collect()
    }

    #[test]
    fn cold_misses_only_when_everything_fits() {
        let geom = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let stream = reads(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let stats = min_misses(&stream, geom, 0);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 8);
    }

    /// Exhaustive optimal miss count for a single `ways`-sized set, by
    /// trying every eviction choice (exponential; tiny inputs only).
    fn brute_force_opt(blocks: &[u64], ways: usize) -> u64 {
        fn go(resident: &mut Vec<u64>, rest: &[u64], ways: usize) -> u64 {
            let Some((&b, tail)) = rest.split_first() else {
                return 0;
            };
            if resident.contains(&b) {
                return go(resident, tail, ways);
            }
            if resident.len() < ways {
                resident.push(b);
                let r = 1 + go(resident, tail, ways);
                resident.pop();
                return r;
            }
            let mut best = u64::MAX;
            for i in 0..resident.len() {
                let old = resident[i];
                resident[i] = b;
                best = best.min(1 + go(resident, tail, ways));
                resident[i] = old;
            }
            best
        }
        go(&mut Vec::new(), blocks, ways)
    }

    #[test]
    fn min_matches_brute_force_optimum() {
        let geom = CacheGeometry::from_sets(1, 2, 64).unwrap();
        // A batch of short adversarial streams over 4 distinct blocks.
        let cases: [&[u64]; 5] = [
            &[0, 1, 2, 0, 1, 3, 0, 2, 1, 3],
            &[0, 1, 2, 3, 0, 1, 2, 3],
            &[0, 0, 0, 1, 1, 2, 0, 2, 1],
            &[3, 2, 1, 0, 1, 2, 3, 2, 1, 0],
            &[0, 1, 0, 2, 0, 3, 0, 1, 2, 3, 0],
        ];
        for blocks in cases {
            let stream = reads(blocks);
            let min = min_misses(&stream, geom, 0);
            let opt = brute_force_opt(blocks, 2);
            assert_eq!(min.misses, opt, "stream {blocks:?}");
        }
    }

    #[test]
    fn min_never_worse_than_lru() {
        let geom = CacheGeometry::from_sets(4, 4, 64).unwrap();
        // Pseudorandom but deterministic block stream.
        let blocks: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) % 64).collect();
        let stream = reads(&blocks);
        let min = min_misses(&stream, geom, 0);
        let lru = replay_llc(
            &stream,
            geom,
            Box::new(TrueLru::new(&geom)),
            0,
            &WindowPerfModel::default(),
        );
        assert!(min.misses <= lru.stats.misses);
        assert_eq!(min.accesses, lru.stats.accesses);
    }

    #[test]
    fn min_beats_lru_on_thrash_loop() {
        let geom = CacheGeometry::from_sets(1, 4, 64).unwrap();
        // Loop over 6 blocks in a 4-way set: LRU gets zero hits, MIN keeps 3.
        let blocks: Vec<u64> = (0..600).map(|i| i % 6).collect();
        let stream = reads(&blocks);
        let min = min_misses(&stream, geom, 0);
        let lru = replay_llc(
            &stream,
            geom,
            Box::new(TrueLru::new(&geom)),
            0,
            &WindowPerfModel::default(),
        );
        assert_eq!(lru.stats.hits, 0);
        assert!(
            min.hits as f64 / min.accesses as f64 > 0.4,
            "MIN hit ratio {}",
            min.hit_ratio()
        );
    }

    #[test]
    fn warmup_portion_is_excluded() {
        let geom = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let stream = reads(&[0, 1, 2, 3, 0, 1, 2, 3]);
        let stats = min_misses(&stream, geom, 4);
        assert_eq!(stats.accesses, 4);
        assert_eq!(stats.misses, 0, "all four blocks resident after warm-up");
    }

    #[test]
    fn empty_stream() {
        let geom = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let stats = min_misses(&[], geom, 0);
        assert_eq!(stats, CacheStats::new());
    }

    #[test]
    fn warmup_past_the_end_measures_nothing() {
        let geom = CacheGeometry::from_sets(2, 2, 64).unwrap();
        let stream = reads(&[0, 1, 2, 3, 4, 5, 0, 1]);
        for warmup in [stream.len(), stream.len() + 1, usize::MAX] {
            assert_eq!(min_misses(&stream, geom, warmup), CacheStats::new());
        }
    }

    /// Harness callers run MIN inside their own pool tasks; the nested
    /// fan-out must give the same counts as a top-level call.
    #[test]
    fn nested_pool_call_matches_top_level() {
        let geom = CacheGeometry::from_sets(64, 4, 64).unwrap();
        let blocks: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) % 1024).collect();
        let stream = reads(&blocks);
        let top = min_misses(&stream, geom, 5_000);
        assert!(top.evictions > 0 && top.hits > 0, "{top:?}");
        let nested =
            sim_core::pool::global().run(4, usize::MAX, |_| min_misses(&stream, geom, 5_000));
        assert!(nested.iter().all(|s| *s == top), "{nested:?} vs {top:?}");
    }
}
