//! Single-pass Mattson stack-distance profiling (reuse-distance
//! simulation).
//!
//! For a cache whose contents at every instant are exactly the `k` most
//! recently used blocks of each set — true LRU, for any `k` — hit/miss
//! outcomes at *all* associativities fall out of one pass over the
//! stream: the access's *stack distance* (its block's position in the
//! set's recency order, 0 = MRU) is `d`, and a `k`-way LRU cache hits iff
//! `d < k` (Mattson et al., 1970). One histogram of stack distances
//! therefore replaces one full cache replay per associativity, the DEW
//! speedup for inclusion-preserving policies.
//!
//! The profiler maintains one bounded recency list per set (capacity
//! [`StackDistanceProfile::max_ways`]) and a shared histogram. Distances
//! `>= max_ways` fold into a single *beyond* bucket — they miss at every
//! associativity the profile answers for, so nothing is lost. The list
//! update *is* the per-set state of a `max_ways`-way LRU cache, so one
//! capture costs about one LRU replay at the widest associativity of
//! interest and answers for every narrower one.
//!
//! # Which policies the profile is exact for
//!
//! Only policies whose set contents always equal the LRU top-`k` — the
//! *inclusion* (stack) property with LRU's capacity-independent priority.
//! [`policy_qualifies`] is the predicate: a policy qualifies iff it
//! describes itself as the all-zero stack-IPV kernel (hit and fill both
//! move to MRU, victim = stack bottom), i.e. true LRU semantics.
//!
//! LIP-family stack policies are *not* exact under this histogram even
//! though they keep recency stacks: LIP inserts at the LRU position, so
//! its contents diverge from LRU's. Counterexample: stream `A B C B` in
//! one set at 2 ways. After `A B C`, LIP holds `{A, C}` (each fill lands
//! at the LRU slot, evicting the previous occupant) so the final `B`
//! misses — but `B`'s LRU stack distance is 1, which this histogram
//! would score as a 2-way hit. LIP's insertion position depends on the
//! capacity `k` itself, so no capacity-independent priority exists and
//! no single stack serves all `k` at once. GIPPR/IPV trees fail for the
//! same reason with arbitrary insertion/promotion positions. Those
//! policies keep their per-configuration replays; see DESIGN.md §13.
//!
//! Warm-up follows the replay contract exactly: the first `warmup`
//! accesses update the recency lists but are not histogrammed, so
//! derived hit/miss counts are bit-identical to
//! `replay_llc(stream, geom, TrueLru, warmup, ..)` at every `k`.

use crate::access::Access;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use crate::slice::SliceKernel;

/// A per-set stack-distance histogram captured from one stream pass.
///
/// Answers exact LRU hit/miss counts for every associativity up to
/// [`max_ways`](StackDistanceProfile::max_ways) at the captured set
/// partition (set count and line size are baked in at capture: a
/// different set count re-buckets the stream and needs its own profile —
/// [`capture_many`](StackDistanceProfile::capture_many) amortizes that
/// into the same single pass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackDistanceProfile {
    sets: usize,
    line_bytes: u64,
    max_ways: usize,
    /// `hist[d]` = measured accesses whose stack distance was exactly `d`.
    hist: Vec<u64>,
    /// Measured accesses at distance `>= max_ways`, first touches included
    /// — misses at every answerable associativity.
    beyond: u64,
    /// Measured accesses total.
    measured: u64,
    /// Instructions represented by the measured portion (sum of
    /// `icount_delta`).
    instructions: u64,
}

/// The recency lists driven during a capture: one bounded MRU→LRU tag
/// list per set, flattened.
struct Stacks {
    tags: Vec<u64>,
    len: Vec<u16>,
    cap: usize,
}

impl Stacks {
    fn new(sets: usize, cap: usize) -> Self {
        Stacks {
            tags: vec![0; sets * cap],
            len: vec![0; sets],
            cap,
        }
    }

    /// Touches `tag` in `set`: returns its stack distance (`cap` when not
    /// resident) and moves it to the front, evicting the list bottom when
    /// a new tag overflows the bound.
    #[inline]
    fn touch(&mut self, set: usize, tag: u64) -> usize {
        let base = set * self.cap;
        let len = usize::from(self.len[set]);
        let window = &mut self.tags[base..base + len];
        match window.iter().position(|&t| t == tag) {
            Some(d) => {
                window.copy_within(..d, 1);
                window[0] = tag;
                d
            }
            None => {
                let new_len = (len + 1).min(self.cap);
                let window = &mut self.tags[base..base + new_len];
                window.copy_within(..new_len - 1, 1);
                window[0] = tag;
                self.len[set] = new_len as u16;
                self.cap
            }
        }
    }
}

impl StackDistanceProfile {
    /// Captures a profile of `stream` at `geom`'s set partition
    /// (`geom.ways()` is ignored — the profile answers for every
    /// associativity in `1..=max_ways`). The first `warmup` accesses
    /// update recency state without being counted, mirroring the replay
    /// engines' warm-up contract.
    pub fn capture(
        stream: &[Access],
        geom: &CacheGeometry,
        warmup: usize,
        max_ways: usize,
    ) -> Self {
        Self::capture_many(stream, &[(*geom, max_ways)], warmup)
            .pop()
            .expect("one spec in, one profile out")
    }

    /// Captures one profile per `(geometry, max_ways)` spec in a single
    /// pass over `stream` — the multi-configuration entry for sweeps
    /// whose set counts differ (fixed-capacity associativity sweeps).
    /// The stream is read once; every spec's recency lists advance per
    /// access.
    pub fn capture_many(
        stream: &[Access],
        specs: &[(CacheGeometry, usize)],
        warmup: usize,
    ) -> Vec<Self> {
        for (geom, max_ways) in specs {
            let _ = geom;
            assert!(
                (1..=u16::MAX as usize).contains(max_ways),
                "max_ways must be in 1..=65535, got {max_ways}"
            );
        }
        let mut profiles: Vec<StackDistanceProfile> = specs
            .iter()
            .map(|(geom, max_ways)| StackDistanceProfile {
                sets: geom.sets(),
                line_bytes: geom.line_bytes(),
                max_ways: *max_ways,
                hist: vec![0; *max_ways],
                beyond: 0,
                measured: 0,
                instructions: 0,
            })
            .collect();
        let mut stacks: Vec<Stacks> = specs
            .iter()
            .map(|(geom, max_ways)| Stacks::new(geom.sets(), *max_ways))
            .collect();
        let warmup = warmup.min(stream.len());

        for (i, a) in stream.iter().enumerate() {
            let measured = i >= warmup;
            for (j, (geom, _)) in specs.iter().enumerate() {
                let block = geom.block_of(a.addr);
                let set = geom.set_of_block(block);
                let d = stacks[j].touch(set, block);
                if measured {
                    let p = &mut profiles[j];
                    if d < p.max_ways {
                        p.hist[d] += 1;
                    } else {
                        p.beyond += 1;
                    }
                    p.measured += 1;
                    p.instructions += u64::from(a.icount_delta);
                }
            }
        }
        profiles
    }

    /// The set count the stream was bucketed by.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The line size the stream was blocked by.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// The widest associativity this profile answers for.
    pub fn max_ways(&self) -> usize {
        self.max_ways
    }

    /// Measured accesses (warm-up excluded).
    pub fn accesses(&self) -> u64 {
        self.measured
    }

    /// Instructions represented by the measured portion.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The stack-distance histogram (index = distance, 0 = MRU re-touch);
    /// distances `>= max_ways` are in [`beyond`](Self::beyond).
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Measured accesses at distance `>= max_ways` (first touches
    /// included).
    pub fn beyond(&self) -> u64 {
        self.beyond
    }

    /// Exact LRU hits at associativity `ways` (`1..=max_ways`): the
    /// accesses whose stack distance was under `ways`.
    pub fn hits(&self, ways: usize) -> u64 {
        assert!(
            (1..=self.max_ways).contains(&ways),
            "profile answers ways 1..={}, asked {ways}",
            self.max_ways
        );
        self.hist[..ways].iter().sum()
    }

    /// Exact LRU misses at associativity `ways`.
    pub fn misses(&self, ways: usize) -> u64 {
        self.measured - self.hits(ways)
    }

    /// LRU misses per kilo-instruction at associativity `ways`, on the
    /// same formula as `CacheStats::mpki`.
    pub fn mpki(&self, ways: usize) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.misses(ways) as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// Whether `kernel` has true-LRU semantics: the all-zero stack IPV (every
/// hit and fill moves the block to MRU; victims come from the stack
/// bottom). This is the exactness condition for
/// [`StackDistanceProfile`] — see the module docs for why LIP-family
/// vectors (insertion away from MRU) do not qualify.
pub fn kernel_is_lru(kernel: &SliceKernel) -> bool {
    matches!(kernel, SliceKernel::StackIpv { ipv } if ipv.iter().all(|&e| e == 0))
}

/// Whether `policy`'s hit/miss outcomes are answered exactly by a
/// [`StackDistanceProfile`] at every associativity: the policy must
/// describe itself as an LRU-equivalent stack kernel
/// ([`kernel_is_lru`]). Conservative by construction — policies without
/// a kernel never qualify, even if behaviourally LRU.
pub fn policy_qualifies(policy: &dyn ReplacementPolicy) -> bool {
    policy.slice_kernel().is_some_and(|k| kernel_is_lru(&k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;

    fn geom(sets: usize, ways: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, ways, 64).unwrap()
    }

    fn reads(blocks: &[u64]) -> Vec<Access> {
        blocks
            .iter()
            .map(|&b| Access::read(b * 64, 0).with_icount_delta(2))
            .collect()
    }

    #[test]
    fn hand_trace_distances() {
        // One set; blocks A=0 B=1 C=2. Stream A B C A: distances are
        // cold, cold, cold, 2 (A is below B and C).
        let g = geom(1, 4);
        let p = StackDistanceProfile::capture(&reads(&[0, 1, 2, 0]), &g, 0, 4);
        assert_eq!(p.histogram(), &[0, 0, 1, 0]);
        assert_eq!(p.beyond(), 3);
        assert_eq!(p.accesses(), 4);
        assert_eq!(p.hits(2), 0, "2-way LRU misses the A re-touch");
        assert_eq!(p.hits(3), 1, "3-way LRU keeps A resident");
        assert_eq!(p.instructions(), 8);
    }

    #[test]
    fn warmup_updates_state_without_counting() {
        // Warm on A B; measured C A: C is cold, A is at distance 1 after
        // the warm-up touches — provided warm-up updated the stacks.
        let g = geom(1, 4);
        let p = StackDistanceProfile::capture(&reads(&[0, 1, 1, 0]), &g, 2, 4);
        assert_eq!(p.accesses(), 2);
        assert_eq!(p.histogram(), &[1, 1, 0, 0]);
        assert_eq!(p.hits(2), 2);
    }

    #[test]
    fn bounded_stack_folds_far_distances() {
        // max_ways 2 with a 3-block cycle: every re-touch is at distance
        // 2 in the unbounded stack, i.e. beyond the bound.
        let g = geom(1, 2);
        let p = StackDistanceProfile::capture(&reads(&[0, 1, 2, 0, 1, 2]), &g, 0, 2);
        assert_eq!(p.histogram(), &[0, 0]);
        assert_eq!(p.beyond(), 6);
        assert_eq!(p.misses(2), 6);
    }

    #[test]
    fn capture_many_matches_single_captures() {
        let stream: Vec<Access> = (0..500u64)
            .map(|i| {
                let b = (i * 2654435761) % 97;
                Access::read(b * 64, 0).with_icount_delta(1)
            })
            .collect();
        let specs = [(geom(4, 4), 8usize), (geom(8, 2), 4usize)];
        let many = StackDistanceProfile::capture_many(&stream, &specs, 100);
        for ((g, w), got) in specs.iter().zip(&many) {
            let single = StackDistanceProfile::capture(&stream, g, 100, *w);
            assert_eq!(*got, single);
        }
    }

    #[test]
    fn lru_kernel_qualifies_lip_does_not() {
        assert!(kernel_is_lru(&SliceKernel::StackIpv { ipv: vec![0; 17] }));
        let mut lip = vec![0u8; 17];
        lip[16] = 15; // insert at the LRU position
        assert!(!kernel_is_lru(&SliceKernel::StackIpv { ipv: lip }));
        assert!(!kernel_is_lru(&SliceKernel::PlruIpv { ipv: vec![0; 17] }));
    }
}
