//! Fast LLC-only replay of captured access streams.
//!
//! The paper's methodology (Section 4.3): collect a trace of last-level
//! cache accesses, warm the cache on a prefix, and measure misses on the
//! remainder. [`replay_llc`] does exactly that against any policy, and is
//! the hot path of both the genetic algorithm's fitness function and the
//! MPKI experiments.

use crate::cpi::WindowPerfModel;
use crate::engine::Replayer;
use sim_core::{Access, CacheGeometry, CacheStats, ReplacementPolicy};

/// The outcome of one LLC replay.
#[derive(Debug, Clone, PartialEq)]
pub struct LlcRunResult {
    /// LLC statistics over the measured (post-warm-up) portion.
    pub stats: CacheStats,
    /// Instructions represented by the measured portion.
    pub instructions: u64,
    /// Cycle estimate over the measured portion (window model; the memory
    /// side counts LLC hits vs. misses, with L1/L2 time excluded since it
    /// is identical across LLC policies).
    pub cycles: f64,
}

impl LlcRunResult {
    /// Misses per thousand instructions over the measured portion.
    pub fn mpki(&self) -> f64 {
        self.stats.mpki(self.instructions)
    }
}

/// Replays `stream` (a captured LLC access stream) into an LLC of `geom`
/// managed by `policy`. The first `warmup` accesses only warm the cache;
/// statistics, instructions, and cycles cover the remainder. Always the
/// mono engine, whatever kernel the policy describes: a cache
/// monomorphized for the boxed policy's concrete type (see [`Replayer`]).
///
/// # Example
///
/// ```
/// use gippr::PlruPolicy;
/// use mem_model::{replay_llc, WindowPerfModel};
/// use sim_core::{Access, CacheGeometry};
///
/// # fn main() -> Result<(), sim_core::GeometryError> {
/// let geom = CacheGeometry::new(16 * 1024, 8, 64)?;
/// let stream: Vec<Access> = (0..1000u64).map(|i| Access::read(i * 64, 0)).collect();
/// let result = replay_llc(&stream, geom, Box::new(PlruPolicy::new(&geom)), 100,
///                         &WindowPerfModel::default());
/// assert_eq!(result.stats.accesses, 900);
/// # Ok(())
/// # }
/// ```
pub fn replay_llc(
    stream: &[Access],
    geom: CacheGeometry,
    policy: Box<dyn ReplacementPolicy>,
    warmup: usize,
    perf: &WindowPerfModel,
) -> LlcRunResult {
    Replayer::mono(geom, policy, perf).replay(stream, warmup)
}

/// [`replay_llc`] for a policy passed by its own type: identical
/// semantics, on the same mono engine, a `SetAssocCache<P>` whose
/// per-access dispatch, tag scan and stats update inline into one loop.
/// With a concrete `P` (e.g. `GipprPolicy`, `TrueLru`) no callback is a
/// virtual call. Passing a `Box<dyn ReplacementPolicy>` as `P` steps the
/// boxed callbacks, one virtual call each: the dynamic-dispatch path,
/// kept as an independent check of the concrete one.
pub fn replay_llc_mono<P: ReplacementPolicy + 'static>(
    stream: &[Access],
    geom: CacheGeometry,
    policy: P,
    warmup: usize,
    perf: &WindowPerfModel,
) -> LlcRunResult {
    Replayer::mono(geom, Box::new(policy), perf).replay(stream, warmup)
}

/// The conventional warm-up split used across the harness: the paper warms
/// on the first 500 M of 1.5 B instructions, i.e. one third of the trace.
pub fn default_warmup(stream_len: usize) -> usize {
    stream_len / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::TrueLru;
    use gippr::{GiplrPolicy, Ipv};

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(16, 4, 64).unwrap()
    }

    fn looping_stream(blocks: u64, n: usize) -> Vec<Access> {
        (0..n)
            .map(|i| Access::read((i as u64 % blocks) * 64, 0).with_icount_delta(3))
            .collect()
    }

    #[test]
    fn warmup_excluded_from_stats() {
        let g = geom();
        let stream = looping_stream(32, 1000); // 32 blocks fit in 64-line cache
        let r = replay_llc(
            &stream,
            g,
            Box::new(TrueLru::new(&g)),
            100,
            &WindowPerfModel::default(),
        );
        assert_eq!(r.stats.accesses, 900);
        assert_eq!(r.stats.misses, 0, "after warm-up the loop fits entirely");
        assert_eq!(r.instructions, 2700);
    }

    #[test]
    fn thrash_loop_misses_everything_under_lru() {
        let g = geom(); // 64 lines
        let stream = looping_stream(96, 3000); // 1.5x capacity loop
        let r = replay_llc(
            &stream,
            g,
            Box::new(TrueLru::new(&g)),
            960,
            &WindowPerfModel::default(),
        );
        assert_eq!(r.stats.hits, 0, "LRU thrashes a loop over capacity");
    }

    #[test]
    fn lip_retains_part_of_thrash_loop() {
        let g = geom();
        let stream = looping_stream(96, 3000);
        let lip = GiplrPolicy::new(&g, Ipv::lru_insertion(4)).unwrap();
        let r = replay_llc(&stream, g, Box::new(lip), 960, &WindowPerfModel::default());
        assert!(
            r.stats.hit_ratio() > 0.4,
            "LRU-insertion keeps a resident fraction: {}",
            r.stats.hit_ratio()
        );
    }

    #[test]
    fn mpki_and_cycles_consistency() {
        let g = geom();
        let stream = looping_stream(96, 3000);
        let r = replay_llc(
            &stream,
            g,
            Box::new(TrueLru::new(&g)),
            0,
            &WindowPerfModel::default(),
        );
        assert!(r.mpki() > 0.0);
        assert!(r.cycles > 0.0);
    }

    #[test]
    fn default_warmup_is_one_third() {
        assert_eq!(default_warmup(3000), 1000);
        assert_eq!(default_warmup(0), 0);
    }
}
