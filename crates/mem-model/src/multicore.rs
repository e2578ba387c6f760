//! Multi-core shared-LLC simulation: the paper's future-work item 4
//! ("we are actively researching extending it to multi-core"), modelled as
//! a multiprogrammed mix — per-core private L1/L2 above one shared LLC,
//! with core-tagged physical addresses (separate address spaces, no
//! sharing), the standard methodology for replacement studies.

use crate::hierarchy::{HierarchyConfig, LlcSink, PrivateLevels, ServiceLevel};
use sim_core::{Access, AccessContext, CacheStats, ReplacementPolicy, SetAssocCache};

/// Bits reserved at the top of the address for the core id.
const CORE_SHIFT: u32 = 56;

/// N cores with private L1/L2 sharing one LLC.
///
/// # Example
///
/// ```
/// use mem_model::multicore::MulticoreHierarchy;
/// use mem_model::HierarchyConfig;
/// use gippr::PlruPolicy;
/// use sim_core::Access;
///
/// let cfg = HierarchyConfig::paper_scaled(5).unwrap();
/// let mut mc = MulticoreHierarchy::new(2, cfg, Box::new(PlruPolicy::new(&cfg.llc)));
/// mc.access(0, &Access::read(0x1000, 0));
/// mc.access(1, &Access::read(0x1000, 0)); // same VA, different core: distinct block
/// assert_eq!(mc.llc_stats(1).misses, 1, "no constructive sharing across cores");
/// ```
pub struct MulticoreHierarchy {
    cores: Vec<PrivateLevels>,
    llc: SetAssocCache,
    llc_by_core: Vec<CacheStats>,
    instructions: Vec<u64>,
}

impl std::fmt::Debug for MulticoreHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulticoreHierarchy")
            .field("cores", &self.cores.len())
            .field("llc", self.llc.stats())
            .finish()
    }
}

impl MulticoreHierarchy {
    /// Builds an `n_cores`-core system; each core gets private L1/L2 of
    /// `config`'s geometry, all sharing `config.llc` under `llc_policy`.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or greater than 255, or if the levels of
    /// `config` disagree on line size.
    pub fn new(
        n_cores: usize,
        config: HierarchyConfig,
        llc_policy: Box<dyn ReplacementPolicy>,
    ) -> Self {
        assert!(
            (1..=255).contains(&n_cores),
            "1..=255 cores supported, got {n_cores}"
        );
        MulticoreHierarchy {
            cores: (0..n_cores).map(|_| PrivateLevels::new(&config)).collect(),
            llc: SetAssocCache::new(config.llc, llc_policy),
            llc_by_core: vec![CacheStats::new(); n_cores],
            instructions: vec![0; n_cores],
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Issues `access` from `core`. Addresses are namespaced per core (a
    /// multiprogrammed mix — no inter-core sharing).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, access: &Access) -> ServiceLevel {
        let tagged = Access {
            addr: access.addr | ((core as u64 + 1) << CORE_SHIFT),
            ..*access
        };
        self.instructions[core] += u64::from(access.icount_delta);
        let mut llc = SharedLlc {
            llc: &mut self.llc,
            core_stats: &mut self.llc_by_core[core],
        };
        self.cores[core].step(&tagged, &mut llc)
    }

    /// Runs `per_core` accesses from each stream, interleaved round-robin
    /// (one access per core per turn), modelling co-scheduled execution.
    pub fn run_interleaved<I>(&mut self, mut streams: Vec<I>, per_core: usize)
    where
        I: Iterator<Item = Access>,
    {
        assert_eq!(streams.len(), self.n_cores(), "one stream per core");
        for _ in 0..per_core {
            for (core, stream) in streams.iter_mut().enumerate() {
                if let Some(a) = stream.next() {
                    self.access(core, &a);
                }
            }
        }
    }

    /// Shared-LLC statistics attributed to `core`.
    pub fn llc_stats(&self, core: usize) -> &CacheStats {
        &self.llc_by_core[core]
    }

    /// Total shared-LLC statistics.
    pub fn llc_total(&self) -> &CacheStats {
        self.llc.stats()
    }

    /// Instructions retired by `core`.
    pub fn instructions(&self, core: usize) -> u64 {
        self.instructions[core]
    }
}

/// The shared LLC as one core's walk sees it: it applies the core's
/// demand misses, attributing their statistics to the core, and drops the
/// core's L2 writebacks (per the workspace convention, writebacks never
/// update LLC replacement state).
struct SharedLlc<'a> {
    llc: &'a mut SetAssocCache,
    core_stats: &'a mut CacheStats,
}

impl LlcSink for SharedLlc<'_> {
    fn demand(&mut self, block: u64, access: &Access) -> bool {
        let before = *self.llc.stats();
        let hit = self.llc.access_block(block, &access.context()).hit;
        let after = *self.llc.stats();
        *self.core_stats += CacheStats {
            accesses: after.accesses - before.accesses,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            writebacks: after.writebacks - before.writebacks,
            bypasses: after.bypasses - before.bypasses,
        };
        hit
    }

    fn writeback(&mut self, _block: u64, _ctx: &AccessContext) {}
}

/// Weighted speedup of a shared run against per-core baselines:
/// `Σ_i (baseline_cycles_i / cycles_i) / n` — the arithmetic mean of
/// per-core speedups, the customary multiprogrammed metric.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn weighted_speedup(baseline_cycles: &[f64], cycles: &[f64]) -> f64 {
    assert_eq!(baseline_cycles.len(), cycles.len());
    assert!(!cycles.is_empty());
    baseline_cycles
        .iter()
        .zip(cycles)
        .map(|(b, c)| if *c > 0.0 { b / c } else { 1.0 })
        .sum::<f64>()
        / cycles.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gippr::PlruPolicy;
    use traces::spec2006::Spec2006;

    fn cfg() -> HierarchyConfig {
        HierarchyConfig::paper_scaled(6).unwrap()
    }

    fn mc(n: usize) -> MulticoreHierarchy {
        let c = cfg();
        MulticoreHierarchy::new(n, c, Box::new(PlruPolicy::new(&c.llc)))
    }

    #[test]
    fn cores_have_distinct_address_spaces() {
        let mut m = mc(2);
        m.access(0, &Access::read(0x1000, 0));
        m.access(1, &Access::read(0x1000, 0));
        assert_eq!(m.llc_total().misses, 2, "same VA on two cores = two blocks");
    }

    #[test]
    fn per_core_attribution_sums_to_total() {
        let mut m = mc(2);
        let a: Vec<Access> = Spec2006::Mcf
            .workload()
            .scaled_down(6)
            .generator(0)
            .take(3000)
            .collect();
        let b: Vec<Access> = Spec2006::Libquantum
            .workload()
            .scaled_down(6)
            .generator(1)
            .take(3000)
            .collect();
        m.run_interleaved(vec![a.into_iter(), b.into_iter()], 3000);
        let total = m.llc_total();
        let sum_misses = m.llc_stats(0).misses + m.llc_stats(1).misses;
        assert_eq!(sum_misses, total.misses);
        assert_eq!(
            m.llc_stats(0).accesses + m.llc_stats(1).accesses,
            total.accesses
        );
    }

    #[test]
    fn contention_increases_misses_over_solo_run() {
        // A workload sharing the LLC with a streaming aggressor must miss
        // at least as much as when it runs alone.
        let solo_misses = {
            let c = cfg();
            let mut m = MulticoreHierarchy::new(1, c, Box::new(PlruPolicy::new(&c.llc)));
            let s: Vec<Access> = Spec2006::DealII
                .workload()
                .scaled_down(6)
                .generator(0)
                .take(8000)
                .collect();
            m.run_interleaved(vec![s.into_iter()], 8000);
            m.llc_stats(0).misses
        };
        let shared_misses = {
            let mut m = mc(2);
            let s: Vec<Access> = Spec2006::DealII
                .workload()
                .scaled_down(6)
                .generator(0)
                .take(8000)
                .collect();
            let aggressor: Vec<Access> = Spec2006::Libquantum
                .workload()
                .scaled_down(6)
                .generator(0)
                .take(8000)
                .collect();
            m.run_interleaved(vec![s.into_iter(), aggressor.into_iter()], 8000);
            m.llc_stats(0).misses
        };
        assert!(
            shared_misses >= solo_misses,
            "contention can only hurt: shared {shared_misses} vs solo {solo_misses}"
        );
    }

    #[test]
    fn instructions_tracked_per_core() {
        let mut m = mc(2);
        m.access(0, &Access::read(0, 0).with_icount_delta(10));
        m.access(1, &Access::read(0, 0).with_icount_delta(3));
        assert_eq!(m.instructions(0), 10);
        assert_eq!(m.instructions(1), 3);
    }

    #[test]
    fn weighted_speedup_math() {
        assert!((weighted_speedup(&[100.0, 100.0], &[50.0, 200.0]) - 1.25).abs() < 1e-12);
        assert!((weighted_speedup(&[10.0], &[10.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cores supported")]
    fn rejects_zero_cores() {
        let c = cfg();
        let _ = MulticoreHierarchy::new(0, c, Box::new(PlruPolicy::new(&c.llc)));
    }
}
