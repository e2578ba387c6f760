//! The three-level cache hierarchy.

use baselines::TrueLru;
use sim_core::{
    Access, AccessContext, AccessKind, CacheGeometry, CacheStats, GeometryError, PolicyFactory,
    ReplacementPolicy, SetAssocCache,
};

/// Which level serviced a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the unified L2.
    L2,
    /// Hit in the last-level cache.
    Llc,
    /// Missed everywhere; serviced by DRAM.
    Memory,
}

/// Geometries for the three levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Last-level cache geometry.
    pub llc: CacheGeometry,
}

impl HierarchyConfig {
    /// The paper's configuration: 32 KB/8-way L1D, 256 KB/8-way L2,
    /// 4 MB/16-way L3, 64-byte lines.
    pub fn paper() -> Self {
        HierarchyConfig {
            l1: CacheGeometry::new(32 * 1024, 8, 64).expect("valid L1"),
            l2: CacheGeometry::new(256 * 1024, 8, 64).expect("valid L2"),
            llc: CacheGeometry::new(4 * 1024 * 1024, 16, 64).expect("valid LLC"),
        }
    }

    /// The paper's configuration shrunk by `2^shift` in capacity at every
    /// level (associativity and line size unchanged). Pair with
    /// [`traces::WorkloadSpec::scaled_down`] for fast runs that keep the
    /// same capacity ratios.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the shift makes a level smaller than
    /// one set.
    pub fn paper_scaled(shift: u32) -> Result<Self, GeometryError> {
        Ok(HierarchyConfig {
            l1: CacheGeometry::new((32 * 1024) >> shift, 8, 64)?,
            l2: CacheGeometry::new((256 * 1024) >> shift, 8, 64)?,
            llc: CacheGeometry::new((4 * 1024 * 1024) >> shift, 16, 64)?,
        })
    }
}

/// Inclusion policy of the LLC relative to the private levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Inclusion {
    /// Non-inclusive (default, as in the CMP$im championship model): LLC
    /// evictions leave L1/L2 copies alone.
    #[default]
    NonInclusive,
    /// Inclusive: evicting a block from the LLC back-invalidates any copy
    /// in L1/L2 (the constraint the paper cites when noting that
    /// PDP-with-bypass "necessarily violates inclusion").
    Inclusive,
}

/// A three-level hierarchy: LRU-managed L1 and L2 above an LLC whose
/// replacement policy is the experiment variable.
///
/// Dirty evictions propagate as writebacks to the next level (a writeback
/// hierarchy, non-inclusive by default as in the CMP$im championship
/// infrastructure; see [`Hierarchy::set_inclusion`]). Demand misses are
/// filled at every level they traverse.
///
/// # Example
///
/// ```
/// use mem_model::{Hierarchy, HierarchyConfig};
/// use gippr::PlruPolicy;
/// use sim_core::Access;
///
/// let cfg = HierarchyConfig::paper();
/// let mut h = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
/// h.access(&Access::read(0x1234_5678, 0x400));
/// assert_eq!(h.instructions(), 1);
/// ```
pub struct Hierarchy {
    // L1/L2 are always LRU (the paper holds them fixed), so they are
    // monomorphized: their per-access policy callbacks inline instead of
    // going through virtual dispatch. Only the LLC — the experiment
    // variable — stays dynamically dispatched.
    l1: SetAssocCache<TrueLru>,
    l2: SetAssocCache<TrueLru>,
    llc: SetAssocCache,
    instructions: u64,
    prefetcher: Option<crate::prefetch::StridePrefetcher>,
    prefetch_fills: u64,
    inclusion: Inclusion,
    back_invalidations: u64,
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("instructions", &self.instructions)
            .field("l1", self.l1.stats())
            .field("l2", self.l2.stats())
            .field("llc", self.llc.stats())
            .finish()
    }
}

impl Hierarchy {
    /// Builds the hierarchy with `llc_policy` at the last level.
    pub fn new(config: HierarchyConfig, llc_policy: Box<dyn ReplacementPolicy>) -> Self {
        Hierarchy {
            l1: SetAssocCache::with_policy(config.l1, TrueLru::new(&config.l1)),
            l2: SetAssocCache::with_policy(config.l2, TrueLru::new(&config.l2)),
            llc: SetAssocCache::new(config.llc, llc_policy),
            instructions: 0,
            prefetcher: None,
            prefetch_fills: 0,
            inclusion: Inclusion::NonInclusive,
            back_invalidations: 0,
        }
    }

    /// Switches the LLC to inclusive mode: LLC evictions back-invalidate
    /// L1/L2 copies, maintaining the inclusion invariant (every block in a
    /// private level is also in the LLC).
    pub fn set_inclusion(&mut self, inclusion: Inclusion) {
        self.inclusion = inclusion;
    }

    /// Back-invalidations performed so far (inclusive mode only).
    pub fn back_invalidations(&self) -> u64 {
        self.back_invalidations
    }

    fn handle_llc_eviction(&mut self, evicted_block: u64) {
        if self.inclusion == Inclusion::Inclusive {
            // The LLC block address space is shared with L1/L2 (same line
            // size), so the block address maps directly.
            if self.l1.invalidate(evicted_block).is_some() {
                self.back_invalidations += 1;
            }
            if self.l2.invalidate(evicted_block).is_some() {
                self.back_invalidations += 1;
            }
        }
    }

    /// Enables a PC-indexed stride prefetcher that observes L1 misses and
    /// fills predicted blocks into L2 (and the LLC beneath it). Prefetch
    /// traffic shares the level statistics with demand traffic, as on real
    /// hardware; [`Hierarchy::prefetch_fills`] counts the fills issued.
    pub fn enable_stride_prefetcher(&mut self, cfg: crate::prefetch::PrefetchConfig) {
        self.prefetcher = Some(crate::prefetch::StridePrefetcher::new(cfg));
    }

    /// Prefetch fills issued into L2 so far (0 when no prefetcher is
    /// enabled).
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Issues one demand access and returns the level that serviced it.
    pub fn access(&mut self, access: &Access) -> ServiceLevel {
        self.instructions += u64::from(access.icount_delta);
        let ctx = access.context();

        let l1_out = self.l1.access(access);
        if let Some(ev) = l1_out.evicted {
            if ev.dirty {
                self.writeback_to_l2(ev.block_addr, access.pc);
            }
        }
        if l1_out.hit {
            return ServiceLevel::L1;
        }

        // Train the prefetcher on L1 misses and issue its predictions.
        if let Some(pf) = &mut self.prefetcher {
            let block = self.l2.geometry().block_of(access.addr);
            let candidates = pf.observe(access.pc, block);
            for candidate in candidates {
                if !self.l2.probe(candidate) {
                    let pf_ctx = AccessContext {
                        pc: access.pc,
                        addr: candidate * 64,
                        is_write: false,
                    };
                    let out = self.l2.access_block(candidate, &pf_ctx);
                    if let Some(ev) = out.evicted {
                        if ev.dirty {
                            self.writeback_to_llc(ev.block_addr, access.pc);
                        }
                    }
                    if !out.hit {
                        let llc_out = self.llc.access_block(candidate, &pf_ctx);
                        if let Some(ev) = llc_out.evicted {
                            self.handle_llc_eviction(ev.block_addr);
                        }
                    }
                    self.prefetch_fills += 1;
                }
            }
        }

        let l2_out = self
            .l2
            .access_block(self.l2.geometry().block_of(access.addr), &ctx);
        if let Some(ev) = l2_out.evicted {
            if ev.dirty {
                self.writeback_to_llc(ev.block_addr, access.pc);
            }
        }
        if l2_out.hit {
            return ServiceLevel::L2;
        }

        let llc_out = self
            .llc
            .access_block(self.llc.geometry().block_of(access.addr), &ctx);
        // LLC dirty evictions drain to memory (counted in stats); in
        // inclusive mode the evicted block is also recalled from L1/L2.
        if let Some(ev) = llc_out.evicted {
            self.handle_llc_eviction(ev.block_addr);
        }
        if llc_out.hit {
            ServiceLevel::Llc
        } else {
            ServiceLevel::Memory
        }
    }

    fn writeback_to_l2(&mut self, block_addr: u64, pc: u64) {
        let ctx = AccessContext {
            pc,
            addr: block_addr * 64,
            is_write: true,
        };
        let out = self.l2.access_block(block_addr, &ctx);
        if let Some(ev) = out.evicted {
            if ev.dirty {
                self.writeback_to_llc(ev.block_addr, pc);
            }
        }
    }

    fn writeback_to_llc(&mut self, block_addr: u64, pc: u64) {
        let ctx = AccessContext {
            pc,
            addr: block_addr * 64,
            is_write: true,
        };
        let out = self.llc.access_block(block_addr, &ctx);
        if let Some(ev) = out.evicted {
            self.handle_llc_eviction(ev.block_addr);
        }
    }

    /// Runs every access from `iter` through the hierarchy.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        for a in iter {
            self.access(&a);
        }
    }

    /// Total instructions represented by the accesses issued so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// LLC statistics.
    pub fn llc_stats(&self) -> &CacheStats {
        self.llc.stats()
    }

    /// The LLC cache object (for policy inspection).
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// The L1 cache object (for invariant checks and diagnostics).
    pub fn l1(&self) -> &SetAssocCache<TrueLru> {
        &self.l1
    }

    /// The L2 cache object (for invariant checks and diagnostics).
    pub fn l2(&self) -> &SetAssocCache<TrueLru> {
        &self.l2
    }

    /// Resets statistics at every level (cache contents retained) — the
    /// warm-up/measure boundary.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.instructions = 0;
    }
}

/// Runs `iter` through L1/L2 (both LRU) and records the **demand** access
/// stream that reaches the LLC (L2 read/write misses), each record's
/// `icount_delta` rebased to "instructions since the previous LLC access".
///
/// Because L1 and L2 policies are fixed, this stream does not depend on
/// the LLC policy under study, so it is captured once per workload and
/// replayed against every policy (the paper's trace-driven methodology:
/// "traces representing each last-level cache access"). Writeback traffic
/// is deliberately excluded: as in the cache-replacement-championship
/// convention the paper's infrastructure derives from, writebacks must not
/// update replacement recency — letting them promote blocks lets dirty
/// streaming data defeat protective insertion policies.
pub fn capture_llc_stream<I>(config: HierarchyConfig, iter: I) -> (Vec<Access>, u64)
where
    I: IntoIterator<Item = Access>,
{
    capture_llc_stream_config(config, iter, false)
}

/// Like [`capture_llc_stream`] but optionally emitting L2 dirty-eviction
/// writebacks as LLC accesses. Replaying a writeback-inclusive stream lets
/// writebacks *update replacement state* — the off-convention
/// configuration the ablation harness uses to demonstrate why the demand-
/// only convention matters (writeback promotions let dirty streaming data
/// defeat protective insertion; see DESIGN.md §5.0).
pub fn capture_llc_stream_config<I>(
    config: HierarchyConfig,
    iter: I,
    include_writebacks: bool,
) -> (Vec<Access>, u64)
where
    I: IntoIterator<Item = Access>,
{
    struct Recorder {
        stream: Vec<Access>,
        pending_icount: u64,
    }
    let mut rec = Recorder {
        stream: Vec::new(),
        pending_icount: 0,
    };
    // Monomorphized L1/L2: capture runs once per workload but still walks
    // the full reference stream, so inlined LRU callbacks matter.
    let mut l1 = SetAssocCache::with_policy(config.l1, TrueLru::new(&config.l1));
    let mut l2 = SetAssocCache::with_policy(config.l2, TrueLru::new(&config.l2));
    let mut total_instructions = 0u64;

    let emit = |rec: &mut Recorder, addr: u64, pc: u64, kind: AccessKind| {
        rec.stream.push(Access {
            addr,
            pc,
            kind,
            icount_delta: rec.pending_icount.min(u64::from(u32::MAX)) as u32,
        });
        rec.pending_icount = 0;
    };

    for access in iter {
        total_instructions += u64::from(access.icount_delta);
        rec.pending_icount += u64::from(access.icount_delta);
        let ctx = access.context();
        let l1_out = l1.access(&access);
        // L2 traffic, in order: the L1 dirty eviction's writeback, then
        // the demand miss itself.
        let l2_accesses = [
            l1_out
                .evicted
                .filter(|ev| ev.dirty)
                .map(|ev| (ev.block_addr, AccessKind::Writeback)),
            (!l1_out.hit).then(|| (l1.geometry().block_of(access.addr), access.kind)),
        ];
        for (block, kind) in l2_accesses.into_iter().flatten() {
            let wb_ctx = AccessContext {
                pc: ctx.pc,
                addr: block * 64,
                is_write: kind != AccessKind::Read,
            };
            let out = l2.access_block(block, &wb_ctx);
            // L2 dirty evictions drain to the LLC's data array; by default
            // they are not recorded (writebacks do not update LLC
            // replacement state).
            if let Some(ev) = out.evicted {
                if include_writebacks && ev.dirty {
                    emit(&mut rec, ev.block_addr * 64, ctx.pc, AccessKind::Writeback);
                }
            }
            if !out.hit && kind != AccessKind::Writeback {
                emit(&mut rec, block * 64, ctx.pc, kind);
            }
        }
    }
    (rec.stream, total_instructions)
}

/// Convenience: a [`PolicyFactory`]-driven hierarchy constructor.
pub fn hierarchy_with(config: HierarchyConfig, factory: &PolicyFactory) -> Hierarchy {
    Hierarchy::new(config, factory(&config.llc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gippr::PlruPolicy;

    fn tiny() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheGeometry::new(1024, 2, 64).unwrap(),
            l2: CacheGeometry::new(4096, 4, 64).unwrap(),
            llc: CacheGeometry::new(16 * 1024, 8, 64).unwrap(),
        }
    }

    fn h() -> Hierarchy {
        let cfg = tiny();
        Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)))
    }

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let mut h = h();
        assert_eq!(h.access(&Access::read(0x8000, 0)), ServiceLevel::Memory);
        assert_eq!(h.access(&Access::read(0x8000, 0)), ServiceLevel::L1);
        assert_eq!(h.l1_stats().misses, 1);
        assert_eq!(h.l2_stats().misses, 1);
        assert_eq!(h.llc_stats().misses, 1);
    }

    #[test]
    fn l1_capacity_eviction_hits_l2() {
        let mut h = h();
        // L1: 8 sets x 2 ways. Blocks mapping to L1 set 0 at stride 512B.
        for i in 0..3u64 {
            h.access(&Access::read(i * 512, 0));
        }
        // Block 0 was evicted from L1 but lives in L2.
        assert_eq!(h.access(&Access::read(0, 0)), ServiceLevel::L2);
    }

    #[test]
    fn instructions_accumulate_from_deltas() {
        let mut h = h();
        h.access(&Access::read(0, 0).with_icount_delta(10));
        h.access(&Access::read(64, 0).with_icount_delta(5));
        assert_eq!(h.instructions(), 15);
    }

    #[test]
    fn dirty_l1_eviction_writes_back() {
        let mut h = h();
        h.access(&Access::write(0, 0));
        // Evict block 0 from L1 (set 0 holds 2 ways).
        h.access(&Access::read(512, 0));
        h.access(&Access::read(1024, 0));
        // The writeback made block 0 dirty in L2; L2 stats saw it.
        assert!(h.l2_stats().accesses >= 3);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = h();
        h.access(&Access::read(0, 0));
        h.reset_stats();
        assert_eq!(h.llc_stats().accesses, 0);
        assert_eq!(h.access(&Access::read(0, 0)), ServiceLevel::L1);
    }

    #[test]
    fn captured_stream_is_policy_independent_input() {
        let cfg = tiny();
        let trace: Vec<Access> = (0..2000u64)
            .map(|i| Access::read(i * 64 % 32768, 0))
            .collect();
        let (stream, instructions) = capture_llc_stream(cfg, trace.iter().copied());
        assert_eq!(instructions, 2000);
        assert!(!stream.is_empty());
        // Sum of rebased deltas never exceeds total instructions.
        let total: u64 = stream.iter().map(|a| u64::from(a.icount_delta)).sum();
        assert!(total <= instructions);
    }

    #[test]
    fn captured_stream_matches_hierarchy_llc_accesses() {
        // Replaying the captured stream into a standalone LLC must produce
        // the same LLC stats as the in-situ hierarchy with the same policy.
        let cfg = tiny();
        let trace: Vec<Access> = (0..5000u64)
            .map(|i| Access::read((i * 7919) % 65536 / 64 * 64, 3))
            .collect();
        let mut live = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
        live.run(trace.iter().copied());

        let (stream, _) = capture_llc_stream(cfg, trace.iter().copied());
        let mut replay = SetAssocCache::new(cfg.llc, Box::new(PlruPolicy::new(&cfg.llc)));
        for a in &stream {
            replay.access(a);
        }
        assert_eq!(replay.stats().accesses, live.llc_stats().accesses);
        assert_eq!(replay.stats().misses, live.llc_stats().misses);
    }

    #[test]
    fn inclusive_mode_maintains_inclusion_invariant() {
        let cfg = tiny();
        let mut h = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
        h.set_inclusion(Inclusion::Inclusive);
        // Traffic with more footprint than the LLC, so LLC evictions and
        // back-invalidations actually happen.
        let mut x = 2463534242u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.access(&Access::read((x % (1 << 16)) & !63, 0));
        }
        assert!(
            h.back_invalidations() > 0,
            "eviction pressure reached L1/L2"
        );
        // Invariant: every block resident in L1 or L2 is also in the LLC.
        for set in 0..h.l1().geometry().sets() {
            for blk in h.l1().resident_blocks(set) {
                assert!(
                    h.llc().probe(blk),
                    "L1 block {blk:#x} missing from inclusive LLC"
                );
            }
        }
        for set in 0..h.l2().geometry().sets() {
            for blk in h.l2().resident_blocks(set) {
                assert!(
                    h.llc().probe(blk),
                    "L2 block {blk:#x} missing from inclusive LLC"
                );
            }
        }
    }

    #[test]
    fn non_inclusive_mode_never_back_invalidates() {
        let cfg = tiny();
        let mut h = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
        for i in 0..20_000u64 {
            h.access(&Access::read((i * 64) % (1 << 16), 0));
        }
        assert_eq!(h.back_invalidations(), 0);
    }

    #[test]
    fn inclusive_mode_costs_misses() {
        // Back-invalidation recalls hot private-cache blocks, so an
        // inclusive hierarchy can only do worse (or equal) at L1.
        let cfg = tiny();
        let run = |inclusive: bool| {
            let mut h = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
            if inclusive {
                h.set_inclusion(Inclusion::Inclusive);
            }
            let mut x = 88172645463325252u64;
            for _ in 0..30_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.access(&Access::read((x % (1 << 16)) & !63, 0));
            }
            h.l1_stats().hits
        };
        assert!(run(true) <= run(false));
    }

    #[test]
    fn stride_prefetcher_converts_memory_hits_to_l2_hits() {
        let cfg = tiny();
        let run = |prefetch: bool| -> (u64, u64) {
            let mut h = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
            if prefetch {
                h.enable_stride_prefetcher(crate::prefetch::PrefetchConfig::default());
            }
            let mut l2_hits = 0u64;
            let mut mem = 0u64;
            // A pure unit-stride stream from one PC.
            for i in 0..4000u64 {
                match h.access(&Access::read(i * 64, 0x400)) {
                    ServiceLevel::L2 => l2_hits += 1,
                    ServiceLevel::Memory => mem += 1,
                    _ => {}
                }
            }
            assert_eq!(h.prefetch_fills() > 0, prefetch);
            (l2_hits, mem)
        };
        let (hits_off, mem_off) = run(false);
        let (hits_on, mem_on) = run(true);
        assert!(
            hits_on > hits_off,
            "prefetching creates L2 hits: {hits_on} vs {hits_off}"
        );
        assert!(
            mem_on < mem_off,
            "and removes memory services: {mem_on} vs {mem_off}"
        );
    }

    #[test]
    fn prefetcher_is_harmless_on_random_traffic() {
        let cfg = tiny();
        let mut h = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
        h.enable_stride_prefetcher(crate::prefetch::PrefetchConfig::default());
        let mut x = 987654321u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.access(&Access::read((x % (1 << 20)) & !63, 0x400));
        }
        assert_eq!(h.prefetch_fills(), 0, "no stable stride, no prefetches");
    }

    #[test]
    fn paper_config_dimensions() {
        let cfg = HierarchyConfig::paper();
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 512);
        assert_eq!(cfg.llc.sets(), 4096);
        let scaled = HierarchyConfig::paper_scaled(3).unwrap();
        assert_eq!(scaled.llc.sets(), 512);
        assert!(HierarchyConfig::paper_scaled(20).is_err());
    }
}
