//! The three-level cache hierarchy.

use baselines::TrueLru;
use sim_core::{
    Access, AccessContext, AccessKind, CacheGeometry, CacheStats, Evicted, GeometryError,
    ReplacementPolicy, SetAssocCache, SlicedCache,
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

    /// The line size every level shares, as a shift (`log2` of the line
    /// bytes): block addresses pass between levels unchanged, and a
    /// block's byte address is `block << line_shift`.
    ///
    /// # Errors
    ///
    /// Returns [`LineSizeMismatch`] naming each level's line size when the
    /// three levels disagree.
    pub fn line_shift(&self) -> Result<u32, LineSizeMismatch> {
        let (l1, l2, llc) = (
            self.l1.line_bytes(),
            self.l2.line_bytes(),
            self.llc.line_bytes(),
        );
        if l1 == l2 && l2 == llc {
            Ok(l1.trailing_zeros())
        } else {
            Err(LineSizeMismatch { l1, l2, llc })
        }
    }

    /// [`line_shift`](Self::line_shift) for the constructors that cannot
    /// run a mismatched hierarchy.
    pub(crate) fn shared_line_shift(&self) -> u32 {
        self.line_shift().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A [`HierarchyConfig`] whose levels disagree on line size. The levels
/// exchange block addresses, so they must share one line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSizeMismatch {
    /// L1 line bytes.
    pub l1: u64,
    /// L2 line bytes.
    pub l2: u64,
    /// LLC line bytes.
    pub llc: u64,
}

impl std::fmt::Display for LineSizeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hierarchy levels disagree on line size: L1 {} B, L2 {} B, LLC {} B",
            self.l1, self.l2, self.llc
        )
    }
}

impl std::error::Error for LineSizeMismatch {}

/// A three-level hierarchy: LRU-managed L1 and L2 above an LLC whose
/// replacement policy is the experiment variable.
///
/// Dirty evictions propagate as writebacks to the next level (a
/// non-inclusive writeback hierarchy, as in the CMP$im championship
/// infrastructure). Demand misses are filled at every level they
/// traverse. L1 and L2 take the same walk as the capture;
/// the LLC applies both the demand misses and the L2 writebacks it hands
/// down, so its statistics equal a replay of
/// [`capture_llc_stream_config`]`(.., true)`.
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
    private: PrivateLevels,
    llc: SetAssocCache,
    instructions: u64,
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("instructions", &self.instructions)
            .field("l1", self.l1_stats())
            .field("l2", self.l2_stats())
            .field("llc", self.llc.stats())
            .finish()
    }
}

impl Hierarchy {
    /// Builds the hierarchy with `llc_policy` at the last level.
    ///
    /// # Panics
    ///
    /// Panics with the [`LineSizeMismatch`] message if the levels
    /// disagree on line size.
    pub fn new(config: HierarchyConfig, llc_policy: Box<dyn ReplacementPolicy>) -> Self {
        Hierarchy {
            private: PrivateLevels::new(&config),
            llc: SetAssocCache::new(config.llc, llc_policy),
            instructions: 0,
        }
    }

    /// Issues one demand access and returns the level that serviced it.
    pub fn access(&mut self, access: &Access) -> ServiceLevel {
        self.instructions += u64::from(access.icount_delta);
        self.private.step(access, &mut self.llc)
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
        self.private.l1.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.private.l2.stats()
    }

    /// LLC statistics.
    pub fn llc_stats(&self) -> &CacheStats {
        self.llc.stats()
    }

    /// The LLC cache object (for policy inspection).
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// Resets statistics at every level (cache contents retained) — the
    /// warm-up/measure boundary.
    pub fn reset_stats(&mut self) {
        self.private.reset_stats();
        self.llc.reset_stats();
        self.instructions = 0;
    }
}

/// Runs `iter` through L1/L2 (both LRU) and records the **demand** access
/// stream that reaches the LLC (L2 read/write misses), each record's
/// `icount_delta` rebased to "instructions since the previous LLC access".
/// Returns the stream and the total instructions of `iter`.
///
/// Because L1 and L2 policies are fixed, this stream does not depend on
/// the LLC policy under study, so it is captured once per workload and
/// replayed against every policy (the paper's trace-driven methodology:
/// "traces representing each last-level cache access"). Writeback traffic
/// is deliberately excluded: as in the cache-replacement-championship
/// convention the paper's infrastructure derives from, writebacks must not
/// update replacement recency — letting them promote blocks lets dirty
/// streaming data defeat protective insertion policies.
///
/// L1 and L2 run as the sliced engine's packed true-LRU stack kernel
/// ([`TrueLru`]'s [`SliceKernel`](sim_core::SliceKernel)) wherever that
/// kernel supports the level's geometry, and as a
/// `SetAssocCache<TrueLru>` otherwise; both produce the same stream.
/// [`capture_llc_stream_into`] is the same capture into a caller-provided
/// buffer.
///
/// # Panics
///
/// Panics if the levels of `config` disagree on line size
/// ([`HierarchyConfig::line_shift`]).
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
    let iter = iter.into_iter();
    // Almost every reference reaches the LLC in the paper's workloads, so
    // the stream starts at the capacity doubling growth would end at,
    // without growth's copies. An exact-size reservation instead raised
    // perfbench roster-replay's peak RSS from 195.7 to 206.3 MiB.
    let capacity = iter.size_hint().0.checked_next_power_of_two();
    let mut stream = Vec::with_capacity(capacity.unwrap_or(0));
    let instructions = capture_llc_stream_into(config, iter, include_writebacks, &mut stream);
    (stream, instructions)
}

/// The capture behind [`capture_llc_stream`] and
/// [`capture_llc_stream_config`]: appends the LLC stream to `out` and
/// returns the total instructions of `iter`. A caller that pre-sizes
/// `out` decides which thread allocates the buffer.
///
/// # Panics
///
/// Panics if the levels of `config` disagree on line size.
pub fn capture_llc_stream_into<I>(
    config: HierarchyConfig,
    iter: I,
    include_writebacks: bool,
    out: &mut Vec<Access>,
) -> u64
where
    I: IntoIterator<Item = Access>,
{
    let llc = LlcRecorder {
        shift: config.shared_line_shift(),
        include_writebacks,
        pending_icount: 0,
        out,
    };
    let iter = iter.into_iter();
    // The same per-level choice as `LruLevel::new`, made once here so
    // each pairing runs its own monomorphized loop with no per-access
    // match on the level type: the capture is the walk on every figure's
    // path.
    match (packed_lru(&config.l1), packed_lru(&config.l2)) {
        (Some(l1), Some(l2)) => capture_with(l1, l2, iter, llc),
        (Some(l1), None) => capture_with(l1, scalar_lru(&config.l2), iter, llc),
        (None, Some(l2)) => capture_with(scalar_lru(&config.l1), l2, iter, llc),
        (None, None) => capture_with(scalar_lru(&config.l1), scalar_lru(&config.l2), iter, llc),
    }
}

/// True LRU on the sliced engine's packed stack kernel, or `None` where
/// [`SliceKernel::supports`](sim_core::SliceKernel::supports) declines
/// the geometry (the rule [`crate::plan`] uses).
fn packed_lru(geom: &CacheGeometry) -> Option<SlicedCache> {
    SlicedCache::new(geom, &TrueLru::new(geom).slice_kernel()?)
}

fn scalar_lru(geom: &CacheGeometry) -> SetAssocCache<TrueLru> {
    SetAssocCache::with_policy(*geom, TrueLru::new(geom))
}

/// An LRU private level as the walk drives it: one block access,
/// reporting the hit and the displaced line.
pub(crate) trait PrivateLevel {
    fn access(&mut self, block: u64, ctx: &AccessContext) -> (bool, Option<Evicted>);
}

impl PrivateLevel for SlicedCache {
    #[inline(always)]
    fn access(&mut self, block: u64, ctx: &AccessContext) -> (bool, Option<Evicted>) {
        self.access_block(block, ctx.is_write)
    }
}

impl PrivateLevel for SetAssocCache<TrueLru> {
    #[inline(always)]
    fn access(&mut self, block: u64, ctx: &AccessContext) -> (bool, Option<Evicted>) {
        let out = self.access_block(block, ctx);
        (out.hit, out.evicted)
    }
}

/// An LRU private level on the packed kernel where [`packed_lru`] accepts
/// the geometry and on a `SetAssocCache<TrueLru>` otherwise, chosen at
/// run time: the level type of [`Hierarchy`] and
/// [`MulticoreHierarchy`](crate::MulticoreHierarchy).
pub(crate) enum LruLevel {
    Packed(SlicedCache),
    Scalar(SetAssocCache<TrueLru>),
}

impl LruLevel {
    fn new(geom: &CacheGeometry) -> Self {
        packed_lru(geom).map_or_else(|| LruLevel::Scalar(scalar_lru(geom)), LruLevel::Packed)
    }

    fn stats(&self) -> &CacheStats {
        match self {
            LruLevel::Packed(c) => c.stats(),
            LruLevel::Scalar(c) => c.stats(),
        }
    }

    fn reset_stats(&mut self) {
        match self {
            LruLevel::Packed(c) => c.reset_stats(),
            LruLevel::Scalar(c) => c.reset_stats(),
        }
    }
}

impl PrivateLevel for LruLevel {
    #[inline(always)]
    fn access(&mut self, block: u64, ctx: &AccessContext) -> (bool, Option<Evicted>) {
        match self {
            LruLevel::Packed(c) => c.access(block, ctx),
            LruLevel::Scalar(c) => PrivateLevel::access(c, block, ctx),
        }
    }
}

/// Where [`PrivateLevels::step`] hands the traffic bound for the LLC.
pub(crate) trait LlcSink {
    /// An L2 demand miss of `access`, for `block`: returns whether the LLC
    /// hit.
    fn demand(&mut self, block: u64, access: &Access) -> bool;

    /// An L2 dirty eviction of `block`; `ctx` is the write that carries
    /// it (the displacing reference's PC, the block's byte address).
    fn writeback(&mut self, block: u64, ctx: &AccessContext);
}

/// The hierarchy's LLC applies demand misses and writebacks alike.
impl LlcSink for SetAssocCache {
    #[inline(always)]
    fn demand(&mut self, block: u64, access: &Access) -> bool {
        self.access_block(block, &access.context()).hit
    }

    #[inline(always)]
    fn writeback(&mut self, block: u64, ctx: &AccessContext) {
        self.access_block(block, ctx);
    }
}

/// One core's L1 and L2: the one walk of a reference through the private
/// levels, shared by the capture, [`Hierarchy`] and
/// [`MulticoreHierarchy`](crate::MulticoreHierarchy).
pub(crate) struct PrivateLevels<A = LruLevel, B = LruLevel> {
    pub(crate) l1: A,
    pub(crate) l2: B,
    /// `log2` of the line size all three levels share.
    shift: u32,
}

impl PrivateLevels {
    /// Cold L1 and L2 of `config`'s geometries.
    ///
    /// # Panics
    ///
    /// Panics if the levels of `config` disagree on line size.
    pub(crate) fn new(config: &HierarchyConfig) -> Self {
        PrivateLevels {
            l1: LruLevel::new(&config.l1),
            l2: LruLevel::new(&config.l2),
            shift: config.shared_line_shift(),
        }
    }

    fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
    }
}

impl<A: PrivateLevel, B: PrivateLevel> PrivateLevels<A, B> {
    /// Walks one reference through L1 and L2 and hands `llc` what
    /// reaches it, in order: for an L1 dirty eviction, the writeback into
    /// L2 and any L2 dirty eviction it causes; then, on an L1 miss, the L2
    /// demand access, its L2 dirty eviction and, on an L2 miss, the
    /// demand itself. Returns the level that serviced the reference,
    /// the LLC's hit deciding between [`ServiceLevel::Llc`] and
    /// [`ServiceLevel::Memory`].
    #[inline(always)]
    pub(crate) fn step<S: LlcSink>(&mut self, access: &Access, llc: &mut S) -> ServiceLevel {
        let block = access.addr >> self.shift;
        let ctx = access.context();
        let (l1_hit, l1_evicted) = self.l1.access(block, &ctx);
        if let Some(ev) = l1_evicted.filter(|ev| ev.dirty) {
            let wb = self.write_of(ev.block_addr, access.pc);
            let (_, l2_evicted) = self.l2.access(ev.block_addr, &wb);
            self.drain(l2_evicted, access.pc, llc);
        }
        if l1_hit {
            return ServiceLevel::L1;
        }
        let (l2_hit, l2_evicted) = self.l2.access(block, &ctx);
        self.drain(l2_evicted, access.pc, llc);
        if l2_hit {
            ServiceLevel::L2
        } else if llc.demand(block, access) {
            ServiceLevel::Llc
        } else {
            ServiceLevel::Memory
        }
    }

    /// Hands an L2 dirty eviction to the LLC.
    #[inline(always)]
    fn drain<S: LlcSink>(&self, evicted: Option<Evicted>, pc: u64, llc: &mut S) {
        if let Some(ev) = evicted.filter(|ev| ev.dirty) {
            llc.writeback(ev.block_addr, &self.write_of(ev.block_addr, pc));
        }
    }

    /// The write that carries `block` to the next level.
    #[inline(always)]
    fn write_of(&self, block: u64, pc: u64) -> AccessContext {
        AccessContext {
            pc,
            addr: block << self.shift,
            is_write: true,
        }
    }
}

/// The capture loop over one pairing of L1 and L2 implementations.
fn capture_with<A, B, I>(l1: A, l2: B, iter: I, mut llc: LlcRecorder) -> u64
where
    A: PrivateLevel,
    B: PrivateLevel,
    I: Iterator<Item = Access>,
{
    let mut levels = PrivateLevels {
        l1,
        l2,
        shift: llc.shift,
    };
    let mut total_instructions = 0u64;
    for access in iter {
        total_instructions += u64::from(access.icount_delta);
        llc.pending_icount += u64::from(access.icount_delta);
        levels.step(&access, &mut llc);
    }
    total_instructions
}

/// The capture's LLC: appends the traffic that reaches it to `out`.
struct LlcRecorder<'a> {
    /// `log2` of the line size.
    shift: u32,
    include_writebacks: bool,
    /// Instructions since the last recorded LLC access.
    pending_icount: u64,
    out: &'a mut Vec<Access>,
}

impl LlcSink for LlcRecorder<'_> {
    /// Records the demand (a reference that is itself a writeback is not
    /// one). The recorder has no contents, so it reports a miss.
    #[inline(always)]
    fn demand(&mut self, block: u64, access: &Access) -> bool {
        if access.kind != AccessKind::Writeback {
            self.record(block, access.pc, access.kind);
        }
        false
    }

    /// L2 dirty evictions drain to the LLC's data array; by default they
    /// are not recorded (writebacks do not update LLC replacement state).
    #[inline(always)]
    fn writeback(&mut self, block: u64, ctx: &AccessContext) {
        if self.include_writebacks {
            self.record(block, ctx.pc, AccessKind::Writeback);
        }
    }
}

impl LlcRecorder<'_> {
    #[inline(always)]
    fn record(&mut self, block: u64, pc: u64, kind: AccessKind) {
        self.out.push(Access {
            addr: block << self.shift,
            pc,
            kind,
            icount_delta: self.pending_icount.min(u64::from(u32::MAX)) as u32,
        });
        self.pending_icount = 0;
    }
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

    fn with_line(line: u64) -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheGeometry::new(16 * line, 2, line).unwrap(),
            l2: CacheGeometry::new(64 * line, 4, line).unwrap(),
            llc: CacheGeometry::new(256 * line, 8, line).unwrap(),
        }
    }

    #[test]
    fn captured_stream_matches_hierarchy_llc_at_every_line_size() {
        // The writeback-inclusive capture replayed into a standalone LLC
        // sees exactly the live hierarchy's LLC traffic, writebacks
        // included, whatever the (shared) line size.
        for line in [32u64, 64, 128] {
            let cfg = with_line(line);
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let trace: Vec<Access> = (0..20_000u64)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let addr = (x % (1 << 16)) & !7;
                    if i % 3 == 0 {
                        Access::write(addr, 0)
                    } else {
                        Access::read(addr, 0)
                    }
                })
                .collect();
            let mut live = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
            live.run(trace.iter().copied());
            let (stream, _) = capture_llc_stream_config(cfg, trace.iter().copied(), true);
            assert!(stream.iter().all(|a| a.addr % line == 0), "{line} B lines");
            let mut replay = SetAssocCache::new(cfg.llc, Box::new(PlruPolicy::new(&cfg.llc)));
            for a in &stream {
                replay.access(a);
            }
            assert_eq!(replay.stats(), live.llc_stats(), "{line} B lines");
            assert!(
                live.llc_stats().writebacks > 0,
                "dirty traffic reached the LLC"
            );
        }
    }

    #[test]
    fn line_size_mismatch_is_rejected_naming_the_levels() {
        let mut cfg = with_line(64);
        cfg.l2 = CacheGeometry::new(64 * 128, 4, 128).unwrap();
        let err = cfg.line_shift().unwrap_err();
        assert_eq!(
            err,
            LineSizeMismatch {
                l1: 64,
                l2: 128,
                llc: 64
            }
        );
        assert_eq!(
            err.to_string(),
            "hierarchy levels disagree on line size: L1 64 B, L2 128 B, LLC 64 B"
        );
        assert_eq!(with_line(64).line_shift(), Ok(6));
        assert_eq!(HierarchyConfig::paper().line_shift(), Ok(6));
    }

    #[test]
    #[should_panic(expected = "disagree on line size: L1 64 B, L2 64 B, LLC 32 B")]
    fn hierarchy_rejects_mismatched_line_sizes() {
        let mut cfg = with_line(64);
        cfg.llc = CacheGeometry::new(256 * 32, 8, 32).unwrap();
        let _ = Hierarchy::new(cfg, Box::new(PlruPolicy::new(&cfg.llc)));
    }

    #[test]
    #[should_panic(expected = "disagree on line size: L1 32 B, L2 64 B, LLC 64 B")]
    fn capture_rejects_mismatched_line_sizes() {
        let mut cfg = with_line(64);
        cfg.l1 = CacheGeometry::new(16 * 32, 2, 32).unwrap();
        let _ = capture_llc_stream(cfg, [Access::read(0, 0)]);
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
