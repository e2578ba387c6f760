//! Naive reference implementations of the replacement state machines.
//!
//! Each type here re-derives its optimized counterpart's behaviour from the
//! paper's *specification*, using a deliberately different representation:
//!
//! * [`RefPlru`] keeps one `bool` per tree node instead of packed `u64`
//!   bits, and derives positions by walking root → leaf (the optimized
//!   [`gippr::PlruTree`] walks leaf → root).
//! * [`RefRecencyStack`] keeps the MRU→LRU *ordering* as a list of ways
//!   (the optimized [`gippr::RecencyStack`] stores each way's integer
//!   position), so its shifting semantics fall out of `remove`/`insert`.
//! * [`RefLru`] orders ways by recency rather than comparing timestamps.
//! * [`RefAwrp`] re-derives the weight ranking in per-set touch units
//!   instead of the optimized way-packed, `ways`-strided clock.
//! * [`RefFifo`], [`RefSrrip`], and [`RefPdp`] are clarity-first ports of
//!   the published policy descriptions.
//! * [`RefArc`] keeps ARC's four lists as MRU-first `Vec`s and [`RefEhc`]
//!   keeps EHC's signatures and hit counts in separate arrays, where the
//!   optimized policies pack them into masks, nibble lists and words; each emits
//!   its twin's audit digest bytes, so the two compare state for state.
//! * [`RefPlruPolicy`], [`RefGippr`], and [`RefGiplr`] drive the naive
//!   structures through the [`ReplacementPolicy`] interface.
//! * [`ref_min_misses`] is Belady MIN as a whole-stream hash map of
//!   next uses and a `Vec` per set, the oracle for the set-bucketed
//!   [`mem_model::min_misses`].
//! * [`ref_capture_llc_stream`] is the L1/L2 capture loop as it ran before
//!   the packed LRU kernel: one `SetAssocCache<TrueLru>` per level and an
//!   `Evicted` record per fill, the oracle for
//!   [`mem_model::capture_llc_stream_into`].

use baselines::TrueLru;
use gippr::Ipv;
use mem_model::HierarchyConfig;
use sim_core::{
    Access, AccessContext, AccessKind, CacheGeometry, CacheStats, ReplacementPolicy, SetAssocCache,
};
use std::collections::HashMap;

/// A tree PseudoLRU state holding one `bool` per internal node.
///
/// Node indices are heap order from 1 (the root); node `i`'s children are
/// `2i` and `2i + 1`, and way `w`'s leaf is node `ways + w`. `false` points
/// left, `true` points right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPlru {
    /// `nodes[i]` is node `i`'s bit; index 0 is unused.
    nodes: Vec<bool>,
    ways: usize,
}

impl RefPlru {
    /// Creates an all-zero tree for a power-of-two associativity in 2..=64.
    pub fn new(ways: usize) -> Self {
        assert!(
            ways.is_power_of_two() && (2..=64).contains(&ways),
            "RefPlru needs a power-of-two associativity in 2..=64, got {ways}"
        );
        RefPlru {
            nodes: vec![false; ways],
            ways,
        }
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn levels(&self) -> usize {
        self.ways.trailing_zeros() as usize
    }

    /// The PseudoLRU victim: follow the bits down from the root.
    pub fn victim(&self) -> usize {
        let mut node = 1;
        while node < self.ways {
            node = 2 * node + usize::from(self.nodes[node]);
        }
        node - self.ways
    }

    /// Promotes `way` to pseudo-MRU (position 0).
    pub fn promote(&mut self, way: usize) {
        self.set_position(way, 0);
    }

    /// Reads `way`'s pseudo recency-stack position by walking root → leaf.
    ///
    /// At depth `d` (root = 0) the path branches on bit `levels - 1 - d` of
    /// `way`; the node contributes that same bit of the position when its
    /// plru bit points *toward* the block.
    pub fn position(&self, way: usize) -> usize {
        assert!(way < self.ways, "way {way} out of range");
        let levels = self.levels();
        let mut node = 1;
        let mut pos = 0;
        for d in 0..levels {
            let bit_index = levels - 1 - d;
            let branch = way >> bit_index & 1;
            let toward_block = usize::from(self.nodes[node]) == branch;
            if toward_block {
                pos |= 1 << bit_index;
            }
            node = 2 * node + branch;
        }
        pos
    }

    /// Writes `way`'s position, rewriting the bits on its root-to-leaf path.
    pub fn set_position(&mut self, way: usize, position: usize) {
        assert!(way < self.ways, "way {way} out of range");
        assert!(position < self.ways, "position {position} out of range");
        let levels = self.levels();
        let mut node = 1;
        for d in 0..levels {
            let bit_index = levels - 1 - d;
            let branch = way >> bit_index & 1;
            let pos_bit = position >> bit_index & 1 == 1;
            // Point toward the block iff the position bit says so: a right
            // branch is "toward" when the node bit is 1, a left branch when
            // it is 0.
            self.nodes[node] = if branch == 1 { pos_bit } else { !pos_bit };
            node = 2 * node + branch;
        }
    }

    /// All ways' positions, indexed by way.
    pub fn positions(&self) -> Vec<usize> {
        (0..self.ways).map(|w| self.position(w)).collect()
    }
}

/// A recency stack represented as the explicit MRU→LRU ordering of ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRecencyStack {
    /// `order[p]` is the way at position `p` (0 = MRU).
    order: Vec<usize>,
}

impl RefRecencyStack {
    /// Creates a stack where way `w` starts at position `w`.
    pub fn new(ways: usize) -> Self {
        assert!((2..=64).contains(&ways), "2..=64 ways, got {ways}");
        RefRecencyStack {
            order: (0..ways).collect(),
        }
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.order.len()
    }

    /// The position of `way` (0 = MRU).
    pub fn position(&self, way: usize) -> usize {
        self.order
            .iter()
            .position(|&w| w == way)
            .expect("every way appears in the ordering")
    }

    /// The way currently at `pos`.
    pub fn way_at(&self, pos: usize) -> usize {
        self.order[pos]
    }

    /// The way at the LRU position.
    pub fn lru_way(&self) -> usize {
        *self.order.last().expect("ways > 0")
    }

    /// Moves `way` to `target`; everything between slides over by one.
    pub fn move_to(&mut self, way: usize, target: usize) {
        assert!(target < self.ways(), "target {target} out of range");
        let current = self.position(way);
        self.order.remove(current);
        self.order.insert(target, way);
    }

    /// All positions, indexed by way.
    pub fn positions(&self) -> Vec<usize> {
        let mut by_way = vec![0; self.ways()];
        for (p, &w) in self.order.iter().enumerate() {
            by_way[w] = p;
        }
        by_way
    }
}

/// Reference true LRU: per-set MRU→LRU lists of *touched* ways.
///
/// Untouched ways sort before touched ones (they are infinitely old), ties
/// among them broken toward the lowest way index — matching the optimized
/// timestamp implementation's zero-initialized clock and way-packed `min`.
pub struct RefLru {
    /// Per-set list of touched ways, most recent first.
    recency: Vec<Vec<usize>>,
    ways: usize,
}

impl RefLru {
    /// Creates the reference LRU policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefLru {
            recency: vec![Vec::new(); geom.sets()],
            ways: geom.ways(),
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let list = &mut self.recency[set];
        list.retain(|&w| w != way);
        list.insert(0, way);
    }
}

impl ReplacementPolicy for RefLru {
    fn name(&self) -> &str {
        "ref-LRU"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        let list = &self.recency[set];
        match (0..self.ways).find(|w| !list.contains(w)) {
            Some(untouched) => untouched,
            None => *list.last().expect("set is full"),
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::lru_bits_per_set(self.ways)
    }
}

/// Reference AWRP: weight ranking re-derived in per-set *touch units*.
///
/// Where the optimized [`baselines::AwrpPolicy`] scales a per-set clock
/// by the associativity so it can pack way indices into timestamp low
/// bits, this model counts the set's touches directly (1 per touch) and
/// takes an explicit `min_by_key` over `(last_touch + FREQ_WEIGHT ×
/// freq, way)`. Untouched ways keep `(0, 0)` — infinitely old, ties to
/// the lowest way — matching the optimized zero-initialized state.
pub struct RefAwrp {
    ways: usize,
    touches: Vec<u64>,
    last_touch: Vec<Vec<u64>>,
    freq: Vec<Vec<u8>>,
}

impl RefAwrp {
    /// Creates the reference AWRP policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefAwrp {
            ways: geom.ways(),
            touches: vec![0; geom.sets()],
            last_touch: vec![vec![0; geom.ways()]; geom.sets()],
            freq: vec![vec![0; geom.ways()]; geom.sets()],
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.touches[set] += 1;
        self.last_touch[set][way] = self.touches[set];
    }
}

impl ReplacementPolicy for RefAwrp {
    fn name(&self) -> &str {
        "ref-AWRP"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        (0..self.ways)
            .min_by_key(|&w| {
                (
                    self.last_touch[set][w]
                        + u64::from(self.freq[set][w]) * baselines::awrp::FREQ_WEIGHT,
                    w,
                )
            })
            .expect("ways > 0")
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
        let f = &mut self.freq[set][way];
        *f = (*f + 1).min(baselines::awrp::FREQ_MAX);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.touch(set, way);
        self.freq[set][way] = 0;
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::lru_bits_per_set(self.ways) + self.ways as u64 * 4
    }

    fn shard_affinity(&self) -> sim_core::ShardAffinity {
        sim_core::ShardAffinity::SetLocal
    }

    // Same bytes as `baselines::AwrpPolicy`'s digest: each way's age in
    // the optimized clock's `ways`-strided units, then its frequency.
    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let mut d = Vec::new();
        for w in 0..self.ways {
            let age = (self.touches[set] - self.last_touch[set][w]) * self.ways as u64;
            d.extend_from_slice(&age.to_le_bytes());
            d.push(self.freq[set][w]);
        }
        Some(d)
    }
}

/// Reference FIFO: a per-set round-robin pointer, advanced only when a fill
/// consumes the pointed-to way (cold fills land in way order already).
pub struct RefFifo {
    next: Vec<usize>,
    ways: usize,
}

impl RefFifo {
    /// Creates the reference FIFO policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefFifo {
            next: vec![0; geom.sets()],
            ways: geom.ways(),
        }
    }
}

impl ReplacementPolicy for RefFifo {
    fn name(&self) -> &str {
        "ref-FIFO"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.next[set]
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessContext) {}

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        if self.next[set] == way {
            self.next[set] = (way + 1) % self.ways;
        }
    }

    fn bits_per_set(&self) -> u64 {
        u64::from(self.ways.trailing_zeros())
    }
}

/// Reference SRRIP (Jaleel et al., ISCA 2010) with 2-bit RRPVs: insert at
/// "long" (`max - 1`), promote hits to 0, victimize the first way at `max`,
/// aging everyone until one exists. Invalid lines start at `max`.
pub struct RefSrrip {
    rrpv: Vec<Vec<u8>>,
    max: u8,
    ways: usize,
}

impl RefSrrip {
    /// Creates the reference SRRIP policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        let max = (1u8 << baselines::rrip::RRPV_BITS) - 1;
        RefSrrip {
            rrpv: vec![vec![max; geom.ways()]; geom.sets()],
            max,
            ways: geom.ways(),
        }
    }
}

impl ReplacementPolicy for RefSrrip {
    fn name(&self) -> &str {
        "ref-SRRIP"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        loop {
            if let Some(w) = (0..self.ways).find(|&w| self.rrpv[set][w] == self.max) {
                return w;
            }
            for w in 0..self.ways {
                self.rrpv[set][w] += 1;
            }
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.rrpv[set][way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.rrpv[set][way] = self.max - 1;
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::rrip_bits_per_set(self.ways, baselines::rrip::RRPV_BITS)
    }
}

/// Reference plain tree PseudoLRU over [`RefPlru`] trees.
pub struct RefPlruPolicy {
    trees: Vec<RefPlru>,
}

impl RefPlruPolicy {
    /// Creates the reference PLRU policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefPlruPolicy {
            trees: vec![RefPlru::new(geom.ways()); geom.sets()],
        }
    }
}

impl ReplacementPolicy for RefPlruPolicy {
    fn name(&self) -> &str {
        "ref-PseudoLRU"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.trees[set].victim()
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.trees[set].promote(way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.trees[set].promote(way);
    }

    fn bits_per_set(&self) -> u64 {
        self.trees[0].ways() as u64 - 1
    }
}

/// Reference GIPPR: [`RefPlru`] trees driven by an insertion/promotion
/// vector — a hit at position `p` moves to `V[p]`, a fill lands at `V[k]`.
pub struct RefGippr {
    ipv: Ipv,
    trees: Vec<RefPlru>,
}

impl RefGippr {
    /// Creates the reference GIPPR policy; `ipv` must match `geom.ways()`.
    pub fn new(geom: &CacheGeometry, ipv: Ipv) -> Self {
        assert_eq!(ipv.assoc(), geom.ways(), "vector/geometry mismatch");
        RefGippr {
            ipv,
            trees: vec![RefPlru::new(geom.ways()); geom.sets()],
        }
    }
}

impl ReplacementPolicy for RefGippr {
    fn name(&self) -> &str {
        "ref-GIPPR"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.trees[set].victim()
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let pos = self.trees[set].position(way);
        self.trees[set].set_position(way, self.ipv.promotion(pos));
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.trees[set].set_position(way, self.ipv.insertion());
    }

    fn bits_per_set(&self) -> u64 {
        self.trees[0].ways() as u64 - 1
    }
}

/// Reference GIPLR: [`RefRecencyStack`]s driven by an insertion/promotion
/// vector with true-LRU shifting semantics.
pub struct RefGiplr {
    ipv: Ipv,
    stacks: Vec<RefRecencyStack>,
}

impl RefGiplr {
    /// Creates the reference GIPLR policy; `ipv` must match `geom.ways()`.
    pub fn new(geom: &CacheGeometry, ipv: Ipv) -> Self {
        assert_eq!(ipv.assoc(), geom.ways(), "vector/geometry mismatch");
        RefGiplr {
            ipv,
            stacks: vec![RefRecencyStack::new(geom.ways()); geom.sets()],
        }
    }
}

impl ReplacementPolicy for RefGiplr {
    fn name(&self) -> &str {
        "ref-GIPLR"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        self.stacks[set].lru_way()
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let pos = self.stacks[set].position(way);
        self.stacks[set].move_to(way, self.ipv.promotion(pos));
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.stacks[set].move_to(way, self.ipv.insertion());
    }

    fn bits_per_set(&self) -> u64 {
        sim_core::overhead::lru_bits_per_set(self.stacks[0].ways())
    }
}

/// Reference PDP (Duong et al., MICRO 2012), no-bypass configuration.
///
/// Same specification as [`baselines::PdpPolicy`] — reuse-distance sampler,
/// periodic protecting-distance recomputation, quantized per-set decay —
/// written with per-set `Vec`s and explicit loops rather than flat arrays.
pub struct RefPdp {
    cfg: baselines::PdpConfig,
    ways: usize,
    line_shift: u32,
    /// Per-set remaining protecting distance, per way.
    rpd: Vec<Vec<u8>>,
    /// Per-set reuse bit, per way.
    reused: Vec<Vec<bool>>,
    rpd_max: u8,
    tick: Vec<u8>,
    quantum: u8,
    hist: Vec<u64>,
    total_sampled: u64,
    /// Per sampled set: FIFO of (tag, last access count) pairs.
    sampler: Vec<Vec<(u64, u64)>>,
    set_access_count: Vec<u64>,
    accesses: u64,
    pd: usize,
}

impl RefPdp {
    /// Creates the reference PDP policy with default configuration.
    pub fn new(geom: &CacheGeometry) -> Self {
        Self::with_config(geom, baselines::PdpConfig::default())
    }

    /// Creates the reference PDP policy with an explicit configuration.
    pub fn with_config(geom: &CacheGeometry, cfg: baselines::PdpConfig) -> Self {
        let rpd_max = ((1u16 << cfg.rpd_bits) - 1) as u8;
        let sampled_sets = geom.sets().div_ceil(cfg.sampler_stride);
        let mut p = RefPdp {
            cfg,
            ways: geom.ways(),
            line_shift: geom.line_bytes().trailing_zeros(),
            rpd: vec![vec![0; geom.ways()]; geom.sets()],
            reused: vec![vec![false; geom.ways()]; geom.sets()],
            rpd_max,
            tick: vec![0; geom.sets()],
            quantum: 1,
            hist: vec![0; cfg.max_distance],
            total_sampled: 0,
            sampler: vec![Vec::new(); sampled_sets],
            set_access_count: vec![0; sampled_sets],
            accesses: 0,
            pd: cfg.initial_pd,
        };
        p.quantum = p.quantum_for(p.pd);
        p
    }

    /// Whether a line's remaining protecting distance is nonzero.
    pub fn is_protected(&self, set: usize, way: usize) -> bool {
        self.rpd[set][way] != 0
    }

    fn quantum_for(&self, pd: usize) -> u8 {
        pd.max(1).div_ceil(usize::from(self.rpd_max)).min(255) as u8
    }

    fn compute_pd(&self) -> usize {
        if self.total_sampled == 0 {
            return self.cfg.initial_pd;
        }
        let mut best_d = 1;
        let mut best_e = 0.0f64;
        let mut hits: u64 = 0;
        let mut weighted: u64 = 0;
        for d in 1..=self.cfg.max_distance {
            let n = self.hist[d - 1];
            hits += n;
            weighted += n * d as u64;
            let occupancy = weighted + (self.total_sampled - hits) * d as u64;
            if occupancy == 0 {
                continue;
            }
            let e = hits as f64 / occupancy as f64;
            if e > best_e {
                best_e = e;
                best_d = d;
            }
        }
        best_d
    }

    fn sample(&mut self, set: usize, ctx: &AccessContext) {
        if set % self.cfg.sampler_stride != 0 {
            return;
        }
        let idx = set / self.cfg.sampler_stride;
        self.set_access_count[idx] += 1;
        let now = self.set_access_count[idx];
        let tag = ctx.addr >> self.line_shift;
        let entries = &mut self.sampler[idx];
        if let Some(e) = entries.iter_mut().find(|e| e.0 == tag) {
            let rd = (now - e.1) as usize;
            let bucket = rd.clamp(1, self.cfg.max_distance) - 1;
            self.hist[bucket] += 1;
            self.total_sampled += 1;
            e.1 = now;
        } else {
            if entries.len() == self.cfg.sampler_depth {
                entries.remove(0);
            }
            entries.push((tag, now));
        }
    }

    fn on_any_access(&mut self, set: usize, ctx: &AccessContext) {
        self.sample(set, ctx);
        self.accesses += 1;
        if self.accesses % self.cfg.compute_period == 0 {
            self.pd = self.compute_pd();
            self.quantum = self.quantum_for(self.pd);
            for h in &mut self.hist {
                *h /= 2;
            }
            self.total_sampled /= 2;
        }
        self.tick[set] += 1;
        if self.tick[set] >= self.quantum {
            self.tick[set] = 0;
            for w in 0..self.ways {
                self.rpd[set][w] = self.rpd[set][w].saturating_sub(1);
            }
        }
    }
}

impl ReplacementPolicy for RefPdp {
    fn name(&self) -> &str {
        "ref-PDP"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        if let Some(w) = (0..self.ways).find(|&w| self.rpd[set][w] == 0) {
            return w;
        }
        (0..self.ways)
            .max_by_key(|&w| (!self.reused[set][w], self.rpd[set][w]))
            .expect("ways > 0")
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        self.on_any_access(set, ctx);
        self.rpd[set][way] = self.rpd_max;
        self.reused[set][way] = true;
    }

    fn on_miss(&mut self, set: usize, ctx: &AccessContext) {
        self.on_any_access(set, ctx);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.rpd[set][way] = self.rpd_max;
        self.reused[set][way] = false;
    }

    fn bits_per_set(&self) -> u64 {
        self.ways as u64 * (u64::from(self.cfg.rpd_bits) + 1) + 8
    }

    // Same bytes as `baselines::PdpPolicy`'s digests, so the two can be
    // compared state for state.
    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let mut d = Vec::new();
        for w in 0..self.ways {
            d.push(self.rpd[set][w]);
            d.push(u8::from(self.reused[set][w]));
        }
        d.push(self.tick[set]);
        Some(d)
    }

    fn audit_global_digest(&self) -> Vec<u8> {
        let mut d = Vec::new();
        d.extend_from_slice(&(self.pd as u64).to_le_bytes());
        d.push(self.quantum);
        d.extend_from_slice(&self.accesses.to_le_bytes());
        d.extend_from_slice(&self.total_sampled.to_le_bytes());
        for (i, &h) in self.hist.iter().enumerate() {
            if h != 0 {
                d.extend_from_slice(&(i as u16).to_le_bytes());
                d.extend_from_slice(&h.to_le_bytes());
            }
        }
        for (entries, count) in self.sampler.iter().zip(&self.set_access_count) {
            d.extend_from_slice(&count.to_le_bytes());
            for &(tag, last) in entries {
                d.extend_from_slice(&tag.to_le_bytes());
                d.extend_from_slice(&last.to_le_bytes());
            }
            d.push(0xff);
        }
        d
    }
}

/// Fixed-point scale for [`RefArc`]'s adaptation target `p`.
const ARC_P_SCALE: u64 = 16;

/// Which resident list a [`RefArc`] line is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArcList {
    T1,
    T2,
}

/// Per-set [`RefArc`] state: the two resident lists (way indices, MRU
/// first) and the two ghost lists (block addresses, MRU first, capped at
/// `ways`).
#[derive(Debug, Clone, Default)]
struct ArcSetLists {
    t1: Vec<usize>,
    t2: Vec<usize>,
    b1: Vec<u64>,
    b2: Vec<u64>,
}

impl ArcSetLists {
    fn drop_way(&mut self, way: usize) -> Option<ArcList> {
        if let Some(i) = self.t1.iter().position(|&w| w == way) {
            self.t1.remove(i);
            return Some(ArcList::T1);
        }
        if let Some(i) = self.t2.iter().position(|&w| w == way) {
            self.t2.remove(i);
            return Some(ArcList::T2);
        }
        None
    }
}

/// Reference ARC: per-set T1/T2/B1/B2 as MRU-first `Vec`s, shifted with
/// `insert(0)` and `remove`, and one cache-global adaptation target.
///
/// [`baselines::ArcPolicy`] keeps the same lists as membership masks
/// beside packed nibble (or, past 16 ways, byte) orders. The audit
/// digests use the same bytes, so the two can be compared state for
/// state.
#[derive(Debug, Clone)]
pub struct RefArc {
    geom: CacheGeometry,
    ways: usize,
    lists: Vec<ArcSetLists>,
    blocks: Vec<u64>,
    /// T1 target in [`ARC_P_SCALE`]-ths of a way, in `0..=ways * ARC_P_SCALE`.
    p: u64,
    /// Set in `on_miss` on a ghost hit; routes the following fill to T2.
    fill_to_t2: bool,
}

impl RefArc {
    /// Creates the reference ARC policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RefArc {
            geom: *geom,
            ways: geom.ways(),
            lists: vec![ArcSetLists::default(); geom.sets()],
            blocks: vec![0; geom.sets() * geom.ways()],
            p: 0,
            fill_to_t2: false,
        }
    }
}

impl ReplacementPolicy for RefArc {
    fn name(&self) -> &str {
        "ref-ARC"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        let s = &self.lists[set];
        // REPLACE: shed T1 while it holds more than the target share (or
        // T2 has nothing to give); otherwise shed T2. Victims come from
        // each list's LRU end.
        let from_t1 =
            !s.t1.is_empty() && (s.t2.is_empty() || s.t1.len() as u64 * ARC_P_SCALE > self.p);
        let list = if from_t1 { &s.t1 } else { &s.t2 };
        *list
            .last()
            .expect("victim asked of a set with no residents")
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        // Any reuse promotes to T2's MRU position.
        let s = &mut self.lists[set];
        s.drop_way(way);
        s.t2.insert(0, way);
    }

    fn on_miss(&mut self, set: usize, ctx: &AccessContext) {
        let block = self.geom.block_of(ctx.addr);
        let s = &mut self.lists[set];
        if let Some(i) = s.b1.iter().position(|&b| b == block) {
            // Recency ghost hit: T1 was too small — grow the target.
            s.b1.remove(i);
            let step = (s.b2.len() as u64 / s.b1.len().max(1) as u64).max(1);
            self.p = (self.p + step * ARC_P_SCALE).min(self.ways as u64 * ARC_P_SCALE);
            self.fill_to_t2 = true;
        } else if let Some(i) = s.b2.iter().position(|&b| b == block) {
            // Frequency ghost hit: T2 was too small — shrink the target.
            s.b2.remove(i);
            let step = (s.b1.len() as u64 / s.b2.len().max(1) as u64).max(1);
            self.p = self.p.saturating_sub(step * ARC_P_SCALE);
            self.fill_to_t2 = true;
        } else {
            self.fill_to_t2 = false;
        }
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let block = self.blocks[set * self.ways + way];
        let s = &mut self.lists[set];
        let (ghost, cap) = match s.drop_way(way) {
            Some(ArcList::T2) => (&mut s.b2, self.ways),
            // T1 members and (defensively) untracked ways ghost into B1.
            _ => (&mut s.b1, self.ways),
        };
        ghost.insert(0, block);
        ghost.truncate(cap);
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        self.blocks[set * self.ways + way] = self.geom.block_of(ctx.addr);
        let to_t2 = std::mem::take(&mut self.fill_to_t2);
        let s = &mut self.lists[set];
        s.drop_way(way);
        if to_t2 {
            s.t2.insert(0, way);
        } else {
            s.t1.insert(0, way);
        }
    }

    fn bits_per_set(&self) -> u64 {
        self.ways as u64
            + sim_core::overhead::lru_bits_per_set(self.ways)
            + 2 * self.ways as u64 * 16
    }

    fn global_bits(&self) -> u64 {
        16
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let s = &self.lists[set];
        let mut d = Vec::new();
        for list in [&s.t1, &s.t2] {
            for &w in list {
                d.push(w as u8);
                d.extend_from_slice(&self.blocks[set * self.ways + w].to_le_bytes());
            }
            d.push(0xff);
        }
        for ghost in [&s.b1, &s.b2] {
            for &b in ghost {
                d.extend_from_slice(&b.to_le_bytes());
            }
            d.push(0xff);
        }
        Some(d)
    }

    fn audit_global_digest(&self) -> Vec<u8> {
        let mut d = self.p.to_le_bytes().to_vec();
        d.push(u8::from(self.fill_to_t2));
        d
    }
}

/// log2 of [`RefEhc`]'s expected-hit-count table size.
const EHCT_BITS: u32 = 12;
/// [`RefEhc`]'s hit-count ceiling (4-bit counters).
const EHC_HITS_MAX: u8 = 15;

/// Reference EHC: separate per-line signature and hit-count arrays and an
/// explicit `min_by_key` over remaining expected hits.
///
/// [`baselines::EhcPolicy`] packs each line's signature and hit count
/// into one `u16`. The audit digests use the same bytes, so the two can
/// be compared state for state.
#[derive(Debug, Clone)]
pub struct RefEhc {
    ways: usize,
    signature: Vec<u16>,
    hits: Vec<u8>,
    ehct: Vec<u8>,
}

impl RefEhc {
    /// Creates the reference EHC policy for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        let lines = geom.sets() * geom.ways();
        RefEhc {
            ways: geom.ways(),
            signature: vec![0; lines],
            hits: vec![0; lines],
            // Optimistic start: unseen signatures expect one hit.
            ehct: vec![1; 1 << EHCT_BITS],
        }
    }

    /// The EHCT signature for a memory instruction PC.
    pub fn signature_of(pc: u64) -> u16 {
        let folded = (pc >> 2) ^ (pc >> 14) ^ (pc >> 33);
        (folded & ((1 << EHCT_BITS) - 1)) as u16
    }

    /// Hits this line still owes per its signature's expectation.
    fn remaining(&self, idx: usize) -> u8 {
        self.ehct[usize::from(self.signature[idx])].saturating_sub(self.hits[idx])
    }
}

impl ReplacementPolicy for RefEhc {
    fn name(&self) -> &str {
        "ref-EHC"
    }

    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        let base = set * self.ways;
        // Fewest remaining expected hits loses; ties fall to the lowest way.
        (0..self.ways)
            .min_by_key(|&w| self.remaining(base + w))
            .expect("ways > 0")
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        let idx = set * self.ways + way;
        self.hits[idx] = (self.hits[idx] + 1).min(EHC_HITS_MAX);
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let idx = set * self.ways + way;
        let sig = usize::from(self.signature[idx]);
        // Exponential moving average toward the observed hit count,
        // truncating so a dead signature can decay to zero.
        self.ehct[sig] = (self.ehct[sig] + self.hits[idx]) / 2;
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        let idx = set * self.ways + way;
        self.signature[idx] = Self::signature_of(ctx.pc);
        self.hits[idx] = 0;
    }

    fn bits_per_set(&self) -> u64 {
        self.ways as u64 * (u64::from(EHCT_BITS) + 4)
    }

    fn global_bits(&self) -> u64 {
        (1u64 << EHCT_BITS) * 4
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let base = set * self.ways;
        let mut d = Vec::with_capacity(self.ways * 3);
        for idx in base..base + self.ways {
            d.extend_from_slice(&self.signature[idx].to_le_bytes());
            d.push(self.hits[idx]);
        }
        Some(d)
    }

    fn audit_global_digest(&self) -> Vec<u8> {
        let mut d = Vec::new();
        for (i, &v) in self.ehct.iter().enumerate() {
            if v != 1 {
                d.extend_from_slice(&(i as u16).to_le_bytes());
                d.push(v);
            }
        }
        d
    }
}

/// Reference Belady MIN: the original two-pass simulation, kept as the
/// oracle for [`mem_model::min_misses`].
///
/// Pass one links each access to the stream index of the next reference
/// to the same block through one `HashMap` over the whole stream; pass two
/// simulates every set as a `Vec` of occupants, evicting the one with the
/// farthest next use. Counts only the accesses after `warmup`.
pub fn ref_min_misses(stream: &[Access], geom: CacheGeometry, warmup: usize) -> CacheStats {
    // Pass 1: next-use chains.
    let mut next_use = vec![usize::MAX; stream.len()];
    let mut last_seen: HashMap<u64, usize> = HashMap::new();
    for (i, a) in stream.iter().enumerate().rev() {
        let block = geom.block_of(a.addr);
        next_use[i] = last_seen.get(&block).copied().unwrap_or(usize::MAX);
        last_seen.insert(block, i);
    }

    // Pass 2: per-set simulation. Each occupant remembers its next use.
    struct Occupant {
        block: u64,
        next: usize,
    }
    let mut sets: Vec<Vec<Occupant>> = (0..geom.sets()).map(|_| Vec::new()).collect();
    let mut stats = CacheStats::new();
    for (i, a) in stream.iter().enumerate() {
        let block = geom.block_of(a.addr);
        let set = &mut sets[geom.set_of_block(block)];
        let measured = i >= warmup;
        if measured {
            stats.accesses += 1;
        }
        if let Some(occ) = set.iter_mut().find(|o| o.block == block) {
            occ.next = next_use[i];
            if measured {
                stats.hits += 1;
            }
            continue;
        }
        if measured {
            stats.misses += 1;
        }
        if set.len() == geom.ways() {
            // Evict the occupant referenced farthest in the future.
            let victim = set
                .iter()
                .enumerate()
                .max_by_key(|(_, o)| o.next)
                .map(|(idx, _)| idx)
                .expect("set is full");
            set.swap_remove(victim);
            if measured {
                stats.evictions += 1;
            }
        }
        set.push(Occupant {
            block,
            next: next_use[i],
        });
    }
    stats
}

/// Reference L1/L2 capture: the loop `mem_model`'s capture ran before it
/// moved onto the packed LRU kernel, kept as the oracle for
/// [`mem_model::capture_llc_stream_into`] (both writeback conventions).
/// Returns the LLC stream and the total instructions of `refs`.
///
/// # Panics
///
/// Panics if the levels of `config` disagree on line size.
pub fn ref_capture_llc_stream(
    config: HierarchyConfig,
    refs: &[Access],
    include_writebacks: bool,
) -> (Vec<Access>, u64) {
    let line = config.l1.line_bytes();
    config.line_shift().expect("one line size at every level");
    let mut l1 = SetAssocCache::with_policy(config.l1, TrueLru::new(&config.l1));
    let mut l2 = SetAssocCache::with_policy(config.l2, TrueLru::new(&config.l2));
    let mut stream = Vec::new();
    let mut pending_icount = 0u64;
    let mut total_instructions = 0u64;
    let emit = |stream: &mut Vec<Access>, pending: &mut u64, addr, pc, kind| {
        stream.push(Access {
            addr,
            pc,
            kind,
            icount_delta: (*pending).min(u64::from(u32::MAX)) as u32,
        });
        *pending = 0;
    };
    for access in refs {
        total_instructions += u64::from(access.icount_delta);
        pending_icount += u64::from(access.icount_delta);
        let l1_out = l1.access(access);
        let l2_accesses = [
            l1_out
                .evicted
                .filter(|ev| ev.dirty)
                .map(|ev| (ev.block_addr, AccessKind::Writeback)),
            (!l1_out.hit).then(|| (l1.geometry().block_of(access.addr), access.kind)),
        ];
        for (block, kind) in l2_accesses.into_iter().flatten() {
            let ctx = AccessContext {
                pc: access.pc,
                addr: block * line,
                is_write: kind != AccessKind::Read,
            };
            let out = l2.access_block(block, &ctx);
            if let Some(ev) = out.evicted {
                if include_writebacks && ev.dirty {
                    let addr = ev.block_addr * line;
                    emit(
                        &mut stream,
                        &mut pending_icount,
                        addr,
                        access.pc,
                        AccessKind::Writeback,
                    );
                }
            }
            if !out.hit && kind != AccessKind::Writeback {
                emit(
                    &mut stream,
                    &mut pending_icount,
                    block * line,
                    access.pc,
                    kind,
                );
            }
        }
    }
    (stream, total_instructions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_plru_round_trips_positions() {
        for ways in [2usize, 4, 8, 16, 32, 64] {
            let mut t = RefPlru::new(ways);
            for w in 0..ways {
                for p in 0..ways {
                    t.set_position(w, p);
                    assert_eq!(t.position(w), p, "{ways}-way, way {w}, pos {p}");
                }
            }
        }
    }

    #[test]
    fn ref_plru_positions_are_a_permutation() {
        let mut t = RefPlru::new(16);
        for (i, w) in [3usize, 7, 1, 15, 8, 2, 9, 0, 12].iter().enumerate() {
            t.set_position(*w, (i * 5) % 16);
            let mut ps = t.positions();
            ps.sort_unstable();
            assert_eq!(ps, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ref_stack_matches_documented_shifts() {
        let mut s = RefRecencyStack::new(4);
        s.move_to(2, 0);
        assert_eq!(s.positions(), vec![1, 2, 0, 3]);
        s.move_to(0, 3);
        assert_eq!(s.position(0), 3);
    }

    #[test]
    fn ref_lru_prefers_untouched_then_oldest() {
        let g = CacheGeometry::from_sets(2, 4, 64).unwrap();
        let mut p = RefLru::new(&g);
        let ctx = AccessContext::blank();
        p.on_fill(0, 2, &ctx);
        assert_eq!(p.victim(0, &ctx), 0, "lowest untouched way first");
        for w in [0usize, 1, 3] {
            p.on_fill(0, w, &ctx);
        }
        assert_eq!(p.victim(0, &ctx), 2, "way 2 is now the oldest touch");
    }
}
