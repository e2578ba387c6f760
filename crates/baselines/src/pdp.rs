//! PDP: Protecting Distance based Policy (Duong et al., MICRO 2012).
//!
//! PDP protects each line from eviction for a *protecting distance* (PD):
//! a number of accesses to its set within which a reuse is statistically
//! worth waiting for. A sampler measures the reuse-distance distribution,
//! and a small "microcontroller" periodically recomputes the PD that
//! maximizes hit rate per unit of cache occupancy:
//!
//! ```text
//!            Σ_{i ≤ d} N_i                      (expected hits)
//! E(d) = ─────────────────────────────────────
//!        Σ_{i ≤ d} N_i·i + (N_total − Σ N_i)·d  (expected occupancy time)
//! ```
//!
//! We implement the paper's **no-bypass** configuration at 4 bits per line
//! (a 3-bit remaining-distance counter plus a reuse bit), the variant
//! Jiménez compares against (GIPPR achieves ~95 % of its speedup with a
//! small fraction of the state). Victim selection prefers unprotected
//! lines; when every line is protected it evicts the *never-reused* line
//! farthest from expiry — i.e. the newest streaming insertion — which
//! approximates PDP's bypass behaviour without violating inclusion.

use sim_core::{AccessContext, CacheGeometry, ReplacementPolicy};

/// Tunables for [`PdpPolicy`]. The defaults mirror the configuration used
/// in the comparison paper: 4 bits per line, no bypass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdpConfig {
    /// Width of the per-line remaining-protecting-distance counter, in
    /// `1..=7`: the counter shares a byte with the line's reuse flag.
    pub rpd_bits: u32,
    /// Largest measurable reuse distance (in set accesses).
    pub max_distance: usize,
    /// Accesses between protecting-distance recomputations.
    pub compute_period: u64,
    /// One in `sampler_stride` sets feeds the reuse-distance sampler.
    pub sampler_stride: usize,
    /// Protecting distance assumed before the first recomputation.
    pub initial_pd: usize,
    /// Tags remembered per sampled set.
    pub sampler_depth: usize,
}

impl Default for PdpConfig {
    fn default() -> Self {
        PdpConfig {
            rpd_bits: 3,
            max_distance: 256,
            compute_period: 128 * 1024,
            sampler_stride: 64,
            initial_pd: 64,
            sampler_depth: 64,
        }
    }
}

/// Top bit of a line's byte: set until the line is reused.
const FRESH: u8 = 0x80;
/// Low bits of a line's byte: its remaining protecting distance.
const RPD_MASK: u8 = !FRESH;
/// [`PdpPolicy::slot_of_set`] entry for a set the sampler does not watch.
const UNSAMPLED: u32 = u32::MAX;

/// One sampled set's reuse-distance ring: its access counter and which
/// of its `sampler_depth` entries hold tags.
#[derive(Debug, Clone, Copy, Default)]
struct SamplerRing {
    /// Accesses to the sampled set so far.
    now: u64,
    /// Entries in use; they fill from index 0 up.
    len: usize,
    /// Index of the oldest entry once the ring is full.
    head: usize,
}

/// Protecting Distance based Policy, no-bypass configuration.
///
/// Per-line state: one byte holding a quantized remaining-protecting-
/// distance (RPD) counter in its low bits and a never-reused flag in its
/// top bit. On every access to a set, a per-set tick counter advances;
/// each time it reaches the quantization step
/// `ceil(PD / (2^rpd_bits - 1))`, all RPDs in the set decay by one in one
/// pass over the set's bytes. Hits and fills re-arm a line's RPD to the
/// maximum. The victim is the lowest unprotected line (RPD = 0) if any
/// exists; otherwise the newest never-reused line — the one *farthest*
/// from expiry — and, if every line has been reused, the newest line
/// overall, the highest way winning ties.
///
/// The sampler watches one set in `sampler_stride` through a set→slot
/// table, keeps a fixed ring of tags per watched set, and a countdown
/// schedules the periodic PD recomputation, so an access does no
/// division.
#[derive(Debug, Clone)]
pub struct PdpPolicy {
    cfg: PdpConfig,
    ways: usize,
    /// log2(ways): the victim key keeps the way index below this bit.
    way_bits: u32,
    line_shift: u32,
    /// Per line: [`FRESH`] if not yet reused, or-ed with the RPD.
    line: Vec<u8>,
    rpd_max: u8,
    tick: Vec<u8>,
    quantum: u8,
    /// Reuse-distance histogram: `hist[d]` counts reuses at distance `d+1`.
    hist: Vec<u64>,
    total_sampled: u64,
    /// Per set: its sampler ring, or [`UNSAMPLED`].
    slot_of_set: Vec<u32>,
    rings: Vec<SamplerRing>,
    /// `sampler_depth` entries per ring: the tag and the ring's `now` at
    /// its last access.
    ring_tag: Vec<u64>,
    ring_last: Vec<u64>,
    accesses: u64,
    /// Accesses left until the next PD recomputation.
    until_recompute: u64,
    pd: usize,
}

impl PdpPolicy {
    /// Creates PDP with default configuration.
    pub fn new(geom: &CacheGeometry) -> Self {
        Self::with_config(geom, PdpConfig::default())
    }

    /// Creates PDP with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `rpd_bits` is 0 or greater than 7 (a line's RPD and its
    /// reuse flag share one byte), if the sampler stride or depth is 0,
    /// or if the compute period is 0.
    pub fn with_config(geom: &CacheGeometry, cfg: PdpConfig) -> Self {
        assert!((1..=7).contains(&cfg.rpd_bits), "rpd_bits must be in 1..=7");
        assert!(
            cfg.sampler_stride > 0 && cfg.sampler_depth > 0,
            "sampler dims must be nonzero"
        );
        assert!(cfg.compute_period > 0, "compute_period must be nonzero");
        let rpd_max = (1u8 << cfg.rpd_bits) - 1;
        let sampled_sets = geom.sets().div_ceil(cfg.sampler_stride);
        let slot_of_set = (0..geom.sets())
            .map(|set| {
                if set % cfg.sampler_stride == 0 {
                    u32::try_from(set / cfg.sampler_stride).expect("sampler slots fit in u32")
                } else {
                    UNSAMPLED
                }
            })
            .collect();
        let mut policy = PdpPolicy {
            cfg,
            ways: geom.ways(),
            way_bits: geom.ways().trailing_zeros(),
            line_shift: geom.line_bytes().trailing_zeros(),
            line: vec![FRESH; geom.sets() * geom.ways()],
            rpd_max,
            tick: vec![0; geom.sets()],
            quantum: 1,
            hist: vec![0; cfg.max_distance],
            total_sampled: 0,
            slot_of_set,
            rings: vec![SamplerRing::default(); sampled_sets],
            ring_tag: vec![0; sampled_sets * cfg.sampler_depth],
            ring_last: vec![0; sampled_sets * cfg.sampler_depth],
            accesses: 0,
            until_recompute: cfg.compute_period,
            pd: cfg.initial_pd,
        };
        policy.quantum = policy.quantum_for(policy.pd);
        policy
    }

    /// The reuse-distance histogram accumulated so far (diagnostic aid).
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Whether a line's remaining protecting distance is still nonzero
    /// (test/diagnostic aid: the victim invariant says a protected line is
    /// never evicted while an unprotected one exists).
    pub fn is_protected(&self, set: usize, way: usize) -> bool {
        self.rpd(set * self.ways + way) != 0
    }

    #[inline]
    fn rpd(&self, idx: usize) -> u8 {
        self.line[idx] & RPD_MASK
    }

    fn quantum_for(&self, pd: usize) -> u8 {
        (pd.max(1)).div_ceil(usize::from(self.rpd_max)).min(255) as u8
    }

    /// The paper's benefit function `E(d)`; returns the maximizing distance.
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

    /// Records an access to the sampled set behind `slot`. Tags in a ring
    /// are distinct (a tag is added only when absent), so the match scan
    /// may run in storage order; a new tag takes the next free entry, or
    /// overwrites the oldest once the ring is full.
    fn sample(&mut self, slot: usize, tag: u64) {
        let depth = self.cfg.sampler_depth;
        let base = slot * depth;
        let ring = &mut self.rings[slot];
        ring.now += 1;
        let now = ring.now;
        match self.ring_tag[base..base + ring.len]
            .iter()
            .position(|&t| t == tag)
        {
            Some(i) => {
                let rd = (now - self.ring_last[base + i]) as usize;
                let bucket = rd.clamp(1, self.cfg.max_distance) - 1;
                self.hist[bucket] += 1;
                self.total_sampled += 1;
                self.ring_last[base + i] = now;
            }
            None => {
                let i = if ring.len < depth {
                    ring.len += 1;
                    ring.len - 1
                } else {
                    let oldest = ring.head;
                    ring.head = if oldest + 1 == depth { 0 } else { oldest + 1 };
                    oldest
                };
                self.ring_tag[base + i] = tag;
                self.ring_last[base + i] = now;
            }
        }
    }

    #[inline]
    fn on_any_access(&mut self, set: usize, ctx: &AccessContext) {
        let slot = self.slot_of_set[set];
        if slot != UNSAMPLED {
            self.sample(slot as usize, ctx.addr >> self.line_shift);
        }
        // Periodic PD recomputation ("microcontroller" duty cycle).
        self.accesses += 1;
        self.until_recompute -= 1;
        if self.until_recompute == 0 {
            self.until_recompute = self.cfg.compute_period;
            self.pd = self.compute_pd();
            self.quantum = self.quantum_for(self.pd);
            // Age the histogram so PD tracks phase changes.
            for h in &mut self.hist {
                *h /= 2;
            }
            self.total_sampled /= 2;
        }
        // Quantized decay of the set's protection counters.
        self.tick[set] += 1;
        if self.tick[set] >= self.quantum {
            self.tick[set] = 0;
            let base = set * self.ways;
            for b in &mut self.line[base..base + self.ways] {
                *b -= u8::from(*b & RPD_MASK != 0);
            }
        }
    }
}

impl ReplacementPolicy for PdpPolicy {
    fn name(&self) -> &str {
        "PDP"
    }

    #[inline]
    fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
        // One max over packed keys. An unprotected line outranks every
        // protected one, and among them the *lowest* way wins (its index
        // enters flipped). A protected line's byte orders by
        // (never reused, RPD) — the newest never-reused insertion first,
        // the bypass-like choice — and equal bytes fall to the highest
        // way.
        let base = set * self.ways;
        let flip = (self.ways - 1) as u32;
        let unprotected = 1u32 << (8 + self.way_bits);
        let key = self.line[base..base + self.ways]
            .iter()
            .enumerate()
            .map(|(w, &b)| {
                let w = w as u32;
                if b & RPD_MASK == 0 {
                    unprotected | (w ^ flip)
                } else {
                    (u32::from(b) << self.way_bits) | w
                }
            })
            .max()
            .expect("ways > 0");
        let way = key & flip;
        (if key >= unprotected { way ^ flip } else { way }) as usize
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        self.on_any_access(set, ctx);
        self.line[set * self.ways + way] = self.rpd_max;
    }

    #[inline]
    fn on_miss(&mut self, set: usize, ctx: &AccessContext) {
        self.on_any_access(set, ctx);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.line[set * self.ways + way] = FRESH | self.rpd_max;
    }

    fn bits_per_set(&self) -> u64 {
        // Per-line RPD counters and reuse bits, plus the per-set tick
        // counter (4 bits per block total at the default configuration).
        self.ways as u64 * (u64::from(self.cfg.rpd_bits) + 1) + 8
    }

    fn global_bits(&self) -> u64 {
        // Sampler tags/counters plus the histogram and PD registers — the
        // structures the PDP paper assigns to its dedicated microcontroller
        // (an additional ~10K NAND gates of logic not counted here).
        let sampler_bits = self.rings.len() as u64 * self.cfg.sampler_depth as u64 * 32;
        let hist_bits = self.cfg.max_distance as u64 * 16;
        sampler_bits + hist_bits + 64
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        let base = set * self.ways;
        let mut d = Vec::with_capacity(self.ways * 2 + 1);
        for &b in &self.line[base..base + self.ways] {
            d.push(b & RPD_MASK);
            d.push(u8::from(b & FRESH == 0));
        }
        d.push(self.tick[set]);
        Some(d)
    }

    // The raw access counter drives the periodic PD recomputation, so it is
    // genuinely part of the behavioural state and genuinely unbounded: PDP
    // is one of the policies the checker covers bounded-only.
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
        // Ring entries oldest first, as a FIFO would list them.
        let depth = self.cfg.sampler_depth;
        for (slot, ring) in self.rings.iter().enumerate() {
            d.extend_from_slice(&ring.now.to_le_bytes());
            for k in 0..ring.len {
                let i = slot * depth + (ring.head + k) % depth;
                d.extend_from_slice(&self.ring_tag[i].to_le_bytes());
                d.extend_from_slice(&self.ring_last[i].to_le_bytes());
            }
            d.push(0xff);
        }
        d
    }

    fn audit_invariants(&self) -> Result<(), String> {
        if let Some(idx) = (0..self.line.len()).find(|&i| self.rpd(i) > self.rpd_max) {
            return Err(format!(
                "PDP RPD counter {} at line {idx} exceeds max {}",
                self.rpd(idx),
                self.rpd_max
            ));
        }
        if self.quantum != self.quantum_for(self.pd) {
            return Err(format!(
                "PDP cached quantum {} is stale for PD {}",
                self.quantum, self.pd
            ));
        }
        let period = self.cfg.compute_period;
        if self.until_recompute != period - self.accesses % period {
            return Err(format!(
                "PDP countdown {} is out of step with {} accesses (period {period})",
                self.until_recompute, self.accesses
            ));
        }
        if let Some(idx) = self.rings.iter().position(|r| {
            r.len > self.cfg.sampler_depth || (r.head != 0 && r.len < self.cfg.sampler_depth)
        }) {
            return Err(format!(
                "PDP sampler {idx} holds {} entries from index {}, depth {}",
                self.rings[idx].len, self.rings[idx].head, self.cfg.sampler_depth
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SetAssocCache;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(256, 16, 64).unwrap()
    }

    fn ctx_for(addr: u64) -> AccessContext {
        AccessContext {
            pc: 0,
            addr,
            is_write: false,
        }
    }

    #[test]
    fn fresh_lines_are_unprotected() {
        let mut p = PdpPolicy::new(&geom());
        assert_eq!(p.victim(0, &ctx_for(0)), 0, "all RPDs zero: first way wins");
    }

    #[test]
    fn fill_protects_line() {
        let mut p = PdpPolicy::new(&geom());
        p.on_fill(0, 3, &ctx_for(0));
        assert_ne!(
            p.victim(0, &ctx_for(0)),
            3,
            "a just-filled line is protected"
        );
    }

    #[test]
    fn protection_expires_after_pd_accesses() {
        let g = geom();
        let mut p = PdpPolicy::with_config(
            &g,
            PdpConfig {
                initial_pd: 7,
                compute_period: u64::MAX,
                ..PdpConfig::default()
            },
        );
        // quantum = ceil(7/7) = 1: every access decays by 1.
        p.on_fill(0, 3, &ctx_for(0));
        for w in (0..16).filter(|&w| w != 3) {
            p.on_fill(0, w, &ctx_for(0));
        }
        // Hammer the set with misses elsewhere: line 3's protection decays.
        for i in 0..7 {
            p.on_miss(0, &ctx_for(1 << 20 | i));
        }
        assert_eq!(p.rpd(3), 0, "protection fully decayed");
    }

    #[test]
    fn hit_rearms_protection() {
        let g = geom();
        let mut p = PdpPolicy::with_config(
            &g,
            PdpConfig {
                initial_pd: 15,
                compute_period: u64::MAX,
                ..PdpConfig::default()
            },
        );
        p.on_fill(0, 3, &ctx_for(0));
        for _ in 0..10 {
            p.on_miss(0, &ctx_for(1 << 20));
        }
        let decayed = p.rpd(3);
        assert!(decayed < p.rpd_max);
        p.on_hit(0, 3, &ctx_for(0));
        assert_eq!(p.rpd(3), p.rpd_max);
    }

    #[test]
    fn sampler_builds_histogram() {
        let g = geom();
        let mut p = PdpPolicy::new(&g);
        // Set 0 is sampled (stride 64). Re-reference one block every 4
        // accesses to set 0.
        let blk = 0u64; // maps to set 0
        for _ in 0..100 {
            p.on_miss(0, &ctx_for(blk << 6));
            for f in 1..4u64 {
                p.on_miss(0, &ctx_for((f << 40) | (blk << 6)));
            }
        }
        assert!(p.total_sampled > 0, "sampler recorded reuses");
        assert!(p.hist[3] > 0, "reuse distance 4 observed");
    }

    #[test]
    fn pd_computation_picks_reuse_sweet_spot() {
        let g = geom();
        let mut p = PdpPolicy::new(&g);
        // Synthetic histogram: strong reuse at distance 8, nothing after.
        p.hist[7] = 1000;
        p.total_sampled = 1200; // 200 never-reused samples
        let pd = p.compute_pd();
        assert_eq!(pd, 8, "protecting exactly through distance 8 maximizes E");
    }

    #[test]
    fn pd_computation_ignores_unreachable_tail() {
        let g = geom();
        let mut p = PdpPolicy::new(&g);
        // Bimodal: cheap reuse at 2, expensive reuse at 200.
        p.hist[1] = 1000;
        p.hist[199] = 10;
        p.total_sampled = 1010;
        let pd = p.compute_pd();
        assert_eq!(pd, 2, "distant trickle not worth 100x occupancy");
    }

    #[test]
    fn streaming_scan_cannot_displace_protected_working_set() {
        // Working set fits; scan blocks arrive unprotected-ish and get
        // evicted once their (short) protection lapses, like DRRIP's
        // scan resistance but via distances.
        let g = CacheGeometry::from_sets(64, 8, 64).unwrap();
        let mut pdp = SetAssocCache::new(g, Box::new(PdpPolicy::new(&g)));
        let mut lru = SetAssocCache::new(g, Box::new(crate::lru::TrueLru::new(&g)));
        let ws = 256u64;
        let mut scan = 1 << 20;
        for _ in 0..300 {
            for b in 0..ws {
                pdp.access_block(b, &ctx_for(b << 6));
                lru.access_block(b, &ctx_for(b << 6));
            }
            for _ in 0..512 {
                pdp.access_block(scan, &ctx_for(scan << 6));
                lru.access_block(scan, &ctx_for(scan << 6));
                scan += 1;
            }
        }
        assert!(
            pdp.stats().misses < lru.stats().misses,
            "PDP {} vs LRU {}",
            pdp.stats().misses,
            lru.stats().misses
        );
    }

    #[test]
    fn storage_accounting() {
        let p = PdpPolicy::new(&geom());
        assert_eq!(
            p.bits_per_set(),
            16 * 4 + 8,
            "4 bits/line plus tick counter"
        );
        assert!(
            p.global_bits() > 0,
            "sampler and histogram are global state"
        );
    }

    #[test]
    fn all_protected_victim_is_the_highest_of_the_tied_maxima() {
        let g = CacheGeometry::from_sets(1, 8, 64).unwrap();
        // quantum = 1400 / 7 = 200 accesses per decay step.
        let mut p = PdpPolicy::with_config(
            &g,
            PdpConfig {
                initial_pd: 1400,
                compute_period: u64::MAX,
                ..PdpConfig::default()
            },
        );
        let c = ctx_for(0);
        // Ways 0–3 fill, one decay step passes, ways 4–7 fill: the newer
        // never-reused lines 4–7 tie at full RPD.
        for w in 0..4 {
            p.on_fill(0, w, &c);
        }
        for _ in 0..200 {
            p.on_miss(0, &c);
        }
        for w in 4..8 {
            p.on_fill(0, w, &c);
        }
        assert_eq!(p.victim(0, &c), 7, "last of the tied maxima");
        // Reused lines rank below every never-reused one.
        for w in [5, 6, 7] {
            p.on_hit(0, w, &c);
        }
        assert_eq!(p.victim(0, &c), 4);
        for w in 0..8 {
            p.on_hit(0, w, &c);
        }
        assert_eq!(p.victim(0, &c), 7, "all reused and tied: highest way");
        // Seven decay steps unprotect every line; unprotected lines come
        // first, the lowest of them.
        for _ in 0..1400 {
            p.on_miss(0, &c);
        }
        assert!((0..8).all(|w| !p.is_protected(0, w)));
        p.on_fill(0, 2, &c);
        assert_eq!(p.victim(0, &c), 0);
        p.on_fill(0, 0, &c);
        assert_eq!(p.victim(0, &c), 1);
    }

    #[test]
    #[should_panic(expected = "rpd_bits")]
    fn rejects_counters_too_wide_to_share_a_byte() {
        let _ = PdpPolicy::with_config(
            &geom(),
            PdpConfig {
                rpd_bits: 8,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "rpd_bits")]
    fn rejects_zero_width_counters() {
        let _ = PdpPolicy::with_config(
            &geom(),
            PdpConfig {
                rpd_bits: 0,
                ..Default::default()
            },
        );
    }
}
