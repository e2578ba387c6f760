//! Width sweep for the packed baselines: ARC, AWRP, PDP and EHC must
//! replay exactly like their list- and `Vec`-based reference twins at
//! every power-of-two associativity from 1 to 64 ways.
//!
//! Each case replays one stream through the optimized policy and its twin,
//! each behind its own [`SetAssocCache`], and requires per access the same
//! hit, the same evicted block (the victim), the same touched-set audit
//! digest and the same global audit digest, and at the end the same
//! [`CacheStats`]. Equal digests at every step are what keep the bounded
//! model checker's state counts for these policies unchanged.
//!
//! Besides the roster pairs the sweep runs AWRP with its clocks started
//! just below `u64::MAX`, and PDP with a miniature sampler (a stride of 3,
//! four-entry rings, a PD recomputation every 64 accesses) so the short
//! streams exercise ring overwrite, the countdown and the recomputed
//! quantum.

use baselines::{AwrpPolicy, PdpConfig, PdpPolicy};
use proptest::prelude::*;
use sim_core::policy::factory;
use sim_core::{Access, CacheGeometry, CacheStats, ReplacementPolicy, SetAssocCache};
use sim_verify::refmodels::{RefAwrp, RefPdp};
use sim_verify::{roster, PolicyPair};

/// One piece of a stream: `(kind, a, b)`, expanded by [`stream_of`].
type Segment = (u8, u64, u64);

/// Expands segments into accesses:
/// * kind 0 — a hot loop over `a % 24 + 1` blocks, `b` times;
/// * kind 1 — a scan of `4b` fresh blocks, never touched again;
/// * kind 2 — one one-shot block;
/// * kind 3 — `b` draws from a shared pool of 256 blocks.
///
/// Each kind issues from its own PCs (so EHC learns per-signature
/// expectations), and every fifth access is a write.
fn stream_of(segments: &[Segment]) -> Vec<Access> {
    let mut refs: Vec<(u64, u64)> = Vec::new();
    let mut fresh = 1u64 << 24;
    for &(kind, a, b) in segments {
        let pc = 0x40_0000 + u64::from(kind) * 0x1000 + (a % 4) * 4;
        match kind {
            0 => {
                for _ in 0..b {
                    refs.extend((0..a % 24 + 1).map(|blk| (blk, pc)));
                }
            }
            1 => {
                refs.extend((fresh..fresh + 4 * b).map(|blk| (blk, pc)));
                fresh += 4 * b;
            }
            2 => {
                refs.push((fresh, pc));
                fresh += 1;
            }
            _ => refs.extend((0..b).map(|i| (4096 + (a * 7919 + i * 104_729) % 256, pc))),
        }
    }
    refs.iter()
        .enumerate()
        .map(|(i, &(blk, pc))| {
            let addr = blk * 64 + (i as u64 % 8) * 8;
            if i % 5 == 4 {
                Access::write(addr, pc)
            } else {
                Access::read(addr, pc)
            }
        })
        .collect()
}

/// A miniature PDP configuration that recomputes its protecting distance
/// within a short stream.
fn mini_pdp() -> PdpConfig {
    PdpConfig {
        rpd_bits: 2,
        max_distance: 16,
        compute_period: 64,
        sampler_stride: 3,
        initial_pd: 8,
        sampler_depth: 4,
    }
}

/// The four roster pairs plus the two extra configurations.
fn pairs(clock_origin: u64) -> Vec<PolicyPair> {
    let mut pairs: Vec<PolicyPair> = ["arc", "awrp", "pdp", "ehc"]
        .into_iter()
        .flat_map(roster)
        .collect();
    pairs.push(PolicyPair {
        name: "awrp@origin",
        optimized: factory(move |g| Box::new(AwrpPolicy::with_clock_origin(g, clock_origin))),
        reference: factory(|g| Box::new(RefAwrp::new(g))),
    });
    pairs.push(PolicyPair {
        name: "pdp-mini",
        optimized: factory(|g| Box::new(PdpPolicy::with_config(g, mini_pdp()))),
        reference: factory(|g| Box::new(RefPdp::with_config(g, mini_pdp()))),
    });
    pairs
}

/// Replays `stream` through both sides of `pair`, failing at the first
/// access where hit, victim or digests differ; returns both final stats.
fn replay_twins(
    pair: &PolicyPair,
    geom: CacheGeometry,
    stream: &[Access],
) -> (CacheStats, CacheStats) {
    let mut opt = SetAssocCache::new(geom, (pair.optimized)(&geom));
    let mut twin = SetAssocCache::new(geom, (pair.reference)(&geom));
    for (i, a) in stream.iter().enumerate() {
        let (o, t) = (opt.access(a), twin.access(a));
        let set = geom.set_of(a.addr);
        assert_eq!(o.hit, t.hit, "[{}] hit at #{} ({})", pair.name, i, a);
        assert_eq!(
            o.evicted.map(|e| e.block_addr),
            t.evicted.map(|e| e.block_addr),
            "[{}] victim at #{} ({})",
            pair.name,
            i,
            a
        );
        let (po, pt) = (opt.policy(), twin.policy());
        assert_eq!(
            po.audit_set_digest(set),
            pt.audit_set_digest(set),
            "[{}] set {} digest after #{}",
            pair.name,
            set,
            i
        );
        assert_eq!(
            po.audit_global_digest(),
            pt.audit_global_digest(),
            "[{}] global digest after #{}",
            pair.name,
            i
        );
    }
    (*opt.stats(), *twin.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// 1–64 sets × 1–64 ways: every packed policy replays bit-identically
    /// to its twin, digests included, and ends with equal stats.
    #[test]
    fn packed_baselines_match_their_twins_at_every_width(
        set_bits in 0u32..7,
        way_bits in 0u32..7,
        segments in proptest::collection::vec((0u8..4, 0u64..64, 1u64..48), 1..24),
        below_max in 0u64..4096,
    ) {
        let geom = CacheGeometry::from_sets(1 << set_bits, 1 << way_bits, 64).unwrap();
        let stream = stream_of(&segments);
        for pair in pairs(u64::MAX - below_max) {
            let (opt, twin) = replay_twins(&pair, geom, &stream);
            prop_assert_eq!(opt, twin, "[{}] stats, {}", pair.name, geom);
        }
    }
}

/// The sweep's pairs are the ones it claims, and the twins are independent
/// types, not the optimized policies paired with themselves.
#[test]
fn sweep_pairs_use_reference_twins() {
    let geom = CacheGeometry::from_sets(4, 4, 64).unwrap();
    let names: Vec<(String, String)> = pairs(0)
        .iter()
        .map(|p| {
            let (o, r): (Box<dyn ReplacementPolicy>, Box<dyn ReplacementPolicy>) =
                ((p.optimized)(&geom), (p.reference)(&geom));
            (o.name().to_string(), r.name().to_string())
        })
        .collect();
    assert_eq!(
        names,
        [
            ("ARC", "ref-ARC"),
            ("AWRP", "ref-AWRP"),
            ("PDP", "ref-PDP"),
            ("EHC", "ref-EHC"),
            ("AWRP", "ref-AWRP"),
            ("PDP", "ref-PDP"),
        ]
        .map(|(o, r)| (o.to_string(), r.to_string()))
    );
}
