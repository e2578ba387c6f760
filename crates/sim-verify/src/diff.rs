//! The differential driver: replay one stream through three models and
//! report the first access where they disagree.
//!
//! For every access the driver runs:
//!
//! 1. the optimized cache via the monomorphization-friendly
//!    [`SetAssocCache::access_fast`] entry point (hit/miss only),
//! 2. a second optimized cache via the full [`SetAssocCache::access`]
//!    outcome path, and
//! 3. the naive [`RefCache`] with the paired reference policy,
//!
//! and cross-checks hit/miss agreement, bypass decisions, victim identity
//! and dirtiness, and the touched set's resident blocks (in way order).
//! After the stream, the accumulated [`sim_core::CacheStats`] must match
//! field for field. The first disagreement is returned as a [`Divergence`]
//! carrying a greedily minimized repro stream.

use crate::refcache::RefCache;
use crate::refmodels::{
    RefArc, RefAwrp, RefEhc, RefFifo, RefGiplr, RefGippr, RefLru, RefPdp, RefPlruPolicy, RefSrrip,
};
use baselines::{
    ArcPolicy, AwrpPolicy, BrripPolicy, DipPolicy, DrripPolicy, EhcPolicy, FifoPolicy, PdpPolicy,
    RandomPolicy, RripIpvPolicy, SdbpPolicy, ShipPolicy, SrripPolicy, TrueLru,
};
use gippr::{DgipprPolicy, GiplrPolicy, GipprPolicy, PlruPolicy};
use sim_core::policy::{factory, PolicyFactory};
use sim_core::{Access, CacheGeometry, SetAssocCache};
use std::fmt;

/// What disagreed on a given access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The fast path, outcome path, and reference disagreed on hit/miss.
    HitMiss {
        /// `access_fast`'s verdict.
        fast: bool,
        /// `access_block`'s verdict.
        block: bool,
        /// The reference cache's verdict.
        reference: bool,
    },
    /// Bypass decisions differed.
    Bypass {
        /// Optimized bypass decision.
        block: bool,
        /// Reference bypass decision.
        reference: bool,
    },
    /// Evicted block address/dirtiness differed.
    Eviction {
        /// Optimized `(block_addr, dirty)`, if it evicted.
        block: Option<(u64, bool)>,
        /// Reference `(block_addr, dirty)`, if it evicted.
        reference: Option<(u64, bool)>,
    },
    /// The touched set's resident blocks differed after the access.
    Contents {
        /// Optimized resident blocks in way order.
        block: Vec<u64>,
        /// Reference resident blocks in way order.
        reference: Vec<u64>,
    },
    /// Final statistics differed after an otherwise-clean replay.
    Stats {
        /// `(accesses, hits, misses, evictions, writebacks, bypasses)`
        /// optimized.
        block: [u64; 6],
        /// `(accesses, hits, misses, evictions, writebacks, bypasses)`
        /// reference.
        reference: [u64; 6],
    },
}

/// The first point where optimized and reference models disagreed.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Policy pair that diverged.
    pub policy: String,
    /// Index of the offending access in the original stream (stats
    /// divergences use the stream length).
    pub index: usize,
    /// The offending access, if the divergence is per-access.
    pub access: Option<Access>,
    /// What disagreed.
    pub kind: DivergenceKind,
    /// A greedily minimized stream that still reproduces a divergence.
    pub minimized: Vec<Access>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] divergence at access #{}: {:?}",
            self.policy, self.index, self.kind
        )?;
        if let Some(a) = &self.access {
            write!(f, " on {a}")?;
        }
        write!(f, "; minimized repro: {} accesses", self.minimized.len())?;
        for a in self.minimized.iter().take(16) {
            write!(f, "\n    {a}")?;
        }
        if self.minimized.len() > 16 {
            write!(f, "\n    … ({} more)", self.minimized.len() - 16)?;
        }
        Ok(())
    }
}

/// An optimized policy and its independently written reference twin.
pub struct PolicyPair {
    /// Display name.
    pub name: &'static str,
    /// Builds the optimized policy.
    pub optimized: PolicyFactory,
    /// Builds the reference policy.
    pub reference: PolicyFactory,
}

impl PolicyPair {
    fn new(name: &'static str, optimized: PolicyFactory, reference: PolicyFactory) -> Self {
        PolicyPair {
            name,
            optimized,
            reference,
        }
    }
}

fn stats_vec(s: &sim_core::CacheStats) -> [u64; 6] {
    [
        s.accesses,
        s.hits,
        s.misses,
        s.evictions,
        s.writebacks,
        s.bypasses,
    ]
}

/// Replays `stream` through the three models, returning `Err` with the
/// first divergence (minimized) or `Ok` with the agreed final stats.
// The Err variant carries the minimized repro and is only built on the
// failure path, so its size does not matter on the hot Ok path.
#[allow(clippy::result_large_err)]
pub fn diff_replay(
    pair: &PolicyPair,
    geom: CacheGeometry,
    stream: &[Access],
) -> Result<sim_core::CacheStats, Divergence> {
    match run_once(pair, geom, stream) {
        Ok(stats) => Ok(stats),
        Err(raw) => {
            let (index, access, kind) = *raw;
            let minimized = minimize(pair, geom, stream, index);
            Err(Divergence {
                policy: pair.name.to_string(),
                index,
                access,
                kind,
                minimized,
            })
        }
    }
}

type RawDivergence = Box<(usize, Option<Access>, DivergenceKind)>;

fn raw(index: usize, access: Option<Access>, kind: DivergenceKind) -> RawDivergence {
    Box::new((index, access, kind))
}

fn run_once(
    pair: &PolicyPair,
    geom: CacheGeometry,
    stream: &[Access],
) -> Result<sim_core::CacheStats, RawDivergence> {
    let mut fast = SetAssocCache::new(geom, (pair.optimized)(&geom));
    let mut block = SetAssocCache::new(geom, (pair.optimized)(&geom));
    let mut reference = RefCache::new(geom, (pair.reference)(&geom));

    for (i, a) in stream.iter().enumerate() {
        let fast_hit = fast.access_fast(a);
        let opt = block.access(a);
        let rf = reference.access(a);

        if fast_hit != opt.hit || opt.hit != rf.hit {
            return Err(raw(
                i,
                Some(*a),
                DivergenceKind::HitMiss {
                    fast: fast_hit,
                    block: opt.hit,
                    reference: rf.hit,
                },
            ));
        }
        if opt.bypassed != rf.bypassed {
            return Err(raw(
                i,
                Some(*a),
                DivergenceKind::Bypass {
                    block: opt.bypassed,
                    reference: rf.bypassed,
                },
            ));
        }
        let opt_evicted = opt.evicted.map(|e| (e.block_addr, e.dirty));
        if opt_evicted != rf.evicted {
            return Err(raw(
                i,
                Some(*a),
                DivergenceKind::Eviction {
                    block: opt_evicted,
                    reference: rf.evicted,
                },
            ));
        }
        let set = geom.set_of(a.addr);
        let opt_resident = block.resident_blocks(set);
        let ref_resident = reference.resident_blocks(set);
        if opt_resident != ref_resident {
            return Err(raw(
                i,
                Some(*a),
                DivergenceKind::Contents {
                    block: opt_resident,
                    reference: ref_resident,
                },
            ));
        }
    }

    let opt_stats = stats_vec(block.stats());
    let ref_stats = stats_vec(reference.stats());
    let fast_stats = stats_vec(fast.stats());
    if opt_stats != ref_stats || fast_stats != ref_stats {
        return Err(raw(
            stream.len(),
            None,
            DivergenceKind::Stats {
                block: opt_stats,
                reference: ref_stats,
            },
        ));
    }
    Ok(*block.stats())
}

/// Shrinks a diverging stream: truncate after the offending access, drop
/// accesses to other sets, then greedily drop remaining accesses from the
/// front while the (possibly different) divergence persists.
fn minimize(
    pair: &PolicyPair,
    geom: CacheGeometry,
    stream: &[Access],
    index: usize,
) -> Vec<Access> {
    let end = (index + 1).min(stream.len());
    let mut repro: Vec<Access> = stream[..end].to_vec();

    // Restricting to the divergent access's set usually keeps the repro
    // diverging (cache sets are independent for most policies; set-dueling
    // global state is the exception, which the greedy pass below handles by
    // falling back to the unfiltered stream).
    if let Some(last) = repro.last().copied() {
        let set = geom.set_of(last.addr);
        let filtered: Vec<Access> = repro
            .iter()
            .copied()
            .filter(|a| geom.set_of(a.addr) == set)
            .collect();
        if run_once(pair, geom, &filtered).is_err() {
            repro = filtered;
        }
    }

    // Greedy front-trimming: oldest accesses are the most likely to be
    // irrelevant warm-up.
    let mut i = 0;
    while i < repro.len() {
        let mut candidate = repro.clone();
        candidate.remove(i);
        if run_once(pair, geom, &candidate).is_err() {
            repro = candidate;
        } else {
            i += 1;
        }
    }
    repro
}

/// The verification roster.
///
/// Pairs with a truly independent reference implementation:
/// LRU, FIFO, PLRU, SRRIP, PDP, GIPPR, GIPLR, AWRP, EHC, ARC. The remaining
/// policies are *self-paired* (the same deterministic construction on both
/// sides): they
/// cannot catch a policy-logic bug, but they still drive the packed
/// [`SetAssocCache`] against the naive [`RefCache`] tag store, which is
/// where the substrate bugs live.
pub fn roster(which: &str) -> Vec<PolicyPair> {
    let all: Vec<PolicyPair> = vec![
        PolicyPair::new(
            "lru",
            factory(|g| Box::new(TrueLru::new(g))),
            factory(|g| Box::new(RefLru::new(g))),
        ),
        PolicyPair::new(
            "fifo",
            factory(|g| Box::new(FifoPolicy::new(g))),
            factory(|g| Box::new(RefFifo::new(g))),
        ),
        PolicyPair::new(
            "plru",
            factory(|g| Box::new(PlruPolicy::new(g))),
            factory(|g| Box::new(RefPlruPolicy::new(g))),
        ),
        PolicyPair::new(
            "srrip",
            factory(|g| Box::new(SrripPolicy::new(g))),
            factory(|g| Box::new(RefSrrip::new(g))),
        ),
        PolicyPair::new(
            "pdp",
            factory(|g| Box::new(PdpPolicy::new(g))),
            factory(|g| Box::new(RefPdp::new(g))),
        ),
        PolicyPair::new(
            "gippr",
            factory(|g| Box::new(GipprPolicy::new(g, gippr::vectors::wi_gippr()).expect("16-way"))),
            factory(|g| Box::new(RefGippr::new(g, gippr::vectors::wi_gippr()))),
        ),
        PolicyPair::new(
            "giplr",
            factory(|g| {
                Box::new(GiplrPolicy::new(g, gippr::vectors::giplr_best()).expect("16-way"))
            }),
            factory(|g| Box::new(RefGiplr::new(g, gippr::vectors::giplr_best()))),
        ),
        PolicyPair::new(
            "awrp",
            factory(|g| Box::new(AwrpPolicy::new(g))),
            factory(|g| Box::new(RefAwrp::new(g))),
        ),
        PolicyPair::new(
            "ehc",
            factory(|g| Box::new(EhcPolicy::new(g))),
            factory(|g| Box::new(RefEhc::new(g))),
        ),
        PolicyPair::new(
            "arc",
            factory(|g| Box::new(ArcPolicy::new(g))),
            factory(|g| Box::new(RefArc::new(g))),
        ),
        // Self-paired substrate checks.
        PolicyPair::new(
            "random",
            factory(|g| Box::new(RandomPolicy::with_seed(g, 0xd1ff))),
            factory(|g| Box::new(RandomPolicy::with_seed(g, 0xd1ff))),
        ),
        PolicyPair::new(
            "brrip",
            factory(|g| Box::new(BrripPolicy::new(g))),
            factory(|g| Box::new(BrripPolicy::new(g))),
        ),
        PolicyPair::new(
            "drrip",
            factory(|g| Box::new(DrripPolicy::new(g).expect("geometry fits duel"))),
            factory(|g| Box::new(DrripPolicy::new(g).expect("geometry fits duel"))),
        ),
        PolicyPair::new(
            "dip",
            factory(|g| Box::new(DipPolicy::new(g).expect("geometry fits duel"))),
            factory(|g| Box::new(DipPolicy::new(g).expect("geometry fits duel"))),
        ),
        PolicyPair::new(
            "ship",
            factory(|g| Box::new(ShipPolicy::new(g))),
            factory(|g| Box::new(ShipPolicy::new(g))),
        ),
        PolicyPair::new(
            "sdbp",
            factory(|g| Box::new(SdbpPolicy::new(g))),
            factory(|g| Box::new(SdbpPolicy::new(g))),
        ),
        PolicyPair::new(
            "rrip-ipv",
            factory(|g| Box::new(RripIpvPolicy::new(g, [0, 0, 1, 2, 3]).expect("5 entries"))),
            factory(|g| Box::new(RripIpvPolicy::new(g, [0, 0, 1, 2, 3]).expect("5 entries"))),
        ),
        PolicyPair::new(
            "dgippr2",
            factory(|g| {
                Box::new(DgipprPolicy::two_vector(g, gippr::vectors::wi_2dgippr()).expect("fits"))
            }),
            factory(|g| {
                Box::new(DgipprPolicy::two_vector(g, gippr::vectors::wi_2dgippr()).expect("fits"))
            }),
        ),
        PolicyPair::new(
            "dgippr4",
            factory(|g| {
                Box::new(DgipprPolicy::four_vector(g, gippr::vectors::wi_4dgippr()).expect("fits"))
            }),
            factory(|g| {
                Box::new(DgipprPolicy::four_vector(g, gippr::vectors::wi_4dgippr()).expect("fits"))
            }),
        ),
        PolicyPair::new(
            "dgippr4-bypass",
            factory(|g| {
                Box::new(
                    DgipprPolicy::four_vector(g, gippr::vectors::wi_4dgippr())
                        .and_then(|p| p.with_bypass(4))
                        .expect("fits"),
                )
            }),
            factory(|g| {
                Box::new(
                    DgipprPolicy::four_vector(g, gippr::vectors::wi_4dgippr())
                        .and_then(|p| p.with_bypass(4))
                        .expect("fits"),
                )
            }),
        ),
    ];
    if which == "all" {
        all
    } else {
        all.into_iter().filter(|p| p.name == which).collect()
    }
}

/// The geometry every oracle run uses: 1 MB, 16-way, 64-byte lines
/// (1024 sets — large enough for every duel's leader map, small enough
/// that 1M accesses see plenty of evictions).
pub fn oracle_geometry() -> CacheGeometry {
    CacheGeometry::from_sets(1024, 16, 64).expect("static geometry is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn roster_filters_by_name() {
        assert_eq!(roster("lru").len(), 1);
        assert_eq!(roster("no-such-policy").len(), 0);
        assert!(roster("all").len() >= 20);
        assert_eq!(roster("awrp").len(), 1);
        assert_eq!(roster("ehc").len(), 1);
        assert_eq!(roster("arc").len(), 1);
    }

    #[test]
    fn mismatched_pair_is_caught_and_minimized() {
        // LRU against a FIFO "reference" must diverge, and the minimized
        // repro must still reproduce a divergence.
        let bad = PolicyPair::new(
            "lru-vs-fifo",
            factory(|g| Box::new(TrueLru::new(g))),
            factory(|g| Box::new(RefFifo::new(g))),
        );
        let geom = CacheGeometry::from_sets(16, 4, 64).unwrap();
        let (_, stream) = &workloads::workloads(7, 20_000)[0];
        let d = diff_replay(&bad, geom, stream).expect_err("LRU is not FIFO");
        assert!(!d.minimized.is_empty());
        assert!(run_once(&bad, geom, &d.minimized).is_err());
        // Greedy minimization is idempotent by construction: dropping any
        // single access from the result no longer reproduces.
        if d.minimized.len() < 64 {
            for i in 0..d.minimized.len() {
                let mut c = d.minimized.clone();
                c.remove(i);
                assert!(
                    run_once(&bad, geom, &c).is_ok(),
                    "minimized repro still had a removable access at {i}"
                );
            }
        }
    }

    #[test]
    fn clean_pair_agrees_on_a_short_stream() {
        let geom = oracle_geometry();
        let (_, stream) = &workloads::workloads(3, 30_000)[1];
        for pair in roster("plru") {
            let stats = diff_replay(&pair, geom, stream).expect("plru must agree");
            assert_eq!(stats.accesses, stream.len() as u64);
        }
    }
}
