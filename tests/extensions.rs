//! Integration tests for the future-work extensions, end-to-end.

use pseudolru_ipv::baselines::{RripIpvPolicy, SdbpPolicy};
use pseudolru_ipv::gippr::{vectors, DgipprPolicy, Ipv};
use pseudolru_ipv::model::multicore::MulticoreHierarchy;
use pseudolru_ipv::model::{Hierarchy, HierarchyConfig};
use pseudolru_ipv::sim::{Access, AccessContext, CacheGeometry, SetAssocCache};
use pseudolru_ipv::traces::spec2006::Spec2006;

#[test]
fn bypass_extension_helps_on_streaming_and_never_caches_bypassed_blocks() {
    let geom = CacheGeometry::from_sets(512, 16, 64).unwrap();
    let base = DgipprPolicy::two_vector(&geom, vectors::wi_2dgippr()).unwrap();
    let with_bypass = DgipprPolicy::two_vector(&geom, vectors::wi_2dgippr())
        .unwrap()
        .with_bypass(32)
        .unwrap();
    let mut plain_cache = SetAssocCache::new(geom, Box::new(base));
    let mut bypass_cache = SetAssocCache::new(geom, Box::new(with_bypass));
    // A hot working set plus a dirty scan.
    let ws = 4096u64;
    let mut scan = 1 << 30;
    for _ in 0..20 {
        for b in 0..ws {
            let ctx = AccessContext {
                pc: 1,
                addr: b * 64,
                is_write: false,
            };
            plain_cache.access_block(b, &ctx);
            bypass_cache.access_block(b, &ctx);
        }
        for _ in 0..8192 {
            let ctx = AccessContext {
                pc: 2,
                addr: scan * 64,
                is_write: false,
            };
            plain_cache.access_block(scan, &ctx);
            bypass_cache.access_block(scan, &ctx);
            scan += 1;
        }
    }
    // Bypass must never be worse by more than noise, and should usually
    // help by keeping dead scan blocks out entirely.
    assert!(
        bypass_cache.stats().misses as f64 <= plain_cache.stats().misses as f64 * 1.02,
        "bypass {} vs plain {}",
        bypass_cache.stats().misses,
        plain_cache.stats().misses
    );
}

#[test]
fn rrip_ipv_and_gippr_agree_on_what_matters() {
    // The LIP-flavoured vectors of both substrates retain a thrash loop
    // that LRU-flavoured configurations lose.
    let geom = CacheGeometry::from_sets(64, 8, 64).unwrap();
    let gippr_lip = pseudolru_ipv::gippr::GipprPolicy::new(&geom, Ipv::lru_insertion(8)).unwrap();
    let rrip_lip = RripIpvPolicy::new(&geom, [0, 0, 0, 0, 3]).unwrap();
    let mut a = SetAssocCache::new(geom, Box::new(gippr_lip));
    let mut b = SetAssocCache::new(geom, Box::new(rrip_lip));
    for _ in 0..50 {
        for blk in 0..768u64 {
            a.access_block(blk, &AccessContext::blank());
            b.access_block(blk, &AccessContext::blank());
        }
    }
    assert!(
        a.stats().hit_ratio() > 0.3,
        "PLRU-LIP retains: {}",
        a.stats().hit_ratio()
    );
    assert!(
        b.stats().hit_ratio() > 0.3,
        "RRIP-LIP retains: {}",
        b.stats().hit_ratio()
    );
}

#[test]
fn sdbp_learns_across_a_full_hierarchy_run() {
    let cfg = HierarchyConfig::paper_scaled(5).unwrap();
    let mut h = Hierarchy::new(cfg, Box::new(SdbpPolicy::new(&cfg.llc)));
    let spec = Spec2006::Libquantum.workload().scaled_down(5);
    h.run(spec.generator(0).take(60_000));
    assert!(h.llc_stats().accesses > 0);
}

#[test]
fn four_core_mix_attributes_all_traffic() {
    let cfg = HierarchyConfig::paper_scaled(5).unwrap();
    let mut mc = MulticoreHierarchy::new(
        4,
        cfg,
        Box::new(DgipprPolicy::four_vector(&cfg.llc, vectors::wi_4dgippr()).unwrap()),
    );
    let benches = [
        Spec2006::Mcf,
        Spec2006::Libquantum,
        Spec2006::DealII,
        Spec2006::Gamess,
    ];
    let streams: Vec<_> = benches
        .iter()
        .map(|b| {
            b.workload()
                .scaled_down(5)
                .generator(0)
                .take(10_000)
                .collect::<Vec<Access>>()
                .into_iter()
        })
        .collect();
    mc.run_interleaved(streams, 10_000);
    let total: u64 = (0..4).map(|c| mc.llc_stats(c).accesses).sum();
    assert_eq!(total, mc.llc_total().accesses);
    // The cache-resident core (gamess) must miss far less than the
    // streaming core (libquantum): its footprint fits the shared LLC.
    assert!(mc.llc_stats(3).misses < mc.llc_stats(1).misses / 2);
}

#[test]
fn rescaled_vectors_drive_dgippr_at_every_width() {
    for ways in [4usize, 8, 32, 64] {
        let geom = CacheGeometry::from_sets(256, ways, 64).unwrap();
        let rescaled: Vec<Ipv> = vectors::wi_4dgippr()
            .iter()
            .map(|v| v.rescaled(ways).unwrap())
            .collect();
        let policy = DgipprPolicy::with_config(&geom, rescaled, 8, "4-DGIPPR").unwrap();
        let mut cache = SetAssocCache::new(geom, Box::new(policy));
        for blk in 0..20_000u64 {
            cache.access_block(blk % 8192, &AccessContext::blank());
        }
        assert_eq!(cache.stats().accesses, 20_000, "{ways}-way run completes");
    }
}
