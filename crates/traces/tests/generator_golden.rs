//! Golden digests of the synthetic SPEC CPU 2006 generators.
//!
//! Each entry is the CRC-32 of the first [`ACCESSES`] accesses of one
//! benchmark model's generator, each access encoded in the trace
//! container's record layout (kind, addr, pc, icount). The table pins
//! every address, PC, kind and instruction gap the generators emit, so a
//! rewrite of `traces::synth` that moves a single access fails here, and
//! workload spill files (keyed by a fingerprint of the generator inputs,
//! not of its outputs) stay valid only while this table holds.

use traces::format::{encode_record, Crc32};
use traces::Spec2006;

/// Accesses digested per generator.
const ACCESSES: usize = 200_000;

/// `(benchmark, simpoint variant, scale-down shift, CRC-32)`.
const GOLDEN: &[(&str, u64, u32, u32)] = &[
    ("400.perlbench", 0, 0, 0x269266bb),
    ("400.perlbench", 0, 3, 0x4633137b),
    ("400.perlbench", 1, 0, 0x74d2ee37),
    ("400.perlbench", 1, 3, 0xdc5f5255),
    ("401.bzip2", 0, 0, 0x7a79b069),
    ("401.bzip2", 0, 3, 0x3b7dc722),
    ("401.bzip2", 1, 0, 0xd2ed40f8),
    ("401.bzip2", 1, 3, 0x3fa9945d),
    ("403.gcc", 0, 0, 0x30218db6),
    ("403.gcc", 0, 3, 0xd3342b18),
    ("403.gcc", 1, 0, 0xe0e288ad),
    ("403.gcc", 1, 3, 0xc7113e1a),
    ("410.bwaves", 0, 0, 0x999ef127),
    ("410.bwaves", 0, 3, 0x3ef947eb),
    ("410.bwaves", 1, 0, 0xfa589348),
    ("410.bwaves", 1, 3, 0x5d3f2584),
    ("416.gamess", 0, 0, 0xbdbea2a4),
    ("416.gamess", 0, 3, 0xabe51299),
    ("416.gamess", 1, 0, 0x345c1281),
    ("416.gamess", 1, 3, 0x2207a2bc),
    ("429.mcf", 0, 0, 0x7c1a47dd),
    ("429.mcf", 0, 3, 0x3660865f),
    ("429.mcf", 1, 0, 0x34237e30),
    ("429.mcf", 1, 3, 0xcbd08ea2),
    ("433.milc", 0, 0, 0x3ce5467d),
    ("433.milc", 0, 3, 0x9e7e7da4),
    ("433.milc", 1, 0, 0x24fb7d07),
    ("433.milc", 1, 3, 0xe88904cd),
    ("434.zeusmp", 0, 0, 0xeb35afd9),
    ("434.zeusmp", 0, 3, 0x2ca5ddc7),
    ("434.zeusmp", 1, 0, 0x1a4dc528),
    ("434.zeusmp", 1, 3, 0xb43dff67),
    ("435.gromacs", 0, 0, 0x43d22ce7),
    ("435.gromacs", 0, 3, 0x0807a255),
    ("435.gromacs", 1, 0, 0x79f47919),
    ("435.gromacs", 1, 3, 0x04b6bb27),
    ("436.cactusADM", 0, 0, 0x4b943d39),
    ("436.cactusADM", 0, 3, 0x749cc241),
    ("436.cactusADM", 1, 0, 0x5426c639),
    ("436.cactusADM", 1, 3, 0x4d0581f0),
    ("437.leslie3d", 0, 0, 0xa7dbf368),
    ("437.leslie3d", 0, 3, 0x94f5ac37),
    ("437.leslie3d", 1, 0, 0x86eddf87),
    ("437.leslie3d", 1, 3, 0xdeb59451),
    ("444.namd", 0, 0, 0xb87b62cc),
    ("444.namd", 0, 3, 0x59a15a97),
    ("444.namd", 1, 0, 0x41880c4d),
    ("444.namd", 1, 3, 0xa0523416),
    ("445.gobmk", 0, 0, 0x9fdbc5a2),
    ("445.gobmk", 0, 3, 0x47db1e42),
    ("445.gobmk", 1, 0, 0xf32ee7af),
    ("445.gobmk", 1, 3, 0xbc58d6f1),
    ("447.dealII", 0, 0, 0x240bd6c1),
    ("447.dealII", 0, 3, 0xe437c703),
    ("447.dealII", 1, 0, 0xd5c107b8),
    ("447.dealII", 1, 3, 0x15fd167a),
    ("450.soplex", 0, 0, 0x1dc37087),
    ("450.soplex", 0, 3, 0xc841155e),
    ("450.soplex", 1, 0, 0xb51d2006),
    ("450.soplex", 1, 3, 0x93fe0bfe),
    ("453.povray", 0, 0, 0x7d8ec76a),
    ("453.povray", 0, 3, 0xe8d7f2cb),
    ("453.povray", 1, 0, 0x35c09062),
    ("453.povray", 1, 3, 0xdef083f6),
    ("454.calculix", 0, 0, 0x41e7f33f),
    ("454.calculix", 0, 3, 0x999cb428),
    ("454.calculix", 1, 0, 0xce913ae3),
    ("454.calculix", 1, 3, 0x4dc42251),
    ("456.hmmer", 0, 0, 0x0036c216),
    ("456.hmmer", 0, 3, 0x182f0b91),
    ("456.hmmer", 1, 0, 0x547afb2c),
    ("456.hmmer", 1, 3, 0x399ac01a),
    ("458.sjeng", 0, 0, 0xe2b809c1),
    ("458.sjeng", 0, 3, 0x1edbf619),
    ("458.sjeng", 1, 0, 0xeb915c9b),
    ("458.sjeng", 1, 3, 0x7a5abdf9),
    ("459.GemsFDTD", 0, 0, 0x26029efb),
    ("459.GemsFDTD", 0, 3, 0xbfa02c5d),
    ("459.GemsFDTD", 1, 0, 0x0d92ed61),
    ("459.GemsFDTD", 1, 3, 0x84abf112),
    ("462.libquantum", 0, 0, 0x85801786),
    ("462.libquantum", 0, 3, 0x6ae5c423),
    ("462.libquantum", 1, 0, 0xc78d7d32),
    ("462.libquantum", 1, 3, 0x28e8ae97),
    ("464.h264ref", 0, 0, 0xef8dbb4d),
    ("464.h264ref", 0, 3, 0x71bc34c0),
    ("464.h264ref", 1, 0, 0x2699bbcf),
    ("464.h264ref", 1, 3, 0x4977ab79),
    ("465.tonto", 0, 0, 0x17995576),
    ("465.tonto", 0, 3, 0xaf3e535f),
    ("465.tonto", 1, 0, 0xa0e3038a),
    ("465.tonto", 1, 3, 0x7d5977d0),
    ("470.lbm", 0, 0, 0x34e09ce6),
    ("470.lbm", 0, 3, 0x0bbdc371),
    ("470.lbm", 1, 0, 0xa075effe),
    ("470.lbm", 1, 3, 0x3b7c641a),
    ("471.omnetpp", 0, 0, 0xafff360f),
    ("471.omnetpp", 0, 3, 0xc0aa1f33),
    ("471.omnetpp", 1, 0, 0x598f71db),
    ("471.omnetpp", 1, 3, 0xb2a61914),
    ("473.astar", 0, 0, 0xf1ce2896),
    ("473.astar", 0, 3, 0x87e1c143),
    ("473.astar", 1, 0, 0x795f91e5),
    ("473.astar", 1, 3, 0xca8a83e7),
    ("481.wrf", 0, 0, 0xed618d7c),
    ("481.wrf", 0, 3, 0xea099da1),
    ("481.wrf", 1, 0, 0x06339b31),
    ("481.wrf", 1, 3, 0x21192097),
    ("482.sphinx3", 0, 0, 0x5c2b1d24),
    ("482.sphinx3", 0, 3, 0x53dd3e6f),
    ("482.sphinx3", 1, 0, 0x913b5c6a),
    ("482.sphinx3", 1, 3, 0x2e976412),
    ("483.xalancbmk", 0, 0, 0x9d4a79e7),
    ("483.xalancbmk", 0, 3, 0x7f43bca3),
    ("483.xalancbmk", 1, 0, 0xed736720),
    ("483.xalancbmk", 1, 3, 0xa721526a),
];

fn digest(bench: Spec2006, variant: u64, shift: u32) -> u32 {
    let mut crc = Crc32::new();
    for a in bench
        .workload()
        .scaled_down(shift)
        .generator(variant)
        .take(ACCESSES)
    {
        crc.update(&encode_record(&a));
    }
    crc.finish()
}

#[test]
fn every_generator_matches_its_golden_digest() {
    let mut actual = Vec::new();
    for bench in Spec2006::all() {
        for variant in [0, 1] {
            for shift in [0, 3] {
                actual.push((bench.name(), variant, shift, digest(bench, variant, shift)));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, variant, shift, crc)| {
            format!("    ({name:?}, {variant}, {shift}, {crc:#010x}),\n")
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN,
        "generator output moved; the digests of this build are:\n{table}"
    );
}
