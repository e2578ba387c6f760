//! GA checkpointing: crash-safe snapshots of an in-progress evolution.
//!
//! The paper's full-scale GA is hours of CPU time (20 000 initial
//! candidates, 50 generations, 29 workloads each); losing a run to a crash
//! at generation 49 is not acceptable. A [`Checkpointing`] policy makes
//! every GA run — a [`crate::Ga`] stage or one island of a fleet —
//! snapshot its complete loop state at the top of every generation
//! through `sim_core::persist::atomic_write`: generation index,
//! population, RNG state, best-fitness history, fitness memo, the best
//! full-fidelity genome so far and the ladder's evaluation counts. The
//! next run loads the newest snapshot. Because the snapshot includes the
//! RNG's internal state, a resumed run replays the exact random stream of
//! an uninterrupted one: resumption is bit-identical, not merely "close"
//! (proven by differential tests in `island.rs` and
//! `tests/ga_golden.rs`).
//!
//! # File format (`PLRUGAC1`)
//!
//! ```text
//! magic            8 B   "PLRUGAC1"
//! version          u32   1
//! fingerprint      u64   FNV-1a over the GaConfig + stage label
//! status           u8    2 = in-progress state, 3 = migration mailbox,
//!                        4 = final result
//! -- status 2 --
//! generation       u32
//! rng state        4 × u64
//! history          u32 count + count × f64
//! population       u32 count + count × (u32 len + genome bytes)
//! memo             u32 count + count × (u32 len + key bytes + f64)
//! best flag        u8    0 = no full-fidelity best yet, 1 = present
//! best             u32 len + genome bytes      (flag 1 only)
//! best fitness     f64                         (flag 1 only)
//! ladder stats     5 × u64
//! -- status 3 --
//! migrants         u32 count + count × (u32 len + genome bytes + f64)
//! -- status 4 --
//! best             u32 len + genome bytes
//! best fitness     f64
//! history          u32 count + count × f64
//! ladder stats     5 × u64
//! -- all --
//! crc32            u32   over everything after the magic
//! ```
//!
//! Genome bytes come from [`crate::Genome::encode`]. All integers are
//! little-endian. A checkpoint that fails *any* validation — magic,
//! version, CRC, fingerprint, status, or genome decode — is ignored with a
//! warning and the stage restarts from scratch: a corrupt checkpoint can
//! cost recomputation, never correctness. Statuses 0 and 1 were an older
//! single-fidelity state and result; such files take the same restart
//! path.

use crate::ga::{GaConfig, GaResult, Genome};
use crate::ladder::LadderStats;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use traces::format::Crc32;

const MAGIC: &[u8; 8] = b"PLRUGAC1";
const VERSION: u32 = 1;

/// Where a GA run checkpoints. Each stage of a multi-stage run (the
/// paper's stage-1 runs, the seeded final stage, each duel size, each
/// island) gets its own file under `dir`, named by its stage label, and
/// snapshots at the top of every generation.
#[derive(Debug, Clone)]
pub struct Checkpointing {
    /// Directory holding one checkpoint file per stage.
    pub dir: PathBuf,
}

impl Checkpointing {
    /// Checkpoints under `dir`.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        Checkpointing { dir: dir.into() }
    }

    /// The checkpoint file for the stage labeled `label`.
    pub fn stage_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("{label}.ckpt"))
    }

    /// Removes every checkpoint under `dir` (a non-resuming run starts
    /// clean so stale snapshots from an earlier configuration are never
    /// picked up).
    pub fn clear(&self) {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let is_ckpt = path.extension().is_some_and(|e| e == "ckpt" || e == "tmp");
                if is_ckpt {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }
}

/// The complete loop state of a GA run at the top of a generation.
pub(crate) struct Snapshot<G> {
    pub generation: usize,
    pub rng: StdRng,
    pub history: Vec<f64>,
    pub population: Vec<G>,
    pub memo: HashMap<Vec<u8>, f64>,
    /// Best full-fidelity genome seen so far (None before the first
    /// generation completes).
    pub best: Option<(G, f64)>,
    pub stats: LadderStats,
}

/// What a checkpoint file held.
pub(crate) enum Loaded<G> {
    /// No usable checkpoint (absent, corrupt, or different config).
    None,
    /// An in-progress run to resume.
    State(Snapshot<G>),
    /// The stage already finished; its result short-circuits the run.
    Final(GaResult<G>, LadderStats),
}

/// FNV-1a over `parts` in order: the hash behind every checkpoint and
/// mailbox fingerprint.
pub(crate) fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in parts.iter().copied().flatten() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every [`GaConfig`] parameter as little-endian bytes, in declaration
/// order: the GA's share of a fingerprint.
pub(crate) fn ga_bytes(config: &GaConfig) -> Vec<u8> {
    [
        config.initial_population as u64,
        config.population as u64,
        config.generations as u64,
        config.mutation_rate.to_bits(),
        config.elitism as u64,
        config.tournament as u64,
        config.seed,
    ]
    .iter()
    .flat_map(|v| v.to_le_bytes())
    .collect()
}

/// Stage fingerprint: a checkpoint is only resumable by the exact GA
/// configuration (and stage) that wrote it.
pub(crate) fn fingerprint(config: &GaConfig, label: &str) -> u64 {
    fnv1a(&[&ga_bytes(config), label.as_bytes()])
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: MAGIC.to_vec(),
        }
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    fn f64s(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let mut crc = Crc32::new();
        crc.update(&self.buf[MAGIC.len()..]);
        let crc = crc.finish();
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn f64s(&mut self) -> Option<Vec<f64>> {
        (0..self.u32()?).map(|_| self.f64()).collect()
    }
}

/// The header every file shares: version, fingerprint and status byte.
fn header(fp: u64, status: u8) -> Writer {
    let mut w = Writer::new();
    w.u32(VERSION);
    w.u64(fp);
    w.buf.push(status);
    w
}

/// Serializes and atomically persists a snapshot (status 2), taken at the
/// top of `state.generation`, before its fitness evaluation.
pub(crate) fn save_snapshot<G: Genome>(
    path: &Path,
    fp: u64,
    state: &Snapshot<G>,
) -> std::io::Result<()> {
    let mut w = header(fp, 2);
    w.u32(state.generation as u32);
    for word in state.rng.state() {
        w.u64(word);
    }
    w.f64s(&state.history);
    w.u32(state.population.len() as u32);
    for g in &state.population {
        w.bytes(&g.encode());
    }
    // Deterministic memo order so identical states write identical bytes.
    let mut entries: Vec<(&Vec<u8>, &f64)> = state.memo.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.u32(entries.len() as u32);
    for (key, &value) in entries {
        w.bytes(key);
        w.f64(value);
    }
    match &state.best {
        Some((g, f)) => {
            w.buf.push(1);
            w.bytes(&g.encode());
            w.f64(*f);
        }
        None => w.buf.push(0),
    }
    write_stats(&mut w, &state.stats);
    sim_core::persist::atomic_write(path, &w.finish())
}

/// Serializes and atomically persists a finished stage's result with its
/// ladder accounting (status 4), so a later run short-circuits the whole
/// stage.
pub(crate) fn save_result<G: Genome>(
    path: &Path,
    fp: u64,
    result: &GaResult<G>,
    stats: &LadderStats,
) -> std::io::Result<()> {
    let mut w = header(fp, 4);
    w.bytes(&result.best.encode());
    w.f64(result.best_fitness);
    w.f64s(&result.history);
    write_stats(&mut w, stats);
    sim_core::persist::atomic_write(path, &w.finish())
}

/// Loads whatever checkpoint `path` holds, validating magic, version,
/// CRC, fingerprint and status. Every failure degrades to
/// [`Loaded::None`] with a warning; a missing file is silent.
pub(crate) fn load<G: Genome>(path: &Path, fp: u64, assoc: usize) -> Loaded<G> {
    let buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(_) => return Loaded::None,
    };
    match parse(&buf, fp, assoc) {
        Some(loaded) => loaded,
        None => {
            eprintln!(
                "evolve: ignoring unusable checkpoint {} (corrupt, an older \
                 format, or from a different configuration); restarting the stage",
                path.display()
            );
            Loaded::None
        }
    }
}

fn parse<G: Genome>(buf: &[u8], fp: u64, assoc: usize) -> Option<Loaded<G>> {
    let (status, mut r) = open(buf, fp)?;
    match status {
        2 => {
            let generation = r.u32()? as usize;
            let rng = StdRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
            let history = r.f64s()?;
            let population = (0..r.u32()?)
                .map(|_| G::decode(r.bytes()?, assoc))
                .collect::<Option<Vec<_>>>()?;
            let memo = (0..r.u32()?)
                .map(|_| Some((r.bytes()?.to_vec(), r.f64()?)))
                .collect::<Option<HashMap<_, _>>>()?;
            let best = match r.u8()? {
                0 => None,
                1 => Some((G::decode(r.bytes()?, assoc)?, r.f64()?)),
                _ => return None,
            };
            let stats = read_stats(&mut r)?;
            Some(Loaded::State(Snapshot {
                generation,
                rng,
                history,
                population,
                memo,
                best,
                stats,
            }))
        }
        4 => {
            let best = G::decode(r.bytes()?, assoc)?;
            let best_fitness = r.f64()?;
            let history = r.f64s()?;
            let stats = read_stats(&mut r)?;
            let result = GaResult {
                best,
                best_fitness,
                history,
            };
            Some(Loaded::Final(result, stats))
        }
        _ => None,
    }
}

/// Validates the container (magic, CRC, version, fingerprint) and returns
/// the status byte plus a reader positioned at the status-specific body.
fn open<'a>(buf: &'a [u8], fp: u64) -> Option<(u8, Reader<'a>)> {
    if buf.len() < MAGIC.len() + 4 || &buf[..MAGIC.len()] != MAGIC {
        return None;
    }
    let body = &buf[MAGIC.len()..buf.len() - 4];
    let stored_crc = u32::from_le_bytes(buf[buf.len() - 4..].try_into().ok()?);
    let mut crc = Crc32::new();
    crc.update(body);
    if crc.finish() != stored_crc {
        return None;
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.u32()? != VERSION || r.u64()? != fp {
        return None;
    }
    let status = r.u8()?;
    Some((status, r))
}

fn write_stats(w: &mut Writer, stats: &LadderStats) {
    w.u64(stats.profile_evals);
    w.u64(stats.sampled_evals);
    w.u64(stats.full_evals);
    w.u64(stats.pruned);
    w.u64(stats.full_saved);
}

fn read_stats(r: &mut Reader<'_>) -> Option<LadderStats> {
    Some(LadderStats {
        profile_evals: r.u64()?,
        sampled_evals: r.u64()?,
        full_evals: r.u64()?,
        pruned: r.u64()?,
        full_saved: r.u64()?,
    })
}

/// Atomically persists a migration mailbox (status 3): the sender's elite
/// genomes with their full-fidelity scores, in rank order.
pub(crate) fn save_mailbox(
    path: &Path,
    fp: u64,
    migrants: &[(Vec<u8>, f64)],
) -> std::io::Result<()> {
    let mut w = header(fp, 3);
    w.u32(migrants.len() as u32);
    for (enc, fitness) in migrants {
        w.bytes(enc);
        w.f64(*fitness);
    }
    sim_core::persist::atomic_write(path, &w.finish())
}

/// Loads a migration mailbox. `None` for a missing, corrupt, torn, or
/// wrong-fingerprint file — the reader polls until a valid mailbox
/// appears, so an interrupted sender is indistinguishable from a slow one.
pub(crate) fn load_mailbox(path: &Path, fp: u64) -> Option<Vec<(Vec<u8>, f64)>> {
    let buf = std::fs::read(path).ok()?;
    let (status, mut r) = open(&buf, fp)?;
    if status != 3 {
        return None;
    }
    (0..r.u32()?)
        .map(|_| Some((r.bytes()?.to_vec(), r.f64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gippr::Ipv;

    fn cfg() -> GaConfig {
        GaConfig::quick(17)
    }

    fn stats() -> LadderStats {
        LadderStats {
            profile_evals: 10,
            sampled_evals: 6,
            full_evals: 3,
            pruned: 2,
            full_saved: 7,
        }
    }

    fn state() -> Snapshot<Ipv> {
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        rng.gen::<u64>();
        let population: Vec<Ipv> = (0..6).map(|_| Ipv::random(16, &mut rng)).collect();
        let mut memo = HashMap::new();
        memo.insert(population[0].encode(), 1.25);
        memo.insert(population[1].encode(), f64::NEG_INFINITY);
        Snapshot {
            generation: 3,
            rng,
            history: vec![1.0, 1.1, 1.2],
            best: Some((population[0].clone(), 1.375)),
            population,
            memo,
            stats: stats(),
        }
    }

    #[test]
    fn state_and_final_roundtrip_exactly() {
        let dir = std::env::temp_dir().join(format!("gack-rt-{}", std::process::id()));
        let path = dir.join("stage.ckpt");
        let fp = fingerprint(&cfg(), "stage");
        for best in [true, false] {
            let mut original = state();
            if !best {
                original.best = None;
            }
            save_snapshot(&path, fp, &original).unwrap();
            match load::<Ipv>(&path, fp, 16) {
                Loaded::State(loaded) => {
                    assert_eq!(loaded.generation, original.generation);
                    assert_eq!(loaded.rng, original.rng);
                    assert_eq!(loaded.history, original.history);
                    assert_eq!(loaded.population, original.population);
                    assert_eq!(loaded.memo, original.memo);
                    assert_eq!(loaded.best, original.best);
                    assert_eq!(loaded.stats, original.stats);
                }
                _ => panic!("expected an in-progress state"),
            }
        }

        let result = GaResult {
            best: Ipv::lru_insertion(16),
            best_fitness: 1.5,
            history: vec![1.1, 1.5],
        };
        save_result(&path, fp, &result, &stats()).unwrap();
        match load::<Ipv>(&path, fp, 16) {
            Loaded::Final(loaded, s) => {
                assert_eq!(loaded.best, result.best);
                assert_eq!(loaded.best_fitness, result.best_fitness);
                assert_eq!(loaded.history, result.history);
                assert_eq!(s, stats());
            }
            _ => panic!("expected a final result"),
        }
        // A different stage label (or config) must not resume this file.
        let other = fingerprint(&cfg(), "other-stage");
        assert!(matches!(load::<Ipv>(&path, other, 16), Loaded::None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_degrade_to_restart() {
        let dir = std::env::temp_dir().join(format!("gack-bad-{}", std::process::id()));
        let path = dir.join("stage.ckpt");
        let fp = fingerprint(&cfg(), "stage");
        save_snapshot(&path, fp, &state()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(load::<Ipv>(&path, fp, 16), Loaded::None),
            "CRC must catch a flipped byte"
        );
        // Truncation and absence likewise restart rather than panic.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(load::<Ipv>(&path, fp, 16), Loaded::None));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(load::<Ipv>(&path, fp, 16), Loaded::None));
        // A mailbox is a valid container but not a stage checkpoint.
        save_mailbox(&path, fp, &[]).unwrap();
        assert!(matches!(load::<Ipv>(&path, fp, 16), Loaded::None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mailbox_roundtrips_and_rejects_damage() {
        let dir = std::env::temp_dir().join(format!("gack-mbx-{}", std::process::id()));
        let path = dir.join("mbx-island-0-epoch-1.mbx");
        let fp = 0xDEAD_BEEFu64;
        let migrants = vec![
            (Ipv::lru(16).encode(), 1.25),
            (Ipv::lru_insertion(16).encode(), 1.5),
        ];
        save_mailbox(&path, fp, &migrants).unwrap();
        assert_eq!(load_mailbox(&path, fp), Some(migrants.clone()));
        // Wrong fingerprint, truncation, and corruption all read as "not
        // there yet".
        assert_eq!(load_mailbox(&path, fp ^ 1), None);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(load_mailbox(&path, fp), None);
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(load_mailbox(&path, fp), None);
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_mailbox(&path, fp), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_stage_files() {
        let dir = std::env::temp_dir().join(format!("gack-clear-{}", std::process::id()));
        let ckpt = Checkpointing::in_dir(&dir);
        let fp = fingerprint(&cfg(), "stage");
        save_snapshot(&ckpt.stage_path("stage"), fp, &state()).unwrap();
        assert!(ckpt.stage_path("stage").exists());
        ckpt.clear();
        assert!(!ckpt.stage_path("stage").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
