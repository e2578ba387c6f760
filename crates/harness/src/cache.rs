//! A process-wide capture cache shared by every experiment.
//!
//! Capturing a benchmark's LLC stream means simulating the whole L1/L2
//! hierarchy over the reference trace — by far the most expensive part of
//! workload preparation, and `run-all` used to repeat it for every figure
//! that calls [`prepare_workloads`](crate::runner::prepare_workloads).
//! [`WorkloadCache`] memoizes, per `(Scale, Spec2006)`:
//!
//! * the captured simpoint streams plus LRU baseline ([`WorkloadData`]),
//! * the raw (pre-hierarchy) reference stream used by the multi-core
//!   experiment,
//!
//! and per `(Scale, benches)` the GA [`FitnessContext`] plus per-mode
//! vector assignments, so the figures 10/11/12/13 share one GA context and
//! one WN1 sweep instead of four.
//!
//! Streams are handed out as `Arc`s: the cache stays the single owner of
//! each capture and every consumer replays the same bytes.
//!
//! # On-disk spill
//!
//! When a spill directory is configured ([`WorkloadCache::set_disk_dir`];
//! the global cache reads `SIM_CACHE_DIR`, defaulting to
//! `results/cache/` — setting it to an empty string disables spilling),
//! captured workloads are
//! also persisted as one `<scale>-<bench>.wlc` file each, and later runs
//! load them instead of re-capturing. At global-cache initialization,
//! stale spill files whose `<scale>-<bench>` stem no longer names a known
//! scale and benchmark are pruned ([`prune_stale_spills`]). The file format
//! is a small header (magic, version, a fingerprint of every capture
//! parameter, the LRU baseline) followed by each simpoint's weight,
//! warm-up split, and stream as an embedded `PLRUTRC1` trace container,
//! then a CRC-32 footer over every metadata field (the streams carry
//! their own trace CRC). Any mismatch — different scale knobs, stale
//! format, truncation, a corrupted metadata field or stream, trailing
//! garbage — falls back to a fresh capture that overwrites the file,
//! with a warning on stderr so silent re-capture loops are visible.

use crate::experiments::{VectorAssignment, VectorMode};
use crate::runner::{measure_policy, PolicyMeasurement, SimpointData, WorkloadData};
use crate::scale::Scale;
use evolve::FitnessContext;
use mem_model::capture_llc_stream;
use sim_core::Access;
use std::collections::HashMap;
use std::fs;
use std::hash::Hash;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use traces::spec2006::Spec2006;
use traces::{TraceReader, TraceWriter};

/// Magic identifying a spilled-workload file.
const WLC_MAGIC: &[u8; 8] = b"PLRUWLC1";
/// Spill format version; bump on any layout change. Version 2 added the
/// metadata CRC footer and the end-of-file check.
const WLC_VERSION: u32 = 2;
/// Upper bound on the simpoint count field. A corrupted count used to
/// drive `Vec::with_capacity` straight into an allocation abort; any real
/// capture holds a handful of simpoints.
const WLC_MAX_SIMPOINTS: usize = 4096;

/// A keyed exactly-once memo: concurrent callers asking for the same key
/// block on one `OnceLock` so the value is computed a single time, while
/// distinct keys initialize fully in parallel (the map lock is only held
/// to look up the slot, never during `init`).
struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: Eq + Hash, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash, V> Memo<K, V> {
    fn get_or_init<F: FnOnce() -> V>(&self, key: K, init: F) -> Arc<V> {
        let slot = {
            let mut map = self.map.lock().expect("memo lock poisoned");
            map.entry(key).or_default().clone()
        };
        slot.get_or_init(|| Arc::new(init())).clone()
    }
}

/// The shared workload-capture cache. See the module docs for what it
/// stores; use [`workload_cache`] for the process-global instance.
#[derive(Default)]
pub struct WorkloadCache {
    workloads: Memo<(Scale, Spec2006), WorkloadData>,
    raw: Memo<(Scale, Spec2006), Vec<Access>>,
    contexts: Memo<(Scale, Vec<Spec2006>), FitnessContext>,
    vectors: Memo<(Scale, Vec<Spec2006>, VectorMode), VectorAssignment>,
    captures: AtomicUsize,
    disk_loads: AtomicUsize,
    disk_dir: Mutex<Option<PathBuf>>,
}

impl std::fmt::Debug for WorkloadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadCache")
            .field("captures", &self.captures())
            .field("disk_loads", &self.disk_loads())
            .finish_non_exhaustive()
    }
}

impl WorkloadCache {
    /// Creates an empty cache with no spill directory (tests use private
    /// instances; experiments share [`workload_cache`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables (`Some`) or disables (`None`) on-disk spill of captured
    /// workloads. The directory is created on first write.
    pub fn set_disk_dir(&self, dir: Option<PathBuf>) {
        *self.disk_dir.lock().expect("disk dir lock poisoned") = dir;
    }

    /// The configured spill directory, if any.
    pub fn disk_dir(&self) -> Option<PathBuf> {
        self.disk_dir
            .lock()
            .expect("disk dir lock poisoned")
            .clone()
    }

    /// Fresh hierarchy captures performed so far (cache misses).
    pub fn captures(&self) -> usize {
        self.captures.load(Ordering::Relaxed)
    }

    /// Workloads served from the on-disk spill instead of a capture.
    pub fn disk_loads(&self) -> usize {
        self.disk_loads.load(Ordering::Relaxed)
    }

    /// Returns `bench`'s captured simpoint streams and LRU baseline at
    /// `scale`, capturing (or loading from disk) on first use.
    pub fn workload(&self, scale: Scale, bench: Spec2006) -> Arc<WorkloadData> {
        self.workloads.get_or_init((scale, bench), || {
            let path = self.disk_dir().map(|d| spill_path(&d, scale, bench));
            if let Some(path) = &path {
                if let Some(data) = load_workload(path, scale, bench) {
                    self.disk_loads.fetch_add(1, Ordering::Relaxed);
                    return data;
                }
            }
            self.captures.fetch_add(1, Ordering::Relaxed);
            let data = capture_workload(scale, bench);
            if let Some(path) = &path {
                // Spill failures are non-fatal: the in-memory copy is what
                // this run uses; the disk copy only accelerates the next.
                if let Err(e) = save_workload(path, scale, bench, &data) {
                    eprintln!(
                        "warning: could not spill workload cache file {}: {e}; \
                         continuing in-memory",
                        path.display()
                    );
                }
            }
            data
        })
    }

    /// Returns `bench`'s raw reference stream (`scale.accesses()` long,
    /// before any cache filtering), generated once. The multi-core mixes
    /// replay prefixes of these.
    pub fn raw_stream(&self, scale: Scale, bench: Spec2006) -> Arc<Vec<Access>> {
        self.raw.get_or_init((scale, bench), || {
            bench
                .workload()
                .scaled_down(scale.shift())
                .generator(0)
                .take(scale.accesses())
                .collect()
        })
    }

    /// Returns the GA fitness context over `benches` at `scale`, built
    /// once and shared (figure 12 and every WN1 vector assignment use the
    /// same context).
    pub fn fitness_context(&self, scale: Scale, benches: &[Spec2006]) -> Arc<FitnessContext> {
        self.contexts.get_or_init((scale, benches.to_vec()), || {
            FitnessContext::for_benchmarks(
                benches,
                scale.simpoints(),
                scale.ga_accesses(),
                scale.fitness(),
            )
        })
    }

    /// Returns the per-benchmark vector assignment for `mode`, computed
    /// once per `(scale, benches, mode)` — in WN1 mode this is a full GA
    /// sweep, which figures 10, 11, and 13 would otherwise each repeat.
    pub fn vector_assignment(
        &self,
        scale: Scale,
        benches: &[Spec2006],
        mode: VectorMode,
    ) -> Arc<VectorAssignment> {
        self.vectors
            .get_or_init((scale, benches.to_vec(), mode), || {
                crate::experiments::compute_vector_assignment(self, scale, benches, mode)
            })
    }
}

/// The process-global cache used by
/// [`prepare_workloads`](crate::runner::prepare_workloads) and the
/// experiment drivers. The spill directory comes from `SIM_CACHE_DIR`,
/// falling back to `results/cache/`; setting the variable to an empty
/// string disables spilling. Stale
/// spill files are pruned once, here at initialization.
pub fn workload_cache() -> &'static WorkloadCache {
    static GLOBAL: OnceLock<WorkloadCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cache = WorkloadCache::new();
        if let Some(dir) = spill_dir_from(|var| std::env::var_os(var)) {
            let pruned = prune_stale_spills(&dir);
            if pruned > 0 {
                eprintln!(
                    "note: pruned {pruned} stale workload-cache file(s) from {}",
                    dir.display()
                );
            }
            cache.set_disk_dir(Some(dir));
        }
        cache
    })
}

/// Resolves the global cache's spill directory from an environment
/// lookup: `SIM_CACHE_DIR`, else the `results/cache/` default. A
/// variable that is set but empty returns `None` (spill disabled) — the
/// escape hatch for fully stateless runs.
fn spill_dir_from(lookup: impl Fn(&str) -> Option<std::ffi::OsString>) -> Option<PathBuf> {
    match lookup("SIM_CACHE_DIR") {
        Some(dir) => (!dir.is_empty()).then(|| PathBuf::from(dir)),
        None => Some(PathBuf::from("results/cache")),
    }
}

/// Deletes stale spill files in `dir`: any `*.wlc` whose
/// `<scale>-<bench>` stem no longer names a known [`Scale`] and
/// [`Spec2006`] benchmark (renamed benchmarks, removed scales, foreign
/// leftovers from older layouts), plus abandoned `*.wlc.tmp`
/// temporaries from interrupted writes. Files with current stems are
/// untouched — staleness from changed *capture parameters* is still
/// detected per file by the fingerprint check at load time. Returns how
/// many files were removed; a missing directory prunes nothing.
pub fn prune_stale_spills(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut pruned = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match name.strip_suffix(".wlc") {
            Some(stem) => !stem_is_current(stem),
            None => name.ends_with(".wlc.tmp"),
        };
        if stale && fs::remove_file(entry.path()).is_ok() {
            pruned += 1;
        }
    }
    pruned
}

/// Whether a spill file stem still names a live `(scale, bench)` pair.
fn stem_is_current(stem: &str) -> bool {
    stem.split_once('-').is_some_and(|(scale, bench)| {
        Scale::parse(scale).is_some() && Spec2006::from_name(bench).is_some()
    })
}

/// Captures every simpoint of `bench` at `scale` and measures the LRU
/// baseline — the cache-miss path of [`WorkloadCache::workload`].
pub fn capture_workload(scale: Scale, bench: Spec2006) -> WorkloadData {
    let config = scale.hierarchy();
    let simpoints: Vec<SimpointData> = bench
        .simpoints()
        .into_iter()
        .take(scale.simpoints().max(1))
        .map(|sp| {
            let mut spec = bench.workload().scaled_down(scale.shift());
            spec.seed ^= sp.index.wrapping_mul(0x517c_c1b7_2722_0a95);
            let (stream, _) =
                capture_llc_stream(config, spec.generator(sp.index).take(scale.accesses()));
            let warmup = mem_model::llc::default_warmup(stream.len());
            SimpointData {
                weight: sp.weight,
                stream: Arc::new(stream),
                warmup,
            }
        })
        .collect();
    let mut data = WorkloadData {
        bench,
        simpoints,
        lru: PolicyMeasurement {
            mpki: 0.0,
            cycles: 1.0,
            misses: 0.0,
        },
    };
    data.lru = measure_policy(&data, &crate::policies::lru(), config.llc);
    data
}

fn spill_path(dir: &Path, scale: Scale, bench: Spec2006) -> PathBuf {
    dir.join(format!("{scale}-{}.wlc", bench.name()))
}

/// FNV-1a over every knob that determines a capture's content, so stale
/// spill files from different scale parameters (or a changed format) are
/// rejected instead of silently replayed.
fn fingerprint(scale: Scale, bench: Spec2006) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(b"wlc-fingerprint-v1");
    eat(scale.to_string().as_bytes());
    eat(&(scale.shift() as u64).to_le_bytes());
    eat(&(scale.accesses() as u64).to_le_bytes());
    eat(&(scale.simpoints() as u64).to_le_bytes());
    eat(bench.name().as_bytes());
    h
}

/// Persists `data` at `path` through [`sim_core::persist::atomic_write_with`]
/// (write-to-temp + fsync + rename), so readers never see a half-written
/// file and a crash mid-spill leaves any previous spill intact.
fn save_workload(
    path: &Path,
    scale: Scale,
    bench: Spec2006,
    data: &WorkloadData,
) -> std::io::Result<()> {
    sim_core::persist::atomic_write_with(path, |w| {
        // The embedded trace containers protect the streams with their own
        // CRC; `meta_crc` covers every field outside them (the LRU
        // baseline, the simpoint count, each weight and warm-up split) so
        // a flipped metadata byte is caught instead of loaded as garbage.
        let mut meta_crc = traces::format::Crc32::new();
        w.write_all(WLC_MAGIC)?;
        w.write_all(&WLC_VERSION.to_le_bytes())?;
        w.write_all(&fingerprint(scale, bench).to_le_bytes())?;
        for field in [data.lru.mpki, data.lru.cycles, data.lru.misses] {
            let bytes = field.to_le_bytes();
            meta_crc.update(&bytes);
            w.write_all(&bytes)?;
        }
        let count = (data.simpoints.len() as u32).to_le_bytes();
        meta_crc.update(&count);
        w.write_all(&count)?;
        for sp in &data.simpoints {
            let weight = sp.weight.to_le_bytes();
            let warmup = (sp.warmup as u64).to_le_bytes();
            meta_crc.update(&weight);
            meta_crc.update(&warmup);
            w.write_all(&weight)?;
            w.write_all(&warmup)?;
            let mut tw = TraceWriter::new(&mut *w).map_err(trace_to_io)?;
            for a in sp.stream.iter() {
                tw.write(a).map_err(trace_to_io)?;
            }
            tw.finish().map_err(trace_to_io)?;
        }
        w.write_all(&meta_crc.finish().to_le_bytes())?;
        Ok(())
    })
}

fn trace_to_io(e: traces::TraceError) -> std::io::Error {
    match e {
        traces::TraceError::Io(io) => io,
        other => std::io::Error::other(other.to_string()),
    }
}

/// Loads a spilled workload, returning `None` (fall back to capture) on
/// any mismatch. A missing file is the normal cold-cache case and stays
/// silent; a file that exists but cannot be loaded — foreign magic, stale
/// version or fingerprint, truncation, a failed metadata or trace CRC,
/// trailing garbage — logs a warning so the re-capture is visible.
fn load_workload(path: &Path, scale: Scale, bench: Spec2006) -> Option<WorkloadData> {
    let file = fs::File::open(path).ok()?;
    match load_workload_file(file, scale, bench) {
        Ok(data) => Some(data),
        Err(reason) => {
            eprintln!(
                "warning: ignoring workload cache file {} ({reason}); re-capturing",
                path.display()
            );
            None
        }
    }
}

/// The fallible body of [`load_workload`]; the error is a human-readable
/// reason for the warning log.
fn load_workload_file(
    file: fs::File,
    scale: Scale,
    bench: Spec2006,
) -> Result<WorkloadData, String> {
    let mut r = BufReader::new(file);
    let mut meta_crc = traces::format::Crc32::new();
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(|_| "truncated header")?;
    if &magic != WLC_MAGIC {
        return Err("foreign magic".into());
    }
    let version = read_u32(&mut r).ok_or("truncated header")?;
    if version != WLC_VERSION {
        return Err(format!("stale format version {version}"));
    }
    if read_u64(&mut r).ok_or("truncated header")? != fingerprint(scale, bench) {
        return Err("capture-parameter fingerprint mismatch".into());
    }
    let mut meta_f64 = |r: &mut BufReader<fs::File>| -> Option<f64> {
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf).ok()?;
        meta_crc.update(&buf);
        Some(f64::from_le_bytes(buf))
    };
    let lru = PolicyMeasurement {
        mpki: meta_f64(&mut r).ok_or("truncated LRU baseline")?,
        cycles: meta_f64(&mut r).ok_or("truncated LRU baseline")?,
        misses: meta_f64(&mut r).ok_or("truncated LRU baseline")?,
    };
    let mut count_buf = [0u8; 4];
    r.read_exact(&mut count_buf)
        .map_err(|_| "truncated simpoint count")?;
    meta_crc.update(&count_buf);
    let n = u32::from_le_bytes(count_buf) as usize;
    // Never trust the count for a pre-allocation: a corrupted field here
    // used to request gigabytes and abort the process.
    if n > WLC_MAX_SIMPOINTS {
        return Err(format!("implausible simpoint count {n}"));
    }
    let mut simpoints = Vec::with_capacity(n);
    for i in 0..n {
        let mut buf = [0u8; 16];
        r.read_exact(&mut buf)
            .map_err(|_| format!("truncated header of simpoint {i}"))?;
        meta_crc.update(&buf);
        let weight = f64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
        let warmup = u64::from_le_bytes(buf[8..].try_into().expect("8 bytes")) as usize;
        let stream: Vec<Access> = TraceReader::new(&mut r)
            .map_err(|e| format!("bad trace container of simpoint {i}: {e}"))?
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad trace stream of simpoint {i}: {e}"))?;
        simpoints.push(SimpointData {
            weight,
            stream: Arc::new(stream),
            warmup,
        });
    }
    let footer = read_u32(&mut r).ok_or("truncated metadata CRC footer")?;
    if footer != meta_crc.finish() {
        return Err("metadata CRC mismatch".into());
    }
    let mut extra = [0u8; 1];
    if r.read(&mut extra).map_err(|e| e.to_string())? != 0 {
        return Err("trailing garbage after footer".into());
    }
    Ok(WorkloadData {
        bench,
        simpoints,
        lru,
    })
}

fn read_u32<R: Read>(r: &mut R) -> Option<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).ok()?;
    Some(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> Option<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).ok()?;
    Some(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Spec2006 {
        Spec2006::Libquantum
    }

    #[test]
    fn capture_happens_exactly_once_per_key() {
        let cache = WorkloadCache::new();
        // Hammer the same key from the pool: the memo must serialize
        // initialization down to one capture.
        let first = cache.workload(Scale::Micro, bench());
        let again: Vec<_> =
            sim_core::pool::global().run(8, usize::MAX, |_| cache.workload(Scale::Micro, bench()));
        assert_eq!(cache.captures(), 1);
        for w in &again {
            assert!(
                Arc::ptr_eq(w, &first),
                "every caller shares the same capture"
            );
        }
        // A different scale is a different key.
        let _ = cache.workload(Scale::Quick, bench());
        assert_eq!(cache.captures(), 2);
    }

    #[test]
    fn cached_workload_matches_fresh_capture() {
        let cache = WorkloadCache::new();
        let cached = cache.workload(Scale::Micro, bench());
        let fresh = capture_workload(Scale::Micro, bench());
        assert_eq!(cached.simpoints.len(), fresh.simpoints.len());
        for (c, f) in cached.simpoints.iter().zip(&fresh.simpoints) {
            assert_eq!(
                c.stream, f.stream,
                "cached stream identical to fresh capture"
            );
            assert_eq!(c.warmup, f.warmup);
            assert_eq!(c.weight, f.weight);
        }
        assert_eq!(cached.lru, fresh.lru);
    }

    #[test]
    fn raw_stream_is_deterministic_and_shared() {
        let cache = WorkloadCache::new();
        let a = cache.raw_stream(Scale::Micro, bench());
        let b = cache.raw_stream(Scale::Micro, bench());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), Scale::Micro.accesses());
    }

    #[test]
    fn disk_spill_round_trips_byte_identical() {
        let dir = std::env::temp_dir().join(format!("wlc-spill-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let writer = WorkloadCache::new();
        writer.set_disk_dir(Some(dir.clone()));
        let original = writer.workload(Scale::Micro, bench());
        assert_eq!(writer.captures(), 1);
        assert_eq!(writer.disk_loads(), 0);

        let reader = WorkloadCache::new();
        reader.set_disk_dir(Some(dir.clone()));
        let loaded = reader.workload(Scale::Micro, bench());
        assert_eq!(reader.captures(), 0, "served from disk");
        assert_eq!(reader.disk_loads(), 1);
        assert_eq!(loaded.lru, original.lru);
        for (l, o) in loaded.simpoints.iter().zip(&original.simpoints) {
            assert_eq!(l.stream, o.stream);
            assert_eq!(l.warmup, o.warmup);
            assert_eq!(l.weight, o.weight);
        }

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_stale_spill_falls_back_to_capture() {
        let dir = std::env::temp_dir().join(format!("wlc-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let writer = WorkloadCache::new();
        writer.set_disk_dir(Some(dir.clone()));
        let _ = writer.workload(Scale::Micro, bench());

        // Flip a byte in the middle of the spilled stream: the embedded
        // trace CRC must reject it and a fresh capture must take over.
        let path = spill_path(&dir, Scale::Micro, bench());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let reader = WorkloadCache::new();
        reader.set_disk_dir(Some(dir.clone()));
        let recaptured = reader.workload(Scale::Micro, bench());
        assert_eq!(reader.disk_loads(), 0);
        assert_eq!(reader.captures(), 1);
        assert!(!recaptured.simpoints.is_empty());

        // A file written at one scale never satisfies another.
        assert!(load_workload(&path, Scale::Quick, bench()).is_none());

        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes one good spill file and returns `(dir, path, bytes)`.
    fn spilled_file(tag: &str) -> (std::path::PathBuf, std::path::PathBuf, Vec<u8>) {
        let dir = std::env::temp_dir().join(format!("wlc-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let writer = WorkloadCache::new();
        writer.set_disk_dir(Some(dir.clone()));
        let _ = writer.workload(Scale::Micro, bench());
        let path = spill_path(&dir, Scale::Micro, bench());
        let bytes = fs::read(&path).unwrap();
        (dir, path, bytes)
    }

    #[test]
    fn truncated_spill_falls_back_at_every_length() {
        // Chopping the file anywhere — mid-header, mid-simpoint-metadata,
        // mid-stream, mid-footer — must yield a clean fallback, never a
        // panic or a short-read of garbage.
        let (dir, path, bytes) = spilled_file("trunc");
        let probes: Vec<usize> = (0..bytes.len())
            .step_by((bytes.len() / 64).max(1))
            .chain([0, 7, 11, 19, 43, 44, 59, 60, bytes.len() - 1])
            .filter(|&n| n < bytes.len())
            .collect();
        for n in probes {
            fs::write(&path, &bytes[..n]).unwrap();
            assert!(
                load_workload(&path, Scale::Micro, bench()).is_none(),
                "truncation to {n} of {} bytes must not load",
                bytes.len()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_metadata_field_is_rejected_by_footer_crc() {
        // Flip one byte of the first simpoint's weight (offset 48: after
        // magic 8, version 4, fingerprint 8, LRU 24, count 4). The streams'
        // trace CRCs cannot see it; only the metadata footer can.
        let (dir, path, mut bytes) = spilled_file("meta");
        bytes[48] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(
            load_workload(&path, Scale::Micro, bench()).is_none(),
            "corrupt weight must fail the metadata CRC"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn implausible_simpoint_count_is_rejected_without_allocating() {
        // Overwrite the count field (offset 44) with u32::MAX: the loader
        // must bail out instead of pre-allocating gigabytes.
        let (dir, path, mut bytes) = spilled_file("count");
        bytes[44..48].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(load_workload(&path, Scale::Micro, bench()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (dir, path, mut bytes) = spilled_file("tail");
        bytes.extend_from_slice(b"junk");
        fs::write(&path, &bytes).unwrap();
        assert!(load_workload(&path, Scale::Micro, bench()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_dir_resolution_reads_sim_cache_dir() {
        use std::ffi::OsString;
        let env = |pairs: &'static [(&'static str, &'static str)]| {
            move |var: &str| -> Option<OsString> {
                pairs
                    .iter()
                    .find(|(k, _)| *k == var)
                    .map(|(_, v)| OsString::from(v))
            }
        };
        assert_eq!(
            spill_dir_from(env(&[("SIM_CACHE_DIR", "/a")])),
            Some(PathBuf::from("/a"))
        );
        // The retired `PLRU_CACHE_DIR` alias is not read.
        assert_eq!(
            spill_dir_from(env(&[("PLRU_CACHE_DIR", "/b")])),
            Some(PathBuf::from("results/cache"))
        );
        // Nothing set: the default directory.
        assert_eq!(
            spill_dir_from(env(&[])),
            Some(PathBuf::from("results/cache"))
        );
        // Set-but-empty disables spilling entirely.
        assert_eq!(spill_dir_from(env(&[("SIM_CACHE_DIR", "")])), None);
    }

    #[test]
    fn prune_removes_stale_spills_and_keeps_current() {
        let (dir, path, _) = spilled_file("prune");
        // Stale neighbors: unknown scale, unknown benchmark, no separator,
        // and an abandoned temp file. The `.txt` is foreign and untouched.
        for stale in [
            "nosuchscale-462.libquantum.wlc",
            "quick-999.nothing.wlc",
            "noseparator.wlc",
            "micro-462.libquantum.wlc.tmp",
        ] {
            fs::write(dir.join(stale), b"PLRUWLC1junk").unwrap();
        }
        fs::write(dir.join("README.txt"), b"not a spill").unwrap();

        assert_eq!(prune_stale_spills(&dir), 4);
        assert!(path.exists(), "current spill survives pruning");
        assert!(dir.join("README.txt").exists(), "foreign files untouched");
        assert!(
            load_workload(&path, Scale::Micro, bench()).is_some(),
            "survivor still loads"
        );
        // Idempotent: a second pass finds nothing stale.
        assert_eq!(prune_stale_spills(&dir), 0);
        // A missing directory prunes nothing.
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(prune_stale_spills(&dir), 0);
    }

    #[test]
    fn stale_version_is_rejected() {
        let (dir, path, mut bytes) = spilled_file("ver");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(load_workload(&path, Scale::Micro, bench()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Directory entries whose name ends with `suffix`.
    fn entries_with_suffix(dir: &Path, suffix: &str) -> Vec<String> {
        match fs::read_dir(dir) {
            Ok(rd) => rd
                .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
                .filter(|n| n.ends_with(suffix))
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    #[test]
    fn injected_enospc_spill_completes_in_memory() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        // The plan targets this test's own directory: sibling tests write
        // `.wlc` spills concurrently and must not see the fault.
        let tag = format!("wlc-enospc-{}", std::process::id());
        let dir = std::env::temp_dir().join(&tag);
        let _ = fs::remove_dir_all(&dir);
        sim_fault::with_plan(&format!("enospc@{tag}:sticky"), || {
            let cache = WorkloadCache::new();
            cache.set_disk_dir(Some(dir.clone()));
            let data = cache.workload(Scale::Micro, bench());
            assert!(!data.simpoints.is_empty(), "capture must still succeed");
            assert_eq!(cache.captures(), 1);
        });
        assert!(
            entries_with_suffix(&dir, ".wlc").is_empty(),
            "nothing may be committed under ENOSPC"
        );
        assert!(
            entries_with_suffix(&dir, ".tmp").is_empty(),
            "no orphan temp files under ENOSPC"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_spill_leaves_no_orphan_and_recaptures() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        let tag = format!("wlc-torn-{}", std::process::id());
        let dir = std::env::temp_dir().join(&tag);
        let _ = fs::remove_dir_all(&dir);
        sim_fault::with_plan(&format!("torn@{tag}:n=1"), || {
            let writer = WorkloadCache::new();
            writer.set_disk_dir(Some(dir.clone()));
            let _ = writer.workload(Scale::Micro, bench());
            assert_eq!(writer.captures(), 1);
        });
        assert!(
            entries_with_suffix(&dir, ".tmp").is_empty(),
            "torn spill must clean up its temp file"
        );
        assert!(
            entries_with_suffix(&dir, ".wlc").is_empty(),
            "torn spill must not commit"
        );
        // The next run finds no spill and transparently re-captures.
        let reader = WorkloadCache::new();
        reader.set_disk_dir(Some(dir.clone()));
        let data = reader.workload(Scale::Micro, bench());
        assert!(!data.simpoints.is_empty());
        assert_eq!(reader.disk_loads(), 0);
        assert_eq!(reader.captures(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corrupt_spill_is_rejected_by_crc_on_load() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        let tag = format!("wlc-corrupt-{}", std::process::id());
        let dir = std::env::temp_dir().join(&tag);
        let _ = fs::remove_dir_all(&dir);
        // The corrupt fault flips one payload byte but lets the commit
        // succeed: a damaged spill lands on disk. Either the embedded
        // trace CRC, the metadata CRC, or the header check must reject it
        // deterministically, falling back to a fresh capture.
        sim_fault::with_plan(&format!("corrupt@{tag}:n=1"), || {
            let writer = WorkloadCache::new();
            writer.set_disk_dir(Some(dir.clone()));
            let _ = writer.workload(Scale::Micro, bench());
        });
        let path = spill_path(&dir, Scale::Micro, bench());
        assert!(path.exists(), "corrupt fault commits the damaged file");
        assert!(
            load_workload(&path, Scale::Micro, bench()).is_none(),
            "damaged spill must fail validation"
        );
        let reader = WorkloadCache::new();
        reader.set_disk_dir(Some(dir.clone()));
        let data = reader.workload(Scale::Micro, bench());
        assert!(!data.simpoints.is_empty());
        assert_eq!(reader.disk_loads(), 0, "damaged spill must not be served");
        assert_eq!(reader.captures(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
