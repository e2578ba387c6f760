//! Crash-safe artifact persistence.
//!
//! Every artifact the pipeline writes — experiment CSVs, the replay
//! benchmark JSON, workload-cache spills, GA checkpoints, session
//! snapshots, the run manifest — goes through one commit path,
//! [`atomic_write_parts`] (or its one-slice and producer front ends,
//! [`atomic_write`] and [`atomic_write_with`]):
//! the payload is staged in a sibling temporary file (`<name>.tmp`),
//! flushed and fsynced, then renamed over the destination. A crash at any
//! instant leaves either the old artifact or the new one, never a torn
//! hybrid; at worst an orphaned `.tmp` file remains, which writers ignore
//! and startup pruning removes.
//!
//! The module is instrumented with [`sim_fault`] write points (labeled by
//! the destination path), so torn writes, disk-full errors, committed
//! corruption, and kill-mid-write are all injectable deterministically in
//! tests. In default builds the hooks compile to no-ops.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Exit status used when a `sim_fault` `exit` clause simulates a hard
/// kill mid-write; distinctive so kill-and-resume tests can assert the
/// crash was the injected one.
pub const FAULT_EXIT_CODE: i32 = 86;

/// The staging path for `path`: the same file name with `.tmp` appended,
/// in the same directory (so the final rename never crosses filesystems).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`: parent directories are
/// created, the payload is staged in [`tmp_path`], fsynced, and renamed
/// into place. On any error the staging file is removed, so failures
/// leave the previous artifact intact and no orphan behind.
///
/// The caller's slice is written as it is, without a copy. This is
/// [`atomic_write_parts`] with one part.
///
/// # Errors
///
/// Propagates filesystem errors (including injected ones).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_parts(path, &[bytes])
}

/// [`atomic_write`] for a payload held in pieces: commits the
/// concatenation of `parts`, in order, without ever building it. Injected
/// faults act on that concatenated payload exactly as they act on a
/// single slice: a torn write keeps a prefix of it and a `corrupt` fault
/// flips a bit of its middle byte, wherever the part boundaries fall.
///
/// # Errors
///
/// Propagates filesystem errors (including injected ones).
pub fn atomic_write_parts(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }

    let label = path.to_string_lossy();
    let fault = sim_fault::on_write(&label);
    if fault == sim_fault::WriteFault::Error {
        return Err(io::Error::other(format!(
            "injected write fault: no space left on device ({label})"
        )));
    }

    let tmp = tmp_path(path);
    let result = commit(&tmp, path, parts, fault);
    if result.is_err() {
        // Failures must not leave staging orphans; the previous artifact
        // at `path` is untouched either way.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write`] with a streaming producer: `fill` writes the payload
/// into an in-memory buffer, which is then committed atomically. The
/// buffer keeps `fill` free of partial-write hazards: a producer error
/// leaves nothing staged.
///
/// # Errors
///
/// Propagates `fill`'s error or any filesystem error.
pub fn atomic_write_with<F>(path: &Path, fill: F) -> io::Result<()>
where
    F: FnOnce(&mut dyn Write) -> io::Result<()>,
{
    let mut payload: Vec<u8> = Vec::new();
    fill(&mut payload)?;
    atomic_write(path, &payload)
}

/// Stages the concatenated `parts` at `tmp`, applies any injected fault,
/// and renames the staging file over `path`.
fn commit(
    tmp: &Path,
    path: &Path,
    parts: &[&[u8]],
    fault: sim_fault::WriteFault,
) -> io::Result<()> {
    use sim_fault::WriteFault;

    let len: usize = parts.iter().map(|p| p.len()).sum();
    let (keep, flip) = match fault {
        WriteFault::Torn(keep) => (keep.unwrap_or(len / 2).min(len), None),
        // Flip one mid-payload bit but commit successfully: the
        // deterministic stand-in for post-commit corruption, which only a
        // reader-side CRC can catch.
        WriteFault::Corrupt => (len, Some(len / 2)),
        _ => (len, None),
    };

    {
        let mut file = fs::File::create(tmp)?;
        stage(&mut file, parts, keep, flip)?;
        file.sync_all()?;
    }
    if matches!(fault, WriteFault::Torn(_)) {
        // The simulated crash happened mid-write: the staging file holds a
        // truncated payload and the commit never happens. The caller's
        // error path removes the staging file (a real crash would leave it
        // for startup pruning).
        return Err(io::Error::other(format!(
            "injected write fault: torn write ({})",
            path.display()
        )));
    }
    if fault == WriteFault::Exit {
        // Simulated SIGKILL at the worst instant: staged but not renamed.
        eprintln!(
            "sim-fault: exiting mid-write of {} (staged, not committed)",
            path.display()
        );
        std::process::exit(FAULT_EXIT_CODE);
    }
    fs::rename(tmp, path)?;
    sync_dir(path);
    Ok(())
}

/// Writes the first `keep` bytes of the concatenated `parts` to `out`,
/// with bit `0x40` of byte `flip` flipped. A `flip` just past an empty
/// payload writes the single byte `0x40`: the corruption of nothing.
fn stage(out: &mut dyn Write, parts: &[&[u8]], keep: usize, flip: Option<usize>) -> io::Result<()> {
    let mut at = 0;
    for part in parts {
        let part = &part[..part.len().min(keep - at)];
        match flip.and_then(|f| f.checked_sub(at)).filter(|&i| i < part.len()) {
            Some(i) => {
                out.write_all(&part[..i])?;
                out.write_all(&[part[i] ^ 0x40])?;
                out.write_all(&part[i + 1..])?;
            }
            None => out.write_all(part)?,
        }
        at += part.len();
    }
    if keep == 0 && flip == Some(0) {
        out.write_all(&[0x40])?;
    }
    Ok(())
}

/// Fsyncs the destination's directory so the rename itself is durable
/// (without this, a power cut can forget the rename while remembering the
/// data). Advisory: filesystems that cannot fsync directories are skipped.
fn sync_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(handle) = fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_and_replaces_atomically() {
        let dir = scratch("basic");
        let path = dir.join("nested/deeper/out.csv");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists(), "no staging orphan");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_producer_error_leaves_old_artifact() {
        let dir = scratch("fill-err");
        let path = dir.join("out.bin");
        atomic_write(&path, b"good").unwrap();
        let err = atomic_write_with(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("producer failed"))
        });
        assert!(err.is_err());
        assert_eq!(fs::read(&path).unwrap(), b"good");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_path_appends_suffix() {
        assert_eq!(
            tmp_path(Path::new("results/cache/micro-x.wlc")),
            Path::new("results/cache/micro-x.wlc.tmp")
        );
        assert_eq!(tmp_path(Path::new("fig10.csv")), Path::new("fig10.csv.tmp"));
    }

    mod injected {
        use super::*;

        #[test]
        fn torn_write_preserves_old_artifact_and_cleans_up() {
            if !sim_fault::COMPILED_IN {
                return;
            }
            let dir = scratch("torn");
            let path = dir.join("table.csv");
            atomic_write(&path, b"old,intact\n").unwrap();
            sim_fault::with_plan("torn@table.csv", || {
                let err = atomic_write(&path, b"new,content,that,tears\n");
                assert!(err.is_err(), "torn write must surface as an error");
            });
            assert_eq!(fs::read(&path).unwrap(), b"old,intact\n");
            assert!(!tmp_path(&path).exists(), "torn staging file removed");
            // The next write (fault spent) succeeds normally.
            atomic_write(&path, b"new\n").unwrap();
            assert_eq!(fs::read(&path).unwrap(), b"new\n");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn enospc_fails_without_touching_anything() {
            if !sim_fault::COMPILED_IN {
                return;
            }
            let dir = scratch("enospc");
            let path = dir.join("data.json");
            atomic_write(&path, b"{}").unwrap();
            sim_fault::with_plan("enospc@data.json", || {
                let err = atomic_write(&path, b"{\"big\":true}").unwrap_err();
                assert!(err.to_string().contains("no space left"), "{err}");
            });
            assert_eq!(fs::read(&path).unwrap(), b"{}");
            assert!(!tmp_path(&path).exists());
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn corrupt_commits_a_damaged_payload() {
            if !sim_fault::COMPILED_IN {
                return;
            }
            let dir = scratch("corrupt");
            let path = dir.join("blob.bin");
            let payload = vec![0u8; 64];
            sim_fault::with_plan("corrupt@blob.bin", || {
                atomic_write(&path, &payload).unwrap();
            });
            let written = fs::read(&path).unwrap();
            assert_eq!(written.len(), 64);
            assert_ne!(written, payload, "exactly the committed-corruption case");
            assert_eq!(written.iter().filter(|&&b| b != 0).count(), 1);
            assert_eq!(written[32], 0x40, "the mid-payload byte is the flipped one");
            assert!(
                payload.iter().all(|&b| b == 0),
                "the caller's bytes are untouched"
            );
            // The streaming front end commits through the same path.
            sim_fault::with_plan("corrupt@blob.bin", || {
                atomic_write_with(&path, |w| w.write_all(&payload)).unwrap();
            });
            assert_eq!(fs::read(&path).unwrap(), written);
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn torn_commit_stages_only_the_kept_prefix() {
            // `atomic_write` removes the torn staging file, so look at the
            // commit step it delegates to: the staged bytes are a prefix
            // of the caller's slice and the destination never changes.
            let dir = scratch("torn-prefix");
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join("out.bin");
            let tmp = tmp_path(&path);
            atomic_write(&path, b"old").unwrap();
            let payload = b"0123456789";
            for (fault, kept) in [
                (sim_fault::WriteFault::Torn(Some(4)), &payload[..4]),
                (sim_fault::WriteFault::Torn(None), &payload[..5]),
                (sim_fault::WriteFault::Torn(Some(99)), &payload[..]),
            ] {
                assert!(commit(&tmp, &path, &[payload], fault).is_err());
                assert_eq!(fs::read(&tmp).unwrap(), kept, "{fault:?}");
                assert_eq!(fs::read(&path).unwrap(), b"old");
            }
            let _ = fs::remove_dir_all(&dir);
        }

        /// Every way to cut `payload` into parts: a cut at each chosen
        /// offset, with an empty part at every cut, so parts begin and end
        /// on every byte and empty parts sit at both ends and in between.
        fn splits(payload: &[u8]) -> Vec<Vec<&[u8]>> {
            (0u32..1 << (payload.len() + 1))
                .map(|mask| {
                    let mut parts = Vec::new();
                    let mut prev = 0;
                    for at in (0..=payload.len()).filter(|at| mask & (1 << at) != 0) {
                        parts.push(&payload[prev..at]);
                        parts.push(&[][..]);
                        prev = at;
                    }
                    parts.push(&payload[prev..]);
                    parts
                })
                .collect()
        }

        #[test]
        fn parts_stage_as_their_concatenation_under_every_fault() {
            for payload in [&b""[..], b"x", b"012345678", b"0123456789"] {
                let mid = payload.len() / 2;
                let mut corrupt = payload.to_vec();
                match corrupt.get_mut(mid) {
                    Some(byte) => *byte ^= 0x40,
                    None => corrupt.push(0x40),
                }
                for parts in splits(payload) {
                    let staged = |keep, flip| {
                        let mut out = Vec::new();
                        stage(&mut out, &parts, keep, flip).unwrap();
                        out
                    };
                    assert_eq!(staged(payload.len(), None), payload, "{parts:?}");
                    for keep in 0..=payload.len() {
                        assert_eq!(staged(keep, None), &payload[..keep], "{parts:?}");
                    }
                    assert_eq!(staged(payload.len(), Some(mid)), corrupt, "{parts:?}");
                }
            }
        }

        #[test]
        fn torn_and_corrupt_parts_commit_as_one_slice_would() {
            if !sim_fault::COMPILED_IN {
                return;
            }
            let dir = scratch("parts");
            let path = dir.join("parts.bin");
            let payload = b"0123456789";
            let whole: &[&[u8]] = &[payload];
            // The mid byte (5) opens, closes and sits inside a part; empty
            // parts border it.
            let split: [&[&[u8]]; 3] = [
                &[b"01234", b"", b"56789"],
                &[b"", b"012345", b"6789", b""],
                &[b"0123", b"", b"456", b"789"],
            ];
            for parts in std::iter::once(whole).chain(split) {
                atomic_write(&path, b"old").unwrap();
                for keep in [0, 4, 5, 6, 10] {
                    sim_fault::with_plan(&format!("torn@parts.bin:keep={keep}"), || {
                        assert!(atomic_write_parts(&path, parts).is_err());
                    });
                    assert_eq!(fs::read(&path).unwrap(), b"old", "{parts:?} keep {keep}");
                    assert!(!tmp_path(&path).exists());
                }
                sim_fault::with_plan("corrupt@parts.bin", || {
                    atomic_write_parts(&path, parts).unwrap();
                });
                assert_eq!(fs::read(&path).unwrap(), b"01234u6789", "{parts:?}");
                atomic_write_parts(&path, parts).unwrap();
                assert_eq!(fs::read(&path).unwrap(), payload, "{parts:?}");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
