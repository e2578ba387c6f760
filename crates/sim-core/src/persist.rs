//! Crash-safe artifact persistence.
//!
//! Every artifact the pipeline writes — experiment CSVs, the replay
//! benchmark JSON, workload-cache spills, GA checkpoints, the run
//! manifest — goes through [`atomic_write`] / [`atomic_write_with`]:
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
/// The caller's slice is written as it is, without a copy; only an
/// injected `corrupt` fault, which must alter the bytes, stages a copy.
///
/// # Errors
///
/// Propagates filesystem errors (including injected ones).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
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
    let result = commit(&tmp, path, bytes, fault);
    if result.is_err() {
        // Failures must not leave staging orphans; the previous artifact
        // at `path` is untouched either way.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write`] with a streaming producer: `fill` writes the payload
/// into an in-memory buffer, which is then committed atomically. The
/// buffer indirection is what makes injected torn/corrupt faults exact
/// (the fault sees the complete payload), and it keeps `fill` free of
/// partial-write hazards.
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

/// Stages `payload` at `tmp`, applies any injected fault, and renames it
/// over `path`.
fn commit(tmp: &Path, path: &Path, payload: &[u8], fault: sim_fault::WriteFault) -> io::Result<()> {
    use sim_fault::WriteFault;

    let mut copy;
    let (staged, torn) = match fault {
        WriteFault::Torn(keep) => {
            let keep = keep.unwrap_or(payload.len() / 2).min(payload.len());
            (&payload[..keep], true)
        }
        WriteFault::Corrupt => {
            // Flip one mid-payload bit of a copy but commit successfully:
            // the deterministic stand-in for post-commit corruption, which
            // only a reader-side CRC can catch.
            copy = payload.to_vec();
            let mid = copy.len() / 2;
            match copy.get_mut(mid) {
                Some(byte) => *byte ^= 0x40,
                None => copy.push(0x40),
            }
            (copy.as_slice(), false)
        }
        _ => (payload, false),
    };

    {
        let mut file = fs::File::create(tmp)?;
        file.write_all(staged)?;
        file.sync_all()?;
    }
    if torn {
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
                assert!(commit(&tmp, &path, payload, fault).is_err());
                assert_eq!(fs::read(&tmp).unwrap(), kept, "{fault:?}");
                assert_eq!(fs::read(&path).unwrap(), b"old");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
