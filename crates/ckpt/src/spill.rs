//! Spill-directory entry points for parked runs, and the one atomic file
//! write every snapshot on disk goes through.
//!
//! A preemptive scheduler (the `uts-serve` job server) parks long-running
//! jobs by writing their boundary snapshot to disk and resumes them when
//! capacity frees up. This module owns the on-disk naming and the
//! crash-consistency discipline for those files so every consumer parks
//! and unparks the same way:
//!
//! * one file per job, `job-{id:08}.park`, holding exactly the encoded
//!   snapshot container ([`crate::EngineSnapshot::encode`] output) — the
//!   container's own magic/checksum/fingerprint layers make a spill file
//!   self-validating on the way back in;
//! * every write is **atomic**: bytes land in a `.tmp` sibling first and
//!   are renamed over the final name, so a crash mid-write can never
//!   leave a torn `.park` file — after a kill the directory holds either
//!   the previous complete snapshot or the new complete snapshot, nothing
//!   in between;
//! * parking again *replaces* the previous snapshot (rename semantics),
//!   and [`unpark`] does not delete — the file survives until the job
//!   completes, so a crash between resume and the next park falls back to
//!   the last parked boundary instead of losing the job.
//!
//! The same atomic-write primitive ([`write_atomic`]) is exported for the
//! scheduler's sibling files (job specs, results): the server's recovery
//! contract is that *every* file in a spill directory is either absent or
//! complete. It is also how a run's checkpoint directory is written
//! (`uts_core::CheckpointSink::Dir`, one `ckpt-{step:08}.bin` per
//! snapshot boundary), whichever executor runs it — in process or sharded
//! — so a run killed mid-write leaves no torn snapshot either.

use std::io;
use std::path::{Path, PathBuf};

/// A job's file with extension `ext` (`park`, or a scheduler's own, such
/// as the job server's `spec`, `done` and `cancelled`).
pub fn job_path(dir: &Path, job: u64, ext: &str) -> PathBuf {
    dir.join(format!("job-{job:08}.{ext}"))
}

/// Write `bytes` to `path` atomically: a `.tmp` sibling is written, then
/// renamed over `path`, so readers and a restarted process never observe a
/// torn file. A write that fails removes its `.tmp`. Nothing is `fsync`ed:
/// the guarantee is atomic visibility of complete contents, not that the
/// newest write outlives a power failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    // Durability of the rename itself is the filesystem's business; what
    // this guarantees is atomic visibility of complete contents.
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Park `job`'s snapshot container bytes into `dir` (created on first
/// use), atomically replacing any previous parked snapshot. Returns the
/// final path.
pub fn park(dir: &Path, job: u64, bytes: &[u8]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = job_path(dir, job, "park");
    write_atomic(&path, bytes)?;
    Ok(path)
}

/// Read back `job`'s parked snapshot. The file is left in place — it is
/// the job's fallback state until a newer park replaces it or
/// [`clear`] removes it on completion.
pub fn unpark(dir: &Path, job: u64) -> io::Result<Vec<u8>> {
    std::fs::read(job_path(dir, job, "park"))
}

/// Remove `job`'s parked snapshot (job completed or was cancelled).
/// Missing files are fine — the job may never have been parked.
pub fn clear(dir: &Path, job: u64) -> io::Result<()> {
    match std::fs::remove_file(job_path(dir, job, "park")) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Ids of the jobs with a `.{ext}` file in `dir` (`park` for a parked
/// snapshot), ascending. A missing directory reads as empty (a fresh
/// server has parked nothing). Files that do not match the
/// `job-{id:08}.{ext}` pattern are ignored — in particular the `.tmp`
/// siblings a crash may strand.
pub fn job_ids(dir: &Path, ext: &str) -> io::Result<Vec<u64>> {
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        other => other?,
    };
    let mut ids = Vec::new();
    for entry in entries {
        let name = entry?.file_name();
        let stem = name.to_str().and_then(|n| n.strip_prefix("job-")?.strip_suffix(ext));
        ids.extend(stem.and_then(|s| s.strip_suffix('.')?.parse::<u64>().ok()));
    }
    ids.sort_unstable();
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uts-spill-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn park_unpark_round_trips_and_replaces() {
        let dir = tmpdir("roundtrip");
        let path = park(&dir, 3, b"first").unwrap();
        assert_eq!(path, job_path(&dir, 3, "park"));
        assert_eq!(unpark(&dir, 3).unwrap(), b"first");
        // Unpark leaves the file; a second park atomically replaces it.
        park(&dir, 3, b"second").unwrap();
        assert_eq!(unpark(&dir, 3).unwrap(), b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_ids_lists_ids_sorted_and_skips_strays() {
        let dir = tmpdir("list");
        assert_eq!(job_ids(&dir, "park").unwrap(), Vec::<u64>::new(), "missing dir reads empty");
        park(&dir, 7, b"x").unwrap();
        park(&dir, 2, b"y").unwrap();
        // Strays a crash could leave behind: a torn tmp and foreign files.
        std::fs::write(dir.join("job-00000009.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        assert_eq!(job_ids(&dir, "park").unwrap(), vec![2, 7]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_leaves_no_tmp() {
        let dir = tmpdir("failed");
        // A directory where the file should go: the rename fails.
        std::fs::create_dir_all(dir.join("x.bin")).unwrap();
        assert!(write_atomic(&dir.join("x.bin"), b"z").is_err());
        assert!(!dir.join("x.tmp").exists(), "the .tmp of a failed write is removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_and_tolerates_missing() {
        let dir = tmpdir("clear");
        park(&dir, 1, b"z").unwrap();
        clear(&dir, 1).unwrap();
        assert!(unpark(&dir, 1).is_err());
        clear(&dir, 1).unwrap(); // second clear is a no-op, not an error
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preempt_signal_is_shared_and_sticky() {
        let s = crate::PreemptSignal::new();
        let engine_end = s.clone();
        assert!(!engine_end.is_raised());
        s.raise();
        assert!(engine_end.is_raised(), "clones share the flag");
        s.raise();
        assert!(engine_end.is_raised(), "raising is idempotent");
        engine_end.clear();
        assert!(!s.is_raised());
    }
}
