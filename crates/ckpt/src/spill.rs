//! Spill-directory entry points for parked runs.
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
//! complete.

use std::io;
use std::path::{Path, PathBuf};

/// The spill file holding `job`'s latest parked snapshot.
pub fn park_path(dir: &Path, job: u64) -> PathBuf {
    dir.join(format!("job-{job:08}.park"))
}

/// Write `bytes` to `path` atomically: a `.tmp` sibling is written, then
/// renamed over `path`, so readers and a restarted process never observe a
/// torn file. Nothing is `fsync`ed: the guarantee is atomic visibility of
/// complete contents, not that the newest write outlives a power failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    // Durability of the rename itself is the filesystem's business; what
    // this guarantees is atomic visibility of complete contents.
    std::fs::rename(&tmp, path)
}

/// Park `job`'s snapshot container bytes into `dir` (created on first
/// use), atomically replacing any previous parked snapshot. Returns the
/// final path.
pub fn park(dir: &Path, job: u64, bytes: &[u8]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = park_path(dir, job);
    write_atomic(&path, bytes)?;
    Ok(path)
}

/// Read back `job`'s parked snapshot. The file is left in place — it is
/// the job's fallback state until a newer park replaces it or
/// [`clear`] removes it on completion.
pub fn unpark(dir: &Path, job: u64) -> io::Result<Vec<u8>> {
    std::fs::read(park_path(dir, job))
}

/// Remove `job`'s parked snapshot (job completed or was cancelled).
/// Missing files are fine — the job may never have been parked.
pub fn clear(dir: &Path, job: u64) -> io::Result<()> {
    match std::fs::remove_file(park_path(dir, job)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Job ids with a parked snapshot in `dir`, ascending. A missing
/// directory reads as empty (a fresh server has parked nothing). Files
/// that do not match the `job-{id:08}.park` pattern are ignored — in
/// particular the `.tmp` siblings a crash may strand.
pub fn parked_jobs(dir: &Path) -> io::Result<Vec<u64>> {
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        other => other?,
    };
    let mut ids = Vec::new();
    for entry in entries {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name.strip_prefix("job-").and_then(|s| s.strip_suffix(".park")) {
            if let Ok(id) = id.parse::<u64>() {
                ids.push(id);
            }
        }
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
        assert_eq!(path, park_path(&dir, 3));
        assert_eq!(unpark(&dir, 3).unwrap(), b"first");
        // Unpark leaves the file; a second park atomically replaces it.
        park(&dir, 3, b"second").unwrap();
        assert_eq!(unpark(&dir, 3).unwrap(), b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parked_jobs_lists_ids_sorted_and_skips_strays() {
        let dir = tmpdir("list");
        assert_eq!(parked_jobs(&dir).unwrap(), Vec::<u64>::new(), "missing dir reads empty");
        park(&dir, 7, b"x").unwrap();
        park(&dir, 2, b"y").unwrap();
        // Strays a crash could leave behind: a torn tmp and foreign files.
        std::fs::write(dir.join("job-00000009.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        assert_eq!(parked_jobs(&dir).unwrap(), vec![2, 7]);
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
