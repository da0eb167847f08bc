//! Std-only temporary directories for the durability test suites — the
//! workspace carries no `tempfile` dependency, and crash-recovery tests
//! create dozens of store directories per run, so cleanup must be
//! automatic. Uniqueness comes from SplitMix64 over (pid, wall clock,
//! process-wide counter); the directory is removed on drop, best-effort.

use docql_guard::SeededRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{env, fs, io};

/// A uniquely named directory under [`std::env::temp_dir`], deleted
/// (recursively, best-effort) when the value drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `<tmp>/<prefix>-<unique>`. The name is drawn from a seeded
    /// SplitMix64 stream, retried on collision.
    pub fn new(prefix: &str) -> io::Result<TempDir> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        let mut rng = SeededRng::seed_from_u64(
            u64::from(std::process::id()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ nanos
                ^ COUNTER
                    .fetch_add(1, Ordering::Relaxed)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        for _ in 0..64 {
            let tag = rng.next_u64();
            let path = env::temp_dir().join(format!("{prefix}-{tag:016x}"));
            match fs::create_dir(&path) {
                Ok(()) => return Ok(TempDir { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "temp dir name space exhausted",
        ))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_unique_dirs_and_cleans_up() {
        let a = TempDir::new("docql-durable-test").unwrap();
        let b = TempDir::new("docql-durable-test").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        fs::write(a.join("f.bin"), b"data").unwrap();
        fs::create_dir(a.join("sub")).unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "drop removes the tree");
        assert!(b.path().is_dir(), "sibling untouched");
    }
}
