//! Directories of numbered durable files with newest-good fallback.
//!
//! [`NumberedFiles`] is the shared mechanism: files named
//! `<prefix><number, zero-padded><suffix>` in one directory, listed by
//! parsing names (never timestamps) and loaded newest-first until one
//! verifies. [`CheckpointStore`] is its per-mission instance: each
//! completed window `w` produces `ckpt-<w>.ickpt`, and loading returns
//! the newest checkpoint that verifies (magic, version, length, CRC,
//! seed); corrupt or torn files are collected in
//! [`LatestGood::skipped`] so the caller can report them — they are
//! never silently ignored and never a panic. The fleet manifest's
//! generations are the other instance.

use std::fs;
use std::path::{Path, PathBuf};

use crate::envelope::{decode_checkpoint, read_file, write_checkpoint_atomic, CkptError};

/// A directory of files named `<prefix><n><suffix>`, `n` zero-padded to
/// at least eight digits.
#[derive(Debug, Clone)]
pub struct NumberedFiles {
    dir: PathBuf,
    prefix: &'static str,
    suffix: &'static str,
}

/// Result of a newest-good scan: the newest file that verified (if
/// any) plus every newer file that failed verification.
#[derive(Debug)]
pub struct LatestGood<T = Vec<u8>> {
    /// `(number, contents)` of the newest good file — for a checkpoint
    /// store `(window, payload)` — or `None` when no file in the
    /// directory verifies.
    pub loaded: Option<(u64, T)>,
    /// Files that matched the naming scheme but failed verification,
    /// newest first, with the reason each was skipped.
    pub skipped: Vec<(PathBuf, CkptError)>,
}

impl NumberedFiles {
    /// Names the scheme; touches nothing on disk.
    pub fn new(dir: impl Into<PathBuf>, prefix: &'static str, suffix: &'static str) -> Self {
        NumberedFiles {
            dir: dir.into(),
            prefix,
            suffix,
        }
    }

    /// The directory the files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Creates the directory (and any missing parents).
    pub fn create_dir(&self) -> Result<(), CkptError> {
        fs::create_dir_all(&self.dir).map_err(|source| CkptError::Io {
            op: "create dir",
            path: self.dir.clone(),
            source,
        })
    }

    /// Path of file number `n`.
    pub fn path_for(&self, n: u64) -> PathBuf {
        self.dir.join(format!("{}{n:08}{}", self.prefix, self.suffix))
    }

    /// Numbers present in the directory, ascending. Parsed from file
    /// names, so ordering never depends on filesystem timestamps; a
    /// name counts only if [`path_for`](Self::path_for) would produce
    /// it. A directory that does not exist holds no files.
    pub fn numbers(&self) -> Result<Vec<u64>, CkptError> {
        let io = |source| CkptError::Io {
            op: "read dir",
            path: self.dir.clone(),
            source,
        };
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io(e)),
        };
        let mut numbers = Vec::new();
        for entry in entries {
            let path = entry.map_err(io)?.path();
            let number = path
                .file_name()
                .and_then(|name| name.to_str())
                .and_then(|name| name.strip_prefix(self.prefix)?.strip_suffix(self.suffix))
                .and_then(|digits| digits.parse::<u64>().ok());
            if let Some(n) = number.filter(|&n| self.path_for(n) == path) {
                numbers.push(n);
            }
        }
        numbers.sort_unstable();
        Ok(numbers)
    }

    /// Reads files newest-first and returns the first whose bytes
    /// `verify` accepts, falling back past unreadable or rejected files
    /// and reporting each one skipped. `Err` only on a
    /// directory-listing failure.
    pub fn newest_good<T>(
        &self,
        mut verify: impl FnMut(u64, &[u8]) -> Result<T, CkptError>,
    ) -> Result<LatestGood<T>, CkptError> {
        let mut loaded = None;
        let mut skipped = Vec::new();
        for n in self.numbers()?.into_iter().rev() {
            let path = self.path_for(n);
            match read_file(&path).and_then(|bytes| verify(n, &bytes)) {
                Ok(good) => {
                    loaded = Some((n, good));
                    break;
                }
                Err(e) => skipped.push((path, e)),
            }
        }
        Ok(LatestGood { loaded, skipped })
    }
}

/// A directory holding one mission's checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    files: NumberedFiles,
}

/// Verifies checkpoint `bytes` and that they are `seed`'s checkpoint
/// for `window`; returns the payload.
fn verify_window(seed: u64, window: u64, bytes: &[u8]) -> Result<Vec<u8>, CkptError> {
    let (header, payload) = decode_checkpoint(bytes)?;
    if header.seed != seed {
        return Err(CkptError::SeedMismatch {
            expected: seed,
            found: header.seed,
        });
    }
    if header.window != window {
        return Err(CkptError::Mismatch(format!(
            "file named for window {window} holds window {}",
            header.window
        )));
    }
    Ok(payload.to_vec())
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let files = NumberedFiles::new(dir, "ckpt-", ".ickpt");
        files.create_dir()?;
        Ok(CheckpointStore { files })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        self.files.dir()
    }

    /// Path of the checkpoint for window `window`.
    pub fn path_for(&self, window: u64) -> PathBuf {
        self.files.path_for(window)
    }

    /// Atomically writes the checkpoint for `window`.
    pub fn save(&self, seed: u64, window: u64, payload: &[u8]) -> Result<PathBuf, CkptError> {
        let path = self.path_for(window);
        write_checkpoint_atomic(&path, seed, window, payload)?;
        Ok(path)
    }

    /// Window indices present in the directory, ascending.
    pub fn windows(&self) -> Result<Vec<u64>, CkptError> {
        self.files.numbers()
    }

    /// Scans for the newest checkpoint that verifies against `seed`,
    /// falling back past corrupt files and reporting each one skipped.
    /// `Err` only on a directory-listing failure.
    pub fn load_latest_good(&self, seed: u64) -> Result<LatestGood, CkptError> {
        self.files
            .newest_good(|window, bytes| verify_window(seed, window, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iobt-ckpt-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_then_latest_good_returns_newest() {
        let dir = scratch("newest");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(42, 1, b"one").unwrap();
        store.save(42, 2, b"two").unwrap();
        store.save(42, 10, b"ten").unwrap();
        assert_eq!(store.windows().unwrap(), vec![1, 2, 10]);
        let latest = store.load_latest_good(42).unwrap();
        assert_eq!(latest.loaded, Some((10, b"ten".to_vec())));
        assert!(latest.skipped.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_good() {
        let dir = scratch("fallback");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(7, 1, b"good-one").unwrap();
        store.save(7, 2, b"good-two").unwrap();
        // Flip one payload byte in the newest file.
        let path = store.path_for(2);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let latest = store.load_latest_good(7).unwrap();
        assert_eq!(latest.loaded, Some((1, b"good-one".to_vec())));
        assert_eq!(latest.skipped.len(), 1);
        assert_eq!(latest.skipped[0].0, path);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_seed_is_skipped() {
        let dir = scratch("seed");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(1, 3, b"other mission").unwrap();
        let latest = store.load_latest_good(2).unwrap();
        assert!(latest.loaded.is_none());
        assert_eq!(latest.skipped.len(), 1);
        assert!(matches!(latest.skipped[0].1, CkptError::SeedMismatch { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let dir = scratch("empty");
        let store = CheckpointStore::open(&dir).unwrap();
        let latest = store.load_latest_good(0).unwrap();
        assert!(latest.loaded.is_none());
        assert!(latest.skipped.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrelated_files_are_ignored() {
        let dir = scratch("unrelated");
        let store = CheckpointStore::open(&dir).unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        fs::write(dir.join("ckpt-abc.ickpt"), b"garbage").unwrap();
        store.save(5, 4, b"real").unwrap();
        let latest = store.load_latest_good(5).unwrap();
        assert_eq!(latest.loaded, Some((4, b"real".to_vec())));
        fs::remove_dir_all(&dir).unwrap();
    }
}
