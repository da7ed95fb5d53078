//! Checkpoint-store abstraction and the deterministic failpoint
//! wrapper.
//!
//! The scheduler talks to its checkpoint storage through the [`Store`]
//! trait instead of `CheckpointStore` directly so that IO faults can be
//! injected *under* the real retry/quarantine machinery: production
//! uses [`DiskStore`] (one `iobt-ckpt` directory per ticket), tests and
//! chaos drills wrap it in [`FailingStore`], which fails operations on
//! a deterministic, seeded schedule — write errors, torn files under
//! the final name, ENOSPC, read errors — without any wall-clock or
//! entropy input, so a faulty run is exactly reproducible.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use iobt_ckpt::{encode_checkpoint, CheckpointStore, CkptError};
use iobt_faults::failpoint::fires;

/// Per-ticket checkpoint storage as the scheduler sees it. All methods
/// take the ticket explicitly so one store serves the whole fleet and
/// implementations stay trivially `Sync`.
pub trait Store: Send + Sync + fmt::Debug {
    /// Durably writes the checkpoint taken at `window` for `ticket`.
    /// On `Ok`, the checkpoint must survive a process death.
    fn save(&self, ticket: u64, seed: u64, window: u64, payload: &[u8]) -> Result<(), CkptError>;

    /// Loads the newest checkpoint for `ticket` that verifies against
    /// `seed`, skipping (not failing on) corrupt or torn files.
    /// `Ok(None)` when no good checkpoint exists.
    fn load_latest(&self, ticket: u64, seed: u64) -> Result<Option<(u64, Vec<u8>)>, CkptError>;

    /// Discards every checkpoint held for `ticket` (the mission
    /// completed). Best-effort: a leftover file is wasted disk, not an
    /// error.
    fn clear(&self, ticket: u64);
}

/// The production store: one [`CheckpointStore`] directory per ticket
/// (`m-000042/`) under a fleet-owned root.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// A disk store rooted at `root` (created lazily on first save).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskStore { root: root.into() }
    }

    /// The per-ticket checkpoint directory.
    pub fn ticket_dir(&self, ticket: u64) -> PathBuf {
        self.root.join(format!("m-{ticket:06}"))
    }
}

impl Store for DiskStore {
    fn save(&self, ticket: u64, seed: u64, window: u64, payload: &[u8]) -> Result<(), CkptError> {
        let store = CheckpointStore::open(self.ticket_dir(ticket))?;
        store.save(seed, window, payload)?;
        Ok(())
    }

    fn load_latest(&self, ticket: u64, seed: u64) -> Result<Option<(u64, Vec<u8>)>, CkptError> {
        let store = CheckpointStore::open(self.ticket_dir(ticket))?;
        Ok(store.load_latest_good(seed)?.loaded)
    }

    fn clear(&self, ticket: u64) {
        let _ = std::fs::remove_dir_all(self.ticket_dir(ticket));
    }
}

/// Failure schedule for a [`FailingStore`]: each fault domain fires
/// when the shared [`iobt_faults::failpoint`] trigger lands on a
/// `1-in-N` slot (`0` disables the domain).
///
/// Decisions are a pure function of `(seed, domain, ticket, per-ticket
/// operation counter)` — never of wall clock, thread id, or global
/// order — so the same fleet run sees the same faults at the same
/// mission operations regardless of worker count or schedule (each
/// mission's store operations are sequential).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultProfile {
    /// Seed domain-separating this profile's fault schedule.
    pub seed: u64,
    /// Fail roughly one in N saves with a plain write error.
    pub write_error_one_in: u64,
    /// Turn roughly one in N saves into a *torn* file under the final
    /// name (a truncated envelope, as if rename landed mid-write) and
    /// report failure. Exercises the latest-good fallback on read.
    pub torn_write_one_in: u64,
    /// Fail roughly one in N saves with `ENOSPC`.
    pub enospc_one_in: u64,
    /// Fail roughly one in N latest-good loads with a read error.
    pub read_error_one_in: u64,
}

impl FaultProfile {
    /// A profile that injects every fault domain at rate `1-in-N`.
    pub fn uniform(seed: u64, one_in: u64) -> Self {
        FaultProfile {
            seed,
            write_error_one_in: one_in,
            torn_write_one_in: one_in,
            enospc_one_in: one_in,
            read_error_one_in: one_in,
        }
    }
}

/// Deterministic failpoint wrapper around another [`Store`].
///
/// Every save/load consumes one slot of the wrapped ticket's operation
/// counter; the [`FaultProfile`] decides from `(seed, domain, ticket,
/// op)` whether that operation fails and how. A failed save leaves the
/// underlying store untouched (write error, ENOSPC) or holding a torn
/// file (torn write) — exactly the states crash-safe storage must
/// tolerate.
#[derive(Debug)]
pub struct FailingStore<S> {
    inner: S,
    profile: FaultProfile,
    /// Per-ticket operation counters, keyed `(ticket, domain-group)`.
    /// A mission's store operations are sequential (one worker owns it
    /// at a time), so counting per ticket keeps the fault schedule
    /// independent of cross-mission interleaving.
    ops: Mutex<BTreeMap<(u64, u8), u64>>,
}

const OPS_SAVE: u8 = 0;
const OPS_LOAD: u8 = 1;

const DOMAIN_WRITE: u64 = 1;
const DOMAIN_TORN: u64 = 2;
const DOMAIN_ENOSPC: u64 = 3;
const DOMAIN_READ: u64 = 4;

impl<S: Store> FailingStore<S> {
    /// Wraps `inner`, failing operations on `profile`'s schedule.
    pub fn new(inner: S, profile: FaultProfile) -> Self {
        FailingStore {
            inner,
            profile,
            ops: Mutex::new(BTreeMap::new()),
        }
    }

    fn next_op(&self, ticket: u64, group: u8) -> u64 {
        let mut ops = self.ops.lock().unwrap_or_else(|e| e.into_inner());
        let slot = ops.entry((ticket, group)).or_insert(0);
        let op = *slot;
        *slot += 1;
        op
    }
}

impl<S: Store + 'static> Store for FailingStore<S> {
    fn save(&self, ticket: u64, seed: u64, window: u64, payload: &[u8]) -> Result<(), CkptError> {
        let p = &self.profile;
        let op = self.next_op(ticket, OPS_SAVE);
        let io_err = |kind: io::ErrorKind, msg: &str, raw: Option<i32>| CkptError::Io {
            op: "inject",
            path: PathBuf::from(format!("m-{ticket:06}/ckpt-{window:08}.ickpt")),
            source: match raw {
                Some(code) => io::Error::from_raw_os_error(code),
                None => io::Error::new(kind, msg.to_string()),
            },
        };
        if fires(p.seed, DOMAIN_WRITE, p.write_error_one_in, ticket, op) {
            return Err(io_err(io::ErrorKind::Other, "injected write error", None));
        }
        if fires(p.seed, DOMAIN_ENOSPC, p.enospc_one_in, ticket, op) {
            // 28 == ENOSPC on every platform this repo targets.
            return Err(io_err(io::ErrorKind::Other, "", Some(28)));
        }
        if fires(p.seed, DOMAIN_TORN, p.torn_write_one_in, ticket, op) {
            // A torn file under the *final* name: the envelope cut off
            // mid-payload, as if the process died after a non-atomic
            // write. The real save below it never ran.
            let bytes = encode_checkpoint(seed, window, payload);
            let torn = &bytes[..bytes.len() / 2];
            self.tear(ticket, window, torn);
            return Err(io_err(io::ErrorKind::Other, "injected torn write", None));
        }
        self.inner.save(ticket, seed, window, payload)
    }

    fn load_latest(&self, ticket: u64, seed: u64) -> Result<Option<(u64, Vec<u8>)>, CkptError> {
        let p = &self.profile;
        let op = self.next_op(ticket, OPS_LOAD);
        if fires(p.seed, DOMAIN_READ, p.read_error_one_in, ticket, op) {
            return Err(CkptError::Io {
                op: "inject",
                path: PathBuf::from(format!("m-{ticket:06}")),
                source: io::Error::other("injected read error"),
            });
        }
        self.inner.load_latest(ticket, seed)
    }

    fn clear(&self, ticket: u64) {
        self.inner.clear(ticket);
    }
}

impl<S: Store + 'static> FailingStore<S> {
    /// Plants torn bytes where the checkpoint would have landed. Only
    /// meaningful for stores with an on-disk layout; other stores just
    /// see the failed save.
    fn tear(&self, ticket: u64, window: u64, torn: &[u8]) {
        // Writing through the inner store would re-wrap the envelope;
        // reach the path directly when the inner store is disk-backed.
        if let Some(disk) = self.as_disk() {
            if let Ok(store) = CheckpointStore::open(disk.ticket_dir(ticket)) {
                let _ = std::fs::write(store.path_for(window), torn);
            }
        }
    }

    fn as_disk(&self) -> Option<&DiskStore> {
        // Poor man's downcast: FailingStore is generic, but the only
        // disk-layout store in the crate is DiskStore. Implemented via
        // Any to stay safe without unsafe code.
        (&self.inner as &dyn std::any::Any).downcast_ref::<DiskStore>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iobt-fleet-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_store_roundtrips_and_clears() {
        let root = scratch("disk");
        let store = DiskStore::new(&root);
        store.save(3, 42, 1, b"one").unwrap();
        store.save(3, 42, 2, b"two").unwrap();
        assert_eq!(store.load_latest(3, 42).unwrap(), Some((2, b"two".to_vec())));
        // Other tickets are isolated.
        assert_eq!(store.load_latest(4, 42).unwrap(), None);
        store.clear(3);
        assert_eq!(store.load_latest(3, 42).unwrap(), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fault_schedule_is_deterministic_and_domain_separated() {
        let profile = FaultProfile::uniform(7, 3);
        let a: Vec<bool> = (0..64)
            .map(|op| fires(profile.seed, DOMAIN_WRITE, 3, 5, op))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|op| fires(profile.seed, DOMAIN_WRITE, 3, 5, op))
            .collect();
        assert_eq!(a, b, "same inputs, same schedule");
        let other_domain: Vec<bool> = (0..64)
            .map(|op| fires(profile.seed, DOMAIN_READ, 3, 5, op))
            .collect();
        assert_ne!(a, other_domain, "domains draw independent schedules");
        assert!(a.iter().any(|&f| f), "1-in-3 fires somewhere in 64 ops");
        assert!(!a.iter().all(|&f| f), "1-in-3 does not fire everywhere");
        // Rate 0 disables a domain entirely.
        assert!((0..64).all(|op| !fires(profile.seed, DOMAIN_TORN, 0, 5, op)));
    }

    #[test]
    fn torn_write_leaves_rejected_file_and_retry_heals_it() {
        let root = scratch("torn");
        // torn_write fires on every save; everything else disabled.
        let profile = FaultProfile {
            seed: 1,
            torn_write_one_in: 1,
            ..FaultProfile::default()
        };
        let store = FailingStore::new(DiskStore::new(&root), profile);
        let err = store.save(0, 9, 4, b"payload-bytes").unwrap_err();
        assert!(matches!(err, CkptError::Io { .. }));
        // The torn file exists under the final name but never loads.
        let path = root.join("m-000000").join("ckpt-00000004.ickpt");
        assert!(path.exists(), "torn bytes landed under the final name");
        assert_eq!(store.load_latest(0, 9).unwrap(), None);
        // A later save of the same window overwrites the torn file.
        store.inner.save(0, 9, 4, b"payload-bytes").unwrap();
        assert_eq!(
            store.load_latest(0, 9).unwrap(),
            Some((4, b"payload-bytes".to_vec()))
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn enospc_surfaces_the_real_errno() {
        let root = scratch("enospc");
        let profile = FaultProfile {
            seed: 2,
            enospc_one_in: 1,
            ..FaultProfile::default()
        };
        let store = FailingStore::new(DiskStore::new(&root), profile);
        let err = store.save(1, 9, 0, b"x").unwrap_err();
        match err {
            CkptError::Io { source, .. } => assert_eq!(source.raw_os_error(), Some(28)),
            other => panic!("expected Io, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
