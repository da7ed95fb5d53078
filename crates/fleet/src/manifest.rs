//! The fleet manifest: a versioned, checksummed ticket table that
//! makes a whole fleet recoverable after a process death.
//!
//! When durability is on
//! ([`FleetBuilder::durable_manifest`](crate::FleetBuilder::durable_manifest)),
//! the scheduler persists the manifest at every mission state
//! transition, *after* the transition's checkpoint write — so a
//! manifest never references a checkpoint that might not exist, and a
//! crash between the two leaves at worst a checkpoint the manifest
//! does not know about (harmless: recovery re-derives from the latest
//! good checkpoint anyway).
//!
//! On disk a manifest is the workspace's one durable envelope
//! ([`iobt_ckpt::seal`]/[`iobt_ckpt::open`], so the checkpoint failure
//! taxonomy applies unchanged) with magic `b"IOBTFMAN"`, its own format
//! version, and no header words (all integers little-endian):
//!
//! | offset | size | field                                  |
//! |--------|------|----------------------------------------|
//! | 0      | 8    | magic `b"IOBTFMAN"`                    |
//! | 8      | 4    | manifest format version (`u32`)        |
//! | 12     | 8    | payload length (`u64`)                 |
//! | 20     | n    | payload (`Enc`-coded ticket table)     |
//! | 20 + n | 4    | CRC-32 (IEEE) over bytes `[0, 20 + n)` |
//!
//! Generations are numbered files (`manifest-00000007.fman`, an
//! [`iobt_ckpt::NumberedFiles`] directory) written to a temp sibling
//! and atomically renamed; the two newest generations are kept, so a
//! write torn mid-rename (or a bit-flipped newest file) falls back to
//! the previous generation instead of losing the fleet.

use std::fs;
use std::path::{Path, PathBuf};

use iobt_ckpt::{open, seal, write_atomic, CkptError, Dec, DecodeError, Enc, LatestGood, NumberedFiles};
use iobt_core::{
    decode_end_state_digest, decode_portable_config, encode_end_state_digest,
    encode_portable_config, EndStateDigest, PortableRunConfig,
};

use crate::error::{MissionError, MissionErrorKind};
use crate::ticket::MissionStatus;

/// File magic: the first eight bytes of every fleet manifest.
pub(crate) const MANIFEST_MAGIC: [u8; 8] = *b"IOBTFMAN";

/// Current manifest format version; the loader rejects others.
pub(crate) const MANIFEST_VERSION: u32 = 1;

/// Everything the scheduler must remember about one mission to rebuild
/// it after a crash. One record per ticket, indexed by ticket order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TicketRecord {
    /// FNV-1a over the scenario's `Debug` rendering — scenarios are not
    /// serialisable, so recovery re-accepts them from the caller and
    /// validates each against this hash.
    pub scenario_hash: u64,
    /// Mission seed.
    pub seed: u64,
    /// Utility-window length in sim microseconds.
    pub window_us: u64,
    /// Total windows the mission runs.
    pub total_windows: u64,
    /// Lifecycle state at the last persisted transition.
    pub status: MissionStatus,
    /// Window index of the newest checkpoint known good, if any.
    pub ckpt_window: Option<u64>,
    /// Checkpoint-IO retry attempts consumed so far.
    pub retries: u32,
    /// Scheduler slices consumed so far (deadline accounting).
    pub slices_used: u64,
    /// Final digest, once `Done`.
    pub digest: Option<EndStateDigest>,
    /// Per-mission metrics fingerprint, once `Done`.
    pub metrics_fp: Option<u64>,
    /// Quarantine cause, once `Quarantined`.
    pub error: Option<MissionError>,
    /// The mission's portable run configuration.
    pub portable: PortableRunConfig,
}

fn status_tag(status: MissionStatus) -> u8 {
    match status {
        MissionStatus::Queued => 0,
        MissionStatus::Running => 1,
        MissionStatus::Idle => 2,
        MissionStatus::Evicted => 3,
        MissionStatus::Done => 4,
        MissionStatus::Quarantined => 5,
    }
}

fn status_from_tag(tag: u8) -> Result<MissionStatus, DecodeError> {
    match tag {
        0 => Ok(MissionStatus::Queued),
        1 => Ok(MissionStatus::Running),
        2 => Ok(MissionStatus::Idle),
        3 => Ok(MissionStatus::Evicted),
        4 => Ok(MissionStatus::Done),
        5 => Ok(MissionStatus::Quarantined),
        tag => Err(DecodeError::UnknownTag {
            what: "mission status",
            tag,
        }),
    }
}

fn enc_error(e: &mut Enc, error: &MissionError) {
    let MissionError {
        kind,
        retryable,
        attempts,
        detail,
    } = error;
    e.u8(kind.tag());
    e.bool(*retryable);
    e.u32(*attempts);
    e.str(detail);
}

fn dec_error(d: &mut Dec<'_>) -> Result<MissionError, DecodeError> {
    let tag = d.u8()?;
    let kind = MissionErrorKind::from_tag(tag).ok_or(DecodeError::UnknownTag {
        what: "mission error kind",
        tag,
    })?;
    let retryable = d.bool()?;
    let attempts = d.u32()?;
    let detail = d.str()?;
    Ok(MissionError {
        kind,
        retryable,
        attempts,
        detail,
    })
}

fn enc_record(e: &mut Enc, record: &TicketRecord) {
    let TicketRecord {
        scenario_hash,
        seed,
        window_us,
        total_windows,
        status,
        ckpt_window,
        retries,
        slices_used,
        digest,
        metrics_fp,
        error,
        portable,
    } = record;
    e.u64(*scenario_hash);
    e.u64(*seed);
    e.u64(*window_us);
    e.u64(*total_windows);
    e.u8(status_tag(*status));
    match ckpt_window {
        Some(window) => {
            e.bool(true);
            e.u64(*window);
        }
        None => e.bool(false),
    }
    e.u32(*retries);
    e.u64(*slices_used);
    match digest {
        Some(digest) => {
            e.bool(true);
            encode_end_state_digest(e, digest);
        }
        None => e.bool(false),
    }
    match metrics_fp {
        Some(fp) => {
            e.bool(true);
            e.u64(*fp);
        }
        None => e.bool(false),
    }
    match error {
        Some(error) => {
            e.bool(true);
            enc_error(e, error);
        }
        None => e.bool(false),
    }
    encode_portable_config(e, portable);
}

fn dec_record(d: &mut Dec<'_>) -> Result<TicketRecord, DecodeError> {
    let scenario_hash = d.u64()?;
    let seed = d.u64()?;
    let window_us = d.u64()?;
    let total_windows = d.u64()?;
    let status = status_from_tag(d.u8()?)?;
    let ckpt_window = if d.bool()? { Some(d.u64()?) } else { None };
    let retries = d.u32()?;
    let slices_used = d.u64()?;
    let digest = if d.bool()? {
        Some(decode_end_state_digest(d)?)
    } else {
        None
    };
    let metrics_fp = if d.bool()? { Some(d.u64()?) } else { None };
    let error = if d.bool()? { Some(dec_error(d)?) } else { None };
    let portable = decode_portable_config(d)?;
    Ok(TicketRecord {
        scenario_hash,
        seed,
        window_us,
        total_windows,
        status,
        ckpt_window,
        retries,
        slices_used,
        digest,
        metrics_fp,
        error,
        portable,
    })
}

/// Serialises the ticket table into a checksummed manifest envelope.
fn encode_manifest(records: &[TicketRecord]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.usize(records.len());
    for record in records {
        enc_record(&mut enc, record);
    }
    seal(&MANIFEST_MAGIC, MANIFEST_VERSION, &[], &enc.into_bytes())
}

/// Parses and verifies a manifest envelope; every corruption mode maps
/// to a typed [`CkptError`], never a panic.
fn decode_manifest(bytes: &[u8]) -> Result<Vec<TicketRecord>, CkptError> {
    let ([], payload) = open::<0>(&MANIFEST_MAGIC, MANIFEST_VERSION, bytes)?;
    let mut dec = Dec::new(payload);
    let count = dec.usize()?;
    let mut records = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        records.push(dec_record(&mut dec)?);
    }
    dec.finish()?;
    Ok(records)
}

/// The manifest generations under `dir`.
fn generations(dir: impl Into<PathBuf>) -> NumberedFiles {
    NumberedFiles::new(dir, "manifest-", ".fman")
}

/// The on-disk ticket table. The scheduler owns one per fleet (behind
/// its own lock) and calls [`ManifestFile::persist`] after each state
/// transition when durability is enabled.
#[derive(Debug)]
pub(crate) struct ManifestFile {
    files: NumberedFiles,
    generation: u64,
}

/// A successfully loaded manifest: the records plus which generation
/// they came from (newer, corrupt generations may have been skipped).
#[derive(Debug)]
pub(crate) struct LoadedManifest {
    pub records: Vec<TicketRecord>,
    /// Generation the records came from; exercised by the durability
    /// tests (the non-test build only consumes `records`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub generation: u64,
}

impl ManifestFile {
    /// A manifest writer for `dir`, continuing after any generations
    /// already present (so recovery never reuses a generation number).
    /// An unreadable directory starts from generation 0 — the next
    /// persist surfaces any real IO problem.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        let files = generations(dir);
        let generation = files
            .numbers()
            .ok()
            .and_then(|gens| gens.last().copied())
            .unwrap_or(0);
        ManifestFile { files, generation }
    }

    /// Loads the newest generation that verifies end-to-end, skipping
    /// (not failing on) corrupt or torn newer generations. `Ok(None)`
    /// when the directory holds no manifest at all; the oldest
    /// generation's error when every generation present is bad.
    pub fn load_latest(dir: &Path) -> Result<Option<LoadedManifest>, CkptError> {
        let LatestGood { loaded, mut skipped } =
            generations(dir).newest_good(|_, bytes| decode_manifest(bytes))?;
        match (loaded, skipped.pop()) {
            (Some((generation, records)), _) => Ok(Some(LoadedManifest {
                records,
                generation,
            })),
            (None, Some((_, e))) => Err(e),
            (None, None) => Ok(None),
        }
    }

    /// Writes the ticket table as a new generation (temp sibling,
    /// `sync_all`, atomic rename — [`write_atomic`]); then prunes all but
    /// the two newest generations so a torn newest write always leaves
    /// a good predecessor.
    pub fn persist(&mut self, records: &[TicketRecord]) -> Result<(), CkptError> {
        self.files.create_dir()?;
        let generation = self.generation + 1;
        write_atomic(&self.files.path_for(generation), &encode_manifest(records))?;
        self.generation = generation;
        // Keep this generation and its predecessor; drop the rest.
        if let Ok(gens) = self.files.numbers() {
            for old in gens.into_iter().filter(|&g| g + 1 < generation) {
                let _ = fs::remove_file(self.files.path_for(old));
            }
        }
        Ok(())
    }
}

/// The scheduler's in-memory mirror of the on-disk ticket table: one
/// record per ticket, rewritten as a whole new generation on every
/// update. Holding the full table here means a worker persisting one
/// mission's transition never needs to lock any other mission's slot.
#[derive(Debug)]
pub(crate) struct ManifestState {
    file: ManifestFile,
    records: Vec<TicketRecord>,
}

impl ManifestState {
    /// An empty table writing to `dir`, continuing that directory's
    /// generation numbering.
    pub fn open(dir: &Path) -> Self {
        ManifestState {
            file: ManifestFile::open(dir),
            records: Vec::new(),
        }
    }

    /// Sets (or appends, for the next sequential ticket) one record and
    /// persists the table as a new generation. Best-effort: a failed
    /// manifest write degrades recoverability, never the running batch.
    pub fn update(&mut self, ticket: u64, record: TicketRecord) {
        let idx = ticket as usize;
        if idx < self.records.len() {
            self.records[idx] = record;
        } else if idx == self.records.len() {
            self.records.push(record);
        }
        let _ = self.file.persist(&self.records);
    }

    /// Replaces the whole table (recovery remaps every status) and
    /// persists it.
    pub fn replace(&mut self, records: Vec<TicketRecord>) {
        self.records = records;
        let _ = self.file.persist(&self.records);
    }
}

/// FNV-1a over a scenario's `Debug` rendering — the identity recovery
/// uses to check that re-supplied scenarios match the originals.
pub(crate) fn scenario_fingerprint(debug_rendering: &str) -> u64 {
    iobt_obs::fnv1a(debug_rendering.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iobt-fleet-manifest-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_record(seed: u64, status: MissionStatus) -> TicketRecord {
        TicketRecord {
            scenario_hash: scenario_fingerprint("scenario-debug"),
            seed,
            window_us: 250_000,
            total_windows: 16,
            status,
            ckpt_window: if status == MissionStatus::Evicted {
                Some(8)
            } else {
                None
            },
            retries: 2,
            slices_used: 5,
            digest: None,
            metrics_fp: Some(0xDEAD_BEEF),
            error: if status == MissionStatus::Quarantined {
                Some(MissionError {
                    kind: MissionErrorKind::CheckpointSave,
                    retryable: true,
                    attempts: 4,
                    detail: "disk full".to_string(),
                })
            } else {
                None
            },
            portable: iobt_core::RunConfig::default().into_portable().0,
        }
    }

    #[test]
    fn manifest_roundtrips_every_status() {
        let records: Vec<TicketRecord> = [
            MissionStatus::Queued,
            MissionStatus::Running,
            MissionStatus::Idle,
            MissionStatus::Evicted,
            MissionStatus::Done,
            MissionStatus::Quarantined,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, status)| sample_record(i as u64, status))
        .collect();
        let bytes = encode_manifest(&records);
        let decoded = decode_manifest(&bytes).unwrap();
        assert_eq!(decoded, records);
        // Manifests written before the FNV copies were merged must keep
        // matching their scenarios.
        assert_eq!(records[0].scenario_hash, 0xcef3_48b9_d246_5321);
    }

    #[test]
    fn persist_rotates_generations_and_keeps_two() {
        let dir = scratch("rotate");
        let mut manifest = ManifestFile::open(&dir);
        let records = vec![sample_record(1, MissionStatus::Queued)];
        for _ in 0..5 {
            manifest.persist(&records).unwrap();
        }
        let gens = generations(&dir).numbers().unwrap();
        assert_eq!(gens, vec![4, 5], "only the two newest generations remain");
        let loaded = ManifestFile::load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.generation, 5);
        assert_eq!(loaded.records, records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_previous() {
        let dir = scratch("fallback");
        let mut manifest = ManifestFile::open(&dir);
        let old = vec![sample_record(1, MissionStatus::Queued)];
        let new = vec![sample_record(1, MissionStatus::Done)];
        manifest.persist(&old).unwrap();
        manifest.persist(&new).unwrap();
        // Tear the newest generation mid-file.
        let newest = generations(&dir).path_for(2);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let loaded = ManifestFile::load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.generation, 1, "fell back past the torn newest");
        assert_eq!(loaded.records, old);
        // Reopening continues numbering past the torn generation.
        let reopened = ManifestFile::open(&dir);
        assert_eq!(reopened.generation, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_corruption_is_a_typed_error() {
        let records = vec![
            sample_record(1, MissionStatus::Evicted),
            sample_record(2, MissionStatus::Quarantined),
        ];
        let good = encode_manifest(&records);
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            assert!(
                decode_manifest(&bad).is_err(),
                "byte {i} flip must be detected"
            );
        }
        for len in 0..good.len() {
            let truncated = &good[..len];
            assert!(
                decode_manifest(truncated).is_err(),
                "truncation to {len} bytes must be detected"
            );
        }
    }

    #[test]
    fn empty_directory_loads_none() {
        let dir = scratch("empty");
        assert!(ManifestFile::load_latest(&dir).unwrap().is_none());
        fs::create_dir_all(&dir).unwrap();
        assert!(ManifestFile::load_latest(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
