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

use iobt_ckpt::{open, seal, wire_struct, write_atomic, CkptError, Dec, Enc, LatestGood, NumberedFiles};
use iobt_core::{EndStateDigest, PortableRunConfig};

use crate::error::MissionError;
use crate::ticket::MissionStatus;

/// File magic: the first eight bytes of every fleet manifest.
pub(crate) const MANIFEST_MAGIC: [u8; 8] = *b"IOBTFMAN";

/// Current manifest format version; the loader rejects others.
///
/// History: v2 dropped eight fixed run settings (reachability filter,
/// detector ticks and suspicion periods, the ladder's two thresholds and
/// patience, task attempts and retry base) from each ticket's
/// [`PortableRunConfig`], shortening every record by 45 bytes.
pub(crate) const MANIFEST_VERSION: u32 = 2;

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

wire_struct!(TicketRecord {
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
});

/// Serialises the ticket table into a checksummed manifest envelope.
fn encode_manifest(records: &[TicketRecord]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.seq(records.iter());
    seal(&MANIFEST_MAGIC, MANIFEST_VERSION, &[], &enc.into_bytes())
}

/// Parses and verifies a manifest envelope; every corruption mode maps
/// to a typed [`CkptError`], never a panic.
fn decode_manifest(bytes: &[u8]) -> Result<Vec<TicketRecord>, CkptError> {
    let ([], payload) = open::<0>(&MANIFEST_MAGIC, MANIFEST_VERSION, bytes)?;
    let mut dec = Dec::new(payload);
    let records = dec.get()?;
    dec.finish()?;
    Ok(records)
}

/// The manifest generations under `dir`.
fn generations(dir: impl Into<PathBuf>) -> NumberedFiles {
    NumberedFiles::new(dir, "manifest-", ".fman")
}

/// The on-disk ticket table. The scheduler owns one per fleet (inside
/// its [`ManifestState`]) and calls [`ManifestFile::persist`] after each
/// state transition when durability is enabled.
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
/// update. During a drain it sits beside the scheduling core under the
/// drain's one lock, so a record lands before its ticket moves on.
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
    use crate::error::MissionErrorKind;

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

    /// Run parameters with every field off its default and no two
    /// same-typed fields equal, so a swapped pair moves the bytes.
    fn portable(solver: iobt_core::synthesis::Solver, k: u32) -> PortableRunConfig {
        use iobt_netsim::SimDuration;
        let mut p = PortableRunConfig::default();
        p.duration = SimDuration::from_millis(90_000 + u64::from(k));
        p.window = SimDuration::from_millis(9_000 + u64::from(k));
        p.report_period = SimDuration::from_millis(1_500 + u64::from(k));
        p.adaptive = k % 2 == 1;
        p.repair_threshold = 0.61 + f64::from(k) / 100.0;
        p.grid = 7 + k as usize;
        p.solver = solver;
        p.early_repair = k.is_multiple_of(3);
        p.degradation_ladder = k % 3 == 1;
        p.acked_tasking = k % 4 < 2;
        p.reference_mode = k % 4 == 1;
        p
    }

    #[test]
    fn manifest_bytes_are_pinned() {
        use iobt_core::synthesis::Solver;
        // A real digest: its fields are all distinct and `EndStateDigest`
        // cannot be spelled outside `iobt-core`.
        let config = iobt_core::RunConfig::builder()
            .duration(iobt_netsim::SimDuration::from_secs_f64(20.0))
            .window(iobt_netsim::SimDuration::from_secs_f64(10.0))
            .build()
            .unwrap();
        let digest = iobt_core::run_mission(&iobt_core::persistent_surveillance(40, 5), &config).digest;
        assert!(digest.delivered > 0 && !digest.final_selection.is_empty());

        let record = |i: u64, status, solver| TicketRecord {
            scenario_hash: scenario_fingerprint("scenario-debug") ^ i,
            seed: 1_000 + i,
            window_us: 250_000 + i,
            total_windows: 16 + i,
            status,
            ckpt_window: None,
            retries: 2 + i as u32,
            slices_used: 5 + i,
            digest: None,
            metrics_fp: None,
            error: None,
            portable: portable(solver, i as u32),
        };
        let records = vec![
            record(0, MissionStatus::Queued, Solver::Greedy),
            TicketRecord {
                ckpt_window: Some(3),
                ..record(1, MissionStatus::Running, Solver::Anneal { iterations: 400, seed: 77 })
            },
            TicketRecord {
                metrics_fp: Some(0xDEAD_BEEF),
                ..record(2, MissionStatus::Idle, Solver::Random { seed: 78 })
            },
            TicketRecord {
                ckpt_window: Some(8),
                ..record(3, MissionStatus::Evicted, Solver::Exhaustive)
            },
            TicketRecord {
                digest: Some(digest),
                metrics_fp: Some(0xFEED_F00D),
                ..record(4, MissionStatus::Done, Solver::Portfolio { iterations: 900, seed: 79 })
            },
            TicketRecord {
                error: Some(MissionError {
                    kind: MissionErrorKind::Resume,
                    retryable: true,
                    attempts: 4,
                    detail: "guard mismatch ∆".to_string(),
                }),
                portable: PortableRunConfig::default(),
                ..record(5, MissionStatus::Quarantined, Solver::Greedy)
            },
        ];
        let bytes = encode_manifest(&records);
        assert_eq!(decode_manifest(&bytes).unwrap(), records);
        // Re-recorded for manifest version 2: the version-1 bytes with the
        // eight removed run settings (45 bytes) cut from each record, the
        // version word and the CRC rewritten, and nothing else moved.
        assert_eq!(bytes.len(), 1_610);
        assert_eq!(iobt_obs::fnv1a(&bytes), 0xf599_c088_f028_1c4e);
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
    fn recovery_refuses_a_manifest_of_the_previous_version() {
        use crate::{Fleet, RecoverError};
        let dir = scratch("previous-version");
        let mut enc = Enc::new();
        enc.seq([sample_record(1, MissionStatus::Evicted)].iter());
        let payload = enc.into_bytes();
        let sealed = |version| seal(&MANIFEST_MAGIC, version, &[], &payload);
        generations(&dir).create_dir().unwrap();
        let path = generations(&dir).path_for(1);
        // The same table under the current version decodes: recovery gets
        // as far as counting the re-supplied scenarios.
        fs::write(&path, sealed(MANIFEST_VERSION)).unwrap();
        assert!(matches!(
            Fleet::recover(&dir, Vec::new()),
            Err(RecoverError::ScenarioCount {
                expected: 1,
                got: 0
            })
        ));
        // Under the previous version it is refused by its version word,
        // before a single record is read.
        fs::write(&path, sealed(MANIFEST_VERSION - 1)).unwrap();
        match Fleet::recover(&dir, Vec::new()) {
            Err(RecoverError::Load(CkptError::UnsupportedVersion(v))) => {
                assert_eq!(v, MANIFEST_VERSION - 1)
            }
            other => panic!("a previous-version manifest must be refused, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
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
