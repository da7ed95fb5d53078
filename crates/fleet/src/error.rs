//! The typed mission-failure taxonomy.
//!
//! A mission that leaves the scheduler without finishing carries a
//! [`MissionError`] — what failed ([`MissionErrorKind`]), whether the
//! scheduler considered it transient (`retryable`), and how many
//! attempts were burned before quarantine. This replaces the bare
//! error *string* the fleet used to expose: supervision decisions
//! (retry vs. quarantine, alerting, re-submission) need a stable enum
//! to branch on, not substring matching.

use std::fmt;

use iobt_ckpt::{wire_struct, CkptError, Dec, DecodeError, Enc, Wire};

/// What ended a quarantined mission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MissionErrorKind {
    /// The mission's own code panicked mid-slice; the worker caught the
    /// unwind and survived.
    Panic,
    /// Serialising mission state, or writing the checkpoint to the
    /// store, failed.
    CheckpointSave,
    /// Reading back an evicted mission's checkpoint failed (store open,
    /// directory scan, or read error).
    CheckpointLoad,
    /// The checkpoint was read but the mission could not be rebuilt
    /// from it (decode failure or a guard mismatch).
    Resume,
    /// An evicted mission had no good checkpoint left on disk — every
    /// candidate was corrupt, torn, or missing.
    NoCheckpoint,
    /// The mission exceeded its per-mission slice budget
    /// (see [`FleetBuilder::slice_budget`](crate::FleetBuilder::slice_budget)).
    DeadlineExceeded,
}

impl MissionErrorKind {
    /// Stable snake-case name used in `fleet_quarantine` trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            MissionErrorKind::Panic => "panic",
            MissionErrorKind::CheckpointSave => "checkpoint_save",
            MissionErrorKind::CheckpointLoad => "checkpoint_load",
            MissionErrorKind::Resume => "resume",
            MissionErrorKind::NoCheckpoint => "no_checkpoint",
            MissionErrorKind::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// One tag byte. Tags are the manifest format: a new kind takes the next
/// free one.
impl Wire for MissionErrorKind {
    fn put(&self, e: &mut Enc) {
        e.u8(match self {
            MissionErrorKind::Panic => 0,
            MissionErrorKind::CheckpointSave => 1,
            MissionErrorKind::CheckpointLoad => 2,
            MissionErrorKind::Resume => 3,
            MissionErrorKind::NoCheckpoint => 4,
            MissionErrorKind::DeadlineExceeded => 5,
        });
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(MissionErrorKind::Panic),
            1 => Ok(MissionErrorKind::CheckpointSave),
            2 => Ok(MissionErrorKind::CheckpointLoad),
            3 => Ok(MissionErrorKind::Resume),
            4 => Ok(MissionErrorKind::NoCheckpoint),
            5 => Ok(MissionErrorKind::DeadlineExceeded),
            tag => Err(DecodeError::UnknownTag {
                what: "mission error kind",
                tag,
            }),
        }
    }
}

/// Why a mission was quarantined, exposed via
/// [`Fleet::error`](crate::Fleet::error).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct MissionError {
    /// The failure class.
    pub kind: MissionErrorKind,
    /// Whether the scheduler classified the underlying fault as
    /// transient. A quarantined mission with `retryable: true` exhausted
    /// its retry budget on a fault that might clear (e.g. ENOSPC);
    /// `retryable: false` marks faults retrying cannot fix (panic,
    /// corrupt checkpoint, blown deadline).
    pub retryable: bool,
    /// Attempts consumed before quarantine (1 for non-retryable
    /// faults that quarantine on first occurrence).
    pub attempts: u32,
    /// Human-readable detail: the panic payload, the IO error chain, or
    /// the decode failure.
    pub detail: String,
}

wire_struct!(MissionError {
    kind,
    retryable,
    attempts,
    detail,
});

impl MissionError {
    pub(crate) fn new(kind: MissionErrorKind, retryable: bool, detail: String) -> Self {
        MissionError {
            kind,
            retryable,
            attempts: 1,
            detail,
        }
    }
}

impl fmt::Display for MissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} attempt(s){}: {}",
            self.kind.as_str(),
            self.attempts,
            if self.retryable {
                " (retryable fault, budget exhausted)"
            } else {
                ""
            },
            self.detail
        )
    }
}

impl std::error::Error for MissionError {}

/// Why [`FleetBuilder::recover`](crate::FleetBuilder::recover) could
/// not rebuild a fleet from its durable manifest.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoverError {
    /// The builder configuration itself was invalid.
    Config(crate::FleetConfigError),
    /// The checkpoint root holds no fleet manifest — nothing to
    /// recover (the fleet never ran with
    /// [`FleetBuilder::durable_manifest`](crate::FleetBuilder::durable_manifest)
    /// on, or the directory is wrong).
    NoManifest,
    /// The caller re-supplied a different number of scenarios than the
    /// manifest has tickets. Scenarios are provided in ticket order,
    /// one per submitted mission.
    ScenarioCount {
        /// Tickets in the manifest.
        expected: usize,
        /// Scenarios the caller passed.
        got: usize,
    },
    /// A re-supplied scenario does not match the fingerprint recorded
    /// for its ticket — recovering with the wrong scenario would
    /// silently change mission results.
    ScenarioMismatch {
        /// The ticket whose scenario disagreed.
        ticket: u64,
    },
    /// Every manifest generation on disk failed to load; the last
    /// error seen.
    Load(CkptError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Config(e) => write!(f, "invalid fleet configuration: {e}"),
            RecoverError::NoManifest => {
                write!(f, "no fleet manifest found under the checkpoint root")
            }
            RecoverError::ScenarioCount { expected, got } => write!(
                f,
                "manifest has {expected} tickets but {got} scenarios were supplied"
            ),
            RecoverError::ScenarioMismatch { ticket } => write!(
                f,
                "scenario supplied for ticket m-{ticket:06} does not match the manifest fingerprint"
            ),
            RecoverError::Load(e) => write!(f, "every manifest generation failed to load: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Config(e) => Some(e),
            RecoverError::Load(e) => Some(e),
            _ => None,
        }
    }
}

/// Classifies a checkpoint-store fault: IO-level failures (including
/// torn files surfacing as CRC/truncation on read) are transient from
/// the scheduler's point of view — the store may heal (disk space
/// freed, transient EIO) or a retry re-writes the file. Decode and
/// mismatch errors mean the bytes themselves are wrong for this
/// mission, which no retry fixes.
pub(crate) fn ckpt_fault_is_retryable(e: &CkptError) -> bool {
    !matches!(e, CkptError::Decode(_) | CkptError::Mismatch(_))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_roundtrip() {
        for (tag, kind) in [
            MissionErrorKind::Panic,
            MissionErrorKind::CheckpointSave,
            MissionErrorKind::CheckpointLoad,
            MissionErrorKind::Resume,
            MissionErrorKind::NoCheckpoint,
            MissionErrorKind::DeadlineExceeded,
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = Enc::new();
            e.put(&kind);
            let bytes = e.into_bytes();
            assert_eq!(bytes, [tag as u8]);
            assert_eq!(Dec::new(&bytes).get(), Ok(kind));
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(
            Dec::new(&[200]).get::<MissionErrorKind>(),
            Err(DecodeError::UnknownTag {
                what: "mission error kind",
                tag: 200
            })
        );
    }

    #[test]
    fn display_carries_kind_attempts_and_detail() {
        let mut e = MissionError::new(
            MissionErrorKind::CheckpointSave,
            true,
            "disk full".to_string(),
        );
        e.attempts = 4;
        let s = e.to_string();
        assert!(s.contains("checkpoint_save"));
        assert!(s.contains("4 attempt"));
        assert!(s.contains("disk full"));
    }
}
