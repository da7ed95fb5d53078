//! Tickets, mission lifecycle states, and admission errors.

use std::fmt;

use iobt_ckpt::{Dec, DecodeError, Enc, Wire};

/// Opaque handle to a submitted mission, returned by
/// [`Fleet::submit`](crate::Fleet::submit) and accepted by every
/// per-mission query. Tickets are only meaningful to the fleet that
/// issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MissionTicket(pub(crate) u64);

impl MissionTicket {
    /// The ticket's raw index (stable, assigned in submission order) —
    /// for logs and trace correlation with `fleet_*` event payloads.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MissionTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m-{:06}", self.0)
    }
}

/// Where a mission is in the scheduler's lifecycle:
/// `Queued → Running → Idle ⇄ Evicted → Done`/`Quarantined`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MissionStatus {
    /// Admitted, never yet materialized on a worker.
    Queued,
    /// A worker is executing one of its slices right now.
    Running,
    /// Materialized on a worker, waiting for its next slice.
    Idle,
    /// Checkpointed to disk with no in-memory runner; any worker may
    /// resume it.
    Evicted,
    /// Every window executed; the report is available.
    Done,
    /// Isolated after a panic, exhausted checkpoint-IO retries, a blown
    /// slice budget, or an unrecoverable checkpoint; the rest of the
    /// fleet keeps running. See [`Fleet::error`](crate::Fleet::error)
    /// for the typed [`MissionError`](crate::MissionError).
    Quarantined,
}

/// One tag byte. Tags are the manifest format: a new state takes the
/// next free one.
impl Wire for MissionStatus {
    fn put(&self, e: &mut Enc) {
        e.u8(match self {
            MissionStatus::Queued => 0,
            MissionStatus::Running => 1,
            MissionStatus::Idle => 2,
            MissionStatus::Evicted => 3,
            MissionStatus::Done => 4,
            MissionStatus::Quarantined => 5,
        });
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
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
}

impl MissionStatus {
    /// `true` once the mission will never run again (`Done` or
    /// `Quarantined`).
    pub fn is_terminal(self) -> bool {
        matches!(self, MissionStatus::Done | MissionStatus::Quarantined)
    }
}

/// Why [`Fleet::submit`](crate::Fleet::submit) rejected a mission.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The `RunConfig` carried an enabled recorder. Recorders are
    /// thread-bound (`!Send`), so a mission that must migrate between
    /// workers cannot bring one; read per-mission metrics from
    /// [`Fleet::metrics_fingerprint`](crate::Fleet::metrics_fingerprint)
    /// and use [`FleetBuilder::recorder`](crate::FleetBuilder::recorder)
    /// for the scheduler trace instead.
    RecorderAttached,
    /// The scenario's node catalog was empty; the mission could never
    /// recruit, and a seed over zero nodes identifies nothing.
    EmptyCatalog,
    /// The fleet already holds
    /// [`FleetBuilder::max_queued`](crate::FleetBuilder::max_queued)
    /// non-terminal missions: overload sheds *new* work instead of
    /// stalling the missions already admitted. Resubmit after a drain.
    QueueFull {
        /// Non-terminal missions the fleet held at rejection time.
        queued: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::RecorderAttached => write!(
                f,
                "mission configs must not carry an enabled recorder (recorders are \
                 thread-bound); use Fleet::metrics_fingerprint / FleetBuilder::recorder"
            ),
            SubmitError::EmptyCatalog => {
                write!(f, "scenario catalog is empty; nothing to recruit")
            }
            SubmitError::QueueFull { queued } => write!(
                f,
                "admission queue is full ({queued} missions pending); drain before resubmitting"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}
