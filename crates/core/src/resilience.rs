//! Failure detection and graceful degradation.
//!
//! §IV expects "robustness to failure … as a normal operating regime":
//! the runtime should notice silent assets *before* a utility window
//! closes, and when the population genuinely cannot meet the mission
//! requirement it should shed load in a controlled order instead of
//! thrashing on repairs it cannot complete.
//!
//! * [`FailureDetector`] — a sim-time heartbeat detector over the report
//!   stream: a watched node that has been silent for at least
//!   `SUSPICION_PERIODS × report_period` is suspected. No wall clock
//!   anywhere; suspicion is a pure function of sim-time observations.
//! * [`DegradationLadder`] — a hysteresis ladder of requirement
//!   relaxations (shed redundancy → shed the last modality → shed
//!   coverage fraction), climbed only after `LADDER_PATIENCE` consecutive
//!   bad windows and descended again after as many good ones.

use std::collections::BTreeMap;

use iobt_netsim::{SimDuration, SimTime};
use iobt_types::NodeId;

/// Sim-time heartbeat failure detector.
///
/// The runtime `watch`es every node expected to report, feeds every
/// delivered report in via [`FailureDetector::heard`], and asks for
/// [`FailureDetector::suspects`] at detector ticks. A node is suspected
/// when it has been silent for at least the suspicion threshold.
///
/// # Examples
///
/// ```
/// use iobt_core::resilience::FailureDetector;
/// use iobt_netsim::{SimDuration, SimTime};
/// use iobt_types::NodeId;
///
/// let period = SimDuration::from_secs_f64(2.0);
/// let mut det = FailureDetector::new(period); // suspects after 3 periods
/// det.watch(NodeId::new(1), SimTime::ZERO);
/// assert!(det.suspects(SimTime::from_secs_f64(5.0)).is_empty());
/// let suspects = det.suspects(SimTime::from_secs_f64(6.5));
/// assert_eq!(suspects.len(), 1);
/// assert_eq!(suspects[0].0, NodeId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct FailureDetector {
    threshold: SimDuration,
    last_seen: BTreeMap<NodeId, SimTime>,
}

/// A watched node is suspected after this many report periods of
/// silence, so a lost report or two does not make a healthy reporter a
/// suspect.
const SUSPICION_PERIODS: f64 = 3.0;

impl FailureDetector {
    /// Creates a detector: a node is suspected after
    /// `SUSPICION_PERIODS` (3) × `report_period` of silence.
    pub fn new(report_period: SimDuration) -> Self {
        FailureDetector {
            threshold: SimDuration::from_secs_f64(report_period.as_secs_f64() * SUSPICION_PERIODS),
            last_seen: BTreeMap::new(),
        }
    }

    /// Starts watching `node`, charging it as heard at `now` (a node
    /// gets a full threshold of grace before its first report is due).
    /// Watching an already-watched node keeps its existing deadline.
    pub fn watch(&mut self, node: NodeId, now: SimTime) {
        self.last_seen.entry(node).or_insert(now);
    }

    /// Stops watching `node` (it was deliberately released or replaced).
    pub fn unwatch(&mut self, node: NodeId) {
        self.last_seen.remove(&node);
    }

    /// Records a heartbeat: a report from `node` delivered at `at`.
    /// Unwatched senders are ignored; stale timestamps never move a
    /// deadline backwards.
    pub fn heard(&mut self, node: NodeId, at: SimTime) {
        if let Some(seen) = self.last_seen.get_mut(&node) {
            if at > *seen {
                *seen = at;
            }
        }
    }

    /// The watch table — every watched node with the time it was last
    /// heard, ascending node id. Exposed for mission checkpoints.
    pub fn entries(&self) -> Vec<(NodeId, SimTime)> {
        self.last_seen.iter().map(|(&n, &t)| (n, t)).collect()
    }

    /// Rebuilds a detector from checkpointed state: the threshold from
    /// `report_period` as [`FailureDetector::new`] does, and the full
    /// watch table.
    pub fn from_checkpoint(report_period: SimDuration, entries: &[(NodeId, SimTime)]) -> Self {
        FailureDetector {
            last_seen: entries.iter().copied().collect(),
            ..FailureDetector::new(report_period)
        }
    }

    /// Watched nodes silent for at least the threshold as of `now`,
    /// with their silence spans, in ascending node-id order.
    pub fn suspects(&self, now: SimTime) -> Vec<(NodeId, SimDuration)> {
        self.last_seen
            .iter()
            .filter_map(|(&node, &seen)| {
                let silent = now.saturating_since(seen);
                (silent >= self.threshold).then_some((node, silent))
            })
            .collect()
    }
}

/// What the ladder decided after observing one utility window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderStep {
    /// No change.
    Hold,
    /// Moved one level down the ladder (shed more).
    Shed,
    /// Moved one level back up (restored).
    Restore,
}

/// Highest (most degraded) ladder level.
pub const MAX_LADDER_LEVEL: usize = 3;

/// Utility below this for [`LADDER_PATIENCE`] consecutive windows sheds
/// one ladder level.
const SHED_THRESHOLD: f64 = 0.45;
/// Utility at or above this for [`LADDER_PATIENCE`] consecutive windows
/// restores one ladder level; the gap to [`SHED_THRESHOLD`] is the
/// hysteresis band.
const RESTORE_THRESHOLD: f64 = 0.85;
/// Consecutive windows the ladder waits before it moves.
const LADDER_PATIENCE: u32 = 2;

/// Graceful-degradation ladder with hysteresis.
///
/// Levels, in shedding order — each keeps the mission alive at reduced
/// ambition rather than abandoning coverage outright:
///
/// | level | action      | requirement change                          |
/// |-------|-------------|---------------------------------------------|
/// | 0     | —           | full mission requirement                    |
/// | 1     | `redundancy`| redundancy `k` drops to 1                   |
/// | 2     | `modality`  | the last required modality is shed          |
/// | 3     | `coverage`  | required coverage fraction × 0.6            |
///
/// The ladder sheds a level after 2 consecutive windows with utility
/// below 0.45, and restores a level after 2 consecutive windows at or
/// above 0.85; the gap between the two thresholds is the hysteresis band
/// that prevents shed/restore thrash.
#[derive(Debug, Clone, Default)]
pub struct DegradationLadder {
    level: usize,
    below: u32,
    above: u32,
}

impl DegradationLadder {
    /// Creates a ladder at level 0.
    pub fn new() -> Self {
        DegradationLadder::default()
    }

    /// Current level (0 = full requirement, [`MAX_LADDER_LEVEL`] = most
    /// degraded).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The name of the load shed *at* `level` (what changed relative to
    /// `level - 1`); `"none"` for level 0.
    pub fn action(level: usize) -> &'static str {
        match level {
            0 => "none",
            1 => "redundancy",
            2 => "modality",
            _ => "coverage",
        }
    }

    /// The ladder's state — `(level, below-streak, above-streak)` — for
    /// mission checkpoints.
    pub fn counters(&self) -> (usize, u32, u32) {
        (self.level, self.below, self.above)
    }

    /// Overwrites the ladder's mutable state from a checkpoint. `level`
    /// is clamped to [`MAX_LADDER_LEVEL`] so a corrupted value cannot
    /// push the ladder off the end of the shedding table.
    pub fn restore_counters(&mut self, level: usize, below: u32, above: u32) {
        self.level = level.min(MAX_LADDER_LEVEL);
        self.below = below;
        self.above = above;
    }

    /// Observes one window's utility and possibly moves one level.
    pub fn observe(&mut self, utility: f64) -> LadderStep {
        if utility < SHED_THRESHOLD {
            self.above = 0;
            if self.level < MAX_LADDER_LEVEL {
                self.below += 1;
                if self.below >= LADDER_PATIENCE {
                    self.below = 0;
                    self.level += 1;
                    return LadderStep::Shed;
                }
            }
        } else if utility >= RESTORE_THRESHOLD {
            self.below = 0;
            if self.level > 0 {
                self.above += 1;
                if self.above >= LADDER_PATIENCE {
                    self.above = 0;
                    self.level -= 1;
                    return LadderStep::Restore;
                }
            }
        } else {
            // Inside the hysteresis band: hold position, reset streaks.
            self.below = 0;
            self.above = 0;
        }
        LadderStep::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn detector_suspects_only_after_threshold_of_silence() {
        let mut det = FailureDetector::new(SimDuration::from_secs_f64(2.0));
        det.watch(NodeId::new(1), SimTime::ZERO);
        det.watch(NodeId::new(2), SimTime::ZERO);
        // Three report periods of silence: 6 s, not a microsecond less.
        assert!(det.suspects(SimTime::from_micros(5_999_999)).is_empty());
        assert_eq!(det.suspects(secs(6.0)).len(), 2);
        det.heard(NodeId::new(1), secs(4.0));
        // At t=7: node 2 silent 7s (suspect), node 1 silent 3s (fine).
        let suspects = det.suspects(secs(7.0));
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].0, NodeId::new(2));
        assert_eq!(suspects[0].1, SimDuration::from_secs_f64(7.0));
    }

    #[test]
    fn detector_ignores_unwatched_and_stale_heartbeats() {
        let mut det = FailureDetector::new(SimDuration::from_secs_f64(1.0));
        det.heard(NodeId::new(9), secs(1.0));
        assert!(det.entries().is_empty());
        det.watch(NodeId::new(1), secs(5.0));
        det.heard(NodeId::new(1), secs(3.0)); // stale: must not rewind
        assert!(det.suspects(secs(6.0)).is_empty());
        det.unwatch(NodeId::new(1));
        assert!(det.suspects(secs(100.0)).is_empty());
    }

    #[test]
    fn detector_rewatch_keeps_existing_deadline() {
        let mut det = FailureDetector::new(SimDuration::from_secs_f64(0.5));
        det.watch(NodeId::new(1), SimTime::ZERO);
        det.watch(NodeId::new(1), secs(10.0)); // no-op
        assert_eq!(det.suspects(secs(2.0)).len(), 1);
    }

    #[test]
    fn ladder_sheds_after_patience_and_restores_with_hysteresis() {
        let mut ladder = DegradationLadder::new();
        assert_eq!(ladder.observe(0.2), LadderStep::Hold); // streak 1
        assert_eq!(ladder.observe(0.2), LadderStep::Shed); // streak 2
        assert_eq!(ladder.level(), 1);
        // Mid-band utility holds and resets streaks.
        assert_eq!(ladder.observe(0.6), LadderStep::Hold);
        assert_eq!(ladder.observe(0.2), LadderStep::Hold);
        assert_eq!(ladder.observe(0.9), LadderStep::Hold);
        assert_eq!(ladder.observe(0.9), LadderStep::Restore);
        assert_eq!(ladder.level(), 0);
    }

    #[test]
    fn ladder_is_bounded_at_both_ends() {
        let mut ladder = DegradationLadder::new();
        for _ in 0..10 {
            ladder.observe(0.0);
        }
        assert_eq!(ladder.level(), MAX_LADDER_LEVEL);
        for _ in 0..10 {
            ladder.observe(1.0);
        }
        assert_eq!(ladder.level(), 0);
        assert_eq!(ladder.observe(1.0), LadderStep::Hold, "cannot restore past 0");
    }

    #[test]
    fn ladder_action_names_are_stable() {
        assert_eq!(DegradationLadder::action(0), "none");
        assert_eq!(DegradationLadder::action(1), "redundancy");
        assert_eq!(DegradationLadder::action(2), "modality");
        assert_eq!(DegradationLadder::action(3), "coverage");
    }
}
