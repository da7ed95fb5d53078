//! The fault-plan DSL: declarative, sim-time-stamped fault events that
//! schedule themselves onto a [`Simulator`] through its injection hooks.

use iobt_netsim::sim::{CompromiseSpec, LinkDegradation, PartitionSpec};
use iobt_netsim::{SimDuration, SimTime, Simulator};
use iobt_obs::TraceEvent;
use iobt_types::{NodeId, Rect};

/// One kind of injected fault. Each variant maps onto a simulator
/// injection hook when the owning [`FaultPlan`] is scheduled.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// A node crashes; with `recover_after` set it reboots that much
    /// later (fail-recover), otherwise it stays down (fail-stop).
    Crash {
        /// The node to take down.
        node: NodeId,
        /// Time from the crash until reboot, if the node recovers.
        recover_after: Option<SimDuration>,
    },
    /// Every alive node inside `rect` at the fire instant goes down
    /// together (area-effect strike, EMP, localized infrastructure
    /// loss). With `lift_after` set, the killed survivors are revived
    /// that much later; nodes that depleted meanwhile stay down.
    RegionBlackout {
        /// The affected area; membership is resolved at fire time so
        /// mobile nodes are caught wherever they actually are.
        rect: Rect,
        /// Time from the outage until the blackout lifts, if it does.
        lift_after: Option<SimDuration>,
    },
    /// Links between the two groups of `spec` vanish for `duration`
    /// (fiber cut, relay sabotage, RF occlusion). Nodes stay alive.
    Partition {
        /// Which links are cut.
        spec: PartitionSpec,
        /// How long the cut holds.
        duration: SimDuration,
    },
    /// Channel-wide extra path loss and latency multiplier for
    /// `duration` (weather, obscurants, wide-band interference).
    Degrade {
        /// The degradation to apply.
        spec: LinkDegradation,
        /// How long the degradation holds.
        duration: SimDuration,
    },
    /// The relays in `spec` act maliciously for `duration`: traffic
    /// routed through them is delayed and optionally tampered.
    Compromise {
        /// Which relays are compromised and what they do.
        spec: CompromiseSpec,
        /// How long the compromise holds.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// Stable kind label, used in trace events and metrics keys.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash {
                recover_after: Some(_),
                ..
            } => "crash_recover",
            FaultKind::Crash { .. } => "crash",
            FaultKind::RegionBlackout { .. } => "region_blackout",
            FaultKind::Partition { .. } => "partition",
            FaultKind::Degrade { .. } => "degrade",
            FaultKind::Compromise { .. } => "compromise",
        }
    }

    /// The instant this fault's effects are fully over, relative to its
    /// start at `at`: recovery/lift/expiry time, or `at` itself for
    /// permanent faults (whose *onset* is the lasting state).
    fn clear_time(&self, at: SimTime) -> SimTime {
        match self {
            FaultKind::Crash { recover_after, .. } => at + recover_after.unwrap_or(SimDuration::ZERO),
            FaultKind::RegionBlackout { lift_after, .. } => {
                at + lift_after.unwrap_or(SimDuration::ZERO)
            }
            FaultKind::Partition { duration, .. }
            | FaultKind::Degrade { duration, .. }
            | FaultKind::Compromise { duration, .. } => at + *duration,
        }
    }
}

/// One scheduled fault: a [`FaultKind`] and the sim instant it fires.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A declarative fault schedule, reproducible and composable.
///
/// A plan is pure data until [`FaultPlan::schedule`] maps it onto a
/// [`Simulator`]; the same plan scheduled onto the same seeded simulator
/// yields a bit-identical run. Plans compose with churn and jammer
/// schedules (they use disjoint hooks) and with each other via
/// [`FaultPlan::merge`].
///
/// # Examples
///
/// ```
/// use iobt_faults::FaultPlan;
/// use iobt_netsim::{SimDuration, SimTime};
/// use iobt_types::NodeId;
///
/// let plan = FaultPlan::new()
///     .crash(SimTime::from_millis(100), NodeId::new(3))
///     .crash_recover(
///         SimTime::from_millis(200),
///         NodeId::new(4),
///         SimDuration::from_millis(50),
///     );
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan.transient_clear_time(), SimTime::from_millis(250));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary fault event.
    pub fn push(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Adds a fail-stop crash of `node` at `at`.
    pub fn crash(self, at: SimTime, node: NodeId) -> Self {
        self.push(
            at,
            FaultKind::Crash {
                node,
                recover_after: None,
            },
        )
    }

    /// Adds a fail-recover crash of `node` at `at`, rebooting
    /// `recover_after` later.
    pub fn crash_recover(self, at: SimTime, node: NodeId, recover_after: SimDuration) -> Self {
        self.push(
            at,
            FaultKind::Crash {
                node,
                recover_after: Some(recover_after),
            },
        )
    }

    /// Adds a region blackout over `rect` at `at`; with `lift_after`
    /// set the blackout lifts that much later.
    pub fn blackout(self, at: SimTime, rect: Rect, lift_after: Option<SimDuration>) -> Self {
        self.push(at, FaultKind::RegionBlackout { rect, lift_after })
    }

    /// Adds a network partition holding for `duration` from `at`.
    pub fn partition(self, at: SimTime, spec: PartitionSpec, duration: SimDuration) -> Self {
        self.push(at, FaultKind::Partition { spec, duration })
    }

    /// Adds a link degradation holding for `duration` from `at`.
    pub fn degrade(self, at: SimTime, spec: LinkDegradation, duration: SimDuration) -> Self {
        self.push(at, FaultKind::Degrade { spec, duration })
    }

    /// Adds a relay compromise holding for `duration` from `at`.
    pub fn compromise(self, at: SimTime, spec: CompromiseSpec, duration: SimDuration) -> Self {
        self.push(at, FaultKind::Compromise { spec, duration })
    }

    /// Appends every event of `other`, preserving both plans' orders.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self
    }

    /// Number of fault events in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The latest instant at which every *transient* fault (one with a
    /// recovery, lift, or expiry) has cleared. Permanent faults
    /// (fail-stop crashes, unlifted blackouts) are excluded: their
    /// damage is the new steady state, not a disturbance that passes.
    /// [`SimTime::ZERO`] when the plan has no transient faults.
    pub fn transient_clear_time(&self) -> SimTime {
        self.events
            .iter()
            .filter(|ev| {
                !matches!(
                    ev.kind,
                    FaultKind::Crash {
                        recover_after: None,
                        ..
                    } | FaultKind::RegionBlackout {
                        lift_after: None,
                        ..
                    }
                )
            })
            .map(|ev| ev.kind.clear_time(ev.at))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Maps every event onto `sim`'s injection hooks and records one
    /// `fault_scheduled` trace event per fault (at the current recorder
    /// time, normally before the run starts).
    ///
    /// Call exactly once per simulator, *before* it runs. In particular,
    /// do **not** call this on a simulator restored from a checkpoint
    /// (`Simulator::restore_state`): the restored event queue already
    /// contains every pending fault event, so scheduling again would
    /// duplicate both the faults and their `fault_scheduled` trace
    /// records and break deterministic resume. The mission runtime's
    /// `MissionRunner::resume` handles this for you.
    pub fn schedule(&self, sim: &mut Simulator) {
        for ev in &self.events {
            let name = ev.kind.name();
            match &ev.kind {
                FaultKind::Crash {
                    node,
                    recover_after,
                } => {
                    sim.schedule_node_down(ev.at, *node);
                    if let Some(d) = recover_after {
                        sim.schedule_node_up(ev.at + *d, *node);
                    }
                }
                FaultKind::RegionBlackout { rect, lift_after } => {
                    let index = sim.add_region_blackout(*rect);
                    sim.schedule_region_outage(ev.at, index);
                    if let Some(d) = lift_after {
                        sim.schedule_region_restore(ev.at + *d, index);
                    }
                }
                FaultKind::Partition { spec, duration } => {
                    let index = sim.add_partition(spec.clone());
                    sim.schedule_partition(ev.at, index, true);
                    sim.schedule_partition(ev.at + *duration, index, false);
                }
                FaultKind::Degrade { spec, duration } => {
                    let index = sim.add_degradation(*spec);
                    sim.schedule_degradation(ev.at, index, true);
                    sim.schedule_degradation(ev.at + *duration, index, false);
                }
                FaultKind::Compromise { spec, duration } => {
                    let index = sim.add_compromise(spec.clone());
                    sim.schedule_compromise(ev.at, index, true);
                    sim.schedule_compromise(ev.at + *duration, index, false);
                }
            }
            sim.recorder().record(TraceEvent::FaultScheduled {
                fault: name,
                at_us: ev.at.as_micros(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_types::{Affiliation, EnergyBudget, NodeCatalog, NodeSpec, Point, Radio, RadioKind};

    fn chain_catalog(n: u64, gap_m: f64) -> NodeCatalog {
        let mut catalog = NodeCatalog::new();
        for i in 0..n {
            catalog
                .insert(
                    NodeSpec::builder(NodeId::new(i))
                        .affiliation(Affiliation::Blue)
                        .position(Point::new(i as f64 * gap_m, 0.0))
                        .radio(Radio::new(RadioKind::Wifi))
                        .energy(EnergyBudget::new(10_000.0))
                        .build(),
                )
                .unwrap();
        }
        catalog
    }

    fn sample_plan() -> FaultPlan {
        FaultPlan::new()
            .crash(SimTime::from_millis(100), NodeId::new(2))
            .crash_recover(
                SimTime::from_millis(150),
                NodeId::new(1),
                SimDuration::from_millis(200),
            )
            .blackout(
                SimTime::from_millis(50),
                Rect::square(40.0),
                Some(SimDuration::from_millis(120)),
            )
            .partition(
                SimTime::from_millis(80),
                PartitionSpec::new([NodeId::new(0)], [NodeId::new(2)]),
                SimDuration::from_millis(60),
            )
            .degrade(
                SimTime::from_millis(30),
                LinkDegradation::new(6.0, 1.5),
                SimDuration::from_millis(500),
            )
            .compromise(
                SimTime::from_millis(10),
                CompromiseSpec::new([NodeId::new(1)], SimDuration::from_millis(5), true),
                SimDuration::from_millis(20),
            )
    }

    #[test]
    fn transient_clear_time_excludes_permanent_faults() {
        // The fail-stop crash at 100ms is permanent; the latest
        // transient clear is still the degrade at 530ms.
        assert_eq!(sample_plan().transient_clear_time(), SimTime::from_millis(530));
        let permanent_only = FaultPlan::new()
            .crash(SimTime::from_millis(100), NodeId::new(0))
            .blackout(SimTime::from_millis(200), Rect::square(10.0), None);
        assert_eq!(permanent_only.transient_clear_time(), SimTime::ZERO);
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<&str> = sample_plan().events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            [
                "crash",
                "crash_recover",
                "region_blackout",
                "partition",
                "degrade",
                "compromise"
            ]
        );
    }

    #[test]
    fn merge_preserves_both_plans() {
        let a = FaultPlan::new().crash(SimTime::from_millis(1), NodeId::new(0));
        let b = FaultPlan::new().crash(SimTime::from_millis(2), NodeId::new(1));
        let merged = a.merge(b);
        assert_eq!(merged.len(), 2);
        assert!(!merged.is_empty());
    }

    #[test]
    fn schedule_drives_every_hook_without_panics() {
        let plan = sample_plan();
        let mut sim = Simulator::builder(chain_catalog(3, 100.0)).seed(5).build();
        plan.schedule(&mut sim);
        sim.run_for(SimDuration::from_millis(800));
        // Node 2 crashed for good; node 1 crashed and recovered; node 0
        // was killed by the blackout at 50ms and revived when it lifted.
        assert!(!sim.is_alive(NodeId::new(2)));
        assert!(sim.is_alive(NodeId::new(1)));
        assert!(sim.is_alive(NodeId::new(0)));
    }

    #[test]
    fn same_plan_same_seed_is_bit_identical() {
        let run = |seed: u64| {
            let plan = sample_plan();
            let mut sim = Simulator::builder(chain_catalog(3, 100.0)).seed(seed).build();
            plan.schedule(&mut sim);
            sim.run_for(SimDuration::from_millis(800));
            sim.stats().to_string()
        };
        assert_eq!(run(9), run(9));
    }
}
