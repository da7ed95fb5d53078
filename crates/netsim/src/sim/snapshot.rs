//! Simulator checkpoint save/restore.
//!
//! [`Simulator::save_state`] serialises *every* determinism-relevant
//! piece of world state — the clock, the event-sequence counter, the
//! RNG stream position, the full event queue (including in-flight
//! messages), per-node mobility/energy/liveness, channel jammers and
//! degradation state, registered fault specs, and each behaviour's
//! state via [`Behavior::save_state`]. A node's radios and transmit
//! power are builder configuration, fixed for the simulator's life, and
//! not saved. [`Simulator::restore_state`]
//! applies such a blob onto a freshly built simulator (same catalog,
//! terrain, and builder configuration) and reconstructs behaviours
//! through a [`BehaviorRegistry`] of factories *without* firing
//! `on_start` again, so a resumed run continues the exact event and
//! RNG sequence of the original.
//!
//! The one piece of derived state handled specially is the
//! connectivity graph: it is a pure function of world state, so the blob
//! records only the slot's disposition byte (see `sim/topology.rs`), and
//! restore brings a graph in step silently (no `GraphRebuilt` trace event
//! — emitting one would make the post-resume trace diverge from the
//! uninterrupted run). The route memo is a pure function of that graph;
//! restore empties it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use iobt_ckpt::{CkptError, Dec, DecodeError, Enc};
use iobt_types::{EnergyBudget, NodeId};

use crate::mobility::MobilityState;
use crate::stats::NetStats;
use crate::time::SimTime;

use super::{
    Behavior, Blackout, CompromiseSpec, Core, Jammer, LinkDegradation, PartitionSpec, Queued,
    Simulator,
};

/// One behaviour's serialised state plus the registry key used to
/// reconstruct it at restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BehaviorSnapshot {
    /// Registry key naming the behaviour's factory (e.g.
    /// `"core.sensor_reporter"`).
    pub kind: String,
    /// Opaque state bytes, fed back through [`Behavior::restore_state`].
    pub state: Vec<u8>,
}

impl BehaviorSnapshot {
    /// Creates a snapshot from a kind and state bytes.
    pub fn new(kind: impl Into<String>, state: Vec<u8>) -> Self {
        BehaviorSnapshot {
            kind: kind.into(),
            state,
        }
    }
}

type BehaviorFactory = Box<dyn Fn() -> Box<dyn Behavior>>;

/// Maps behaviour kinds to factories that build blank instances for
/// [`Simulator::restore_state`] to fill via [`Behavior::restore_state`].
///
/// Factories typically capture shared handles (report logs, task
/// boards) so reconstructed behaviours share state with the runtime
/// exactly like the originals did.
#[derive(Default)]
pub struct BehaviorRegistry {
    factories: BTreeMap<String, BehaviorFactory>,
}

impl BehaviorRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the factory for `kind`.
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        factory: impl Fn() -> Box<dyn Behavior> + 'static,
    ) {
        self.factories.insert(kind.into(), Box::new(factory));
    }

    /// Builds a blank behaviour of `kind`, or `None` for unknown kinds.
    pub fn create(&self, kind: &str) -> Option<Box<dyn Behavior>> {
        self.factories.get(kind).map(|f| f())
    }

    /// Registered kinds, in sorted order.
    pub fn kinds(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }
}

impl fmt::Debug for BehaviorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BehaviorRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

/// Everything that can go wrong saving or restoring a simulator
/// snapshot. Always an `Err`, never a panic — corrupted state must be
/// rejectable.
#[derive(Debug)]
pub enum SnapshotError {
    /// A behaviour returned `None` from [`Behavior::save_state`]; the
    /// simulator cannot be checkpointed with it attached.
    NotCheckpointable(NodeId),
    /// The snapshot bytes are malformed.
    Decode(DecodeError),
    /// The snapshot names a behaviour kind absent from the registry.
    UnknownBehaviorKind(String),
    /// A behaviour rejected its state bytes as malformed.
    BehaviorRestore {
        /// Node the behaviour belongs to.
        node: NodeId,
        /// Registry kind of the behaviour.
        kind: String,
    },
    /// The snapshot references a node id absent from this simulator.
    UnknownNode(u64),
    /// The snapshot disagrees with this simulator (a different node
    /// count).
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NotCheckpointable(node) => {
                write!(f, "behaviour on node {node} does not support checkpointing")
            }
            SnapshotError::Decode(e) => write!(f, "snapshot decode failed: {e}"),
            SnapshotError::UnknownBehaviorKind(kind) => {
                write!(f, "no factory registered for behaviour kind {kind:?}")
            }
            SnapshotError::BehaviorRestore { node, kind } => {
                write!(f, "behaviour {kind:?} on node {node} rejected its state")
            }
            SnapshotError::UnknownNode(raw) => {
                write!(f, "snapshot references unknown node id {raw}")
            }
            SnapshotError::Mismatch(why) => {
                write!(f, "snapshot does not match this simulator: {why}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

impl From<SnapshotError> for CkptError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Decode(d) => CkptError::Decode(d),
            other => CkptError::Mismatch(other.to_string()),
        }
    }
}

impl Simulator {
    /// Serialises the complete determinism-relevant simulator state.
    ///
    /// Fails with [`SnapshotError::NotCheckpointable`] when any
    /// attached behaviour does not implement [`Behavior::save_state`] —
    /// silently dropping behaviour state would produce a checkpoint
    /// that resumes to a *different* run.
    pub fn save_state(&self) -> Result<Vec<u8>, SnapshotError> {
        // Exhaustive-destructure convention: adding a field to
        // `Simulator` or `Core` fails this compile (E0027) until its
        // checkpoint story is written; the mission-level resume-then-step
        // byte test (`tests/checkpoint.rs`) fails on a value lost between
        // here and `restore_state`. `has_started` is derived from
        // `started`; `batch` is a reused scratch buffer, empty between
        // events.
        let Self { core, behaviors, started, has_started: _, batch: _ } = self;
        // Every `Core` field is either serialised below or deliberately
        // excluded as derived (`ids`/`index`, and `topology`, of which
        // only the disposition byte is written), fixed-configuration
        // (`recorder`/`reference_mode`), or reporting-only
        // (`events_processed`, `hop_budgets`) state.
        let Core {
            now: _,
            seq: _,
            queue: _,
            ids: _,
            index: _,
            nodes: _,
            channel: _,
            rng: _,
            stats: _,
            topology: _,
            recorder: _,
            partitions: _,
            degradations: _,
            latency_mult: _,
            compromises: _,
            blackouts: _,
            events_processed: _,
            hop_budgets: _,
            reference_mode: _,
        } = core;
        let mut e = Enc::new();

        // Node-count guard, checked at restore.
        e.usize(core.nodes.len());

        // Clock, event-sequence counter, RNG stream position.
        e.put(&core.now);
        e.u64(core.seq);
        for w in core.rng.state() {
            e.u64(w);
        }

        // Network statistics, the latency sum among them (the digest's
        // mean latency must match bit-for-bit after resume).
        e.put(&core.stats);

        // Per-node mutable state, in dense (id) order and without the id:
        // restore runs on a simulator built from the same catalog, and the
        // guard above carries the count. Radios and transmit power are
        // builder configuration: nothing changes them after the build,
        // and restore runs on a simulator built with the same
        // configuration.
        for n in &core.nodes {
            e.put(&n.mobility);
            e.put(&n.energy);
            e.bool(n.alive);
        }

        // Channel: jammers and composite degradation loss.
        e.seq(core.channel.jammers().iter());
        e.f64(core.channel.extra_loss_db());
        e.f64(core.latency_mult);

        // Registered fault specs and their activation flags.
        e.put(&core.partitions);
        e.put(&core.degradations);
        e.put(&core.compromises);
        e.put(&core.blackouts);

        // Graph disposition (the graph itself is derived state, brought
        // in step silently at restore): 0 = absent, fully stale or not yet
        // announced, 1 = present and clean, 2 = present with a pending
        // liveness patch. The distinction matters because the next graph
        // access after resume must emit (or not emit) a `GraphRebuilt`
        // trace exactly as the uninterrupted run would. Values 0/1
        // coincide with the bool this byte used to be.
        e.u8(core.topology.disposition());

        // The event queue, in deterministic (at, seq) order.
        let mut entries: Vec<&Queued> = core.queue.iter().map(|Reverse(q)| q).collect();
        entries.sort_by_key(|q| (q.at, q.seq));
        e.seq(entries.into_iter());

        // Behaviours, via their save hooks.
        e.usize(behaviors.len());
        for (node, behavior) in behaviors {
            let snap = behavior
                .save_state()
                .ok_or(SnapshotError::NotCheckpointable(*node))?;
            e.put(node);
            e.put(&snap.kind);
            e.bytes(&snap.state);
        }
        e.put(started);

        Ok(e.into_bytes())
    }

    /// Applies a snapshot produced by [`Simulator::save_state`] onto
    /// this simulator, which must have been freshly built from the same
    /// catalog, terrain, and builder configuration. Behaviours are
    /// reconstructed through `registry` *without* firing `on_start`.
    pub fn restore_state(
        &mut self,
        bytes: &[u8],
        registry: &BehaviorRegistry,
    ) -> Result<(), SnapshotError> {
        // Coverage guard (E0027 on a new field; the mission-level
        // resume-then-step byte test in `tests/checkpoint.rs` fails on a
        // value restored wrong): every field's restore story is decided in
        // this fn — `core` is patched in place, `behaviors`/`started` are
        // rebuilt from the blob, `has_started` from `started`, `batch` is
        // scratch.
        let Self { core: _, behaviors: _, started: _, has_started: _, batch: _ } = self;
        let mut d = Dec::new(bytes);

        let node_count = d.usize()?;
        if node_count != self.core.nodes.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {node_count} nodes, simulator has {}",
                self.core.nodes.len()
            )));
        }

        let now: SimTime = d.get()?;
        let seq = d.u64()?;
        let mut rng_state = [0u64; 4];
        for w in &mut rng_state {
            *w = d.u64()?;
        }

        let stats: NetStats = d.get()?;

        struct NodeRestore {
            mobility: MobilityState,
            energy: EnergyBudget,
            alive: bool,
        }
        // `node_count` was checked against this simulator's own above;
        // the i-th entry is the i-th node in dense order.
        let mut node_restores = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            node_restores.push(NodeRestore {
                mobility: d.get()?,
                energy: d.get()?,
                alive: d.bool()?,
            });
        }

        let jammers: Vec<Jammer> = d.get()?;
        let extra_loss_db = d.f64()?;
        let latency_mult = d.f64()?;

        let partitions: Vec<(PartitionSpec, bool)> = d.get()?;
        let degradations: Vec<(LinkDegradation, bool)> = d.get()?;
        let compromises: Vec<(CompromiseSpec, bool)> = d.get()?;
        let blackouts: Vec<Blackout> = d.get()?;

        let graph_cached = match d.u8()? {
            v @ 0..=2 => v,
            tag => {
                return Err(SnapshotError::Decode(DecodeError::UnknownTag {
                    what: "graph cache state",
                    tag,
                }))
            }
        };

        let queue: BinaryHeap<Reverse<Queued>> =
            d.get::<Vec<Queued>>()?.into_iter().map(Reverse).collect();

        let n_behaviors = d.usize()?;
        let mut behaviors: BTreeMap<NodeId, Box<dyn Behavior>> = BTreeMap::new();
        for _ in 0..n_behaviors {
            let node: NodeId = d.get()?;
            let kind: String = d.get()?;
            let state = d.bytes()?;
            if self.core.idx(node).is_none() {
                return Err(SnapshotError::UnknownNode(node.raw()));
            }
            let mut behavior = registry
                .create(&kind)
                .ok_or_else(|| SnapshotError::UnknownBehaviorKind(kind.clone()))?;
            if !behavior.restore_state(state) {
                return Err(SnapshotError::BehaviorRestore { node, kind });
            }
            behaviors.insert(node, behavior);
        }
        let started: Vec<NodeId> = d.get()?;
        d.finish()?;

        // Everything decoded cleanly; now mutate the simulator.
        let core = &mut self.core;
        // While a graph is held the channel and the partitions in force
        // are the ones it was built under (any change drops it), so this
        // compares the RF world of the held graph with the restored one.
        let cut = |ps: &[(PartitionSpec, bool)]| ps.iter().any(|(_, on)| *on);
        let same_rf_world = core.channel.jammers() == jammers.as_slice()
            && core.channel.extra_loss_db() == extra_loss_db.max(0.0)
            && !cut(&core.partitions)
            && !cut(&partitions);
        core.now = now;
        core.seq = seq;
        core.rng = rand::rngs::StdRng::from_state(rng_state);
        core.stats = stats;
        for (n, nr) in core.nodes.iter_mut().zip(node_restores) {
            n.mobility = nr.mobility;
            n.energy = nr.energy;
            n.alive = nr.alive;
        }
        core.channel.replace_jammers(jammers);
        core.channel.set_extra_loss_db(extra_loss_db);
        core.latency_mult = latency_mult;
        core.partitions = partitions;
        core.degradations = degradations;
        core.compromises = compromises;
        core.blackouts = blackouts;
        core.queue = queue;
        let (topology, world, _) = core.topology();
        topology.restore(&world, graph_cached, same_rf_world);
        self.behaviors = behaviors;
        self.has_started.fill(false);
        for &node in &started {
            if let Some(i) = self.core.idx(node) {
                self.has_started[i as usize] = true;
            }
        }
        self.started = started;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use crate::graph::ConnectivityGraph;
    use crate::mobility::MobilityModel;
    use crate::sim::{Context, Event};
    use crate::terrain::Terrain;
    use crate::time::SimDuration;
    use iobt_types::{Affiliation, NodeCatalog, NodeSpec, Point, Radio, RadioKind, Rect};

    fn catalog(n: u64, gap_m: f64) -> NodeCatalog {
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

    /// A checkpointable periodic sender used to exercise behaviour
    /// save/restore.
    struct Beacon {
        target: NodeId,
        period: SimDuration,
        sent: u64,
    }

    impl Behavior for Beacon {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            self.sent += 1;
            ctx.send(self.target, 7, vec![0u8; 32]);
            ctx.set_timer(self.period, 0);
        }
        fn save_state(&self) -> Option<BehaviorSnapshot> {
            let mut e = Enc::new();
            e.u64(self.target.raw());
            e.u64(self.period.as_micros());
            e.u64(self.sent);
            Some(BehaviorSnapshot::new("test.beacon", e.into_bytes()))
        }
        fn restore_state(&mut self, state: &[u8]) -> bool {
            let mut d = Dec::new(state);
            let Ok(target) = d.u64() else { return false };
            let Ok(period) = d.u64() else { return false };
            let Ok(sent) = d.u64() else { return false };
            if d.finish().is_err() {
                return false;
            }
            self.target = NodeId::new(target);
            self.period = SimDuration::from_micros(period);
            self.sent = sent;
            true
        }
    }

    fn beacon_registry() -> BehaviorRegistry {
        let mut reg = BehaviorRegistry::new();
        reg.register("test.beacon", || {
            Box::new(Beacon {
                target: NodeId::new(0),
                period: SimDuration::from_millis(1),
                sent: 0,
            })
        });
        reg
    }

    /// Sends one message at start, its payload whatever the fn passes.
    struct SendOnce(fn(&mut Context<'_>));

    impl Behavior for SendOnce {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            (self.0)(ctx);
        }
        fn save_state(&self) -> Option<BehaviorSnapshot> {
            Some(BehaviorSnapshot::new("test.send_once", Vec::new()))
        }
    }

    /// A message is its length: a snapshot with 4,096 payload bytes in
    /// flight encodes to as many bytes as one with none, what the bytes
    /// say never reaches it, and a `Vec`, a slice and an array of the
    /// same length send the same message.
    #[test]
    fn a_message_in_flight_is_its_length() {
        let in_flight = |send: fn(&mut Context<'_>)| {
            let mut sim = Simulator::builder(catalog(2, 50.0)).seed(3).build();
            sim.set_behavior(NodeId::new(0), Box::new(SendOnce(send)));
            let sizes: Vec<u64> = sim
                .core
                .queue
                .iter()
                .filter_map(|Reverse(q)| match &q.event {
                    Event::Deliver(m) => Some(m.size_bits()),
                    _ => None,
                })
                .collect();
            (sizes, sim.save_state().unwrap())
        };
        let (empty, empty_blob) = in_flight(|ctx| ctx.send(NodeId::new(1), 1, []));
        let (zeros, zeros_blob) = in_flight(|ctx| ctx.send(NodeId::new(1), 1, vec![0u8; 4_096]));
        assert_eq!(empty, [32 * 8]);
        assert_eq!(zeros, [(4_096 + 32) * 8]);
        assert_eq!(zeros_blob.len(), empty_blob.len());
        let (slice, _) = in_flight(|ctx| ctx.send(NodeId::new(1), 1, &vec![7u8; 4_096][..]));
        let (array, array_blob) = in_flight(|ctx| ctx.send(NodeId::new(1), 1, [7u8; 4_096]));
        assert_eq!((slice, array), (zeros.clone(), zeros));
        assert_eq!(array_blob, zeros_blob);
    }

    fn build_sim(seed: u64) -> Simulator {
        let mut sim = Simulator::builder(catalog(4, 80.0))
            .seed(seed)
            .terrain(Terrain::default())
            .build();
        sim.set_behavior(
            NodeId::new(0),
            Box::new(Beacon {
                target: NodeId::new(3),
                period: SimDuration::from_millis(40),
                sent: 0,
            }),
        );
        sim
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        // Uninterrupted reference run.
        let mut reference = build_sim(42);
        reference.run_for(SimDuration::from_secs_f64(8.0));

        // Interrupted run: stop at 3 s, snapshot, restore into a fresh
        // simulator, continue to 8 s.
        let mut first = build_sim(42);
        first.run_for(SimDuration::from_secs_f64(3.0));
        let blob = first.save_state().unwrap();
        drop(first);

        let mut resumed = build_sim(42);
        // Note: build_sim attached a behaviour (whose on_start already
        // fired); restore replaces behaviours and all queued events.
        resumed.restore_state(&blob, &beacon_registry()).unwrap();
        assert_eq!(resumed.now(), SimTime::from_secs_f64(3.0));
        resumed.run_until(SimTime::from_secs_f64(8.0));

        assert_eq!(resumed.stats(), reference.stats());
        for i in 0..4 {
            let id = NodeId::new(i);
            assert_eq!(resumed.position(id), reference.position(id));
            assert_eq!(
                resumed.energy(id).map(|b| b.remaining_j().to_bits()),
                reference.energy(id).map(|b| b.remaining_j().to_bits()),
                "node {i} energy must match bit-for-bit"
            );
        }
        // The RNG stream must be at the same position.
        let a = resumed.save_state().unwrap();
        let b = reference.save_state().unwrap();
        assert_eq!(a, b, "full end state must be byte-identical");
    }

    #[test]
    fn snapshot_roundtrip_is_byte_stable() {
        let mut sim = build_sim(7);
        sim.run_for(SimDuration::from_secs_f64(2.0));
        let blob = sim.save_state().unwrap();
        let mut restored = build_sim(7);
        restored.restore_state(&blob, &beacon_registry()).unwrap();
        let blob2 = restored.save_state().unwrap();
        assert_eq!(blob, blob2, "save → restore → save must be identity");
    }

    #[test]
    fn non_checkpointable_behavior_fails_save() {
        struct Opaque;
        impl Behavior for Opaque {}
        let mut sim = build_sim(1);
        sim.set_behavior(NodeId::new(2), Box::new(Opaque));
        assert!(matches!(
            sim.save_state(),
            Err(SnapshotError::NotCheckpointable(n)) if n == NodeId::new(2)
        ));
    }

    #[test]
    fn unknown_kind_and_node_count_mismatch_are_rejected() {
        let mut sim = build_sim(3);
        sim.run_for(SimDuration::from_millis(100));
        let blob = sim.save_state().unwrap();

        // Empty registry: the beacon kind cannot be reconstructed.
        let mut fresh = build_sim(3);
        assert!(matches!(
            fresh.restore_state(&blob, &BehaviorRegistry::new()),
            Err(SnapshotError::UnknownBehaviorKind(_))
        ));

        // A simulator over a different catalog must refuse the blob.
        let mut other = Simulator::builder(catalog(5, 80.0)).seed(3).build();
        assert!(matches!(
            other.restore_state(&blob, &beacon_registry()),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn truncated_snapshots_never_panic() {
        let mut sim = build_sim(9);
        sim.run_for(SimDuration::from_millis(500));
        let blob = sim.save_state().unwrap();
        for len in 0..blob.len() {
            let mut fresh = build_sim(9);
            assert!(
                fresh.restore_state(&blob[..len], &beacon_registry()).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }
    }

    /// A netsim-only world holding one of everything the blob can carry
    /// that no mission scenario produces: both mobile models mid-leg, a jammer, an active partition, degradation and
    /// compromise, a fired blackout, in-flight messages (tampered and
    /// not) and pending timers.
    fn everything_world() -> Simulator {
        let beacon = |target: u64| {
            Box::new(Beacon {
                target: NodeId::new(target),
                period: SimDuration::from_millis(40),
                sent: 0,
            })
        };
        let mut sim = Simulator::builder(catalog(10, 80.0))
            .seed(23)
            .jammer(Jammer::new(Point::new(400.0, 5_000.0), 0.01))
            .mobility(
                NodeId::new(5),
                MobilityModel::RandomWaypoint {
                    area: Rect::new(Point::new(380.0, -20.0), Point::new(420.0, 20.0)),
                    speed_mps: 3.0,
                    pause_s: 0.5,
                },
            )
            .mobility(
                NodeId::new(6),
                MobilityModel::Route {
                    waypoints: vec![Point::new(490.0, 0.0), Point::new(520.0, 40.0)],
                    speed_mps: 10.0,
                },
            )
            .build();
        // 0 → 2 must relay through the compromised node 1 (160 m is out of
        // wifi range); 3 → 4 are honest neighbours.
        sim.set_behavior(NodeId::new(0), beacon(2));
        sim.set_behavior(NodeId::new(3), beacon(4));
        let at = SimTime::from_millis(100);
        let cut = sim.add_partition(PartitionSpec::new(
            [NodeId::new(0), NodeId::new(1)],
            [NodeId::new(9)],
        ));
        sim.schedule_partition(at, cut, true);
        let weather = sim.add_degradation(LinkDegradation::new(1.5, 2.0));
        sim.schedule_degradation(at, weather, true);
        let relay = sim.add_compromise(CompromiseSpec::new(
            [NodeId::new(1)],
            SimDuration::from_millis(250),
            true,
        ));
        sim.schedule_compromise(at, relay, true);
        let region =
            sim.add_region_blackout(Rect::new(Point::new(600.0, -10.0), Point::new(760.0, 10.0)));
        sim.schedule_region_outage(SimTime::from_millis(500), region);
        sim
    }

    #[test]
    fn everything_world_snapshot_is_pinned() {
        let mut sim = everything_world();
        // Both beacons fire at exactly 2 s, so their sends are in flight.
        sim.run_until(SimTime::from_secs_f64(2.0));
        let blob = sim.save_state().unwrap();

        // The world holds what the comment above promises.
        let core = &sim.core;
        let mid_leg = |i: usize| format!("{:?}", core.nodes[i].mobility);
        assert!(mid_leg(5).contains("target: Some"), "{}", mid_leg(5));
        assert!(mid_leg(6).contains("route_index: 1"), "{}", mid_leg(6));
        assert!(core.partitions[0].1 && core.degradations[0].1 && core.compromises[0].1);
        assert_eq!(core.blackouts[0].affected.len(), 2);
        let in_flight = |tampered: bool| {
            core.queue
                .iter()
                .filter(|Reverse(q)| matches!(&q.event, Event::Deliver(m) if m.tampered() == tampered))
                .count()
        };
        assert!(in_flight(true) > 0 && in_flight(false) > 0);
        assert!(core.queue.iter().any(|Reverse(q)| matches!(q.event, Event::Timer { .. })));
        assert!(core.stats.delivered > 0);

        // Re-recorded when the MAC-retry / mobility-step / idle-drain guard
        // left the snapshot (the previous blob minus its first 20 bytes),
        // when the sleep schedules did (minus each node's schedule: 9
        // one-byte `None`s and node 5's 25-byte `Some`), and when payload
        // bytes did (minus the 32 bytes of each of the 8 messages in
        // flight; node 7's duty cycle, dropped from this world with them,
        // had moved no byte), and when the history did (minus each node's
        // 8-byte id and the per-kind delivered counts, the latency samples
        // replaced by their sum and count: 2,505 → 1,677 bytes).
        assert_eq!(blob.len(), 1_677);
        assert_eq!(iobt_obs::fnv1a(&blob), 0xd6aa_9efa_49e8_fd94);

        let mut restored = everything_world();
        restored.restore_state(&blob, &beacon_registry()).unwrap();
        assert_eq!(restored.save_state().unwrap(), blob, "save → restore → save must be identity");
    }

    /// Crashes a run of `run_s` seconds over `catalog` (built through
    /// `configure`, then `arm`ed with its faults), restores its snapshot
    /// into a fresh simulator whose t = 0 graph was built ahead, and checks
    /// the restored cache against a scratch build of the restored world
    /// the number of nodes the restore found somewhere else or in another
    /// state than at t = 0, and the number of from-scratch builds the
    /// fresh simulator made.
    fn restore_over_primed(
        catalog: NodeCatalog,
        configure: &dyn Fn(crate::sim::SimulatorBuilder) -> crate::sim::SimulatorBuilder,
        arm: &dyn Fn(&mut Simulator),
        cached_at_save: bool,
        expected_changed: usize,
        expected_builds: u64,
    ) {
        let radios: Vec<Rc<[RadioKind]>> = catalog
            .iter()
            .map(|spec| spec.capabilities().radios().iter().map(|r| r.kind()).collect())
            .collect();
        let mut crashed = configure(Simulator::builder(catalog.clone()).seed(5)).build();
        arm(&mut crashed);
        crashed.run_for(SimDuration::from_secs_f64(1.5));
        if cached_at_save {
            crashed.connectivity();
        }
        let blob = crashed.save_state().unwrap();
        crashed.connectivity(); // as `fresh` is asked below

        let mut fresh = configure(Simulator::builder(catalog).seed(5)).build();
        fresh.prime_connectivity();
        assert_eq!(fresh.graph_builds(), 1);
        let state = |sim: &Simulator| -> Vec<(Option<Point>, bool)> {
            sim.core.ids.iter().map(|&id| (sim.position(id), sim.is_alive(id))).collect()
        };
        let at_t0 = state(&fresh);
        fresh.restore_state(&blob, &BehaviorRegistry::new()).unwrap();
        let changed = at_t0.iter().zip(state(&fresh)).filter(|(a, b)| *a != b).count();
        assert_eq!(changed, expected_changed);
        assert_eq!(fresh.save_state().unwrap(), blob, "save → restore → save must be identity");

        let core = &fresh.core;
        let world: Vec<crate::graph::GraphNode> = core
            .nodes
            .iter()
            .zip(radios)
            .map(|(n, radios)| crate::graph::GraphNode {
                id: n.id,
                position: n.mobility.position(),
                radios,
                alive: n.alive && !n.energy.is_depleted(),
            })
            .collect();
        let deny = |x: NodeId, y: NodeId| core.partitions.iter().any(|(p, on)| *on && p.cuts(x, y));
        let scratch = ConnectivityGraph::build_filtered(&world, &core.channel, &deny);
        assert!(scratch.link_count() > 0);
        let restored = fresh.connectivity();
        assert!(restored.same_topology(&scratch), "restored graph diverged from a scratch build");
        assert_eq!(fresh.graph_builds(), expected_builds);
        // The continuation is the uninterrupted run's.
        crashed.run_for(SimDuration::from_secs_f64(2.0));
        fresh.run_for(SimDuration::from_secs_f64(2.0));
        assert_eq!(fresh.save_state().unwrap(), crashed.save_state().unwrap());
    }

    #[test]
    fn restore_patches_the_primed_graph_where_the_world_moved_on() {
        let plain = |b: crate::sim::SimulatorBuilder| b;
        let quiet = |_: &mut Simulator| {};
        // Nothing changed: the graph built ahead is the restored graph.
        restore_over_primed(catalog(12, 80.0), &plain, &quiet, true, 0, 1);
        // One node down (of 12: at most 3 are patched).
        let one_down = |sim: &mut Simulator| {
            sim.schedule_node_down(SimTime::from_millis(100), NodeId::new(4));
        };
        restore_over_primed(catalog(12, 80.0), &plain, &one_down, true, 1, 1);
        // One node depleted by the idle drain of the tick at 1 s.
        let mut weak = catalog(12, 80.0);
        weak.upsert(
            NodeSpec::builder(NodeId::new(7))
                .affiliation(Affiliation::Blue)
                .position(Point::new(7.0 * 80.0, 0.0))
                .radio(Radio::new(RadioKind::Wifi))
                .energy(EnergyBudget::new(0.005))
                .build(),
        );
        restore_over_primed(weak, &plain, &quiet, true, 1, 1);
        // A mover that crosses a spatial-hash cell boundary (240 m is the
        // edge between wifi's 120 m cells 1 and 2).
        let mover = |b: crate::sim::SimulatorBuilder| {
            b.mobility(
                NodeId::new(3),
                MobilityModel::Route { waypoints: vec![Point::new(100.0, 0.0)], speed_mps: 100.0 },
            )
        };
        restore_over_primed(catalog(12, 80.0), &mover, &quiet, true, 1, 1);
    }

    #[test]
    fn restore_rebuilds_when_the_primed_graph_does_not_apply() {
        let plain = |b: crate::sim::SimulatorBuilder| b;
        let quiet = |_: &mut Simulator| {};
        // More than one node in four changed: one build beats the patches.
        let many_down = |sim: &mut Simulator| {
            for i in [1, 4, 7, 10] {
                sim.schedule_node_down(SimTime::from_millis(100), NodeId::new(i));
            }
        };
        restore_over_primed(catalog(12, 80.0), &plain, &many_down, true, 4, 2);
        // The RF world differs: a jammer that came on ...
        let jammer = |b: crate::sim::SimulatorBuilder| {
            let mut j = Jammer::new(Point::new(900.0, 40.0), 0.05);
            j.active = false;
            b.jammer(j)
        };
        let jam = |sim: &mut Simulator| sim.schedule_jammer(SimTime::from_millis(100), 0, true);
        restore_over_primed(catalog(12, 80.0), &jammer, &jam, true, 0, 2);
        // ... the same jammer, still off, which changes nothing ...
        restore_over_primed(catalog(12, 80.0), &jammer, &quiet, true, 0, 1);
        // ... channel-wide extra loss ...
        let degrade = |sim: &mut Simulator| {
            let index = sim.add_degradation(LinkDegradation::new(6.0, 1.5));
            sim.schedule_degradation(SimTime::from_millis(100), index, true);
        };
        restore_over_primed(catalog(12, 80.0), &plain, &degrade, true, 0, 2);
        // ... an active partition ...
        let cut = |sim: &mut Simulator| {
            let halves = PartitionSpec::new((0..6).map(NodeId::new), (6..12).map(NodeId::new));
            let index = sim.add_partition(halves);
            sim.schedule_partition(SimTime::from_millis(100), index, true);
        };
        restore_over_primed(catalog(12, 80.0), &plain, &cut, true, 0, 2);
        // ... and the reference path, which never keeps a graph ahead.
        let reference = |b: crate::sim::SimulatorBuilder| b.reference_mode(true);
        restore_over_primed(catalog(12, 80.0), &reference, &quiet, true, 0, 2);
        // No cached graph in the snapshot: the one built ahead stays, as
        // unseen as it was, and the first access announces it.
        restore_over_primed(catalog(12, 80.0), &plain, &quiet, false, 0, 1);
    }
}
