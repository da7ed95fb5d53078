//! The discrete-event simulator.
//!
//! [`Simulator`] owns a population of nodes (from an
//! [`iobt_types::NodeCatalog`]), a [`Channel`] (terrain + jammers), per-node
//! [mobility](crate::mobility), energy accounting, and a deterministic event
//! queue. Application logic is plugged in as [`Behavior`] implementations;
//! behaviours talk to the world exclusively through a [`Context`].
//!
//! # Examples
//!
//! A ping-pong pair:
//!
//! ```
//! use iobt_netsim::prelude::*;
//! use iobt_types::prelude::*;
//!
//! struct Ping;
//! impl Behavior for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(NodeId::new(1), 0, b"ping");
//!     }
//! }
//!
//! # fn main() {
//! let mut catalog = NodeCatalog::new();
//! for i in 0..2 {
//!     catalog.insert(
//!         NodeSpec::builder(NodeId::new(i))
//!             .affiliation(Affiliation::Blue)
//!             .position(Point::new(i as f64 * 50.0, 0.0))
//!             .radio(Radio::new(RadioKind::Wifi))
//!             .energy(EnergyBudget::new(1_000.0))
//!             .build(),
//!     ).unwrap();
//! }
//! let mut sim = Simulator::builder(catalog).seed(7).build();
//! sim.set_behavior(NodeId::new(0), Box::new(Ping));
//! sim.run_for(SimDuration::from_millis(500));
//! assert_eq!(sim.stats().sent, 1);
//! # }
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::rc::Rc;

use iobt_ckpt::{wire_struct, Dec, DecodeError, Enc, Wire};
use iobt_obs::{DropCause, Recorder, TraceEvent};
use iobt_types::{EnergyBudget, NodeCatalog, NodeId, Point, RadioKind, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod snapshot;
mod topology;

pub use snapshot::{BehaviorRegistry, BehaviorSnapshot, SnapshotError};
use topology::{Topology, World};

use crate::channel::{sample_delivery, Channel, HopBudget, Jammer};
use crate::graph::ConnectivityGraph;
use crate::message::Message;
use crate::mobility::{MobilityModel, MobilityState};
use crate::stats::NetStats;
use crate::terrain::Terrain;
use crate::time::{SimDuration, SimTime};

/// Application logic attached to a node.
///
/// All methods have empty defaults so behaviours implement only what they
/// need. Behaviours must not assume wall-clock time or OS randomness; use
/// [`Context::now`] and [`Context::gen_below`] so runs stay reproducible.
pub trait Behavior {
    /// Called once when the simulation starts (or when the behaviour is
    /// attached to an already-running simulation).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_>, msg: &Message) {
        let _ = (ctx, msg);
    }

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Serialises this behaviour's mutable state for a checkpoint.
    ///
    /// Returns `None` (the default) for behaviours that cannot be
    /// checkpointed — [`Simulator::save_state`] then fails rather than
    /// silently dropping them. Checkpointable behaviours return a
    /// [`BehaviorSnapshot`] whose `kind` names a factory registered in
    /// the [`BehaviorRegistry`] used at restore.
    fn save_state(&self) -> Option<BehaviorSnapshot> {
        None
    }

    /// Restores state captured by [`Behavior::save_state`] into a
    /// freshly constructed instance. Returns `false` when the bytes are
    /// malformed (the restore is then rejected as corrupt). The default
    /// accepts only an empty state, matching stateless behaviours.
    fn restore_state(&mut self, state: &[u8]) -> bool {
        state.is_empty()
    }
}

/// A network-partition cut: while active, no link may cross between
/// group `a` and group `b` (fiber cut, relay sabotage, RF occlusion).
/// Nodes stay alive — only the links between the groups vanish, which is
/// exactly the correlated regime of Farooq & Zhu (arXiv:1703.01224) that
/// point failures cannot express.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    a: BTreeSet<NodeId>,
    b: BTreeSet<NodeId>,
}

wire_struct!(PartitionSpec {
    a,
    b,
});

impl PartitionSpec {
    /// Creates a cut between two groups. Ids present in both groups are
    /// treated as members of `a` only (a node cannot be cut from itself).
    pub fn new(a: impl IntoIterator<Item = NodeId>, b: impl IntoIterator<Item = NodeId>) -> Self {
        let a: BTreeSet<NodeId> = a.into_iter().collect();
        let b = b.into_iter().filter(|id| !a.contains(id)).collect();
        PartitionSpec { a, b }
    }

    /// Whether this cut severs the link `x`–`y`.
    pub fn cuts(&self, x: NodeId, y: NodeId) -> bool {
        (self.a.contains(&x) && self.b.contains(&y)) || (self.a.contains(&y) && self.b.contains(&x))
    }
}

/// A channel-wide link degradation: extra path loss on every link plus a
/// service-time multiplier (weather, obscurants, wide-band interference).
/// Multiple active degradations compose: losses add, multipliers multiply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// Extra path loss applied to every link while active, in dB.
    pub extra_loss_db: f64,
    /// Multiplier on per-hop service time (≥ 1 in practice; values below
    /// are clamped to 1 when applied).
    pub latency_mult: f64,
}

wire_struct!(LinkDegradation {
    extra_loss_db,
    latency_mult,
});

impl LinkDegradation {
    /// Creates a degradation spec; loss clamps to ≥ 0, multiplier to ≥ 1.
    pub fn new(extra_loss_db: f64, latency_mult: f64) -> Self {
        LinkDegradation {
            extra_loss_db: extra_loss_db.max(0.0),
            latency_mult: latency_mult.max(1.0),
        }
    }
}

/// A set of compromised (gray/red) relays: while active, any message
/// routed *through* one of these nodes is delayed by `extra_delay` and,
/// if `tamper` is set, delivered with its integrity flag raised so
/// receivers can discard it (§IV: partially-trusted assets may corrupt
/// what they carry). Messages originating at or addressed to a
/// compromised node are unaffected — the attack is on the relay role.
#[derive(Debug, Clone)]
pub struct CompromiseSpec {
    relays: BTreeSet<NodeId>,
    extra_delay: SimDuration,
    tamper: bool,
}

wire_struct!(CompromiseSpec {
    relays,
    extra_delay,
    tamper,
});

impl CompromiseSpec {
    /// Creates a compromised-relay spec.
    pub fn new(relays: impl IntoIterator<Item = NodeId>, extra_delay: SimDuration, tamper: bool) -> Self {
        CompromiseSpec {
            relays: relays.into_iter().collect(),
            extra_delay,
            tamper,
        }
    }
}

/// A registered region blackout: the rect is fixed at registration, the
/// affected set is resolved from live node positions when the outage
/// fires (mobile nodes are caught where they actually are).
#[derive(Debug, Clone)]
struct Blackout {
    rect: Rect,
    affected: BTreeSet<NodeId>,
}

wire_struct!(Blackout {
    rect,
    affected,
});

/// Per-node runtime state. Stored densely (index order = id order) so
/// the hot path never touches a map; the radio list is shared with every
/// graph snapshot instead of being recloned per rebuild.
#[derive(Debug)]
struct NodeRuntime {
    id: NodeId,
    radios: Rc<[RadioKind]>,
    tx_power_w: f64,
    mobility: MobilityState,
    energy: EnergyBudget,
    alive: bool,
}

impl NodeRuntime {
    /// Whether the node is up (alive and not energy-depleted).
    fn is_up(&self) -> bool {
        self.alive && !self.energy.is_depleted()
    }
}

#[derive(Debug)]
enum Event {
    Deliver(Message),
    Timer { node: NodeId, token: u64 },
    MobilityTick,
    NodeDown(NodeId),
    NodeUp(NodeId),
    SetJammer { index: usize, active: bool },
    SetPartition { index: usize, active: bool },
    SetDegradation { index: usize, active: bool },
    SetCompromise { index: usize, active: bool },
    RegionOutage { index: usize },
    RegionRestore { index: usize },
}

/// A tag byte, then the variant's fields. Tags are the format: a new
/// variant takes the next free one.
impl Wire for Event {
    fn put(&self, e: &mut Enc) {
        match self {
            Event::Deliver(msg) => {
                e.u8(0);
                e.put(msg);
            }
            Event::Timer { node, token } => {
                e.u8(1);
                e.put(node);
                e.u64(*token);
            }
            Event::MobilityTick => e.u8(2),
            Event::NodeDown(id) => {
                e.u8(3);
                e.put(id);
            }
            Event::NodeUp(id) => {
                e.u8(4);
                e.put(id);
            }
            Event::SetJammer { index, active } => {
                e.u8(5);
                e.usize(*index);
                e.bool(*active);
            }
            Event::SetPartition { index, active } => {
                e.u8(6);
                e.usize(*index);
                e.bool(*active);
            }
            Event::SetDegradation { index, active } => {
                e.u8(7);
                e.usize(*index);
                e.bool(*active);
            }
            Event::SetCompromise { index, active } => {
                e.u8(8);
                e.usize(*index);
                e.bool(*active);
            }
            Event::RegionOutage { index } => {
                e.u8(9);
                e.usize(*index);
            }
            Event::RegionRestore { index } => {
                e.u8(10);
                e.usize(*index);
            }
        }
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => Event::Deliver(d.get()?),
            1 => Event::Timer {
                node: d.get()?,
                token: d.u64()?,
            },
            2 => Event::MobilityTick,
            3 => Event::NodeDown(d.get()?),
            4 => Event::NodeUp(d.get()?),
            5 => Event::SetJammer {
                index: d.usize()?,
                active: d.bool()?,
            },
            6 => Event::SetPartition {
                index: d.usize()?,
                active: d.bool()?,
            },
            7 => Event::SetDegradation {
                index: d.usize()?,
                active: d.bool()?,
            },
            8 => Event::SetCompromise {
                index: d.usize()?,
                active: d.bool()?,
            },
            9 => Event::RegionOutage { index: d.usize()? },
            10 => Event::RegionRestore { index: d.usize()? },
            tag => return Err(DecodeError::UnknownTag { what: "event", tag }),
        })
    }
}

struct Queued {
    at: SimTime,
    seq: u64,
    event: Event,
}

wire_struct!(Queued {
    at,
    seq,
    event,
});

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Everything behaviours can observe and do. Obtained only inside
/// [`Behavior`] callbacks.
pub struct Context<'a> {
    core: &'a mut Core,
    node: NodeId,
}

impl<'a> Context<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The node this behaviour runs on.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current position of this node.
    #[expect(clippy::expect_used, reason = "contexts are only constructed for catalog nodes")]
    pub fn position(&self) -> Point {
        self.core.node(self.node).expect("context node exists").mobility.position()
    }

    /// Ids of nodes this node currently has a direct link to.
    pub fn neighbors(&mut self) -> Vec<NodeId> {
        self.core
            .graph()
            .neighbors(self.node)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Sends a unicast message; the network routes it over the current
    /// connectivity graph with per-hop losses, retries, latency, and energy
    /// accounting. Delivery (or drop) happens asynchronously.
    ///
    /// Only the payload's length travels: it sizes the transmission
    /// (airtime, energy, latency), and its contents are never read.
    pub fn send(&mut self, dst: NodeId, kind: u32, payload: impl AsRef<[u8]>) {
        let msg =
            Message::new(self.node, dst, kind, payload.as_ref().len()).stamped(self.core.now);
        self.core.transmit(msg);
    }

    /// Schedules [`Behavior::on_timer`] after `delay` with an opaque token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.core.now + delay;
        self.core.push(at, Event::Timer { node: self.node, token });
    }

    /// The observability recorder, synced to sim time — behaviors can
    /// record their own application-layer events through it.
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// Uniform random integer in `[0, bound)` from the simulation RNG.
    /// Returns 0 when `bound` is 0.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.core.rng.gen_range(0..bound)
        }
    }
}

/// Simulator configuration and construction.
#[derive(Debug)]
pub struct SimulatorBuilder {
    catalog: NodeCatalog,
    terrain: Terrain,
    jammers: Vec<Jammer>,
    mobility: BTreeMap<NodeId, MobilityModel>,
    seed: u64,
    recorder: Recorder,
    reference_mode: bool,
}

impl SimulatorBuilder {
    /// Sets the terrain (default: 1 km × 1 km open ground).
    pub fn terrain(mut self, terrain: Terrain) -> Self {
        self.terrain = terrain;
        self
    }

    /// Adds a jammer present from the start (toggle later via
    /// [`Simulator::schedule_jammer`]).
    pub fn jammer(mut self, jammer: Jammer) -> Self {
        self.jammers.push(jammer);
        self
    }

    /// Assigns a mobility model to one node (default: static).
    pub fn mobility(mut self, node: NodeId, model: MobilityModel) -> Self {
        self.mobility.insert(node, model);
        self
    }

    /// Seeds the simulation RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an observability recorder (default: disabled). The
    /// simulator stamps the recorder's clock with sim time as events
    /// dispatch and emits `netsim.*` trace events; a disabled recorder
    /// costs one branch per site.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the simulator on the reference path: one event per pop, a
    /// full graph rebuild on every invalidation (never a patch, never a
    /// graph kept ahead of its first access) and a search for every route
    /// (default: off). Results are bit-identical either way — this
    /// exists so the equivalence tests can compare the optimized hot
    /// path against the straightforward implementation in-process.
    pub fn reference_mode(mut self, on: bool) -> Self {
        self.reference_mode = on;
        self
    }

    /// Builds the simulator. Behaviours are attached afterwards with
    /// [`Simulator::set_behavior`].
    pub fn build(self) -> Simulator {
        let mut channel = Channel::new(self.terrain);
        for j in self.jammers {
            channel.add_jammer(j);
        }
        // Dense node storage: index order = catalog (id) order. The id
        // universe is fixed for the simulator's lifetime and shared with
        // every connectivity graph, so graph index i and node index i
        // always name the same node.
        let mut ids: Vec<NodeId> = Vec::with_capacity(self.catalog.len());
        let mut nodes: Vec<NodeRuntime> = Vec::with_capacity(self.catalog.len());
        for spec in self.catalog.iter() {
            let model = self
                .mobility
                .get(&spec.id())
                .cloned()
                .unwrap_or(MobilityModel::Static);
            let tx_power_w = spec
                .capabilities()
                .radios()
                .iter()
                .map(|r| r.kind().tx_power_w())
                .fold(0.0, f64::max);
            ids.push(spec.id());
            nodes.push(NodeRuntime {
                id: spec.id(),
                radios: spec
                    .capabilities()
                    .radios()
                    .iter()
                    .map(|r| r.kind())
                    .collect::<Vec<_>>()
                    .into(),
                tx_power_w,
                mobility: MobilityState::new(model, spec.position()),
                energy: spec.energy(),
                alive: true,
            });
        }
        let index: BTreeMap<NodeId, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        let mut core = Core {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            ids: ids.into(),
            index: Rc::new(index),
            nodes,
            channel,
            rng: StdRng::seed_from_u64(self.seed),
            stats: NetStats::new(),
            topology: Topology::new(self.reference_mode),
            recorder: self.recorder,
            partitions: Vec::new(),
            degradations: Vec::new(),
            latency_mult: 1.0,
            compromises: Vec::new(),
            blackouts: Vec::new(),
            events_processed: 0,
            hop_budgets: (0, 0),
            reference_mode: self.reference_mode,
        };
        core.push(SimTime::ZERO + MOBILITY_STEP, Event::MobilityTick);
        let has_started = vec![false; core.nodes.len()];
        Simulator {
            core,
            behaviors: BTreeMap::new(),
            started: Vec::new(),
            has_started,
            batch: Vec::new(),
        }
    }
}

/// Internal mutable world state shared with behaviour contexts.
struct Core {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Queued>>,
    /// Node ids in index order (sorted); shared with every graph.
    ids: Rc<[NodeId]>,
    /// `NodeId → dense index`, fixed at construction; shared with every
    /// graph so both sides agree on what index `i` means.
    index: Rc<BTreeMap<NodeId, u32>>,
    /// Dense per-node runtime state, parallel to `ids`.
    nodes: Vec<NodeRuntime>,
    channel: Channel,
    rng: StdRng,
    stats: NetStats,
    /// The connectivity graph and everything derived from it.
    topology: Topology,
    recorder: Recorder,
    partitions: Vec<(PartitionSpec, bool)>,
    degradations: Vec<(LinkDegradation, bool)>,
    /// Product of active degradation multipliers, cached on toggle.
    latency_mult: f64,
    compromises: Vec<(CompromiseSpec, bool)>,
    blackouts: Vec<Blackout>,
    /// Events dispatched since construction. Reporting-only (throughput
    /// harnesses); deliberately excluded from checkpoints and digests.
    events_processed: u64,
    /// `(hops, computed)`: hops that found their link, and the hop
    /// budgets computed for them. Reporting-only, like
    /// `events_processed`.
    hop_budgets: (u64, u64),
    /// Legacy execution path for equivalence testing; see
    /// [`SimulatorBuilder::reference_mode`].
    reference_mode: bool,
}

/// Interval between mobility / connectivity updates (and idle drain).
const MOBILITY_STEP: SimDuration = SimDuration::from_millis(1_000);
/// Per-hop MAC retries: a hop is attempted at most `MAC_RETRIES + 1`
/// times.
const MAC_RETRIES: u32 = 3;
/// Idle power draw per live node, in watts.
const IDLE_DRAIN_W: f64 = 0.01;

/// Base MAC backoff before the first retransmission, in seconds.
pub const MAC_BACKOFF_BASE_S: f64 = 0.0005;
/// Cap on the per-attempt MAC backoff, in seconds.
pub const MAC_BACKOFF_CAP_S: f64 = 0.004;

/// Deterministic capped exponential MAC backoff for `attempt` (1-based):
/// 0.5 ms, 1 ms, 2 ms, 4 ms, 4 ms, … Replaces the old per-attempt random
/// service draw so hop latency is a pure function of the attempt count.
pub fn mac_backoff_s(attempt: u32) -> f64 {
    let exp = attempt.saturating_sub(1).min(30);
    (MAC_BACKOFF_BASE_S * f64::from(1u32 << exp)).min(MAC_BACKOFF_CAP_S)
}

impl Core {
    fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Queued { at, seq, event }));
    }

    /// Dense index of a node id, if the node exists.
    fn idx(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Node runtime by id, if the node exists.
    fn node(&self, id: NodeId) -> Option<&NodeRuntime> {
        self.idx(id).map(|i| &self.nodes[i as usize])
    }

    /// Whether the node is up (alive and not energy-depleted).
    fn is_up(&self, id: NodeId) -> bool {
        self.node(id).is_some_and(NodeRuntime::is_up)
    }

    /// The topology slot beside the world it is a function of and the
    /// recorder its accesses announce themselves to.
    #[inline]
    fn topology(&mut self) -> (&mut Topology, World<'_>, &Recorder) {
        let world = World {
            ids: &self.ids,
            index: &self.index,
            nodes: &self.nodes,
            channel: &self.channel,
            partitions: &self.partitions,
        };
        (&mut self.topology, world, &self.recorder)
    }

    /// The up-to-date connectivity graph, announced.
    #[inline]
    fn graph(&mut self) -> &Rc<ConnectivityGraph> {
        let (topology, world, recorder) = self.topology();
        topology.access(&world, recorder)
    }

    /// Simulates a unicast transmission hop by hop and schedules delivery
    /// or records the drop.
    fn transmit(&mut self, msg: Message) {
        self.stats.sent += 1;
        self.recorder.record(TraceEvent::MsgSent {
            from: msg.src().raw(),
            to: msg.dst().raw(),
        });
        let (src, dst) = (self.idx(msg.src()), self.idx(msg.dst()));
        let (Some(src), Some(dst)) = (src, dst) else {
            self.drop_message(&msg, DropCause::Dead);
            return;
        };
        if !self.nodes[src as usize].is_up() || !self.nodes[dst as usize].is_up() {
            self.drop_message(&msg, DropCause::Dead);
            return;
        }
        // The path is an owned buffer: the hop walk below may refresh the
        // graph and with it empty the memo. The reference path takes no
        // shortcut: it searches every time, unbounded.
        let shortcuts = !self.reference_mode;
        let (topology, world, recorder) = self.topology();
        let route = topology.route(&world, recorder, src, dst, shortcuts);
        let Some(route) = route else {
            self.drop_message(&msg, DropCause::NoRoute);
            return;
        };
        let size_bits = msg.size_bits();
        let mut latency = SimDuration::ZERO;
        let mut success = true;
        for hop in route.windows(2) {
            let (from, to) = (hop[0], hop[1]);
            // Re-check the link against the *current* graph each hop: a
            // relay may deplete mid-message, and the refreshed topology
            // must be consulted exactly as the legacy rebuild-per-hop did.
            // The fast path reads the hop budget the link's entry keeps;
            // the reference path walks the terrain for it every hop.
            let hop = {
                let (topology, world, recorder) = self.topology();
                let graph = topology.access(&world, recorder);
                let at = |i: u32| world.nodes[i as usize].mobility.position();
                if shortcuts {
                    let hop = graph.hop_idx(from, to, world.channel);
                    debug_assert!(hop.is_none_or(|(link, budget, _)| {
                        let fresh = world.channel.hop_budget(at(from), at(to), link.radio);
                        (budget.sinr_db.to_bits(), budget.clutter)
                            == (fresh.sinr_db.to_bits(), fresh.clutter)
                    }), "a kept hop budget differs from a fresh terrain walk");
                    hop
                } else {
                    graph.link_idx(from, to).map(|link| {
                        (link, world.channel.hop_budget(at(from), at(to), link.radio), true)
                    })
                }
            };
            let Some((link, budget, computed)) = hop else {
                self.recorder.record(TraceEvent::RouteFallback {
                    from: self.ids[from as usize].raw(),
                    to: self.ids[to as usize].raw(),
                });
                success = false;
                break;
            };
            self.hop_budgets.0 += 1;
            self.hop_budgets.1 += u64::from(computed);
            let (hop_ok, attempts) = self.attempt_hop(budget);
            self.stats.hop_attempts += u64::from(attempts);
            self.stats.retransmits += u64::from(attempts.saturating_sub(1));
            let tx_time_s = size_bits as f64 / (link.radio.bandwidth_kbps() * 1_000.0);
            // Propagation is negligible at these ranges; each attempt pays
            // its transmission time plus a deterministic capped exponential
            // MAC backoff, scaled by any active link-degradation multiplier.
            let service_s: f64 = (1..=attempts)
                .map(|k| tx_time_s + mac_backoff_s(k))
                .sum();
            latency = latency + SimDuration::from_secs_f64(service_s * self.latency_mult);
            // Energy: transmitter pays per attempt, receiver pays once.
            let tx_energy = self.nodes[from as usize].tx_power_w * tx_time_s * attempts as f64;
            self.drain(from, tx_energy);
            self.drain(to, 0.5 * link.radio.tx_power_w() * tx_time_s);
            if !hop_ok {
                success = false;
                break;
            }
        }
        if success {
            let mut msg = msg;
            // Compromised-relay faults act on the *relay role*: the first
            // active compromised node strictly inside the route delays the
            // message and (optionally) corrupts it.
            let interdiction = route
                .iter()
                .skip(1)
                .take(route.len().saturating_sub(2))
                .map(|&i| self.ids[i as usize])
                .find_map(|relay| {
                    self.compromises
                        .iter()
                        .find(|(spec, on)| *on && spec.relays.contains(&relay))
                        .map(|(spec, _)| (relay, spec.extra_delay, spec.tamper))
                });
            if let Some((relay, extra_delay, tamper)) = interdiction {
                latency = latency + extra_delay;
                if tamper {
                    msg.mark_tampered();
                    self.stats.tampered += 1;
                    self.recorder.record(TraceEvent::MsgTampered {
                        from: msg.src().raw(),
                        to: msg.dst().raw(),
                        relay: relay.raw(),
                    });
                }
            }
            let at = self.now + latency;
            self.push(at, Event::Deliver(msg));
        } else {
            self.drop_message(&msg, DropCause::Channel);
        }
        self.topology.recycle(route);
    }

    /// The single place a message death is accounted: increments the
    /// total drop counter and exactly one per-cause counter, and emits
    /// the trace event. Both the synchronous transmit path and the
    /// deferred delivery path route through here, so `dropped` always
    /// equals the sum of the per-cause counters.
    fn drop_message(&mut self, msg: &Message, cause: DropCause) {
        self.stats.dropped += 1;
        match cause {
            DropCause::NoRoute => self.stats.dropped_no_route += 1,
            DropCause::Channel => self.stats.dropped_channel += 1,
            DropCause::Dead => self.stats.dropped_dead += 1,
        }
        self.recorder.record(TraceEvent::MsgDropped {
            from: msg.src().raw(),
            to: msg.dst().raw(),
            cause,
        });
    }

    /// Tries a hop up to `MAC_RETRIES + 1` times; returns success and the
    /// number of attempts consumed. Nothing moves between attempts, so
    /// each attempt only samples the hop's budget.
    fn attempt_hop(&mut self, budget: HopBudget) -> (bool, u32) {
        for attempt in 1..=(MAC_RETRIES + 1) {
            let p = sample_delivery(&mut self.rng, budget);
            if self.rng.gen::<f64>() < p {
                return (true, attempt);
            }
        }
        (false, MAC_RETRIES + 1)
    }

    fn drain(&mut self, i: u32, joules: f64) {
        let n = &mut self.nodes[i as usize];
        n.energy.drain(joules);
        self.stats.energy_spent_j += joules;
        if self.nodes[i as usize].energy.is_depleted() && self.nodes[i as usize].alive {
            self.nodes[i as usize].alive = false;
            self.topology.invalidate_node(i);
            let node = self.ids[i as usize].raw();
            self.recorder.record(TraceEvent::NodeDepleted { node });
        }
    }

    fn mobility_tick(&mut self) {
        let dt = MOBILITY_STEP.as_secs_f64();
        let mut movers: Vec<u32> = Vec::new();
        for i in 0..self.nodes.len() {
            // Split borrow: temporarily move mobility state out so the
            // model can draw from the shared RNG.
            let mut mob = std::mem::replace(
                &mut self.nodes[i].mobility,
                MobilityState::new(MobilityModel::Static, Point::ORIGIN),
            );
            let before = mob.position();
            mob.step(&mut self.rng, dt);
            if mob.position() != before {
                movers.push(i as u32);
            }
            self.nodes[i].mobility = mob;
            if self.nodes[i].alive {
                let idle = IDLE_DRAIN_W * dt;
                self.nodes[i].energy.drain(idle);
                self.stats.energy_spent_j += idle;
                if self.nodes[i].energy.is_depleted() {
                    self.nodes[i].alive = false;
                    self.topology.invalidate_node(i as u32);
                    let node = self.ids[i].raw();
                    self.recorder.record(TraceEvent::NodeDepleted { node });
                }
            }
        }
        // A tick over an all-static fleet refreshes liveness only; nodes
        // that moved (dead ones too) are re-filed and relinked with it.
        self.topology.invalidate_moved(movers);
        self.recorder
            .set_gauge("netsim.energy_spent_j", self.stats.energy_spent_j);
        let next = self.now + MOBILITY_STEP;
        self.push(next, Event::MobilityTick);
    }
}

/// The battlefield network simulator. See the [module docs](self) for an
/// end-to-end example.
pub struct Simulator {
    core: Core,
    behaviors: BTreeMap<NodeId, Box<dyn Behavior>>,
    /// Nodes whose behaviour's `on_start` has fired, in firing order.
    started: Vec<NodeId>,
    /// Per dense index, whether the node is in `started`; derived from
    /// it, so a restore rebuilds it.
    has_started: Vec<bool>,
    /// Reused buffer for same-timestamp event batches in the run loop.
    batch: Vec<Event>,
}

impl Simulator {
    /// Starts building a simulator over a node catalog.
    pub fn builder(catalog: NodeCatalog) -> SimulatorBuilder {
        SimulatorBuilder {
            catalog,
            terrain: Terrain::default(),
            jammers: Vec::new(),
            mobility: BTreeMap::new(),
            seed: 0,
            recorder: Recorder::disabled(),
            reference_mode: false,
        }
    }

    /// Attaches (or replaces) the behaviour of a node. `on_start` fires at
    /// the current simulation time.
    pub fn set_behavior(&mut self, node: NodeId, behavior: Box<dyn Behavior>) {
        self.behaviors.insert(node, behavior);
        if let Some(i) = self.core.idx(node) {
            if std::mem::take(&mut self.has_started[i as usize]) {
                self.started.retain(|&n| n != node);
            }
        }
        self.dispatch_start(node);
    }

    /// `node`'s dense index, while its behaviour has yet to start.
    fn unstarted(&self, node: NodeId) -> Option<u32> {
        self.core.idx(node).filter(|&i| !self.has_started[i as usize])
    }

    fn dispatch_start(&mut self, node: NodeId) {
        let Some(i) = self.unstarted(node) else {
            return;
        };
        if let Some(mut b) = self.behaviors.remove(&node) {
            let mut ctx = Context {
                core: &mut self.core,
                node,
            };
            b.on_start(&mut ctx);
            self.behaviors.insert(node, b);
            self.started.push(node);
            self.has_started[i as usize] = true;
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Accumulated network statistics.
    pub fn stats(&self) -> &NetStats {
        &self.core.stats
    }

    /// Events dispatched by the event loop since construction. A
    /// throughput denominator for scale harnesses; not part of any
    /// digest or checkpoint, so resumed runs restart the count.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// `(queries, hits)`: routes asked for by sends since construction,
    /// and how many of them were answered from the per-source route memo
    /// instead of a search. Reporting-only, like
    /// [`Simulator::events_processed`]: in no digest, fingerprint or
    /// checkpoint.
    pub fn route_memo_counts(&self) -> (u64, u64) {
        self.core.topology.route_memo_counts()
    }

    /// `(hops, computed)`: hops since construction that found their link,
    /// and how many of them computed the link's hop budget (a terrain
    /// walk and two `log10`s) rather than reading the one its adjacency
    /// entry kept. Equal on the reference path, which computes every
    /// one. Reporting-only, like [`Simulator::route_memo_counts`].
    pub fn hop_budget_counts(&self) -> (u64, u64) {
        self.core.hop_budgets
    }

    /// `(tables, bounded)`: destinations' reverse-distance tables built
    /// since construction (each one full search from its destination),
    /// and route searches run with one — every search toward a
    /// destination that has earned a table on the graph as it stands.
    /// Zero on the reference path. Reporting-only, like
    /// [`Simulator::route_memo_counts`].
    pub fn route_bound_counts(&self) -> (u64, u64) {
        self.core.topology.route_bound_counts()
    }

    /// From-scratch connectivity-graph builds since construction (not
    /// patches, not a debug build's cross-checks). Reporting-only, like
    /// [`Simulator::events_processed`].
    pub fn graph_builds(&self) -> u64 {
        self.core.topology.builds()
    }

    /// The observability recorder this simulator records into (disabled
    /// unless one was attached via [`SimulatorBuilder::recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// Whether a node is up (alive and not energy-depleted).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.core.is_up(node)
    }

    /// Current position of a node, or `None` for unknown ids.
    pub fn position(&self, node: NodeId) -> Option<Point> {
        self.core.node(node).map(|n| n.mobility.position())
    }

    /// Remaining energy of a node, or `None` for unknown ids.
    pub fn energy(&self, node: NodeId) -> Option<EnergyBudget> {
        self.core.node(node).map(|n| n.energy)
    }

    /// A shared handle to the current connectivity graph snapshot.
    ///
    /// O(1) when the cached graph is fresh: the handle is refcounted,
    /// not a deep copy. The snapshot is frozen at this instant — the
    /// simulator copies-on-write before mutating its own graph, so the
    /// handle never changes underneath the caller.
    pub fn connectivity(&mut self) -> Rc<ConnectivityGraph> {
        Rc::clone(self.core.graph())
    }

    /// [`Simulator::connectivity`] without the side effects: the held
    /// graph brought in step with the world as it stands, or one built if
    /// none is held, but no `GraphRebuilt` is recorded and a snapshot reads
    /// as it did. A graph built here is kept: the first real access records
    /// its `GraphRebuilt` instead of building, node changes until then are
    /// patched into it, and [`Simulator::restore_state`] patches it to the
    /// restored world.
    pub fn prime_connectivity(&mut self) -> Rc<ConnectivityGraph> {
        let (topology, world, _) = self.core.topology();
        topology.peek(&world)
    }

    /// Schedules a node failure at `at` (battle damage, crash).
    pub fn schedule_node_down(&mut self, at: SimTime, node: NodeId) {
        self.core.push(at, Event::NodeDown(node));
    }

    /// Schedules a node recovery at `at`.
    pub fn schedule_node_up(&mut self, at: SimTime, node: NodeId) {
        self.core.push(at, Event::NodeUp(node));
    }

    /// Schedules toggling jammer `index` (as returned by
    /// [`SimulatorBuilder::jammer`] insertion order) at `at`.
    pub fn schedule_jammer(&mut self, at: SimTime, index: usize, active: bool) {
        self.core.push(at, Event::SetJammer { index, active });
    }

    /// Registers a partition cut (inactive), returning its index for
    /// [`Simulator::schedule_partition`].
    pub fn add_partition(&mut self, spec: PartitionSpec) -> usize {
        self.core.partitions.push((spec, false));
        self.core.partitions.len() - 1
    }

    /// Schedules activating or clearing partition `index` at `at`.
    pub fn schedule_partition(&mut self, at: SimTime, index: usize, active: bool) {
        self.core.push(at, Event::SetPartition { index, active });
    }

    /// Registers a link degradation (inactive), returning its index for
    /// [`Simulator::schedule_degradation`].
    pub fn add_degradation(&mut self, spec: LinkDegradation) -> usize {
        self.core.degradations.push((spec, false));
        self.core.degradations.len() - 1
    }

    /// Schedules activating or clearing link degradation `index` at `at`.
    /// Active degradations compose: losses add, multipliers multiply.
    pub fn schedule_degradation(&mut self, at: SimTime, index: usize, active: bool) {
        self.core.push(at, Event::SetDegradation { index, active });
    }

    /// Registers a compromised-relay spec (inactive), returning its index
    /// for [`Simulator::schedule_compromise`].
    pub fn add_compromise(&mut self, spec: CompromiseSpec) -> usize {
        self.core.compromises.push((spec, false));
        self.core.compromises.len() - 1
    }

    /// Schedules activating or clearing compromise `index` at `at`.
    pub fn schedule_compromise(&mut self, at: SimTime, index: usize, active: bool) {
        self.core.push(at, Event::SetCompromise { index, active });
    }

    /// Registers a region blackout over `rect`, returning its index for
    /// [`Simulator::schedule_region_outage`] /
    /// [`Simulator::schedule_region_restore`].
    pub fn add_region_blackout(&mut self, rect: Rect) -> usize {
        self.core.blackouts.push(Blackout {
            rect,
            affected: BTreeSet::new(),
        });
        self.core.blackouts.len() - 1
    }

    /// Schedules blackout `index` to fire at `at`: every alive node
    /// inside the rect at that instant goes down together.
    pub fn schedule_region_outage(&mut self, at: SimTime, index: usize) {
        self.core.push(at, Event::RegionOutage { index });
    }

    /// Schedules lifting blackout `index` at `at`: nodes it killed are
    /// revived unless they depleted in the meantime.
    pub fn schedule_region_restore(&mut self, at: SimTime, index: usize) {
        self.core.push(at, Event::RegionRestore { index });
    }

    /// Runs until the queue is empty or `deadline` is reached; the clock
    /// ends at `deadline` (or the last event time if the queue drains).
    pub fn run_until(&mut self, deadline: SimTime) {
        // Fire on_start for behaviours attached before the first run.
        let pending: Vec<NodeId> = self
            .behaviors
            .keys()
            .copied()
            .filter(|&n| self.unstarted(n).is_some())
            .collect();
        for n in pending {
            self.dispatch_start(n);
        }
        if self.core.reference_mode {
            // Legacy single-pop dispatch, kept verbatim as the oracle the
            // batched loop is tested against.
            while let Some(Reverse(next)) = self.core.queue.peek() {
                if next.at > deadline {
                    break;
                }
                #[expect(clippy::expect_used, reason = "the loop condition peeked this entry, so pop cannot fail")]
                let Reverse(q) = self.core.queue.pop().expect("peeked");
                self.core.now = q.at;
                // Stamp the shared observability clock before dispatching so
                // every event recorded downstream carries this sim time.
                self.core.recorder.set_time_us(q.at.as_micros());
                self.core.events_processed += 1;
                self.handle(q.event);
            }
        } else {
            // Batched dispatch: drain every event sharing the head
            // timestamp in one pass (heap pops yield them in seq order,
            // i.e. schedule order), stamp the observability clock once,
            // then dispatch in order. Events scheduled *at* the current
            // timestamp during dispatch are picked up by the next outer
            // iteration — after the in-flight batch, exactly where the
            // one-at-a-time loop would have popped them.
            let mut batch = std::mem::take(&mut self.batch);
            loop {
                let at = match self.core.queue.peek() {
                    Some(Reverse(head)) if head.at <= deadline => head.at,
                    _ => break,
                };
                self.core.now = at;
                self.core.recorder.set_time_us(at.as_micros());
                while let Some(Reverse(head)) = self.core.queue.peek() {
                    if head.at != at {
                        break;
                    }
                    #[expect(clippy::expect_used, reason = "the loop condition peeked this entry, so pop cannot fail")]
                    let Reverse(q) = self.core.queue.pop().expect("peeked");
                    batch.push(q.event);
                }
                for event in batch.drain(..) {
                    self.core.events_processed += 1;
                    self.handle(event);
                }
            }
            self.batch = batch;
        }
        if self.core.now < deadline {
            self.core.now = deadline;
            self.core.recorder.set_time_us(deadline.as_micros());
        }
    }

    /// Runs for a duration from the current time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.core.now + duration;
        self.run_until(deadline);
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Deliver(msg) => {
                if !self.core.is_up(msg.dst()) {
                    self.core.drop_message(&msg, DropCause::Dead);
                    return;
                }
                self.core.stats.delivered += 1;
                let latency = self.core.now.saturating_since(msg.sent_at());
                self.core.stats.latency_ms.record(latency.as_millis_f64());
                self.core.recorder.record(TraceEvent::MsgDelivered {
                    from: msg.src().raw(),
                    to: msg.dst().raw(),
                    latency_us: latency.as_micros(),
                });
                *self
                    .core
                    .stats
                    .delivered_by_kind
                    .entry(msg.kind())
                    .or_insert(0) += 1;
                let dst = msg.dst();
                if let Some(mut b) = self.behaviors.remove(&dst) {
                    let mut ctx = Context {
                        core: &mut self.core,
                        node: dst,
                    };
                    b.on_message(&mut ctx, &msg);
                    self.behaviors.insert(dst, b);
                }
            }
            Event::Timer { node, token } => {
                if !self.core.is_up(node) {
                    return;
                }
                if let Some(mut b) = self.behaviors.remove(&node) {
                    let mut ctx = Context {
                        core: &mut self.core,
                        node,
                    };
                    b.on_timer(&mut ctx, token);
                    self.behaviors.insert(node, b);
                }
            }
            Event::MobilityTick => self.core.mobility_tick(),
            Event::NodeDown(id) => {
                if let Some(i) = self.core.idx(id) {
                    self.core.nodes[i as usize].alive = false;
                    self.core.topology.invalidate_node(i);
                    self.core
                        .recorder
                        .record(TraceEvent::NodeDown { node: id.raw() });
                }
            }
            Event::NodeUp(id) => {
                if let Some(i) = self.core.idx(id) {
                    if !self.core.nodes[i as usize].energy.is_depleted() {
                        self.core.nodes[i as usize].alive = true;
                        self.core.topology.invalidate_node(i);
                        self.core
                            .recorder
                            .record(TraceEvent::NodeUp { node: id.raw() });
                    }
                }
            }
            Event::SetJammer { index, active } => {
                self.core.channel.set_jammer_active(index, active);
                self.core.topology.invalidate_all();
                self.core.recorder.record(TraceEvent::JammerSet {
                    index: index as u64,
                    on: active,
                });
            }
            Event::SetPartition { index, active } => {
                if let Some(p) = self.core.partitions.get_mut(index) {
                    p.1 = active;
                    self.core.topology.invalidate_all();
                    self.core.recorder.record(TraceEvent::PartitionSet {
                        index: index as u64,
                        on: active,
                    });
                }
            }
            Event::SetDegradation { index, active } => {
                if let Some(d) = self.core.degradations.get_mut(index) {
                    d.1 = active;
                    let spec = d.0;
                    let mut loss = 0.0;
                    let mut mult = 1.0;
                    for (s, on) in &self.core.degradations {
                        if *on {
                            loss += s.extra_loss_db.max(0.0);
                            mult *= s.latency_mult.max(1.0);
                        }
                    }
                    self.core.channel.set_extra_loss_db(loss);
                    self.core.latency_mult = mult;
                    self.core.topology.invalidate_all();
                    self.core.recorder.record(TraceEvent::DegradeSet {
                        index: index as u64,
                        on: active,
                        extra_loss_db: spec.extra_loss_db,
                        latency_mult: spec.latency_mult,
                    });
                }
            }
            Event::SetCompromise { index, active } => {
                if let Some(c) = self.core.compromises.get_mut(index) {
                    c.1 = active;
                    self.core.recorder.record(TraceEvent::CompromiseSet {
                        index: index as u64,
                        on: active,
                    });
                }
            }
            Event::RegionOutage { index } => {
                let Some(rect) = self.core.blackouts.get(index).map(|b| b.rect) else {
                    return;
                };
                // Membership is resolved at fire time so mobile nodes are
                // caught wherever they actually are. Dense iteration is
                // id-ascending, matching the legacy map order.
                let mut killed = BTreeSet::new();
                for (i, n) in self.core.nodes.iter_mut().enumerate() {
                    if n.is_up() && rect.contains(n.mobility.position()) {
                        n.alive = false;
                        self.core.topology.invalidate_node(i as u32);
                        killed.insert(n.id);
                    }
                }
                for id in &killed {
                    self.core
                        .recorder
                        .record(TraceEvent::NodeDown { node: id.raw() });
                }
                self.core.recorder.record(TraceEvent::RegionOutage {
                    index: index as u64,
                    killed: killed.len() as u64,
                });
                self.core.blackouts[index].affected = killed;
            }
            Event::RegionRestore { index } => {
                let Some(b) = self.core.blackouts.get_mut(index) else {
                    return;
                };
                let affected = std::mem::take(&mut b.affected);
                let mut revived = 0u64;
                for id in &affected {
                    if let Some(i) = self.core.idx(*id) {
                        // Energy depletion during the outage is permanent.
                        let n = &mut self.core.nodes[i as usize];
                        if !n.energy.is_depleted() && !n.alive {
                            n.alive = true;
                            revived += 1;
                            self.core.topology.invalidate_node(i);
                            self.core
                                .recorder
                                .record(TraceEvent::NodeUp { node: id.raw() });
                        }
                    }
                }
                self.core.recorder.record(TraceEvent::RegionRestore {
                    index: index as u64,
                    revived,
                });
            }
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.core.now)
            .field("nodes", &self.core.nodes.len())
            .field("behaviors", &self.behaviors.len())
            .field("stats", &self.core.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_types::{Affiliation, NodeSpec, Radio};

    fn two_node_catalog(gap_m: f64) -> NodeCatalog {
        let mut catalog = NodeCatalog::new();
        for i in 0..2 {
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

    struct Echo;
    impl Behavior for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_>, msg: &Message) {
            if msg.kind() == 0 {
                ctx.send(msg.src(), 1, b"pong");
            }
        }
    }

    struct PingOnce {
        target: NodeId,
    }
    impl Behavior for PingOnce {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.target, 0, b"ping");
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(1).build();
        sim.set_behavior(NodeId::new(1), Box::new(Echo));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(2_000));
        let stats = sim.stats();
        assert_eq!(stats.sent, 2, "ping and echo");
        assert_eq!(stats.delivered, 2);
        assert!(stats.latency_ms.mean() > 0.0);
        assert_eq!(stats.delivered_by_kind[&0], 1);
        assert_eq!(stats.delivered_by_kind[&1], 1);
    }

    #[test]
    fn unreachable_destination_is_dropped_no_route() {
        let mut sim = Simulator::builder(two_node_catalog(50_000.0)).seed(1).build();
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.stats().dropped_no_route, 1);
        assert_eq!(sim.stats().delivered, 0);
    }

    #[test]
    fn dead_destination_is_dropped_dead() {
        let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(1).build();
        sim.schedule_node_down(SimTime::from_millis(1), NodeId::new(1));
        sim.run_until(SimTime::from_millis(10));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.stats().dropped_dead, 1);
        assert!(!sim.is_alive(NodeId::new(1)));
    }

    #[test]
    fn node_recovers_after_up_event() {
        let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(1).build();
        sim.schedule_node_down(SimTime::from_millis(1), NodeId::new(1));
        sim.schedule_node_up(SimTime::from_millis(100), NodeId::new(1));
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.is_alive(NodeId::new(1)));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.stats().delivered, 1);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Simulator::builder(two_node_catalog(120.0)).seed(seed).build();
            sim.set_behavior(NodeId::new(1), Box::new(Echo));
            sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
            sim.run_for(SimDuration::from_millis(3_000));
            (
                sim.stats().sent,
                sim.stats().delivered,
                sim.stats().latency_ms.mean(),
                sim.stats().energy_spent_j,
            )
        };
        assert_eq!(run(42), run(42));
    }

    /// Irwin–Hall(12) density at `x` in `[0, 12]`: the law of the sum of
    /// twelve uniforms that shadowing draws. Summed on the nearer half
    /// (the density is symmetric about 6), where the alternating sum
    /// cancels least.
    fn irwin_hall_12(x: f64) -> f64 {
        let x = x.min(12.0 - x);
        let (mut binom, mut sum) = (1.0, 0.0);
        for k in 0..=x.floor().max(0.0) as i32 {
            if k > 0 {
                binom *= f64::from(13 - k) / f64::from(k);
            }
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sum += sign * binom * (x - f64::from(k)).powi(11);
        }
        sum / 39_916_800.0 // 11!
    }

    /// `∫ f(z) dz` against the density of `z` = Irwin–Hall(12) − 6, by
    /// composite Simpson over 200 panel pairs per unit, so every knot of
    /// the piecewise-polynomial density is a panel edge.
    fn shadowing_mean(f: impl Fn(f64) -> f64) -> f64 {
        let panels = 12 * 400;
        let h = 12.0 / f64::from(panels);
        let at = |i: u32| {
            let x = f64::from(i) * h;
            irwin_hall_12(x) * f(x - 6.0)
        };
        let inner: f64 = (1..panels).map(|i| at(i) * if i % 2 == 1 { 4.0 } else { 2.0 }).sum();
        (at(0) + inner + at(panels)) * h / 3.0
    }

    struct Burst {
        dst: NodeId,
        count: u64,
    }
    impl Behavior for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            // After the degradation scheduled at time zero.
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
            for _ in 0..self.count {
                ctx.send(self.dst, 0, b"report");
            }
        }
    }

    /// Substrate oracle for the hop path (ROADMAP 6a): seeded messages
    /// over a chain of `k` = 0..4 wifi relays 100 m apart on open ground
    /// are delivered end to end at the closed-form rate, within four
    /// binomial standard deviations. Per attempt, the logistic at `sinr +
    /// z·σ` averaged by quadrature over `z` = Irwin–Hall(12) − 6; per
    /// hop, `1 − (1 − q)^(MAC_RETRIES + 1)`; end to end, the product over
    /// the hops. Run with no loss (every message arrives), and with
    /// degradation loss putting the SINR 2 dB above and below the
    /// logistic's midpoint, where the shadowing average parts from
    /// `mean_delivery_probability` by more than the tolerance.
    #[test]
    fn chain_delivery_matches_the_closed_form() {
        use crate::channel::{SINR_MIDPOINT_DB, SINR_SLOPE_DB};
        use crate::terrain::Clutter;
        const MESSAGES: u64 = 20_000;
        let mass = shadowing_mean(|_| 1.0);
        assert!((mass - 1.0).abs() < 1e-12, "the density integrates to {mass}");
        let terrain = Terrain::uniform(Rect::square(1_000.0), Clutter::Open);
        let sigma = Clutter::Open.shadowing_sigma_db();
        for (extra_loss_db, seed) in [(0.0, 1), (35.0, 2), (39.0, 3)] {
            let mut channel = Channel::new(terrain.clone());
            channel.set_extra_loss_db(extra_loss_db);
            for relays in 0..=4u64 {
                let label = format!("{relays} relays, {extra_loss_db} dB");
                let at = |i: u64| Point::new(i as f64 * 100.0, 0.0);
                let mut catalog = NodeCatalog::new();
                for i in 0..relays + 2 {
                    let spec = NodeSpec::builder(NodeId::new(i))
                        .position(at(i))
                        .radio(Radio::new(RadioKind::Wifi))
                        .energy(EnergyBudget::new(1e9))
                        .build();
                    catalog.insert(spec).unwrap();
                }
                let mut expected = 1.0;
                for hop in 0..=relays {
                    let sinr = channel.sinr_db(at(hop), at(hop + 1), RadioKind::Wifi);
                    let q = shadowing_mean(|z| {
                        1.0 / (1.0 + (-(sinr + z * sigma - SINR_MIDPOINT_DB) / SINR_SLOPE_DB).exp())
                    });
                    if extra_loss_db > 0.0 {
                        let mean = channel.mean_delivery_probability(at(hop), at(hop + 1), RadioKind::Wifi);
                        assert!((q - mean).abs() > 0.02, "{label}: {q} against {mean}");
                    }
                    expected *= 1.0 - (1.0 - q).powi(MAC_RETRIES as i32 + 1);
                }
                let run = |reference: bool| {
                    let builder = Simulator::builder(catalog.clone()).terrain(terrain.clone());
                    let mut sim = builder.seed(seed * 10 + relays).reference_mode(reference).build();
                    if extra_loss_db > 0.0 {
                        let loss = sim.add_degradation(LinkDegradation::new(extra_loss_db, 1.0));
                        sim.schedule_degradation(SimTime::ZERO, loss, true);
                    }
                    let dst = NodeId::new(relays + 1);
                    sim.set_behavior(NodeId::new(0), Box::new(Burst { dst, count: MESSAGES }));
                    sim.run_for(SimDuration::from_millis(1_000));
                    sim
                };
                let mut sim = run(false);
                // Only neighbours link: the route is the chain.
                assert_eq!(sim.connectivity().link_count() as u64, relays + 1, "{label}");
                let stats = sim.stats();
                assert_eq!((stats.sent, stats.delivered + stats.dropped_channel), (MESSAGES, MESSAGES));
                let n = MESSAGES as f64;
                let (mean, sd) = (n * expected, (n * expected * (1.0 - expected)).sqrt());
                let delivered = stats.delivered as f64;
                assert!(
                    (delivered - mean).abs() <= 4.0 * sd,
                    "{label}: {delivered} delivered, {mean:.1} ± {sd:.1} expected"
                );
                // Each directed link walked the terrain once; the
                // reference path walks it at every hop, to the same bits.
                let (hops, computed) = sim.hop_budget_counts();
                assert_eq!(computed, relays + 1, "{label}: {hops} hops");
                let reference = run(true);
                assert_eq!(reference.hop_budget_counts(), (hops, hops), "{label}");
                assert_eq!(reference.stats(), sim.stats(), "{label}");
            }
        }
    }

    #[test]
    fn transmissions_cost_energy() {
        let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(1).build();
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(100));
        assert!(sim.stats().energy_spent_j > 0.0);
        let e0 = sim.energy(NodeId::new(0)).unwrap();
        assert!(e0.remaining_j() < e0.capacity_j());
    }

    #[test]
    fn depleted_nodes_die() {
        let mut catalog = NodeCatalog::new();
        catalog
            .insert(
                NodeSpec::builder(NodeId::new(0))
                    .position(Point::new(0.0, 0.0))
                    .radio(Radio::new(RadioKind::Wifi))
                    .energy(EnergyBudget::new(0.5)) // dies after ~50 s idle at 0.01 W
                    .build(),
            )
            .unwrap();
        let mut sim = Simulator::builder(catalog).seed(1).build();
        sim.run_for(SimDuration::from_secs_f64(120.0));
        assert!(!sim.is_alive(NodeId::new(0)));
    }

    struct PeriodicSender {
        target: NodeId,
        period: SimDuration,
        remaining: u32,
    }
    impl Behavior for PeriodicSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            ctx.send(self.target, 2, vec![0u8; 64]);
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn timers_drive_periodic_traffic() {
        let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(3).build();
        sim.set_behavior(
            NodeId::new(0),
            Box::new(PeriodicSender {
                target: NodeId::new(1),
                period: SimDuration::from_millis(100),
                remaining: 5,
            }),
        );
        sim.run_for(SimDuration::from_millis(2_000));
        assert_eq!(sim.stats().sent, 5);
        assert_eq!(sim.stats().delivered, 5);
    }

    #[test]
    fn jammer_toggle_cuts_and_restores_links() {
        let mut catalog = two_node_catalog(100.0);
        // A third node far away to make sure nothing else interferes.
        catalog
            .insert(
                NodeSpec::builder(NodeId::new(2))
                    .position(Point::new(10_000.0, 10_000.0))
                    .build(),
            )
            .unwrap();
        let jammer = Jammer::new(Point::new(50.0, 0.0), 50.0);
        let mut sim = Simulator::builder(catalog).jammer(jammer).seed(5).build();
        // Jammed from the start: ping drops.
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.stats().delivered, 0, "jammer should kill the link");
        // Switch jammer off and ping again.
        let at = sim.now() + SimDuration::from_millis(10);
        sim.schedule_jammer(at, 0, false);
        sim.run_for(SimDuration::from_millis(50));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.stats().delivered, 1, "link should recover after jamming stops");
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Simulator::builder(two_node_catalog(50.0)).build();
        sim.run_until(SimTime::from_millis(1_234));
        assert_eq!(sim.now(), SimTime::from_millis(1_234));
    }

    #[test]
    fn mac_backoff_is_capped_exponential() {
        assert_eq!(mac_backoff_s(1), 0.0005);
        assert_eq!(mac_backoff_s(2), 0.0010);
        assert_eq!(mac_backoff_s(3), 0.0020);
        assert_eq!(mac_backoff_s(4), 0.0040);
        assert_eq!(mac_backoff_s(5), MAC_BACKOFF_CAP_S, "capped from here on");
        assert_eq!(mac_backoff_s(40), MAC_BACKOFF_CAP_S, "shift is clamped");
    }

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

    #[test]
    fn backoff_counts_attempts_and_retransmits_reproducibly() {
        // A marginal urban link forces MAC retries; the attempt accounting
        // must satisfy attempts = first-transmissions + retransmits and be
        // byte-stable across same-seed runs.
        let run = || {
            let urban = Terrain::uniform(Rect::square(2_000.0), crate::terrain::Clutter::Urban);
            let mut sim = Simulator::builder(two_node_catalog(115.0))
                .terrain(urban)
                .seed(11)
                .build();
            sim.set_behavior(
                NodeId::new(0),
                Box::new(PeriodicSender {
                    target: NodeId::new(1),
                    period: SimDuration::from_millis(100),
                    remaining: 30,
                }),
            );
            sim.run_for(SimDuration::from_secs_f64(5.0));
            (
                sim.stats().hop_attempts,
                sim.stats().retransmits,
                sim.stats().latency_ms.mean(),
            )
        };
        let (attempts, retx, latency) = run();
        assert!(attempts >= 30, "every send consumes at least one attempt");
        assert!(retx > 0, "a 115 m wifi link must force some retries");
        assert_eq!(
            attempts - retx,
            30,
            "attempts minus retransmits = hops tried once"
        );
        assert_eq!(run(), (attempts, retx, latency), "same-seed stability");
    }

    #[test]
    fn drop_causes_are_counted_exactly_once_each() {
        // Mix of failure modes: an unreachable peer (no_route) and a dead
        // destination, on the transmit and the deferred delivery path.
        // The total must equal the sum over causes — no double counting.
        let mut catalog = chain_catalog(2, 50.0);
        catalog
            .insert(
                NodeSpec::builder(NodeId::new(9))
                    .position(Point::new(50_000.0, 0.0))
                    .radio(Radio::new(RadioKind::Wifi))
                    .energy(EnergyBudget::new(10_000.0))
                    .build(),
            )
            .unwrap();
        let mut sim = Simulator::builder(catalog).seed(7).build();
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(9) }));
        sim.set_behavior(
            NodeId::new(0),
            Box::new(PeriodicSender {
                target: NodeId::new(1),
                period: SimDuration::from_millis(35),
                remaining: 60,
            }),
        );
        sim.schedule_node_down(SimTime::from_secs_f64(1.0), NodeId::new(1));
        sim.run_for(SimDuration::from_secs_f64(4.0));
        let s = sim.stats();
        assert_eq!(
            s.dropped,
            s.dropped_no_route + s.dropped_channel + s.dropped_dead + s.dropped_asleep,
            "each drop counted under exactly one cause: {s}"
        );
        assert_eq!(s.sent, s.delivered + s.dropped, "no message unaccounted");
        assert!(s.dropped_dead > 0, "sends after the kill must drop dead");
    }

    #[test]
    fn message_dying_in_flight_is_counted_once() {
        // Kill the destination *between* transmit and deferred delivery:
        // the message must be counted dropped_dead exactly once and never
        // delivered.
        let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(1).build();
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        // Delivery latency is ≥ tx_time + 0.5 ms backoff; 200 µs lands
        // inside the in-flight window.
        sim.schedule_node_down(SimTime::from_micros(200), NodeId::new(1));
        sim.run_for(SimDuration::from_millis(500));
        let s = sim.stats();
        assert_eq!(s.delivered, 0);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.dropped_dead, 1);
        assert_eq!(
            s.dropped,
            s.dropped_no_route + s.dropped_channel + s.dropped_dead + s.dropped_asleep
        );
    }

    #[test]
    fn partition_cuts_links_and_clears() {
        let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(3).build();
        let cut = sim.add_partition(PartitionSpec::new([NodeId::new(0)], [NodeId::new(1)]));
        sim.schedule_partition(SimTime::from_millis(1), cut, true);
        sim.run_until(SimTime::from_millis(5));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.stats().dropped_no_route, 1, "cut link: no route");
        let at = sim.now() + SimDuration::from_millis(1);
        sim.schedule_partition(at, cut, false);
        sim.run_for(SimDuration::from_millis(10));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.stats().delivered, 1, "link restored after clear");
    }

    #[test]
    fn degradation_multiplies_latency_and_adds_loss() {
        let base = {
            let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(5).build();
            sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
            sim.run_for(SimDuration::from_millis(200));
            sim.stats().latency_ms.mean()
        };
        let mut sim = Simulator::builder(two_node_catalog(50.0)).seed(5).build();
        let deg = sim.add_degradation(LinkDegradation::new(0.0, 4.0));
        sim.schedule_degradation(SimTime::from_micros(1), deg, true);
        sim.run_until(SimTime::from_micros(10));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(200));
        let degraded = sim.stats().latency_ms.mean();
        assert_eq!(sim.stats().delivered, 1);
        assert!(
            degraded > base * 2.0,
            "4x service-time multiplier must show up: base={base} degraded={degraded}"
        );
        // A strong extra loss on a marginal link severs it outright.
        let mut sim = Simulator::builder(two_node_catalog(115.0)).seed(5).build();
        let deg = sim.add_degradation(LinkDegradation::new(60.0, 1.0));
        sim.schedule_degradation(SimTime::from_micros(1), deg, true);
        sim.run_until(SimTime::from_micros(10));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.stats().delivered, 0, "60 dB extra loss kills the link");
    }

    #[test]
    fn compromised_relay_delays_and_tampers() {
        // Chain 0 – 1 – 2 where node 1 must relay: 100 m hops link, but the
        // 200 m direct path exceeds wifi range, so the route goes through
        // the compromised middle node.
        let mut sim = Simulator::builder(chain_catalog(3, 100.0)).seed(9).build();
        let spec = CompromiseSpec::new(
            [NodeId::new(1)],
            SimDuration::from_millis(250),
            true,
        );
        let idx = sim.add_compromise(spec);
        sim.schedule_compromise(SimTime::from_micros(1), idx, true);
        sim.run_until(SimTime::from_micros(10));
        sim.set_behavior(NodeId::new(0), Box::new(PingOnce { target: NodeId::new(2) }));
        sim.run_for(SimDuration::from_secs_f64(2.0));
        let s = sim.stats();
        assert_eq!(s.delivered, 1, "tampered messages still arrive: {s}");
        assert_eq!(s.tampered, 1, "relay must flag the message");
        assert!(
            s.latency_ms.mean() >= 250.0,
            "interdiction delay must appear in latency: {}",
            s.latency_ms.mean()
        );
        // Direct traffic between honest neighbors is untouched.
        sim.set_behavior(NodeId::new(2), Box::new(PingOnce { target: NodeId::new(1) }));
        sim.run_for(SimDuration::from_secs_f64(1.0));
        assert_eq!(sim.stats().tampered, 1, "src/dst roles are not interdicted");
    }

    #[test]
    fn region_blackout_kills_inside_and_restores_survivors() {
        let mut sim = Simulator::builder(chain_catalog(4, 100.0)).seed(2).build();
        // Rect covers nodes 0 and 1 (x in [0, 150]); nodes 2, 3 outside.
        let rect = Rect::new(Point::new(-10.0, -10.0), Point::new(150.0, 10.0));
        let idx = sim.add_region_blackout(rect);
        sim.schedule_region_outage(SimTime::from_millis(10), idx);
        sim.run_until(SimTime::from_millis(20));
        assert!(!sim.is_alive(NodeId::new(0)));
        assert!(!sim.is_alive(NodeId::new(1)));
        assert!(sim.is_alive(NodeId::new(2)));
        assert!(sim.is_alive(NodeId::new(3)));
        sim.schedule_region_restore(SimTime::from_millis(100), idx);
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.is_alive(NodeId::new(0)), "restored after the outage lifts");
        assert!(sim.is_alive(NodeId::new(1)));
    }

    #[test]
    fn route_memo_keeps_one_answer_per_source_and_bounds_what_it_strands() {
        let n = 16;
        let mut memo = topology::RouteMemo::default();
        assert_eq!(memo.get(3, 9), None, "nothing is remembered before the first store");
        let reach = crate::graph::CellRect::PLANE;
        memo.store(n, 3, 9, &[3, 5, 9], reach);
        memo.store(n, 4, 9, &[], reach);
        assert_eq!(memo.get(3, 9), Some(&[3, 5, 9][..]));
        assert_eq!(memo.get(4, 9), Some(&[][..]), "no route is an answer too");
        assert_eq!(memo.get(3, 8), None, "another destination is another question");
        // A source that alternates destinations on a topology that never
        // changes (a broadcast, a relay with two peers) strands a path
        // per store; the arena must not grow with the number of sends.
        for round in 0..10_000u32 {
            let dst = 8 + round % 2;
            memo.store(n, 3, dst, &[3, 5, dst], reach);
            assert_eq!(memo.get(3, dst), Some(&[3, 5, dst][..]));
            assert!(memo.arena.len() <= 2 * memo.live + n + 3, "round {round}");
        }
        memo.clear();
        assert_eq!(memo.get(3, 9), None);
        assert_eq!((memo.arena.len(), memo.live), (0, 0));
    }

    #[test]
    fn the_first_access_adopts_a_primed_graph_and_a_change_drops_it() {
        let (recorder, ring) = Recorder::memory(64);
        let mut sim = Simulator::builder(two_node_catalog(50.0)).recorder(recorder).build();
        let primed = sim.prime_connectivity();
        assert!(Rc::ptr_eq(&primed, &sim.prime_connectivity()), "priming twice builds once");
        assert_eq!((sim.graph_builds(), primed.link_count()), (1, 1));
        assert!(ring.records().is_empty(), "priming records nothing");
        let quiet = Simulator::builder(two_node_catalog(50.0)).build().save_state().unwrap();
        assert_eq!(sim.save_state().unwrap(), quiet, "nor does a snapshot see it");

        sim.run_for(SimDuration::from_millis(300));
        assert!(Rc::ptr_eq(&primed, &sim.connectivity()), "the access takes the primed graph");
        assert_eq!(sim.graph_builds(), 1);
        let records = ring.records();
        assert_eq!(records.len(), 1, "and records the build it did not repeat: {records:?}");
        assert_eq!(
            (records[0].t_us, &records[0].event),
            (300_000, &TraceEvent::GraphRebuilt { nodes: 2, edges: 1 }),
        );
        assert!(Rc::ptr_eq(&primed, &sim.prime_connectivity()), "a clean cache needs no priming");

        // A node lost before the first access: the primed graph is stale
        // and must not be what the access returns — it is patched.
        let mut sim = Simulator::builder(two_node_catalog(50.0)).build();
        sim.prime_connectivity();
        sim.schedule_node_down(SimTime::from_millis(1), NodeId::new(1));
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.connectivity().link_count(), 0);
        assert_eq!(sim.graph_builds(), 1);
    }
}
