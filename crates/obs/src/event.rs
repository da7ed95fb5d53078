//! The trace schema — every event kind, declared once — and its
//! deterministic JSONL encoding.
//!
//! The schema is the `trace_events!` table at the bottom of this
//! file: one row per kind, holding the documented variant and a header
//! with its `kind` string, its [`Subsystem`], the counter each event of
//! that kind adds one to, and which fields are node ids. The enum, its
//! `subsystem()` / `kind()` / `primary_node()`, the payload half of the
//! encoder, the base-counter bump and [`TraceEvent::SCHEMA`] (what
//! `iobt-trace` and the tests read) are all expansions of that table,
//! so **adding an event is adding one row**; only a kind that does
//! more than count itself (a histogram, a gauge, a second counter)
//! also gets an arm in `recorder.rs`'s `update_metrics`. A field's JSON
//! key is its name. A new *subsystem* is still a checkpoint change: a
//! line at the **end** of `subsystems!`'s list, because every
//! checkpoint carries one emission counter per subsystem in that
//! list's order (`enc_recorder` in `iobt-core`; the block is
//! length-prefixed, so a longer list reads older checkpoints, while a
//! reordered one would misread them and needs a `FORMAT_VERSION` bump).
//!
//! Events carry only plain values (raw `u64` identifiers, integer
//! microseconds, `f64` measurements, static names) so this crate stays
//! at the bottom of the dependency graph and the encoding stays stable.
//! The encoder is still direct: each generated arm is the pushes a
//! hand-written one would hold, dispatched statically through the
//! private `Field` trait into the caller's `String` — no `dyn`, no
//! intermediate key/value list, no `serde_json`, and no `fmt` for
//! anything but an `f64` (whose shortest-roundtrip `Display` *is* the
//! format) — because `encode_jsonl` runs once per kept record on the
//! simulator's hot path.

use std::fmt::Write as _;

use crate::metrics::MetricsRegistry;

/// Declares [`Subsystem`] from one list of `Variant = "name"` lines: the
/// list's order is the slot order.
macro_rules! subsystems {
    ($( $(#[$doc:meta])* $Sub:ident = $name:literal ),* $(,)?) => {
        /// The subsystem that emitted an event. Used for filtering and
        /// for the per-subsystem sampling controls in
        /// [`SamplingConfig`](crate::SamplingConfig).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Subsystem {
            $( $(#[$doc])* $Sub, )*
        }

        impl Subsystem {
            /// All subsystems, in slot order: the order of the sampling
            /// strides, of the emitted counters, and of the counter
            /// block every checkpoint carries.
            pub const ALL: [Subsystem; Subsystem::COUNT] = [$( Subsystem::$Sub ),*];

            /// Number of subsystems (the length of every per-subsystem
            /// slot array).
            pub const COUNT: usize = [$( $name ),*].len();

            /// Stable lower-case name used in the JSONL schema (`"sub"`
            /// key).
            pub fn as_str(self) -> &'static str {
                match self {
                    $( Subsystem::$Sub => $name, )*
                }
            }

            /// This subsystem's index in [`Subsystem::ALL`].
            pub(crate) fn slot(self) -> usize {
                self as usize
            }
        }
    };
}

subsystems! {
    /// The battlefield network simulator (`iobt-netsim`).
    Netsim = "netsim",
    /// The mission runtime (`iobt-core`).
    Core = "core",
    /// The composition/repair solvers (`iobt-synthesis`).
    Synthesis = "synthesis",
    /// The adaptation services (`iobt-adapt`).
    Adapt = "adapt",
    /// The fault-injection subsystem (`iobt-faults`).
    Faults = "faults",
    /// The multi-tenant mission scheduler (`iobt-fleet`).
    Fleet = "fleet",
    /// The fault-tolerant edge-streaming daemon (`iobt-bridge`).
    Bridge = "bridge",
}

/// Why the simulator dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// No route existed from source to destination.
    NoRoute,
    /// A hop lost the channel-loss coin flip on every retry.
    Channel,
    /// Source, relay or destination was dead (energy / churn / kill).
    Dead,
    /// Source or destination was in a sleep-schedule off phase.
    Asleep,
}

impl DropCause {
    /// Stable lower-case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            DropCause::NoRoute => "no_route",
            DropCause::Channel => "channel",
            DropCause::Dead => "dead",
            DropCause::Asleep => "asleep",
        }
    }
}

/// One row of the trace schema as data: what a reader of the JSONL
/// needs to know about a `kind` without linking the enum.
#[derive(Debug, Clone, Copy)]
pub struct EventSchema {
    /// The `"kind"` value.
    pub kind: &'static str,
    /// The `"sub"` value.
    pub sub: Subsystem,
    /// The payload keys that hold node ids. The first, when there is
    /// one, is the record's primary node.
    pub node_keys: &'static [&'static str],
    /// Every payload key, in wire order.
    pub fields: &'static [&'static str],
}

/// A payload value the encoder can write as JSON.
trait Field: Copy {
    fn put(self, out: &mut String);
}

impl Field for u64 {
    fn put(self, out: &mut String) {
        push_u64(out, self);
    }
}

/// Appends `v` in decimal — what `write!(out, "{v}")` appends, without
/// the `fmt` machinery: integers are most of what a trace line holds.
/// Public for the bridge's topic encoder, which writes the same ids.
pub fn push_u64(out: &mut String, mut v: u64) {
    // u64::MAX has twenty digits; filled from the back.
    let mut digits = [0u8; 20];
    let mut first = digits.len();
    loop {
        first -= 1;
        digits[first] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[first..].iter().map(|&d| char::from(d)));
}

impl Field for bool {
    fn put(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
}

/// `f64` uses Rust's shortest-roundtrip `Display`, which is
/// deterministic for identical bit patterns; non-finite values (never
/// produced by the platform) encode as `null`.
impl Field for f64 {
    fn put(self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

/// All string payloads are static snake_case names — no escaping
/// needed, but guard anyway so the encoder can never emit bad JSON.
impl Field for &'static str {
    fn put(self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Field for DropCause {
    fn put(self, out: &mut String) {
        self.as_str().put(out);
    }
}

/// Declares [`TraceEvent`] and everything that is a function of its
/// variant list. A row is
///
/// ```text
/// /// docs
/// Variant ["kind", Subsystem $(, counts: "counter")? $(, nodes: primary $(, other)*)?] {
///     /// docs
///     field: type, …
/// },
/// ```
///
/// where `counts:` names the counter one event adds one to (left out
/// when the kind's only count is taken from a field, in
/// `update_metrics`), and `nodes:` lists the fields that are node ids,
/// the primary first.
macro_rules! trace_events {
    (@primary) => {
        None
    };
    (@primary $node:ident) => {
        Some(*$node)
    };
    ($(
        $(#[$doc:meta])*
        $Variant:ident
        [$kind:literal, $sub:ident $(, counts: $counter:literal)?
            $(, nodes: $primary:ident $(, $other:ident)*)?]
        { $( $(#[$fdoc:meta])* $field:ident: $ty:ty ),* $(,)? }
    ),* $(,)?) => {
        /// A structured trace event. Identifiers are raw `u64`s (see
        /// `NodeId::raw`) so `iobt-obs` sits below every other crate in
        /// the dependency graph.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEvent {
            $( $(#[$doc])* $Variant { $( $(#[$fdoc])* $field: $ty, )* }, )*
        }

        impl TraceEvent {
            /// The schema as data, one row per kind in declaration
            /// order.
            pub const SCHEMA: &'static [EventSchema] = &[$(
                EventSchema {
                    kind: $kind,
                    sub: Subsystem::$sub,
                    node_keys: &[$( stringify!($primary) $(, stringify!($other))* )?],
                    fields: &[$( stringify!($field) ),*],
                },
            )*];

            /// The subsystem this event belongs to.
            pub fn subsystem(&self) -> Subsystem {
                match self {
                    $( TraceEvent::$Variant { .. } => Subsystem::$sub, )*
                }
            }

            /// Stable snake-case event name used in the JSONL schema
            /// (`"kind"`).
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TraceEvent::$Variant { .. } => $kind, )*
                }
            }

            /// The node id an event is primarily *about*, when it has
            /// one: the source of a message, the subject of a
            /// node-lifecycle or suspicion event, the requester of an
            /// actuation. Events about the run as a whole (windows,
            /// solves, fleet scheduling, bridge transport) have none.
            /// This is the `<node>` segment of the edge bridge's
            /// `iobt/<mission>/<node>/<kind>` topic hierarchy;
            /// `iobt-trace --topics` reads the same column from
            /// [`TraceEvent::SCHEMA`].
            pub fn primary_node(&self) -> Option<u64> {
                match self {
                    $( TraceEvent::$Variant { $( $primary, )? .. } => {
                        trace_events!(@primary $( $primary )?)
                    } )*
                }
            }

            /// Adds one to the counter that counts events of this kind.
            pub(crate) fn count_one(&self, m: &mut MetricsRegistry) {
                match self {
                    $( TraceEvent::$Variant { .. } => { $( m.inc($counter, 1); )? } )*
                }
            }

            /// Appends `,"field":value` for each payload field, in
            /// declaration order.
            fn encode_fields(&self, out: &mut String) {
                match self {
                    $( TraceEvent::$Variant { $( $field ),* } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            Field::put(*$field, out);
                        )*
                    } )*
                }
            }
        }
    };
}

/// One stamped trace record: the sim-time clock at emission, a monotone
/// per-recorder sequence number, and the event payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulation time at emission, integer microseconds.
    pub t_us: u64,
    /// Monotone sequence number (ties on `t_us` stay ordered).
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Appends this record as one JSON object + `'\n'` to `out`.
    ///
    /// Key order is fixed (`seq`, `t_us`, `sub`, `kind`, then payload
    /// fields in declaration order) so traces from identical runs are
    /// byte-identical.
    pub fn encode_jsonl(&self, out: &mut String) {
        out.push('{');
        self.encode_body(out);
    }

    /// Appends everything [`encode_jsonl`](Self::encode_jsonl) writes
    /// after the opening brace, for a caller that has opened the object
    /// with keys of its own (the bridge's `topic`).
    pub fn encode_body(&self, out: &mut String) {
        out.push_str("\"seq\":");
        push_u64(out, self.seq);
        out.push_str(",\"t_us\":");
        push_u64(out, self.t_us);
        out.push_str(",\"sub\":\"");
        out.push_str(self.event.subsystem().as_str());
        out.push_str("\",\"kind\":\"");
        out.push_str(self.event.kind());
        out.push('"');
        self.event.encode_fields(out);
        out.push_str("}\n");
    }

    /// Encodes this record as an owned JSONL line (including `'\n'`).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        self.encode_jsonl(&mut s);
        s
    }
}

trace_events! {
    // -- netsim ----------------------------------------------------------
    /// A message was handed to the radio for transmission.
    MsgSent ["msg_sent", Netsim, counts: "netsim.msg_sent", nodes: from, to] {
        /// Source node id.
        from: u64,
        /// Destination node id.
        to: u64,
    },
    /// A message reached its destination.
    MsgDelivered ["msg_delivered", Netsim, counts: "netsim.msg_delivered", nodes: from, to] {
        /// Source node id.
        from: u64,
        /// Destination node id.
        to: u64,
        /// End-to-end latency in integer microseconds of sim time.
        latency_us: u64,
    },
    /// A message died in the network.
    MsgDropped ["msg_dropped", Netsim, counts: "netsim.msg_dropped", nodes: from, to] {
        /// Source node id.
        from: u64,
        /// Destination node id.
        to: u64,
        /// Which failure mode killed it.
        cause: DropCause,
    },
    /// A hop of a precomputed route vanished mid-transmission (the
    /// topology changed underneath the message, e.g. a relay depleted
    /// while forwarding) and the transmission fell back to the drop
    /// path.
    RouteFallback ["route_fallback", Netsim, counts: "netsim.route_fallback", nodes: from, to] {
        /// Source node id.
        from: u64,
        /// Destination node id.
        to: u64,
    },
    /// The connectivity graph was (re)built after topology churn.
    GraphRebuilt ["graph_rebuilt", Netsim, counts: "netsim.graph_rebuilds"] {
        /// Nodes alive at rebuild time.
        nodes: u64,
        /// Undirected edges in the rebuilt graph.
        edges: u64,
    },
    /// A node exhausted its battery and died.
    NodeDepleted ["node_depleted", Netsim, counts: "netsim.node_depleted", nodes: node] {
        /// Node id.
        node: u64,
    },
    /// A node was forced down (churn / disruption / kill).
    NodeDown ["node_down", Netsim, counts: "netsim.node_down", nodes: node] {
        /// Node id.
        node: u64,
    },
    /// A node came back up.
    NodeUp ["node_up", Netsim, counts: "netsim.node_up", nodes: node] {
        /// Node id.
        node: u64,
    },
    /// A jammer was switched on or off.
    JammerSet ["jammer_set", Netsim, counts: "netsim.jammer_toggles"] {
        /// Index into the scenario's jammer list.
        index: u64,
        /// New state.
        on: bool,
    },
    /// A network partition cut was activated or cleared.
    PartitionSet ["partition_set", Netsim, counts: "netsim.partition_toggles"] {
        /// Index into the simulator's partition-spec list.
        index: u64,
        /// New state.
        on: bool,
    },
    /// A channel-wide link degradation was activated or cleared.
    DegradeSet ["degrade_set", Netsim, counts: "netsim.degrade_toggles"] {
        /// Index into the simulator's degradation-spec list.
        index: u64,
        /// New state.
        on: bool,
        /// Extra path loss applied while active, in dB.
        extra_loss_db: f64,
        /// Latency multiplier applied while active.
        latency_mult: f64,
    },
    /// A compromised-relay spec was activated or cleared.
    CompromiseSet ["compromise_set", Netsim, counts: "netsim.compromise_toggles"] {
        /// Index into the simulator's compromise-spec list.
        index: u64,
        /// New state.
        on: bool,
    },
    /// A message was routed through a compromised relay that tampers
    /// with payloads; the delivered copy is flagged untrustworthy.
    MsgTampered ["msg_tampered", Netsim, counts: "netsim.msg_tampered", nodes: from, to, relay] {
        /// Source node id.
        from: u64,
        /// Destination node id.
        to: u64,
        /// The compromised relay the message traversed.
        relay: u64,
    },
    /// A region blackout fired: every alive node inside the rect went
    /// down at once (correlated kill, e.g. EMP/artillery).
    RegionOutage ["region_outage", Netsim, counts: "netsim.region_outages"] {
        /// Index into the simulator's blackout list.
        index: u64,
        /// Nodes killed by this outage.
        killed: u64,
    },
    /// A region blackout was lifted and its surviving nodes restored.
    RegionRestore ["region_restore", Netsim, counts: "netsim.region_restores"] {
        /// Index into the simulator's blackout list.
        index: u64,
        /// Nodes revived (depleted nodes stay down).
        revived: u64,
    },

    // -- faults ----------------------------------------------------------
    /// A fault from a `FaultPlan` was scheduled onto the simulator.
    FaultScheduled ["fault_scheduled", Faults, counts: "faults.scheduled"] {
        /// Stable fault-kind name (`"crash"`, `"partition"`, …).
        fault: &'static str,
        /// Injection time, integer microseconds of sim time.
        at_us: u64,
    },

    // -- core ------------------------------------------------------------
    /// Discovery + recruitment finished.
    Recruitment ["recruitment", Core, counts: "core.recruitments"] {
        /// Gray/blue candidates considered.
        candidates: u64,
        /// Assets actually recruited.
        recruited: u64,
    },
    /// An execution window closed and its utility was scored.
    WindowClosed ["window_closed", Core, counts: "core.windows"] {
        /// Zero-based window index.
        window: u64,
        /// Reports delivered inside the window.
        delivered: u64,
        /// Window utility in `[0, 1]`.
        utility: f64,
    },
    /// The repair reflex fired: utility fell below the threshold.
    RepairTriggered ["repair_triggered", Core, counts: "core.repairs_triggered"] {
        /// Window that triggered the reflex.
        window: u64,
        /// Observed utility that tripped the threshold.
        utility: f64,
        /// The configured repair threshold.
        threshold: f64,
    },
    /// A composition repair was computed and deployed.
    RepairApplied ["repair_applied", Core, counts: "core.repairs_applied"] {
        /// Window in which the repair landed.
        window: u64,
        /// Nodes added by the repair.
        added: u64,
        /// Whether the repaired composition satisfies the mission.
        satisfied: bool,
    },
    /// The heartbeat failure detector marked a node as suspected.
    Suspected ["suspected", Core, counts: "core.suspected", nodes: node] {
        /// Id of the suspected node.
        node: u64,
        /// Silence observed when suspicion fired, integer microseconds.
        silent_us: u64,
    },
    /// The failure detector triggered a repair before window close.
    EarlyRepair ["early_repair", Core, counts: "core.early_repairs"] {
        /// Window in which the early repair fired.
        window: u64,
        /// Number of suspected nodes that triggered it.
        suspects: u64,
    },
    /// The degradation ladder shed load to preserve core coverage.
    Shed ["shed", Core, counts: "core.sheds"] {
        /// Ladder level after the shed (1-based; 0 = full capability).
        level: u64,
        /// Stable action name (`"redundancy"`, `"modality"`,
        /// `"coverage"`).
        action: &'static str,
    },
    /// The degradation ladder restored previously shed capability.
    Restore ["restore", Core, counts: "core.restores"] {
        /// Ladder level after the restore.
        level: u64,
        /// Stable action name of what was restored.
        action: &'static str,
    },
    /// A tasking message went unacked and was retransmitted.
    TaskRetry ["task_retry", Core, counts: "core.task_retries", nodes: node] {
        /// Target node id.
        node: u64,
        /// 1-based attempt number of the retransmission.
        attempt: u64,
    },
    /// Tasking a node was abandoned after the attempt cap.
    TaskAbandoned ["task_abandoned", Core, counts: "core.task_abandoned", nodes: node] {
        /// Target node id.
        node: u64,
        /// Attempts made before giving up.
        attempts: u64,
    },

    // -- synthesis -------------------------------------------------------
    /// A composition solve completed (on the calling thread).
    Solve ["solve", Synthesis, counts: "synthesis.solves"] {
        /// Stable solver name (`"greedy"`, `"anneal"`, …).
        solver: &'static str,
        /// Budget steps consumed (coverage evaluations).
        steps: u64,
        /// CELF lazy-heap pushes (0 for non-greedy solvers).
        heap_pushes: u64,
        /// CELF stale-entry refreshes (0 for non-greedy solvers).
        heap_refreshes: u64,
        /// Candidates selected.
        selected: u64,
        /// Whether the mission requirement was satisfied.
        satisfied: bool,
    },
    /// One member of a portfolio race finished (reported after join, in
    /// deterministic member order).
    PortfolioMember ["portfolio_member", Synthesis, counts: "synthesis.portfolio_members"] {
        /// Stable member solver name.
        member: &'static str,
        /// Whether this member satisfied the mission.
        satisfied: bool,
        /// Cost of the member's composition.
        cost: f64,
        /// Candidates the member selected.
        selected: u64,
        /// Whether this member's result was chosen as the winner.
        winner: bool,
    },

    // -- adapt -----------------------------------------------------------
    /// An actuation request passed through the §VI safety interlock.
    Actuation ["actuation", Adapt, counts: "adapt.actuations", nodes: requester] {
        /// Requesting node id.
        requester: u64,
        /// Actuator kind requested: its index in `ActuatorKind::ALL`
        /// (a code, not a node id).
        actuator: u64,
        /// Stable decision name (`"approved"`, `"withheld_occupied"`,
        /// `"denied_no_authorization"`, `"denied_degraded"`).
        decision: &'static str,
    },
    /// One epoch of resource allocation was applied.
    Allocation ["allocation", Adapt, counts: "adapt.alloc_epochs"] {
        /// Zero-based epoch index.
        epoch: u64,
        /// Regions allocated this epoch.
        regions: u64,
        /// Samples that hit the saturation penalty this epoch.
        saturated: u64,
    },

    // -- fleet -----------------------------------------------------------
    /// A mission was admitted to the fleet's run queue.
    FleetAdmit ["fleet_admit", Fleet, counts: "fleet.admitted"] {
        /// Fleet-assigned mission ticket.
        ticket: u64,
        /// The mission's scenario seed.
        seed: u64,
        /// Total utility windows the mission will execute.
        windows: u64,
    },
    /// A scheduler quantum executed: one resident mission stepped up to
    /// `quantum` windows on a worker.
    FleetSlice ["fleet_slice", Fleet, counts: "fleet.slices"] {
        /// Mission ticket.
        ticket: u64,
        /// First window index executed in this slice.
        from_window: u64,
        /// Windows actually executed (< quantum only at mission end).
        windows: u64,
    },
    /// An idle mission was checkpointed to disk and its in-memory runner
    /// dropped.
    FleetEvict ["fleet_evict", Fleet, counts: "fleet.evictions"] {
        /// Mission ticket.
        ticket: u64,
        /// Window boundary the checkpoint captured.
        window: u64,
        /// Serialized checkpoint payload size.
        bytes: u64,
    },
    /// An evicted mission was rebuilt from its on-disk checkpoint.
    FleetResume ["fleet_resume", Fleet, counts: "fleet.resumes"] {
        /// Mission ticket.
        ticket: u64,
        /// Window boundary execution restarts from.
        window: u64,
    },
    /// A mission ran its final window and produced its report.
    FleetComplete ["fleet_complete", Fleet, counts: "fleet.completed"] {
        /// Mission ticket.
        ticket: u64,
        /// Windows the mission executed in total.
        windows: u64,
        /// Composition repairs performed over the mission's life.
        repairs: u64,
    },
    /// A retryable checkpoint-IO failure was absorbed: the mission was
    /// deferred and will be retried after a backoff.
    FleetRetry ["fleet_retry", Fleet, counts: "fleet.retries"] {
        /// Mission ticket.
        ticket: u64,
        /// Window boundary the mission was at when the fault hit.
        window: u64,
        /// 1-based attempt number of the failed operation.
        attempt: u64,
        /// Scheduler slices the mission waits before its next attempt.
        backoff_slices: u64,
    },
    /// A mission was quarantined: panicked, exhausted its retries, blew
    /// its slice budget, or hit a non-retryable fault. The worker and
    /// every other mission survive.
    FleetQuarantine ["fleet_quarantine", Fleet, counts: "fleet.quarantined"] {
        /// Mission ticket.
        ticket: u64,
        /// Stable error-kind name (`"panic"`, `"checkpoint_save"`, …).
        error: &'static str,
        /// Attempts consumed before quarantine.
        attempts: u64,
    },
    /// An admission was shed: the queue was at its `max_queued` bound,
    /// so the fleet rejected new work instead of stalling residents.
    FleetShed ["fleet_shed", Fleet, counts: "fleet.shed"] {
        /// The ticket index the mission would have received.
        ticket: u64,
        /// Missions queued (non-terminal) at rejection time.
        queued: u64,
    },
    /// A mission was re-admitted from the durable fleet manifest after
    /// a scheduler crash.
    FleetRecover ["fleet_recover", Fleet, counts: "fleet.recovers"] {
        /// Mission ticket.
        ticket: u64,
        /// Window boundary execution restarts from (0 = from scratch).
        window: u64,
    },

    // -- bridge ----------------------------------------------------------
    /// The edge bridge (re)established its transport connection.
    BridgeConnect ["bridge_connect", Bridge, counts: "bridge.connects"] {
        /// Reconnect attempts consumed before this connection came up
        /// (0 = first dial succeeded).
        attempt: u64,
    },
    /// A transport connection was lost or a reconnect attempt failed;
    /// the bridge backs off before dialling again.
    BridgeRetry ["bridge_retry", Bridge, counts: "bridge.retries"] {
        /// 1-based reconnect attempt that will run after the backoff.
        attempt: u64,
        /// Pump ticks the bridge waits before that attempt.
        backoff_ticks: u64,
    },
    /// Egress frames were dropped — at the bounded ring (overflow or a
    /// blocked-push deadline) or at detach.
    BridgeDrop ["bridge_drop", Bridge] {
        /// Stable cause name (`"overflow_oldest"`, `"overflow_newest"`,
        /// `"block_timeout"`, `"gave_up"`).
        cause: &'static str,
        /// Frames dropped by this occurrence.
        frames: u64,
    },
    /// The bridge exhausted its reconnect budget, discarded its buffer,
    /// and detached for good; the mission continues unaffected.
    BridgeGaveUp ["bridge_gave_up", Bridge, counts: "bridge.gave_up"] {
        /// Reconnect attempts consumed before giving up.
        attempts: u64,
        /// Buffered frames discarded at detach.
        discarded: u64,
    },
    /// An inbound tasking command was rejected as a duplicate or stale
    /// sequence (idempotent ingress).
    BridgeCmdDup ["bridge_cmd_dup", Bridge, counts: "bridge.cmd_dup"] {
        /// Command source id.
        src: u64,
        /// Sequence number of the rejected command (`cmd_seq`, because
        /// `seq` is the record's own).
        cmd_seq: u64,
        /// True when the sequence was older than the newest applied one
        /// (stale); false when it repeated a seen sequence exactly.
        stale: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_subsystems_are_consistent() {
        let e = TraceEvent::MsgDropped {
            from: 1,
            to: 2,
            cause: DropCause::NoRoute,
        };
        assert_eq!(e.subsystem(), Subsystem::Netsim);
        assert_eq!(e.kind(), "msg_dropped");
        for (i, sub) in Subsystem::ALL.into_iter().enumerate() {
            assert_eq!(sub.slot(), i);
        }
    }

    #[test]
    fn jsonl_encoding_has_fixed_key_order() {
        let r = TraceRecord {
            t_us: 1_500_000,
            seq: 7,
            event: TraceEvent::MsgDelivered {
                from: 3,
                to: 9,
                latency_us: 2_250,
            },
        };
        assert_eq!(
            r.to_jsonl(),
            "{\"seq\":7,\"t_us\":1500000,\"sub\":\"netsim\",\"kind\":\"msg_delivered\",\
             \"from\":3,\"to\":9,\"latency_us\":2250}\n"
        );
    }

    #[test]
    fn jsonl_floats_use_shortest_roundtrip() {
        let r = TraceRecord {
            t_us: 0,
            seq: 0,
            event: TraceEvent::WindowClosed {
                window: 2,
                delivered: 10,
                utility: 0.5,
            },
        };
        assert!(r.to_jsonl().contains("\"utility\":0.5"));
        let nan = TraceRecord {
            t_us: 0,
            seq: 0,
            event: TraceEvent::WindowClosed {
                window: 0,
                delivered: 0,
                utility: f64::NAN,
            },
        };
        assert!(nan.to_jsonl().contains("\"utility\":null"));
    }

    #[test]
    fn integers_are_what_display_writes() {
        let edges = [
            0,
            9,
            10,
            99,
            100,
            10u64.pow(19) - 1,
            10u64.pow(19),
            u64::MAX,
        ];
        for v in edges {
            let mut s = String::from("x");
            push_u64(&mut s, v);
            assert_eq!(s, format!("x{v}"));
            // As `seq`, as `t_us` and as a payload field.
            let r = TraceRecord {
                t_us: v,
                seq: v,
                event: TraceEvent::MsgDelivered {
                    from: v,
                    to: 3,
                    latency_us: v,
                },
            };
            assert_eq!(
                r.to_jsonl(),
                format!(
                    "{{\"seq\":{v},\"t_us\":{v},\"sub\":\"netsim\",\"kind\":\"msg_delivered\",\
                     \"from\":{v},\"to\":3,\"latency_us\":{v}}}\n"
                )
            );
        }
    }

    #[test]
    fn string_escaping_guards_control_characters() {
        let mut s = String::new();
        "a\"b\\c\nd\u{1}".put(&mut s);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
