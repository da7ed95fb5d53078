//! The bridge proper: bounded egress ring, connection state machine,
//! exactly-once accounting, and idempotent command ingress.
//!
//! # Design invariants
//!
//! * **The mission never notices the bridge.** The bridge observes the
//!   mission only through a [`TraceSink`] (sinks are invisible to
//!   mission metrics and digests by construction) and keeps its own
//!   private [`Recorder`] for `bridge.*` metrics. Attaching a bridge —
//!   even one whose transport is on fire — cannot perturb the mission's
//!   `EndStateDigest` or metrics fingerprint.
//! * **No wall clock.** The bridge's time base is its own pump-tick
//!   counter; backoff and heartbeats are measured in ticks, and retry
//!   jitter comes from the seeded failpoint hash. Same seed + same
//!   event stream + same fault schedule ⇒ same bridge behaviour.
//! * **Exactly-once accounting.** Every frame offered to the sink is
//!   counted exactly once: `delivered + dropped + buffered == emitted`
//!   at every instant ([`BridgeReport::accounted`]). At-least-once on
//!   the wire (a send that errors is retried after reconnect, so
//!   consumers dedupe by `seq`), exactly-once in the ledger.
//! * **Idempotent ingress.** Commands carry `(src, seq)`; each is
//!   applied at most once, duplicates and stale replays are counted
//!   and dropped, and torn frames are rejected with typed errors.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use iobt_core::TaskBoard;
use iobt_faults::failpoint::failpoint_hash;
use iobt_obs::{MetricsDigest, Recorder, TraceEvent, TraceRecord, TraceSink};
use iobt_types::NodeId;

use crate::frame::{encode_frame, parse_command, CommandAction};
use crate::transport::{Transport, TransportError};

/// Failpoint domain for reconnect jitter (bridge-local).
const DOMAIN_JITTER: u64 = 0x42_10;

/// What to do when a frame arrives and the egress ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Evict the oldest buffered frame to make room (freshness wins).
    DropOldest,
    /// Reject the incoming frame (history wins).
    DropNewest,
    /// Try to flush the ring inline, up to `deadline` transport
    /// attempts; if no slot frees up, fall back to dropping the
    /// incoming frame (counted as `block_timeout`). Deterministic: the
    /// "deadline" is an attempt budget, not a wall-clock wait.
    Block {
        /// Maximum inline flush attempts before giving up on the frame.
        deadline: u64,
    },
}

/// Bridge connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Transport up, frames flowing.
    Connected,
    /// Transport up but back-pressured (last send stalled); the bridge
    /// keeps buffering and retries without reconnecting.
    Degraded,
    /// Transport down; reconnect attempts are being paced by capped
    /// exponential backoff with seeded jitter.
    Reconnecting,
    /// The reconnect budget is exhausted: the bridge has detached. The
    /// mission continues; frames offered from here on are counted and
    /// discarded.
    GaveUp,
}

impl fmt::Display for ConnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnState::Connected => "connected",
            ConnState::Degraded => "degraded",
            ConnState::Reconnecting => "reconnecting",
            ConnState::GaveUp => "gave_up",
        };
        write!(f, "{s}")
    }
}

/// Typed bridge failure, surfaced by the draining helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeError {
    /// The bridge exhausted its reconnect budget and detached,
    /// discarding the buffered frames.
    GaveUp {
        /// Frames discarded when the bridge detached.
        discarded: u64,
    },
    /// The tick budget ran out before the ring drained.
    Timeout {
        /// Frames still buffered when the budget ran out.
        buffered: u64,
    },
    /// A transport-level failure (carried for callers that drive the
    /// transport directly).
    Transport(TransportError),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::GaveUp { discarded } => {
                write!(f, "bridge gave up; discarded {discarded} frames")
            }
            BridgeError::Timeout { buffered } => {
                write!(f, "drain budget exhausted; {buffered} frames buffered")
            }
            BridgeError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Bridge configuration. All durations are pump ticks, never wall
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeConfig {
    /// Mission id used in the topic hierarchy (`iobt/<mission>/…`).
    pub mission: u64,
    /// Seed for reconnect jitter (and nothing else).
    pub seed: u64,
    /// Egress ring capacity in frames (minimum 1).
    pub ring_capacity: usize,
    /// What to do when the ring is full.
    pub overflow: OverflowPolicy,
    /// First reconnect backoff, in ticks.
    pub backoff_base: u64,
    /// Backoff ceiling, in ticks.
    pub backoff_cap: u64,
    /// Consecutive failed reconnect attempts before the bridge gives
    /// up and detaches.
    pub max_attempts: u64,
    /// Emit a liveness heartbeat every N ticks while connected
    /// (0 disables).
    pub heartbeat_every: u64,
    /// Maximum frames pushed to the transport per pump tick.
    pub batch_per_tick: usize,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            mission: 0,
            seed: 0,
            ring_capacity: 1024,
            overflow: OverflowPolicy::DropOldest,
            backoff_base: 1,
            backoff_cap: 64,
            max_attempts: 8,
            heartbeat_every: 16,
            batch_per_tick: 32,
        }
    }
}

/// Snapshot of the bridge's ledger and state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeReport {
    /// Frames offered to the sink (heartbeats excluded).
    pub emitted: u64,
    /// Frames the transport accepted.
    pub delivered: u64,
    /// Frames dropped (overflow, block timeout, give-up discard).
    pub dropped: u64,
    /// Frames currently buffered in the ring.
    pub buffered: u64,
    /// Liveness heartbeats sent (outside the frame ledger).
    pub heartbeats: u64,
    /// Successful connects.
    pub connects: u64,
    /// Reconnect attempts that failed and were backed off.
    pub retries: u64,
    /// Current connection state.
    pub state: ConnState,
    /// Ingress commands accepted (applied when a task board is
    /// attached).
    pub cmds_applied: u64,
    /// Ingress duplicates/stale replays rejected by the `(src, seq)`
    /// dedup window.
    pub cmds_dup: u64,
    /// Ingress frames rejected as unparseable or unknown.
    pub cmds_rejected: u64,
}

impl BridgeReport {
    /// The exactly-once ledger invariant: every emitted frame is in
    /// exactly one of delivered / dropped / buffered.
    pub fn accounted(&self) -> bool {
        self.delivered + self.dropped + self.buffered == self.emitted
    }
}

struct BridgeCore {
    config: BridgeConfig,
    transport: Box<dyn Transport>,
    recorder: Recorder,
    state: ConnState,
    ring: VecDeque<String>,
    emitted: u64,
    delivered: u64,
    dropped: u64,
    heartbeats: u64,
    connects: u64,
    retries: u64,
    /// Consecutive failed reconnect attempts in the current outage.
    attempts: u64,
    /// Pump-tick counter: the bridge's only clock.
    tick: u64,
    /// Earliest tick at which the next reconnect may be attempted.
    next_retry_at: u64,
    /// Frames the ring held when the bridge detached (see `give_up`).
    discarded: u64,
    board: Option<TaskBoard>,
    /// Highest applied sequence number per command source.
    last_seq: BTreeMap<u64, u64>,
    cmds_applied: u64,
    cmds_dup: u64,
    cmds_rejected: u64,
}

impl BridgeCore {
    fn record(&self, event: TraceEvent) {
        self.recorder.record_at(self.tick, event);
    }

    /// The transport holds a connection, stalled or not.
    fn link_up(&self) -> bool {
        matches!(self.state, ConnState::Connected | ConnState::Degraded)
    }

    /// Accepts one encoded frame from the sink, applying the overflow
    /// policy. This is the only entry point that grows `emitted`.
    fn offer(&mut self, frame: String) {
        self.emitted += 1;
        self.recorder.inc("bridge.emitted", 1);
        if self.state == ConnState::GaveUp {
            // Detached: count and discard, no per-frame event spam.
            self.dropped += 1;
            self.recorder.inc("bridge.dropped", 1);
            return;
        }
        if self.ring.len() < self.config.ring_capacity.max(1) {
            self.ring.push_back(frame);
            return;
        }
        match self.config.overflow {
            OverflowPolicy::DropOldest => {
                self.ring.pop_front();
                self.dropped += 1;
                self.record(TraceEvent::BridgeDrop {
                    cause: "overflow_oldest",
                    frames: 1,
                });
                self.ring.push_back(frame);
            }
            OverflowPolicy::DropNewest => {
                self.dropped += 1;
                self.record(TraceEvent::BridgeDrop {
                    cause: "overflow_newest",
                    frames: 1,
                });
            }
            OverflowPolicy::Block { deadline } => {
                for _ in 0..deadline {
                    if !self.link_up() {
                        break;
                    }
                    if self.flush(1) == 1 && self.ring.len() < self.config.ring_capacity.max(1) {
                        self.ring.push_back(frame);
                        return;
                    }
                }
                self.dropped += 1;
                self.record(TraceEvent::BridgeDrop {
                    cause: "block_timeout",
                    frames: 1,
                });
            }
        }
    }

    /// Hands the transport the first `n` buffered frames as one batch and
    /// retires the prefix it accepted — the bridge's only frame egress,
    /// whether a pump tick or the `Block` policy asks. Returns how many
    /// frames that was; a failure updates the connection state.
    fn flush(&mut self, n: usize) -> usize {
        let mut batch = self.ring.iter().take(n).map(String::as_bytes);
        let (sent, outcome) = self.transport.send_batch(&mut batch);
        if sent > 0 {
            self.ring.drain(..sent);
            self.delivered += sent as u64;
            self.recorder.inc("bridge.delivered", sent as u64);
            if self.state == ConnState::Degraded {
                self.state = ConnState::Connected;
            }
        }
        if let Err(e) = outcome {
            self.on_send_failure(e);
        }
        sent
    }

    fn on_send_failure(&mut self, e: TransportError) {
        match e {
            TransportError::Busy => self.state = ConnState::Degraded,
            TransportError::Disconnected | TransportError::Refused => self.begin_reconnect(),
        }
    }

    fn begin_reconnect(&mut self) {
        self.transport.close();
        self.state = ConnState::Reconnecting;
        self.attempts = 0;
        self.next_retry_at = self.tick + 1;
    }

    /// One reconnect attempt, paced by the backoff schedule.
    fn try_reconnect(&mut self) {
        if self.tick < self.next_retry_at {
            return;
        }
        match self.transport.connect() {
            Ok(()) => {
                self.state = ConnState::Connected;
                self.connects += 1;
                self.attempts = 0;
                self.record(TraceEvent::BridgeConnect {
                    attempt: self.connects,
                });
            }
            Err(_) => {
                self.attempts += 1;
                self.retries += 1;
                if self.attempts >= self.config.max_attempts.max(1) {
                    self.give_up();
                    return;
                }
                // Capped exponential backoff with seeded jitter: the
                // jitter term is a pure function of (seed, connect
                // generation, attempt), so two same-seed runs back off
                // identically.
                let exp = (self.attempts - 1).min(16) as u32;
                let base = self
                    .config
                    .backoff_base
                    .max(1)
                    .saturating_mul(1u64 << exp)
                    .min(self.config.backoff_cap.max(1));
                let jitter =
                    failpoint_hash(self.config.seed, DOMAIN_JITTER, self.connects, self.attempts)
                        % (base / 2 + 1);
                let backoff = base + jitter;
                self.next_retry_at = self.tick + backoff;
                self.record(TraceEvent::BridgeRetry {
                    attempt: self.attempts,
                    backoff_ticks: backoff,
                });
            }
        }
    }

    /// Detach: discard the ring (counted), emit the terminal events,
    /// and stop driving the transport. The mission is unaffected.
    fn give_up(&mut self) {
        let discarded = self.ring.len() as u64;
        if discarded > 0 {
            self.dropped += discarded;
            self.ring.clear();
            self.record(TraceEvent::BridgeDrop {
                cause: "gave_up",
                frames: discarded,
            });
        }
        self.record(TraceEvent::BridgeGaveUp {
            attempts: self.attempts,
            discarded,
        });
        self.transport.close();
        self.state = ConnState::GaveUp;
        self.discarded = discarded;
    }

    fn maybe_heartbeat(&mut self) {
        let every = self.config.heartbeat_every;
        if every == 0 || self.state != ConnState::Connected || !self.tick.is_multiple_of(every) {
            return;
        }
        let beat = format!(
            "{{\"topic\":\"iobt/{}/-/heartbeat\",\"tick\":{},\"buffered\":{}}}\n",
            self.config.mission,
            self.tick,
            self.ring.len()
        );
        match self.transport.send(beat.as_bytes()) {
            Ok(()) => {
                self.heartbeats += 1;
                self.recorder.inc("bridge.heartbeats", 1);
            }
            Err(e) => self.on_send_failure(e),
        }
    }

    /// Polls the transport for inbound tasking commands and applies
    /// each `(src, seq)` at most once.
    fn poll_ingress(&mut self) {
        for _ in 0..self.config.batch_per_tick.max(1) {
            if !self.link_up() {
                return;
            }
            match self.transport.recv() {
                Ok(Some(frame)) => self.handle_command(&frame),
                Ok(None) | Err(TransportError::Busy) => return,
                Err(_) => {
                    self.begin_reconnect();
                    return;
                }
            }
        }
    }

    fn handle_command(&mut self, frame: &[u8]) {
        let cmd = match parse_command(frame) {
            Ok(cmd) => cmd,
            Err(_) => {
                self.cmds_rejected += 1;
                self.recorder.inc("bridge.cmd_rejected", 1);
                return;
            }
        };
        if let Some(&last) = self.last_seq.get(&cmd.src) {
            if cmd.seq <= last {
                self.cmds_dup += 1;
                self.record(TraceEvent::BridgeCmdDup {
                    src: cmd.src,
                    cmd_seq: cmd.seq,
                    stale: cmd.seq < last,
                });
                return;
            }
        }
        self.last_seq.insert(cmd.src, cmd.seq);
        match cmd.action {
            CommandAction::Assign { node } => {
                if let Some(board) = &self.board {
                    board.borrow_mut().assign(NodeId::new(node));
                }
            }
        }
        self.cmds_applied += 1;
        self.recorder.inc("bridge.cmd_applied", 1);
    }

    /// One pump tick: advance the clock, run the state machine, move
    /// at most `batch_per_tick` frames, poll ingress.
    fn pump(&mut self) -> ConnState {
        self.tick += 1;
        if self.state == ConnState::Reconnecting {
            self.try_reconnect();
        }
        if self.link_up() {
            self.maybe_heartbeat();
            // The heartbeat may just have found the link dead. A degraded
            // transport is probed by the batch itself: the first frame it
            // accepts flips the state back to Connected.
            if self.link_up() {
                self.flush(self.config.batch_per_tick.max(1));
            }
            self.poll_ingress();
        }
        self.state
    }

    fn report(&self) -> BridgeReport {
        BridgeReport {
            emitted: self.emitted,
            delivered: self.delivered,
            dropped: self.dropped,
            buffered: self.ring.len() as u64,
            heartbeats: self.heartbeats,
            connects: self.connects,
            retries: self.retries,
            state: self.state,
            cmds_applied: self.cmds_applied,
            cmds_dup: self.cmds_dup,
            cmds_rejected: self.cmds_rejected,
        }
    }
}

/// The edge bridge: drains mission trace events onto a topic hierarchy
/// over a pluggable [`Transport`], and feeds external tasking commands
/// back through the mission's acked `TaskBoard` path.
///
/// Cheap to clone (shared handle). Create with [`Bridge::new`], attach
/// its [`Bridge::sink`] to the *mission's* recorder, and call
/// [`Bridge::pump`] between mission windows (or whenever the host
/// loop likes — the bridge has no clock of its own).
#[derive(Clone)]
pub struct Bridge {
    core: Rc<RefCell<BridgeCore>>,
}

impl Bridge {
    /// Creates a bridge with a metrics-only private recorder.
    pub fn new(config: BridgeConfig, transport: Box<dyn Transport>) -> Self {
        Bridge::with_recorder(config, transport, Recorder::null())
    }

    /// Creates a bridge that records its own `bridge.*` events and
    /// metrics into `recorder` (NEVER pass the mission's recorder:
    /// the bridge keeps a separate ledger precisely so attaching it
    /// cannot perturb mission digests).
    pub fn with_recorder(
        config: BridgeConfig,
        transport: Box<dyn Transport>,
        recorder: Recorder,
    ) -> Self {
        Bridge {
            core: Rc::new(RefCell::new(BridgeCore {
                config,
                transport,
                recorder,
                // Starts disconnected; the first pump dials out.
                state: ConnState::Reconnecting,
                ring: VecDeque::new(),
                emitted: 0,
                delivered: 0,
                dropped: 0,
                heartbeats: 0,
                connects: 0,
                retries: 0,
                attempts: 0,
                tick: 0,
                next_retry_at: 0,
                discarded: 0,
                board: None,
                last_seq: BTreeMap::new(),
                cmds_applied: 0,
                cmds_dup: 0,
                cmds_rejected: 0,
            })),
        }
    }

    /// The sink to attach to the mission recorder
    /// (`Recorder::with_sink(Box::new(bridge.sink()))`).
    pub fn sink(&self) -> BridgeSink {
        BridgeSink {
            core: Rc::clone(&self.core),
        }
    }

    /// Attaches the mission's task board so ingress `assign` commands
    /// enter the acked tasking path
    /// (see `MissionRunner::task_board`).
    pub fn attach_board(&self, board: TaskBoard) {
        self.core.borrow_mut().board = Some(board);
    }

    /// One pump tick; returns the state after the tick.
    pub fn pump(&self) -> ConnState {
        self.core.borrow_mut().pump()
    }

    /// Pumps `n` ticks; returns the final state.
    pub fn pump_n(&self, n: u64) -> ConnState {
        let mut core = self.core.borrow_mut();
        let mut state = core.state;
        for _ in 0..n {
            state = core.pump();
        }
        state
    }

    /// Pumps until the ring is empty, the bridge gives up, or
    /// `max_ticks` elapse. Returns the ticks consumed.
    pub fn drain(&self, max_ticks: u64) -> Result<u64, BridgeError> {
        let mut core = self.core.borrow_mut();
        let mut used = 0;
        loop {
            if core.state == ConnState::GaveUp {
                return Err(BridgeError::GaveUp {
                    discarded: core.discarded,
                });
            }
            if core.ring.is_empty() && (core.state == ConnState::Connected || used == max_ticks) {
                return Ok(used);
            }
            if used == max_ticks {
                return Err(BridgeError::Timeout {
                    buffered: core.ring.len() as u64,
                });
            }
            core.pump();
            used += 1;
        }
    }

    /// Current connection state.
    pub fn state(&self) -> ConnState {
        self.core.borrow().state
    }

    /// Ledger snapshot.
    pub fn report(&self) -> BridgeReport {
        self.core.borrow().report()
    }

    /// Digest of the bridge's private `bridge.*` metrics.
    pub fn metrics_digest(&self) -> MetricsDigest {
        self.core.borrow().recorder.metrics_digest()
    }
}

impl fmt::Debug for Bridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.report();
        f.debug_struct("Bridge")
            .field("state", &r.state)
            .field("emitted", &r.emitted)
            .field("delivered", &r.delivered)
            .field("dropped", &r.dropped)
            .field("buffered", &r.buffered)
            .finish()
    }
}

/// The [`TraceSink`] face of the bridge: encodes each record onto its
/// topic and offers it to the egress ring. Attach to the mission
/// recorder; the mission's own metrics/digests are unaffected by
/// anything this sink does.
pub struct BridgeSink {
    core: Rc<RefCell<BridgeCore>>,
}

impl TraceSink for BridgeSink {
    fn accept(&mut self, record: &TraceRecord) {
        let mut core = self.core.borrow_mut();
        let frame = encode_frame(core.config.mission, record);
        core.offer(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::memory_pair;
    use iobt_obs::TraceEvent;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            t_us: seq * 10,
            seq,
            event: TraceEvent::MsgSent { from: seq, to: 0 },
        }
    }

    fn bridge_with(config: BridgeConfig) -> (Bridge, crate::transport::MemoryEndpoint) {
        let (t, peer) = memory_pair();
        (Bridge::new(config, Box::new(t)), peer)
    }

    #[test]
    fn frames_flow_end_to_end_with_exact_accounting() {
        let (bridge, peer) = bridge_with(BridgeConfig {
            mission: 7,
            ..BridgeConfig::default()
        });
        let mut sink = bridge.sink();
        for i in 0..5 {
            sink.accept(&rec(i));
        }
        bridge.drain(100).expect("drain");
        let frames = peer.take_frames();
        assert_eq!(frames.len(), 5);
        let first = String::from_utf8(frames[0].clone()).expect("utf8");
        assert!(first.starts_with("{\"topic\":\"iobt/7/0/msg_sent\""));
        let r = bridge.report();
        assert!(r.accounted(), "ledger must balance: {r:?}");
        assert_eq!(r.delivered, 5);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn drop_oldest_keeps_freshest_and_counts() {
        let (bridge, _peer) = bridge_with(BridgeConfig {
            ring_capacity: 2,
            overflow: OverflowPolicy::DropOldest,
            heartbeat_every: 0,
            ..BridgeConfig::default()
        });
        let mut sink = bridge.sink();
        for i in 0..5 {
            sink.accept(&rec(i));
        }
        let r = bridge.report();
        assert_eq!(r.emitted, 5);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.buffered, 2);
        assert!(r.accounted());
        assert_eq!(bridge.metrics_digest().counter("bridge.dropped"), Some(3));
    }

    #[test]
    fn gave_up_detaches_and_keeps_counting() {
        let (bridge, peer) = bridge_with(BridgeConfig {
            max_attempts: 2,
            backoff_base: 1,
            backoff_cap: 1,
            ..BridgeConfig::default()
        });
        peer.refuse_connects(true);
        let mut sink = bridge.sink();
        sink.accept(&rec(0));
        assert!(matches!(bridge.drain(100), Err(BridgeError::GaveUp { .. })));
        assert_eq!(bridge.state(), ConnState::GaveUp);
        // Post-detach frames are counted, not buffered.
        sink.accept(&rec(1));
        let r = bridge.report();
        assert_eq!(r.emitted, 2);
        assert_eq!(r.dropped, 2);
        assert_eq!(r.buffered, 0);
        assert!(r.accounted());
    }

    #[test]
    fn drain_reports_what_the_detach_discarded_not_every_drop() {
        let (bridge, peer) = bridge_with(BridgeConfig {
            ring_capacity: 2,
            overflow: OverflowPolicy::DropOldest,
            max_attempts: 2,
            backoff_cap: 1,
            ..BridgeConfig::default()
        });
        peer.refuse_connects(true);
        let mut sink = bridge.sink();
        for i in 0..5 {
            sink.accept(&rec(i));
        }
        // Three overflow drops before the detach, two frames discarded by it.
        assert_eq!(bridge.drain(100), Err(BridgeError::GaveUp { discarded: 2 }));
        assert_eq!(bridge.report().dropped, 5);
        // A detached bridge says so even with no ticks to spend.
        assert_eq!(bridge.drain(0), Err(BridgeError::GaveUp { discarded: 2 }));
    }

    #[test]
    fn ingress_commands_are_idempotent() {
        let (t, peer) = memory_pair();
        let trace = iobt_obs::SharedBytes::new();
        let recorder = Recorder::jsonl(trace.clone());
        let bridge = Bridge::with_recorder(BridgeConfig::default(), Box::new(t), recorder.clone());
        let board = iobt_core::new_task_board();
        bridge.attach_board(board.clone());
        bridge.pump(); // connect
        let cmd = b"{\"src\":1,\"seq\":1,\"cmd\":\"assign\",\"node\":9}";
        peer.push_command(cmd);
        peer.push_command(cmd); // duplicate
        peer.push_command(b"{\"src\":1,\"seq\":0,\"cmd\":\"assign\",\"node\":9}"); // stale
        peer.push_command(b"torn{garbage"); // corrupt
        bridge.pump();
        let r = bridge.report();
        assert_eq!(r.cmds_applied, 1);
        assert_eq!(r.cmds_dup, 2);
        assert_eq!(r.cmds_rejected, 1);
        assert_eq!(bridge.metrics_digest().counter("bridge.cmd_dup"), Some(2));
        // The rejected command's sequence is `cmd_seq`: a second `"seq"`
        // key would shadow the record's own in any JSON reader.
        recorder.flush();
        let text = trace.to_string_lossy();
        let dups: Vec<&str> = text.lines().filter(|l| l.contains("bridge_cmd_dup")).collect();
        assert_eq!(
            dups,
            [
                "{\"seq\":1,\"t_us\":2,\"sub\":\"bridge\",\"kind\":\"bridge_cmd_dup\",\"src\":1,\"cmd_seq\":1,\"stale\":false}",
                "{\"seq\":2,\"t_us\":2,\"sub\":\"bridge\",\"kind\":\"bridge_cmd_dup\",\"src\":1,\"cmd_seq\":0,\"stale\":true}",
            ]
        );
    }

    /// The `seq` of a trace frame: `{"topic":"…","seq":N,…`.
    fn seq_of(frame: &[u8]) -> u64 {
        let text = std::str::from_utf8(frame).expect("utf8");
        let rest = &text[text.find(",\"seq\":").expect("a seq key") + 7..];
        rest[..rest.find(',').expect("a key after seq")]
            .parse()
            .expect("a number")
    }

    #[test]
    fn tcp_consumer_that_drops_the_socket_gets_every_frame_once() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let bridge = Bridge::new(
            BridgeConfig {
                heartbeat_every: 0,
                batch_per_tick: 64,
                ..BridgeConfig::default()
            },
            Box::new(crate::transport::TcpTransport::new(addr)),
        );
        let mut sink = bridge.sink();
        let mut seen = BTreeMap::new();
        let mut read = |stream: &mut std::net::TcpStream, frames: u64| {
            let first = bridge.report().delivered - frames;
            for expected in first..first + frames {
                let frame = crate::transport::read_framed(stream)
                    .expect("read")
                    .expect("a frame");
                assert_eq!(seq_of(&frame), expected, "frames arrive in ring order");
                *seen.entry(expected).or_insert(0u32) += 1;
            }
        };

        for seq in 0..10 {
            sink.accept(&rec(seq));
        }
        bridge.pump(); // dials (the connect completes against the backlog), sends ten
        let (mut first, _) = listener.accept().expect("first accept");
        read(&mut first, 10);
        drop(first);
        // TCP shows the bridge no acknowledgement: a frame written after
        // the peer closed and before the bridge noticed is counted
        // delivered and never read. Nothing is offered until the ingress
        // poll has seen the EOF, so this test never writes in that gap.
        let mut polls = 0;
        while bridge.pump() == ConnState::Connected {
            polls += 1;
            assert!(polls < 10_000_000, "the EOF never surfaced");
            std::thread::yield_now();
        }
        assert_eq!(bridge.state(), ConnState::Reconnecting);
        for seq in 10..50 {
            sink.accept(&rec(seq)); // buffered through the outage
        }
        assert_eq!(bridge.report().buffered, 40);
        bridge.drain(100).expect("redial and drain");
        let (mut second, _) = listener.accept().expect("second accept");
        read(&mut second, 40); // from the ring front: 10 first

        let r = bridge.report();
        assert_eq!(
            (r.connects, r.delivered, r.dropped, r.buffered),
            (2, 50, 0, 0)
        );
        assert!(r.accounted());
        assert_eq!(
            seen,
            (0..50).map(|seq| (seq, 1)).collect::<BTreeMap<u64, u32>>()
        );
    }

    #[test]
    fn reconnect_backs_off_and_recovers() {
        let (bridge, peer) = bridge_with(BridgeConfig {
            max_attempts: 10,
            ..BridgeConfig::default()
        });
        peer.refuse_connects(true);
        bridge.pump_n(5);
        assert_eq!(bridge.state(), ConnState::Reconnecting);
        assert!(bridge.report().retries > 0);
        peer.refuse_connects(false);
        bridge.pump_n(200);
        assert_eq!(bridge.state(), ConnState::Connected);
        assert_eq!(bridge.report().connects, 1);
    }
}
