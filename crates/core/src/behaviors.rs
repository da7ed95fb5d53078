//! Simulator behaviours used by the mission runtime.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use iobt_ckpt::{Dec, Enc};
use iobt_netsim::{
    Behavior, BehaviorRegistry, BehaviorSnapshot, Bytes, Context, Message, SimDuration, SimTime,
};
use iobt_obs::TraceEvent;
use iobt_types::NodeId;

/// Message kind tag for periodic sensor reports.
pub const KIND_REPORT: u32 = 1;
/// Message kind tag for task assignments (command post → sensor).
pub const KIND_TASK: u32 = 2;
/// Message kind tag for task acknowledgements (sensor → command post).
pub const KIND_TASK_ACK: u32 = 3;

/// Behaviour-registry kind for [`CommandSink`].
pub const BEHAVIOR_COMMAND_SINK: &str = "core.command_sink";
/// Behaviour-registry kind for [`TaskingSink`].
pub const BEHAVIOR_TASKING_SINK: &str = "core.tasking_sink";
/// Behaviour-registry kind for [`SensorReporter`].
pub const BEHAVIOR_SENSOR_REPORTER: &str = "core.sensor_reporter";

/// Builds the behaviour registry for mission checkpoints: factories for
/// every behaviour kind the runtime deploys, each capturing the shared
/// report log / task board handles so reconstructed behaviours write
/// into the *same* shared state the resumed runtime reads.
pub fn mission_behavior_registry(log: &ReportLog, board: &TaskBoard) -> BehaviorRegistry {
    let mut registry = BehaviorRegistry::new();
    let sink_log = log.clone();
    registry.register(BEHAVIOR_COMMAND_SINK, move || {
        Box::new(CommandSink::new(sink_log.clone()))
    });
    let task_log = log.clone();
    let task_board = board.clone();
    registry.register(BEHAVIOR_TASKING_SINK, move || {
        // Blank instance; restore_state overwrites attempts/backoff.
        Box::new(TaskingSink::new(
            task_log.clone(),
            task_board.clone(),
            1,
            SimDuration::from_millis(1),
        ))
    });
    registry.register(BEHAVIOR_SENSOR_REPORTER, move || {
        // Blank instance; restore_state overwrites every field.
        Box::new(SensorReporter::new(
            NodeId::new(0),
            SimDuration::from_millis(1),
            0,
        ))
    });
    registry
}

/// A delivered sensor report as logged by the command sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredReport {
    /// Reporting sensor node.
    pub from: NodeId,
    /// Delivery time.
    pub at: SimTime,
}

/// Shared log of reports received at the command post.
pub type ReportLog = Rc<RefCell<Vec<DeliveredReport>>>;

/// Creates an empty shared report log.
pub fn new_report_log() -> ReportLog {
    Rc::new(RefCell::new(Vec::new()))
}

/// Command-post behaviour: records every report it receives.
#[derive(Debug)]
pub struct CommandSink {
    log: ReportLog,
}

impl CommandSink {
    /// Creates a sink writing into the shared log.
    pub fn new(log: ReportLog) -> Self {
        CommandSink { log }
    }
}

impl Behavior for CommandSink {
    fn save_state(&self) -> Option<BehaviorSnapshot> {
        // The shared log handle is supplied by the registry factory;
        // the sink itself carries no other state.
        let Self { log: _ } = self;
        Some(BehaviorSnapshot::new(BEHAVIOR_COMMAND_SINK, Vec::new()))
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        let Self { log: _ } = self;
        state.is_empty()
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, msg: &Message) {
        // Reports carried by a compromised relay arrive with the
        // integrity flag raised; they are never logged, so their senders
        // look silent and the failure detector / repair reflex treats
        // them as lost (§IV: discard what partially-trusted assets may
        // have corrupted).
        if msg.kind() == KIND_REPORT && !msg.tampered() {
            self.log.borrow_mut().push(DeliveredReport {
                from: msg.src(),
                at: ctx.now(),
            });
        }
    }
}

/// Counters for acknowledged task dissemination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TaskingStats {
    /// Task assignments issued by the runtime.
    pub assigned: u64,
    /// Assignments acknowledged by the tasked sensor.
    pub acked: u64,
    /// Retransmissions after an unacknowledged attempt.
    pub retries: u64,
    /// Assignments abandoned after the attempt cap.
    pub abandoned: u64,
    /// Reports or acks rejected because they arrived tampered.
    pub tampered_rejected: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingTask {
    attempts: u32,
    next_at: SimTime,
}

/// Shared state between the runtime (which assigns tasks) and the
/// [`TaskingSink`] behaviour (which disseminates them inside the sim).
#[derive(Debug, Default)]
pub struct TaskBoardInner {
    pending: BTreeMap<NodeId, PendingTask>,
    stats: TaskingStats,
}

impl TaskBoardInner {
    /// Queues a task assignment for `node`; the sink will start sending
    /// it at its next dissemination tick. Re-assigning a node already
    /// pending is a no-op.
    pub fn assign(&mut self, node: NodeId) {
        if self
            .pending
            .insert(
                node,
                PendingTask {
                    attempts: 0,
                    next_at: SimTime::ZERO,
                },
            )
            .is_none()
        {
            self.stats.assigned += 1;
        }
    }

    /// Assignments still awaiting an ack.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// The full retransmit state — `(node, attempts, next retry time)`
    /// per pending assignment, ascending node id — for checkpoints.
    pub fn pending_entries(&self) -> Vec<(NodeId, u32, SimTime)> {
        self.pending
            .iter()
            .map(|(&n, t)| (n, t.attempts, t.next_at))
            .collect()
    }

    /// Overwrites the board wholesale from checkpointed state.
    pub fn restore(&mut self, pending: &[(NodeId, u32, SimTime)], stats: TaskingStats) {
        self.pending = pending
            .iter()
            .map(|&(n, attempts, next_at)| (n, PendingTask { attempts, next_at }))
            .collect();
        self.stats = stats;
    }

    /// Current counters.
    pub fn stats(&self) -> TaskingStats {
        self.stats
    }
}

/// Shared handle to the task board.
pub type TaskBoard = Rc<RefCell<TaskBoardInner>>;

/// Creates an empty shared task board.
pub fn new_task_board() -> TaskBoard {
    Rc::new(RefCell::new(TaskBoardInner::default()))
}

/// Command-post behaviour with acknowledged task dissemination: logs
/// reports like [`CommandSink`] and, on a fixed tick, (re)transmits
/// pending task assignments with deterministic capped exponential
/// backoff — attempt `k` waits `retry_base × 2^(k-1)` before the next —
/// until acked or the attempt cap is reached.
#[derive(Debug)]
pub struct TaskingSink {
    log: ReportLog,
    board: TaskBoard,
    max_attempts: u32,
    retry_base: SimDuration,
}

impl TaskingSink {
    /// Creates a tasking sink. `max_attempts` is clamped to ≥ 1;
    /// `retry_base` to ≥ 1 ms (the dissemination tick is a quarter of
    /// it, so a zero base would busy-loop the event queue).
    pub fn new(
        log: ReportLog,
        board: TaskBoard,
        max_attempts: u32,
        retry_base: SimDuration,
    ) -> Self {
        TaskingSink {
            log,
            board,
            max_attempts: max_attempts.max(1),
            retry_base: SimDuration::from_micros(retry_base.as_micros().max(1_000)),
        }
    }

    fn tick(&self) -> SimDuration {
        SimDuration::from_micros((self.retry_base.as_micros() / 4).max(250))
    }

    fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(20);
        SimDuration::from_micros(self.retry_base.as_micros().saturating_mul(1 << exp))
    }
}

impl Behavior for TaskingSink {
    fn save_state(&self) -> Option<BehaviorSnapshot> {
        // Shared log/board handles come from the registry factory; the
        // board's pending map is checkpointed separately by the runner.
        let Self { log: _, board: _, max_attempts, retry_base } = self;
        let mut e = Enc::new();
        e.u32(*max_attempts);
        e.put(retry_base);
        Some(BehaviorSnapshot::new(BEHAVIOR_TASKING_SINK, e.into_bytes()))
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        // Coverage guard: every field's restore story is decided below
        // (shared handles keep their factory-supplied values).
        let Self { log: _, board: _, max_attempts: _, retry_base: _ } = self;
        let mut d = Dec::new(state);
        let Ok(max_attempts) = d.u32() else {
            return false;
        };
        let Ok(retry_base) = d.get::<SimDuration>() else {
            return false;
        };
        if d.finish().is_err() || max_attempts == 0 || retry_base.as_micros() < 1_000 {
            // The constructor clamps attempts ≥ 1 and base ≥ 1 ms; a
            // snapshot violating either is corrupt, not a valid state.
            return false;
        }
        self.max_attempts = max_attempts;
        self.retry_base = retry_base;
        true
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.tick(), 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        let now = ctx.now();
        // Decide inside one board borrow, act (send/record) outside it.
        let mut send: Vec<(NodeId, u32)> = Vec::new();
        let mut dropped: Vec<(NodeId, u32)> = Vec::new();
        {
            let mut board = self.board.borrow_mut();
            let due: Vec<NodeId> = board
                .pending
                .iter()
                .filter(|(_, t)| t.next_at <= now)
                .map(|(&n, _)| n)
                .collect();
            for node in due {
                // lint: allow(panic) — `node` comes from the pending map two lines up
                let task = board.pending.get_mut(&node).expect("pending task");
                if task.attempts >= self.max_attempts {
                    let attempts = task.attempts;
                    board.pending.remove(&node);
                    board.stats.abandoned += 1;
                    dropped.push((node, attempts));
                } else {
                    task.attempts += 1;
                    let attempts = task.attempts;
                    task.next_at = now + self.backoff(attempts);
                    if attempts > 1 {
                        board.stats.retries += 1;
                    }
                    send.push((node, attempts));
                }
            }
        }
        for &(node, attempts) in &send {
            if attempts > 1 {
                ctx.recorder().record(TraceEvent::TaskRetry {
                    node: node.raw(),
                    attempt: u64::from(attempts),
                });
            }
            ctx.send(node, KIND_TASK, Bytes::new());
        }
        for &(node, attempts) in &dropped {
            ctx.recorder().record(TraceEvent::TaskAbandoned {
                node: node.raw(),
                attempts: u64::from(attempts),
            });
        }
        ctx.set_timer(self.tick(), 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, msg: &Message) {
        if msg.tampered() {
            self.board.borrow_mut().stats.tampered_rejected += 1;
            return;
        }
        match msg.kind() {
            KIND_REPORT => {
                self.log.borrow_mut().push(DeliveredReport {
                    from: msg.src(),
                    at: ctx.now(),
                });
            }
            KIND_TASK_ACK => {
                let mut board = self.board.borrow_mut();
                if board.pending.remove(&msg.src()).is_some() {
                    board.stats.acked += 1;
                }
            }
            _ => {}
        }
    }
}

/// Sensor behaviour: sends a fixed-size report to the command post every
/// `period`, jittered by up to 10% to avoid global synchronization.
///
/// Built with [`SensorReporter::new`] the reporter starts immediately;
/// built with [`SensorReporter::dormant`] it stays silent until it
/// receives a [`KIND_TASK`] message, which it acknowledges with
/// [`KIND_TASK_ACK`] before starting its report stream (acked tasking).
#[derive(Debug)]
pub struct SensorReporter {
    sink: NodeId,
    period: SimDuration,
    payload_bytes: usize,
    // Report payloads are all-zero filler of a fixed size, so one shared
    // refcounted buffer serves every report this node ever sends: each
    // send clones the `Bytes` handle (an O(1) refcount bump) instead of
    // allocating and zeroing a fresh vector per period.
    payload: Bytes,
    dormant: bool,
    reporting: bool,
}

impl SensorReporter {
    /// Creates a reporter targeting `sink` that starts immediately.
    pub fn new(sink: NodeId, period: SimDuration, payload_bytes: usize) -> Self {
        SensorReporter {
            sink,
            period,
            payload_bytes,
            payload: Bytes::from(vec![0u8; payload_bytes]),
            dormant: false,
            reporting: false,
        }
    }

    /// Creates a reporter that stays dormant until tasked.
    pub fn dormant(sink: NodeId, period: SimDuration, payload_bytes: usize) -> Self {
        SensorReporter {
            dormant: true,
            ..SensorReporter::new(sink, period, payload_bytes)
        }
    }

    fn start_reporting(&mut self, ctx: &mut Context<'_>) {
        self.reporting = true;
        // Desynchronize initial reports across the fleet.
        let delay = SimDuration::from_micros(ctx.gen_below(self.period.as_micros().max(1)));
        ctx.set_timer(delay, 0);
    }

    fn schedule_next(&self, ctx: &mut Context<'_>) {
        let jitter_us = (self.period.as_micros() / 10).max(1);
        let delay = SimDuration::from_micros(
            self.period.as_micros() + ctx.gen_below(jitter_us),
        );
        ctx.set_timer(delay, 0);
    }
}

impl Behavior for SensorReporter {
    fn save_state(&self) -> Option<BehaviorSnapshot> {
        // `payload` is all-zero filler reconstructed from `payload_bytes`
        // on restore, so the buffer itself is not persisted.
        let Self { sink, period, payload_bytes, payload: _, dormant, reporting } = self;
        let mut e = Enc::new();
        e.put(sink);
        e.put(period);
        e.usize(*payload_bytes);
        e.bool(*dormant);
        e.bool(*reporting);
        Some(BehaviorSnapshot::new(
            BEHAVIOR_SENSOR_REPORTER,
            e.into_bytes(),
        ))
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        // Coverage guard: every field's restore story is decided below.
        let Self {
            sink: _,
            period: _,
            payload_bytes: _,
            payload: _,
            dormant: _,
            reporting: _,
        } = self;
        let mut d = Dec::new(state);
        let Ok(sink) = d.get::<NodeId>() else { return false };
        let Ok(period) = d.get::<SimDuration>() else { return false };
        let Ok(payload_bytes) = d.usize() else {
            return false;
        };
        let Ok(dormant) = d.bool() else { return false };
        let Ok(reporting) = d.bool() else { return false };
        if d.finish().is_err() {
            return false;
        }
        self.sink = sink;
        self.period = period;
        if payload_bytes != self.payload_bytes {
            self.payload = Bytes::from(vec![0u8; payload_bytes]);
        }
        self.payload_bytes = payload_bytes;
        self.dormant = dormant;
        self.reporting = reporting;
        true
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if !self.dormant {
            self.start_reporting(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if !self.reporting {
            return;
        }
        ctx.send(self.sink, KIND_REPORT, self.payload.clone());
        self.schedule_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, msg: &Message) {
        // A tampered task assignment is not trusted: no ack, no
        // activation — the command post's bounded retry covers the gap.
        if msg.kind() != KIND_TASK || msg.tampered() {
            return;
        }
        ctx.send(msg.src(), KIND_TASK_ACK, Bytes::new());
        if self.dormant && !self.reporting {
            self.start_reporting(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_netsim::Simulator;
    use iobt_types::{Affiliation, EnergyBudget, NodeCatalog, NodeSpec, Point, Radio, RadioKind};

    fn catalog() -> NodeCatalog {
        let mut c = NodeCatalog::new();
        for i in 0..3 {
            c.insert(
                NodeSpec::builder(NodeId::new(i))
                    .affiliation(Affiliation::Blue)
                    .position(Point::new(i as f64 * 40.0, 0.0))
                    .radio(Radio::new(RadioKind::Wifi))
                    .energy(EnergyBudget::new(100_000.0))
                    .build(),
            )
            .unwrap();
        }
        c
    }

    #[test]
    fn reports_flow_to_the_sink() {
        let mut sim = Simulator::builder(catalog()).seed(1).build();
        let log = new_report_log();
        sim.set_behavior(NodeId::new(0), Box::new(CommandSink::new(log.clone())));
        for i in 1..3 {
            sim.set_behavior(
                NodeId::new(i),
                Box::new(SensorReporter::new(
                    NodeId::new(0),
                    SimDuration::from_millis(500),
                    64,
                )),
            );
        }
        sim.run_for(SimDuration::from_secs_f64(5.0));
        let log = log.borrow();
        assert!(log.len() >= 12, "expected ~18 reports, got {}", log.len());
        assert!(log.iter().any(|r| r.from == NodeId::new(1)));
        assert!(log.iter().any(|r| r.from == NodeId::new(2)));
        // Timestamps are monotone.
        assert!(log.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn acked_tasking_activates_dormant_reporters() {
        let mut sim = Simulator::builder(catalog()).seed(3).build();
        let log = new_report_log();
        let board = new_task_board();
        board.borrow_mut().assign(NodeId::new(1));
        board.borrow_mut().assign(NodeId::new(2));
        board.borrow_mut().assign(NodeId::new(2)); // duplicate: no-op
        sim.set_behavior(
            NodeId::new(0),
            Box::new(TaskingSink::new(
                log.clone(),
                board.clone(),
                4,
                SimDuration::from_millis(200),
            )),
        );
        for i in 1..3 {
            sim.set_behavior(
                NodeId::new(i),
                Box::new(SensorReporter::dormant(
                    NodeId::new(0),
                    SimDuration::from_millis(500),
                    64,
                )),
            );
        }
        sim.run_for(SimDuration::from_secs_f64(5.0));
        let stats = board.borrow().stats();
        assert_eq!(stats.assigned, 2, "duplicate assign must not double-count");
        assert_eq!(stats.acked, 2, "both reachable sensors must ack");
        assert_eq!(stats.abandoned, 0);
        assert_eq!(board.borrow().outstanding(), 0);
        let log = log.borrow();
        assert!(
            log.iter().any(|r| r.from == NodeId::new(1))
                && log.iter().any(|r| r.from == NodeId::new(2)),
            "tasked sensors must start reporting"
        );
    }

    #[test]
    fn unreachable_assignment_is_abandoned_after_the_attempt_cap() {
        let mut sim = Simulator::builder(catalog()).seed(4).build();
        let log = new_report_log();
        let board = new_task_board();
        // Node 2 is killed before the first dissemination tick: every
        // task attempt is lost and the sink must give up at the cap.
        sim.schedule_node_down(SimTime::ZERO, NodeId::new(2));
        board.borrow_mut().assign(NodeId::new(2));
        sim.set_behavior(
            NodeId::new(0),
            Box::new(TaskingSink::new(
                log.clone(),
                board.clone(),
                3,
                SimDuration::from_millis(100),
            )),
        );
        sim.run_for(SimDuration::from_secs_f64(5.0));
        let stats = board.borrow().stats();
        assert_eq!(stats.assigned, 1);
        assert_eq!(stats.acked, 0);
        assert_eq!(stats.retries, 2, "attempts 2 and 3 are retries");
        assert_eq!(stats.abandoned, 1);
        assert_eq!(board.borrow().outstanding(), 0);
    }

    #[test]
    fn tasking_backoff_is_capped_exponential() {
        let sink = TaskingSink::new(
            new_report_log(),
            new_task_board(),
            4,
            SimDuration::from_millis(100),
        );
        assert_eq!(sink.backoff(1), SimDuration::from_millis(100));
        assert_eq!(sink.backoff(2), SimDuration::from_millis(200));
        assert_eq!(sink.backoff(3), SimDuration::from_millis(400));
        // The exponent is capped so huge attempt counts cannot overflow.
        assert_eq!(sink.backoff(40), sink.backoff(21));
    }

    #[test]
    fn non_report_messages_are_ignored_by_sink() {
        let mut sim = Simulator::builder(catalog()).seed(2).build();
        let log = new_report_log();
        sim.set_behavior(NodeId::new(0), Box::new(CommandSink::new(log.clone())));
        struct OtherSender;
        impl Behavior for OtherSender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(NodeId::new(0), 99, vec![1, 2, 3]);
            }
        }
        sim.set_behavior(NodeId::new(1), Box::new(OtherSender));
        sim.run_for(SimDuration::from_secs_f64(1.0));
        assert!(log.borrow().is_empty());
    }
}
