//! The fleet's scheduling decisions, as plain data.
//!
//! [`Core`] holds everything a drain decides with — the ticket table,
//! the `ready` queue, backoff-`deferred` tickets, each worker's resident
//! list (least recently sliced first), the count of missions still
//! running, the slice clock and the halt latch — and nothing else: it
//! never blocks, spawns, reads the time or does IO. A worker asks
//! [`Core::next`] what to do, does it outside the lock, and hands the
//! [`Outcome`] to [`Core::complete`]; every decision is made there, once.
//!
//! A ticket is always in exactly one place: `ready`, `deferred`, one
//! worker's resident list, held by one worker between `next` and
//! `complete`, or terminal. Only its holder may touch its runner, so a
//! mission is never run or checkpointed by two workers at once.

use std::collections::VecDeque;

use iobt_core::MissionReport;
use iobt_obs::TraceEvent;

use crate::config::FleetConfig;
use crate::error::{MissionError, MissionErrorKind};
use crate::manifest::TicketRecord;
use crate::MissionStatus;

/// Everything the fleet knows about one submitted mission: the durable
/// record the manifest persists, and beside it what a crash loses.
pub(crate) struct Ticket {
    pub(crate) record: TicketRecord,
    /// The full report once `Done`; after a recovery only the record's
    /// digest and metrics fingerprint are left of it.
    pub(crate) report: Option<MissionReport>,
    /// Scheduler events `(t_us, event)`, recorded into the fleet recorder
    /// after the drain in ticket order, so the trace's layout does not
    /// depend on the schedule.
    pub(crate) events: Vec<(u64, TraceEvent)>,
}

impl Ticket {
    /// Buffers `event`, stamped with the mission's own sim time at the
    /// `window` boundary (the fleet has no clock of its own).
    fn note(&mut self, window: u64, event: TraceEvent) {
        self.events.push((window * self.record.window_us, event));
    }
}

/// What a worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Run one slice of the ticket (materializing it first unless it is
    /// resident on this worker); with `true`, checkpoint it out after the
    /// slice unless it finished.
    Run(u64, bool),
    /// Checkpoint this resident ticket out to the store.
    Evict(u64),
    /// Nothing to do until another worker reports.
    Park,
    /// This drain is over.
    Exit,
}

/// A checkpoint attempt: the window saved, and the bytes written or why
/// not.
#[derive(Debug)]
pub(crate) struct Eviction {
    pub(crate) window: u64,
    pub(crate) saved: Result<u64, MissionError>,
}

/// How a slice left its mission.
#[derive(Debug)]
pub(crate) enum End {
    /// Still running; the eviction, when the `Run` asked for one.
    Live(Option<Eviction>),
    /// Every window ran: how many, the metrics fingerprint, the report.
    Finished(u64, u64, Box<MissionReport>),
    /// Materializing failed or the slice panicked: no runner survives.
    /// The error's `attempts` is the core's to count.
    Failed(MissionError),
}

/// What a worker reports about the action it ran outside the lock.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// A `Run`: the window it resumed from (when it materialized from a
    /// checkpoint), `(from_window, windows)` once the step ran, and how
    /// it ended.
    Slice {
        resumed: Option<u64>,
        stepped: Option<(u64, u64)>,
        end: End,
    },
    /// An `Evict`.
    Evict(Eviction),
}

/// What the worker does once its report is settled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Settled {
    /// Keep the ticket's live runner: it stays resident on this worker.
    pub(crate) keep: bool,
    /// The ticket's record changed durably: mirror it into the manifest
    /// before anyone else can take the ticket.
    pub(crate) persist: bool,
}

#[derive(Debug, Default)]
struct Worker {
    /// Materialized here, least recently sliced first.
    resident: VecDeque<u64>,
    /// Run or evicted outside the lock right now.
    held: Option<u64>,
    /// A slice just left its mission resident: evict from the front
    /// until back under the cap or an eviction fails retryably.
    enforcing: bool,
}

/// One drain's scheduler state; see the module docs.
pub(crate) struct Core<'a> {
    cfg: &'a FleetConfig,
    tickets: &'a mut [Ticket],
    ready: VecDeque<u64>,
    /// `(due slice, ticket)` in deferral order.
    deferred: Vec<(u64, u64)>,
    workers: Vec<Worker>,
    /// Tickets not yet `Done`/`Quarantined`.
    remaining: usize,
    /// Slices run this drain: the only clock backoff is measured on.
    clock: u64,
    /// Set by the slice that reaches `halt_after_slices`: workers finish
    /// what that slice started, then stop.
    halted: bool,
}

impl<'a> Core<'a> {
    /// Queues every non-terminal ticket, in ticket order.
    pub(crate) fn new(cfg: &'a FleetConfig, tickets: &'a mut [Ticket]) -> Self {
        let ready: VecDeque<u64> = (0..tickets.len() as u64)
            .filter(|&t| !tickets[t as usize].record.status.is_terminal())
            .collect();
        Core {
            remaining: ready.len(),
            workers: (0..cfg.workers).map(|_| Worker::default()).collect(),
            cfg,
            tickets,
            ready,
            deferred: Vec::new(),
            clock: 0,
            halted: false,
        }
    }

    pub(crate) fn record(&self, ticket: u64) -> &TicketRecord {
        &self.tickets[ticket as usize].record
    }

    /// Decides what worker `w` does next: its pending evictions, then
    /// admission before residents, then deferred work with the clock
    /// fast-forwarded to it.
    pub(crate) fn next(&mut self, w: usize) -> Action {
        let worker = &mut self.workers[w];
        worker.enforcing &= worker.resident.len() > self.cfg.max_resident;
        if worker.enforcing {
            if let Some(victim) = worker.resident.pop_front() {
                worker.held = Some(victim);
                return Action::Evict(victim);
            }
        }
        if self.remaining == 0 || self.halted {
            return Action::Exit;
        }
        self.promote_due();
        let mut next = self.ready.pop_front().or_else(|| self.workers[w].resident.pop_front());
        if next.is_none() {
            // Only backoff-deferred work is left that this worker can
            // take: backoff paces retries against other progress, and
            // there is none to wait behind.
            let Some(due) = self.deferred.iter().map(|&(at, _)| at).min() else {
                return Action::Park;
            };
            self.clock = self.clock.max(due);
            self.promote_due();
            next = self.ready.pop_front();
        }
        let Some(ticket) = next else {
            return Action::Park;
        };
        self.workers[w].held = Some(ticket);
        // A slice that uses up the budget quarantines; it saves nothing.
        let used = self.record(ticket).slices_used;
        let deadline = self.cfg.slice_budget.is_some_and(|b| used + 1 >= b);
        Action::Run(ticket, self.cfg.evict_every_slice && !deadline)
    }

    fn promote_due(&mut self) {
        let (now, ready) = (self.clock, &mut self.ready);
        self.deferred.retain(|&(at, t)| {
            if at <= now {
                ready.push_back(t);
            }
            at > now
        });
    }

    /// Settles what worker `w` reports about the ticket it holds.
    pub(crate) fn complete(&mut self, w: usize, outcome: Outcome) -> Settled {
        let Some(t) = self.workers[w].held.take() else {
            unreachable!("worker {w} reported without holding a ticket");
        };
        let (resumed, stepped, end) = match outcome {
            Outcome::Evict(eviction) => return self.evicted(w, t, eviction, true),
            Outcome::Slice { resumed, stepped, end } => (resumed, stepped, end),
        };
        let ticket = &mut self.tickets[t as usize];
        if let Some(window) = resumed {
            ticket.note(window, TraceEvent::FleetResume { ticket: t, window });
        }
        if let Some((from_window, windows)) = stepped {
            let event = TraceEvent::FleetSlice { ticket: t, from_window, windows };
            ticket.note(from_window + windows, event);
            ticket.record.status = MissionStatus::Running;
            ticket.record.slices_used += 1;
            self.clock += 1;
            self.halted |= self.cfg.halt_after_slices.is_some_and(|h| self.clock >= h);
        }
        match end {
            End::Failed(error) => self.fault(w, t, error, None),
            End::Finished(windows, metrics_fp, report) => {
                let repairs = report.repairs as u64;
                ticket.note(windows, TraceEvent::FleetComplete { ticket: t, windows, repairs });
                ticket.record.metrics_fp = Some(metrics_fp);
                ticket.record.digest = Some(report.digest.clone());
                ticket.report = Some(*report);
                ticket.record.ckpt_window = None;
                ticket.record.status = MissionStatus::Done;
                self.remaining -= 1;
                Settled { keep: false, persist: true }
            }
            End::Live(eviction) => {
                let used = ticket.record.slices_used;
                match (self.cfg.slice_budget.filter(|&b| used >= b), eviction) {
                    (Some(budget), _) => {
                        let at = stepped.map_or(0, |(from, ran)| from + ran);
                        let detail = format!(
                            "mission still at window {at} of {} after {budget} slices",
                            ticket.record.total_windows
                        );
                        let kind = MissionErrorKind::DeadlineExceeded;
                        self.fault(w, t, MissionError::new(kind, false, detail), None)
                    }
                    (None, Some(eviction)) => self.evicted(w, t, eviction, false),
                    (None, None) => self.make_resident(w, t),
                }
            }
        }
    }

    /// A checkpoint attempt of a live runner: `cap` for a residency-cap
    /// eviction, not the one a `Run` asked for.
    fn evicted(&mut self, w: usize, t: u64, eviction: Eviction, cap: bool) -> Settled {
        let Eviction { window, saved } = eviction;
        match saved {
            Ok(bytes) => {
                let ticket = &mut self.tickets[t as usize];
                ticket.note(window, TraceEvent::FleetEvict { ticket: t, window, bytes });
                ticket.record.ckpt_window = Some(window);
                ticket.record.status = MissionStatus::Evicted;
                self.ready.push_back(t);
                Settled { keep: false, persist: true }
            }
            Err(error) => {
                let settled = self.fault(w, t, error, Some(window));
                // A failed cap-eviction stops evicting until a slice
                // leaves its mission resident again.
                self.workers[w].enforcing &= !(cap && settled.keep);
                settled
            }
        }
    }

    /// The one retry-or-quarantine decision. A retry of a live runner
    /// (`live` = its window) keeps it resident to retry the save at its
    /// next slice; one without a runner is deferred by the backoff.
    fn fault(&mut self, w: usize, t: u64, mut error: MissionError, live: Option<u64>) -> Settled {
        let ticket = &mut self.tickets[t as usize];
        let attempts = ticket.record.retries + 1;
        if error.retryable && attempts < self.cfg.retry_limit {
            ticket.record.retries = attempts;
            let (window, backoff_slices) = match live {
                Some(window) => (window, 0),
                None => (ticket.record.ckpt_window.unwrap_or(0), backoff_for(self.cfg, attempts)),
            };
            let attempt = u64::from(attempts);
            let event = TraceEvent::FleetRetry { ticket: t, window, attempt, backoff_slices };
            ticket.note(window, event);
            if live.is_some() {
                return Settled { persist: true, ..self.make_resident(w, t) };
            }
            self.deferred.push((self.clock + backoff_slices, t));
            return Settled { keep: false, persist: true };
        }
        error.attempts = attempts;
        let window = ticket.record.ckpt_window.unwrap_or(0);
        let (error_kind, attempts) = (error.kind.as_str(), u64::from(attempts));
        ticket.note(window, TraceEvent::FleetQuarantine { ticket: t, error: error_kind, attempts });
        ticket.record.error = Some(error);
        ticket.record.status = MissionStatus::Quarantined;
        self.remaining -= 1;
        Settled { keep: false, persist: true }
    }

    /// Puts `t` at the back of worker `w`'s residents, and has the
    /// worker enforce its cap.
    fn make_resident(&mut self, w: usize, t: u64) -> Settled {
        self.tickets[t as usize].record.status = MissionStatus::Idle;
        let worker = &mut self.workers[w];
        worker.resident.push_back(t);
        worker.enforcing = true;
        Settled { keep: true, persist: false }
    }
}

/// Backoff before attempt `attempts + 1`, in scheduler slices: capped
/// exponential on the attempt count — pure arithmetic, no clock, no
/// jitter, so faulty runs replay exactly.
fn backoff_for(cfg: &FleetConfig, attempts: u32) -> u64 {
    let exp = attempts.saturating_sub(1).min(32);
    cfg.retry_backoff_base
        .checked_shl(exp)
        .unwrap_or(u64::MAX)
        .min(cfg.retry_backoff_cap)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// SplitMix64: the seeded source of every schedule and outcome here.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// One seeded interleaving of `core`'s workers. At every step a
    /// worker picked by the seed either asks `next` — and runs the action
    /// at once through `act`, as a real worker does outside the lock — or
    /// reports the outcome it holds and has `settle` apply the core's
    /// verdict. Parked workers wait for the next report; the schedule
    /// ends when every worker has exited. Checks the core's invariants
    /// after every step and returns whether the drain halted.
    pub(crate) fn interleave<'a, S>(
        core: &mut Core<'a>,
        rng: &mut Rng,
        state: &mut S,
        act: impl Fn(&mut S, &Core<'a>, usize, Action) -> Outcome,
        settle: impl Fn(&mut S, &Core<'a>, usize, u64, Settled),
    ) -> bool {
        let n = core.workers.len();
        let mut pending: Vec<Option<(Action, Outcome)>> = (0..n).map(|_| None).collect();
        let (mut parked, mut exited) = (vec![false; n], vec![false; n]);
        // Whether each worker's last cap-eviction failed retryably, and
        // whether it has sliced since.
        let (mut blocked, mut stopped) = (vec![false; n], vec![false; n]);
        let mut watch = Watch::new(core);
        for _ in 0..20_000 {
            let awake: Vec<usize> = (0..n).filter(|&w| !parked[w] && !exited[w]).collect();
            if awake.is_empty() {
                assert!(exited.iter().all(|&e| e), "every live worker parked: a lost wakeup");
                if !core.halted {
                    assert!(core.tickets.iter().all(|t| t.record.status.is_terminal()));
                }
                return core.halted;
            }
            let w = awake[rng.below(awake.len() as u64) as usize];
            match pending[w].take() {
                Some((action, outcome)) => {
                    let (Action::Run(t, _) | Action::Evict(t)) = action else { unreachable!() };
                    let settled = core.complete(w, outcome);
                    match action {
                        Action::Evict(_) => (blocked[w], stopped[w]) = (settled.keep, settled.keep),
                        _ => stopped[w] = false,
                    }
                    settle(state, core, w, t, settled);
                    parked.iter_mut().for_each(|p| *p = false);
                }
                None => match core.next(w) {
                    Action::Park => parked[w] = true,
                    Action::Exit => exited[w] = true,
                    action => {
                        let over = core.workers[w].resident.len() > core.cfg.max_resident;
                        match action {
                            Action::Run(..) => assert!(!over || blocked[w], "over the cap"),
                            _ => assert!(!stopped[w], "evicting again before a slice"),
                        }
                        pending[w] = Some((action, act(state, core, w, action)));
                    }
                },
            }
            watch.check(core);
        }
        panic!("no end within the step bound");
    }

    /// What the invariants compare against the previous step.
    struct Watch {
        clock: u64,
        terminal: Vec<Option<MissionStatus>>,
    }

    impl Watch {
        fn new(core: &Core<'_>) -> Self {
            let mut watch = Watch { clock: 0, terminal: vec![None; core.tickets.len()] };
            watch.check(core);
            watch
        }

        fn check(&mut self, core: &Core<'_>) {
            assert!(core.clock >= self.clock, "the slice clock went back");
            self.clock = core.clock;
            let mut places = vec![0usize; core.tickets.len()];
            let queued = core.ready.iter().chain(core.deferred.iter().map(|(_, t)| t));
            let workers = core.workers.iter();
            let residents = workers.flat_map(|w| w.resident.iter().chain(w.held.iter()));
            for &t in queued.chain(residents) {
                places[t as usize] += 1;
            }
            let mut live = 0;
            for (t, ticket) in core.tickets.iter().enumerate() {
                let status = ticket.record.status;
                if let Some(was) = self.terminal[t] {
                    assert_eq!(status, was, "ticket {t} left a terminal state");
                }
                if status.is_terminal() {
                    self.terminal[t] = Some(status);
                    assert_eq!(places[t], 0, "terminal ticket {t} is still scheduled");
                } else {
                    live += 1;
                    assert_eq!(places[t], 1, "ticket {t} is in {} places", places[t]);
                }
            }
            assert_eq!(core.remaining, live);
        }
    }

    pub(crate) fn config(workers: usize) -> FleetConfig {
        let root = std::env::temp_dir().join("iobt-fleet-core-unused");
        FleetConfig {
            workers,
            max_resident: 1,
            evict_every_slice: false,
            store: std::sync::Arc::new(crate::DiskStore::new(&root)),
            checkpoint_root: root,
            max_queued: 0,
            slice_budget: None,
            retry_limit: 5,
            retry_backoff_base: 1,
            retry_backoff_cap: 8,
            durable_manifest: false,
            inject_panic: None,
            halt_after_slices: None,
        }
    }

    /// The missions a synthetic schedule runs: their windows, and where
    /// each live runner is (worker, window).
    struct Model {
        rng: Rng,
        windows: Vec<u64>,
        live: BTreeMap<u64, (usize, u64)>,
        report: MissionReport,
    }

    fn fault(kind: MissionErrorKind, retryable: bool) -> MissionError {
        MissionError::new(kind, retryable, "synthetic".to_string())
    }

    impl Model {
        fn checkpoint(&mut self) -> Result<u64, MissionError> {
            match self.rng.below(12) {
                0 | 1 => Err(fault(MissionErrorKind::CheckpointSave, true)),
                2 => Err(fault(MissionErrorKind::CheckpointSave, false)),
                3 => Err(fault(MissionErrorKind::Panic, false)),
                _ => Ok(64),
            }
        }

        fn act(&mut self, core: &Core<'_>, w: usize, action: Action) -> Outcome {
            let (t, evict_after) = match action {
                Action::Run(t, evict_after) => (t, evict_after),
                Action::Evict(t) => {
                    let (owner, window) = self.live[&t];
                    assert_eq!(owner, w, "evicting another worker's mission");
                    let saved = self.checkpoint();
                    return Outcome::Evict(Eviction { window, saved });
                }
                Action::Park | Action::Exit => unreachable!(),
            };
            let mut resumed = None;
            let from = match self.live.remove(&t) {
                Some((owner, window)) => {
                    assert_eq!(owner, w, "running another worker's mission");
                    window
                }
                None => {
                    let failed = match self.rng.below(10) {
                        0 => Some(fault(MissionErrorKind::CheckpointLoad, true)),
                        1 => Some(fault(MissionErrorKind::Resume, false)),
                        _ => None,
                    };
                    if let Some(error) = failed {
                        return Outcome::Slice { resumed, stepped: None, end: End::Failed(error) };
                    }
                    resumed = core.record(t).ckpt_window;
                    resumed.unwrap_or(0)
                }
            };
            if self.rng.below(30) == 0 {
                let end = End::Failed(fault(MissionErrorKind::Panic, false));
                return Outcome::Slice { resumed, stepped: None, end };
            }
            let (to, stepped) = (from + 1, Some((from, 1)));
            if to == self.windows[t as usize] {
                let report = self.report.clone();
                let end = End::Finished(to, t, Box::new(report));
                return Outcome::Slice { resumed, stepped, end };
            }
            let eviction = evict_after.then(|| Eviction { window: to, saved: self.checkpoint() });
            self.live.insert(t, (w, to));
            Outcome::Slice { resumed, stepped, end: End::Live(eviction) }
        }
    }

    fn sample_report() -> MissionReport {
        use iobt_netsim::SimDuration;
        let config = iobt_core::RunConfig::builder()
            .duration(SimDuration::from_secs_f64(10.0))
            .window(SimDuration::from_secs_f64(10.0))
            .build()
            .expect("valid run config");
        iobt_core::run_mission(&iobt_core::persistent_surveillance(20, 1), &config)
    }

    /// 10,200 seeded schedules of 1, 2 and 4 workers over synthetic
    /// missions that step, finish, fail to load or save (retryably or
    /// not), panic and halt, under every residency, eviction, retry,
    /// deadline and halt setting: the invariants hold at every step and
    /// every unhalted schedule ends with every ticket terminal.
    #[test]
    fn every_explored_schedule_keeps_the_invariants() {
        let report = sample_report();
        let (mut halted, mut quarantined, mut done) = (0, 0, 0);
        for seed in 0..10_200u64 {
            let mut rng = Rng(seed);
            let mut cfg = config([1, 2, 4][seed as usize % 3]);
            cfg.max_resident = 1 + rng.below(3) as usize;
            cfg.evict_every_slice = rng.below(3) == 0;
            cfg.retry_limit = 1 + rng.below(4) as u32;
            cfg.retry_backoff_base = rng.below(3);
            cfg.retry_backoff_cap = rng.below(6);
            cfg.slice_budget = (rng.below(4) == 0).then(|| 1 + rng.below(6));
            cfg.halt_after_slices = (rng.below(4) == 0).then(|| 1 + rng.below(16));
            let windows: Vec<u64> = (0..1 + rng.below(6)).map(|_| 1 + rng.below(4)).collect();
            let mut tickets: Vec<Ticket> = windows
                .iter()
                .map(|&total_windows| Ticket {
                    record: TicketRecord {
                        scenario_hash: 0,
                        seed,
                        window_us: 1,
                        total_windows,
                        status: MissionStatus::Queued,
                        ckpt_window: None,
                        retries: 0,
                        slices_used: 0,
                        digest: None,
                        metrics_fp: None,
                        error: None,
                        portable: iobt_core::PortableRunConfig::default(),
                    },
                    report: None,
                    events: Vec::new(),
                })
                .collect();
            let mut model = Model {
                rng: Rng(!seed),
                windows,
                live: BTreeMap::new(),
                report: report.clone(),
            };
            let mut core = Core::new(&cfg, &mut tickets);
            let stopped = interleave(
                &mut core,
                &mut rng,
                &mut model,
                |m, core, w, action| m.act(core, w, action),
                |m, _, w, t, settled| {
                    if !settled.keep {
                        m.live.remove(&t);
                    }
                    assert_eq!(m.live.get(&t).map(|l| l.0), settled.keep.then_some(w));
                },
            );
            halted += u32::from(stopped);
            for ticket in &tickets {
                match ticket.record.status {
                    MissionStatus::Done => done += 1,
                    MissionStatus::Quarantined => quarantined += 1,
                    _ => assert!(stopped),
                }
            }
        }
        // The sweep reaches every ending.
        assert!(halted > 500 && quarantined > 1_000 && done > 1_000);
    }
}
