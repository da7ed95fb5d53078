//! The [`Recorder`] handle threaded through simulator, runtime, solver
//! and adaptation constructors.

use std::cell::RefCell;
use std::fmt;
use std::io::{self, Write};
use std::rc::Rc;

use crate::event::{DropCause, Subsystem, TraceEvent, TraceRecord};
use crate::metrics::{
    MetricsDigest, MetricsRegistry, LATENCY_MS_BOUNDS, SOLVER_STEP_BOUNDS, UTILITY_BOUNDS,
};
use crate::sink::{JsonlSink, NullSink, RingHandle, RingSink, TraceSink};

/// Per-subsystem sampling: keep every `n`-th event of a subsystem in
/// the *trace sink*. `1` keeps everything (default), `0` keeps nothing.
/// Sampling is a deterministic modulus over the subsystem's emission
/// count, so the same run always keeps the same events. Metrics are
/// **not** sampled — every event updates the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    every_nth: [u32; Subsystem::COUNT],
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig { every_nth: [1; Subsystem::COUNT] }
    }
}

impl SamplingConfig {
    /// Keeps every event of every subsystem.
    pub fn keep_all() -> Self {
        Self::default()
    }

    /// Applies the same `every_nth` to all subsystems.
    pub fn all(n: u32) -> Self {
        SamplingConfig { every_nth: [n; Subsystem::COUNT] }
    }

    /// Sets the sampling interval for one subsystem.
    pub fn with(mut self, sub: Subsystem, every_nth: u32) -> Self {
        self.every_nth[sub.slot()] = every_nth;
        self
    }

    fn keeps(&self, sub: Subsystem, emitted_before: u64) -> bool {
        match self.every_nth[sub.slot()] {
            0 => false,
            n => emitted_before.is_multiple_of(u64::from(n)),
        }
    }
}

/// A recorder's mutable progress state, captured for mission
/// checkpoints: the shared clock, the global sequence counter, the
/// per-subsystem emission counters that drive sampling, and the full
/// metrics registry. The sink itself is *not* part of the checkpoint —
/// a resumed run opens a fresh sink and appends only post-resume
/// records, which is exactly what makes resumed traces byte-comparable
/// to the tail of an uninterrupted run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecorderCheckpoint {
    /// Sim-time clock in microseconds.
    pub t_us: u64,
    /// Global trace sequence counter.
    pub seq: u64,
    /// Per-subsystem emission counters (sampling phase).
    pub emitted: [u64; Subsystem::COUNT],
    /// Frozen metrics registry.
    pub metrics: MetricsDigest,
}

struct Inner {
    t_us: u64,
    seq: u64,
    emitted: [u64; Subsystem::COUNT],
    sampling: SamplingConfig,
    metrics: MetricsRegistry,
    sink: Box<dyn TraceSink>,
}

impl Inner {
    fn record(&mut self, t_us: u64, event: TraceEvent) {
        let seq = self.seq;
        self.seq += 1;
        update_metrics(&mut self.metrics, &event);
        let sub = event.subsystem();
        let emitted_before = self.emitted[sub.slot()];
        self.emitted[sub.slot()] += 1;
        if self.sampling.keeps(sub, emitted_before) {
            self.sink.accept(&TraceRecord { t_us, seq, event });
        }
    }
}

/// A cheap-to-clone observability handle. Clones share one clock, one
/// sequence counter, one metrics registry and one sink, so a recorder
/// handed to the simulator and to the runtime produces a single merged,
/// deterministically ordered trace.
///
/// A *disabled* recorder (the default) is a `None` handle: every
/// recording site reduces to one branch, which is what keeps the
/// no-observability configuration at baseline speed.
///
/// `Recorder` is intentionally not `Send` (reference-counted): the
/// portfolio solver's worker threads hand their outcomes back to the
/// calling thread, which records them after the join in deterministic
/// member order.
#[derive(Clone, Default)]
pub struct Recorder(Option<Rc<RefCell<Inner>>>);

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Recorder(disabled)"),
            Some(inner) => match inner.try_borrow() {
                Ok(i) => write!(f, "Recorder(t_us={}, seq={})", i.t_us, i.seq),
                Err(_) => f.write_str("Recorder(enabled, borrowed)"),
            },
        }
    }
}

impl Recorder {
    /// The no-op recorder: records nothing, costs one branch per site.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// An enabled recorder over an arbitrary sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Recorder(Some(Rc::new(RefCell::new(Inner {
            t_us: 0,
            seq: 0,
            emitted: [0; Subsystem::COUNT],
            sampling: SamplingConfig::default(),
            metrics: MetricsRegistry::new(),
            sink,
        }))))
    }

    /// Metrics-only mode: counters/gauges/histograms are kept, trace
    /// records are discarded.
    pub fn null() -> Self {
        Self::with_sink(Box::new(NullSink))
    }

    /// Records into a bounded in-memory ring; returns the recorder and
    /// the handle used to read the buffered records back.
    pub fn memory(capacity: usize) -> (Self, RingHandle) {
        let (sink, handle) = RingSink::new(capacity);
        (Self::with_sink(Box::new(sink)), handle)
    }

    /// Streams JSON lines into `writer`: one object per record, fixed key
    /// order. A write error stops the stream; read it with
    /// [`Recorder::io_error`].
    pub fn jsonl<W: Write + 'static>(writer: W) -> Self {
        Self::with_sink(Box::new(JsonlSink::new(writer)))
    }

    /// Replaces the sampling configuration (builder style).
    pub fn with_sampling(self, sampling: SamplingConfig) -> Self {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().sampling = sampling;
        }
        self
    }

    /// True when this handle actually records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advances the shared sim-time clock (integer microseconds).
    /// Call sites stamp the clock before dispatching events; the clock
    /// never moves backwards on its own.
    pub fn set_time_us(&self, t_us: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().t_us = t_us;
        }
    }

    /// Records an event at the current sim time.
    pub fn record(&self, event: TraceEvent) {
        if let Some(inner) = &self.0 {
            let mut i = inner.borrow_mut();
            let t = i.t_us;
            i.record(t, event);
        }
    }

    /// Records an event at an explicit sim time without touching the
    /// shared clock (used by callers that carry their own timeline,
    /// e.g. the actuation safety interlock's epoch seconds).
    pub fn record_at(&self, t_us: u64, event: TraceEvent) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().record(t_us, event);
        }
    }

    /// Adds `by` to a named counter (no trace record).
    pub fn inc(&self, name: &'static str, by: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.inc(name, by);
        }
    }

    /// Sets a named gauge (no trace record).
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.set_gauge(name, v);
        }
    }

    /// Records into a named histogram (no trace record).
    pub fn observe(&self, name: &'static str, bounds: &[f64], v: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.observe(name, bounds, v);
        }
    }

    /// Freezes the metrics registry ([`MetricsDigest::default`] when
    /// disabled).
    pub fn metrics_digest(&self) -> MetricsDigest {
        match &self.0 {
            Some(inner) => inner.borrow().metrics.digest(),
            None => MetricsDigest::default(),
        }
    }

    /// Captures the recorder's mutable progress state for a mission
    /// checkpoint, or `None` when disabled (a disabled recorder has no
    /// state worth saving — resume just builds another disabled one).
    pub fn checkpoint(&self) -> Option<RecorderCheckpoint> {
        self.0.as_ref().map(|inner| {
            let i = inner.borrow();
            RecorderCheckpoint {
                t_us: i.t_us,
                seq: i.seq,
                emitted: i.emitted,
                metrics: i.metrics.digest(),
            }
        })
    }

    /// Overwrites the recorder's clock, sequence counter, sampling
    /// phase, and metrics registry from a checkpoint. The sink is left
    /// untouched. Returns `false` (leaving the recorder unchanged) when
    /// the recorder is disabled or the checkpoint's metrics are
    /// internally inconsistent.
    pub fn restore_checkpoint(&self, ckpt: &RecorderCheckpoint) -> bool {
        let Some(inner) = &self.0 else {
            return false;
        };
        let Some(metrics) = MetricsRegistry::from_digest(&ckpt.metrics) else {
            return false;
        };
        let mut i = inner.borrow_mut();
        i.t_us = ckpt.t_us;
        i.seq = ckpt.seq;
        i.emitted = ckpt.emitted;
        i.metrics = metrics;
        true
    }

    /// Flushes the sink (e.g. the JSONL writer's buffer).
    pub fn flush(&self) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().sink.flush();
        }
    }

    /// The first write error that stopped the sink ([`TraceSink::io_error`]):
    /// records after it were lost. `None` when disabled or healthy.
    pub fn io_error(&self) -> Option<io::ErrorKind> {
        self.0.as_ref().and_then(|inner| inner.borrow().sink.io_error())
    }
}

/// Folds an event into the registry. The schema row's counter counts
/// the event itself (`count_one`); the arms here are the kinds that do
/// more — a histogram, a gauge, a second counter, a count taken from a
/// field — so the digest alone reconstructs the event mix even under
/// aggressive trace sampling.
fn update_metrics(m: &mut MetricsRegistry, event: &TraceEvent) {
    event.count_one(m);
    match event {
        TraceEvent::MsgDelivered { latency_us, .. } => m.observe(
            "netsim.latency_ms",
            &LATENCY_MS_BOUNDS,
            *latency_us as f64 / 1_000.0,
        ),
        TraceEvent::MsgDropped { cause, .. } => {
            let name = match cause {
                DropCause::NoRoute => "netsim.drop.no_route",
                DropCause::Channel => "netsim.drop.channel",
                DropCause::Dead => "netsim.drop.dead",
            };
            m.inc(name, 1);
        }
        TraceEvent::RegionOutage { killed, .. } => m.inc("netsim.region_killed", *killed),
        TraceEvent::RegionRestore { revived, .. } => m.inc("netsim.region_revived", *revived),
        TraceEvent::FaultScheduled { fault, .. } => {
            let name = match *fault {
                "crash" => "faults.crash",
                "crash_recover" => "faults.crash_recover",
                "region_blackout" => "faults.region_blackout",
                "partition" => "faults.partition",
                "degrade" => "faults.degrade",
                "compromise" => "faults.compromise",
                _ => "faults.other",
            };
            m.inc(name, 1);
        }
        TraceEvent::Recruitment { recruited, .. } => {
            m.set_gauge("core.recruited", *recruited as f64);
        }
        TraceEvent::WindowClosed { utility, .. } => {
            m.observe("core.window_utility", &UTILITY_BOUNDS, *utility);
        }
        TraceEvent::Solve { steps, .. } => {
            m.observe("synthesis.solve_steps", &SOLVER_STEP_BOUNDS, *steps as f64);
        }
        TraceEvent::Actuation { decision, .. } => {
            let name = match *decision {
                "approved" => "adapt.actuation.approved",
                "withheld_occupied" => "adapt.actuation.withheld_occupied",
                "denied_no_authorization" => "adapt.actuation.denied_no_authorization",
                _ => "adapt.actuation.other",
            };
            m.inc(name, 1);
        }
        TraceEvent::FleetSlice { windows, .. } => m.inc("fleet.windows", *windows),
        TraceEvent::FleetEvict { bytes, .. } => m.inc("fleet.evicted_bytes", *bytes),
        TraceEvent::BridgeDrop { frames, .. } => m.inc("bridge.dropped", *frames),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.set_time_us(10);
        r.record(TraceEvent::MsgSent { from: 1, to: 2 });
        r.inc("x", 1);
        assert!(r.metrics_digest().is_empty());
    }

    #[test]
    fn clones_share_clock_sequence_and_metrics() {
        let (a, ring) = Recorder::memory(16);
        let b = a.clone();
        a.set_time_us(5);
        b.record(TraceEvent::MsgSent { from: 1, to: 2 });
        a.record(TraceEvent::MsgSent { from: 2, to: 3 });
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].t_us, 5);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(a.metrics_digest().counter("netsim.msg_sent"), Some(2));
        assert_eq!(a.metrics_digest(), b.metrics_digest());
    }

    #[test]
    fn sampling_gates_sink_but_not_metrics() {
        let sampling = SamplingConfig::keep_all().with(Subsystem::Netsim, 3);
        let (r, ring) = Recorder::memory(64);
        let r = r.with_sampling(sampling);
        for i in 0..9 {
            r.record(TraceEvent::MsgSent { from: i, to: 0 });
        }
        // Events 0, 3, 6 kept.
        assert_eq!(ring.len(), 3);
        assert_eq!(r.metrics_digest().counter("netsim.msg_sent"), Some(9));
        // Other subsystems are unaffected.
        r.record(TraceEvent::RepairTriggered {
            window: 0,
            utility: 0.1,
            threshold: 0.5,
        });
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn sampling_zero_disables_a_subsystem_trace() {
        let (r, ring) = Recorder::memory(8);
        let r = r.with_sampling(SamplingConfig::keep_all().with(Subsystem::Netsim, 0));
        r.record(TraceEvent::MsgSent { from: 1, to: 2 });
        assert!(ring.is_empty());
        assert_eq!(r.metrics_digest().counter("netsim.msg_sent"), Some(1));
    }

    #[test]
    fn record_at_leaves_clock_untouched() {
        let (r, ring) = Recorder::memory(8);
        r.set_time_us(100);
        r.record_at(
            7_000_000,
            TraceEvent::Actuation {
                requester: 1,
                actuator: 2,
                zone: 3,
                decision: "approved",
            },
        );
        r.record(TraceEvent::MsgSent { from: 1, to: 2 });
        assert_eq!(ring.records()[0].t_us, 7_000_000);
        assert_eq!(ring.records()[1].t_us, 100);
        assert_eq!(
            r.metrics_digest().counter("adapt.actuation.approved"),
            Some(1)
        );
    }

    #[test]
    fn checkpoint_roundtrip_restores_clock_sampling_and_metrics() {
        let sampling = SamplingConfig::keep_all().with(Subsystem::Netsim, 2);
        let (a, ring_a) = Recorder::memory(64);
        let a = a.with_sampling(sampling);
        a.set_time_us(1_000);
        for i in 0..5 {
            a.record(TraceEvent::MsgSent { from: i, to: 0 });
        }
        a.observe("x.lat", &[1.0, 10.0], 3.0);
        let ckpt = a.checkpoint().expect("enabled recorder checkpoints");

        // A fresh recorder restored from the checkpoint must continue
        // with the same seq, sampling phase, and metrics...
        let (b, ring_b) = Recorder::memory(64);
        let b = b.with_sampling(sampling);
        assert!(b.restore_checkpoint(&ckpt));
        assert_eq!(b.metrics_digest(), a.metrics_digest());
        // ...so post-restore events get the same seq numbers and the
        // same sampling verdicts in both recorders: the 6th netsim
        // event (phase 5) is dropped by every-2nd sampling, the 7th
        // (phase 6) is kept with seq 6.
        for r in [&a, &b] {
            r.record(TraceEvent::MsgSent { from: 9, to: 0 });
            r.record(TraceEvent::MsgSent { from: 9, to: 1 });
        }
        let last_a = ring_a.records().last().cloned().unwrap();
        let last_b = ring_b.records().last().cloned().unwrap();
        assert_eq!(last_a, last_b);
        assert_eq!((last_b.seq, last_b.t_us), (6, 1_000));
        assert_eq!(ring_b.len(), 1, "only the kept event lands post-restore");
        assert_eq!(a.metrics_digest(), b.metrics_digest());

        // Disabled recorders neither checkpoint nor restore.
        assert!(Recorder::disabled().checkpoint().is_none());
        assert!(!Recorder::disabled().restore_checkpoint(&ckpt));

        // An inconsistent histogram snapshot is rejected.
        let mut bad = ckpt.clone();
        if let Some((_, snap)) = bad.metrics.histograms.first_mut() {
            snap.counts.pop();
        }
        assert!(!Recorder::null().restore_checkpoint(&bad));
    }

    #[test]
    fn null_recorder_keeps_metrics_only() {
        let r = Recorder::null();
        r.record(TraceEvent::MsgDropped {
            from: 1,
            to: 2,
            cause: DropCause::Channel,
        });
        let d = r.metrics_digest();
        assert_eq!(d.counter("netsim.msg_dropped"), Some(1));
        assert_eq!(d.counter("netsim.drop.channel"), Some(1));
    }
}
