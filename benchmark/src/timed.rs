//! Benchmark-owned decorators over the public traits `Store`,
//! `Transport`, `TraceSink` and `Behavior`.
//!
//! Each forwards every call and result unchanged and only adds a clock
//! around it, so a traced run produces the same fingerprints as an
//! untraced one. They are installed in traced repetitions only.

use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use iobt::bridge::{Transport, TransportError};
use iobt::ckpt::CkptError;
use iobt::fleet::Store;
use iobt::netsim::{Behavior, BehaviorSnapshot, Context, Message};
use iobt::obs::{TraceRecord, TraceSink};

use crate::trace::{Probe, Tracer};

/// Which `Store` method a [`StoreOp`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreCall {
    /// `Store::save`.
    Save,
    /// `Store::load_latest`.
    Load,
    /// `Store::clear`.
    Clear,
}

/// One timed `Store` call.
#[derive(Debug, Clone, Copy)]
pub struct StoreOp {
    /// The method.
    pub call: StoreCall,
    /// When it was entered.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// The log a [`TimedStore`] writes; kept by the caller, because the fleet
/// takes ownership of the store itself.
pub type StoreLog = Arc<Mutex<Vec<StoreOp>>>;

/// `Store` decorator: times every call, on whichever worker thread makes
/// it.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    log: StoreLog,
}

impl<S: Store> TimedStore<S> {
    /// Wraps `inner`; the returned log fills as the fleet runs.
    pub fn new(inner: S) -> (Self, StoreLog) {
        let log = StoreLog::default();
        (TimedStore { inner, log: Arc::clone(&log) }, log)
    }

    fn push(&self, call: StoreCall, start: Instant) {
        let op = StoreOp { call, start, end: Instant::now() };
        self.log.lock().expect("store log lock is never held across a panic").push(op);
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn save(&self, ticket: u64, seed: u64, window: u64, payload: &[u8]) -> Result<(), CkptError> {
        let start = Instant::now();
        let out = self.inner.save(ticket, seed, window, payload);
        self.push(StoreCall::Save, start);
        out
    }

    fn load_latest(&self, ticket: u64, seed: u64) -> Result<Option<(u64, Vec<u8>)>, CkptError> {
        let start = Instant::now();
        let out = self.inner.load_latest(ticket, seed);
        self.push(StoreCall::Load, start);
        out
    }

    fn clear(&self, ticket: u64) {
        let start = Instant::now();
        self.inner.clear(ticket);
        self.push(StoreCall::Clear, start);
    }
}

/// `Transport` decorator: `connect`, `recv` and `close` are spanned,
/// `send` (one call per frame) goes through a [`Probe`].
pub struct TimedTransport<T> {
    inner: T,
    tracer: Rc<Tracer>,
    send: Rc<Probe>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, tracer: Rc<Tracer>, send: Rc<Probe>) -> Self {
        TimedTransport { inner, tracer, send }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn connect(&mut self) -> Result<(), TransportError> {
        self.tracer.time("bridge.transport_connect", || self.inner.connect()).0
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send.run(|| self.inner.send(frame))
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.tracer.time("bridge.transport_recv", || self.inner.recv()).0
    }

    fn close(&mut self) {
        self.tracer.time("bridge.transport_close", || self.inner.close());
    }
}

/// `TraceSink` decorator: `accept` (one call per record) goes through a
/// [`Probe`]; `flush` is forwarded.
pub struct TimedSink<S> {
    inner: S,
    accept: Rc<Probe>,
}

impl<S: TraceSink> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, accept: Rc<Probe>) -> Self {
        TimedSink { inner, accept }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn accept(&mut self, record: &TraceRecord) {
        self.accept.run(|| self.inner.accept(record));
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// `Behavior` decorator: every callback goes through one [`Probe`] shared
/// by all the nodes of a simulator; checkpoint hooks are forwarded.
pub struct TimedBehavior {
    inner: Box<dyn Behavior>,
    callbacks: Rc<Probe>,
}

impl TimedBehavior {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Behavior>, callbacks: Rc<Probe>) -> Self {
        TimedBehavior { inner, callbacks }
    }
}

impl Behavior for TimedBehavior {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.callbacks.run(|| self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, msg: &Message) {
        self.callbacks.run(|| self.inner.on_message(ctx, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.callbacks.run(|| self.inner.on_timer(ctx, token));
    }

    fn save_state(&self) -> Option<BehaviorSnapshot> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    use iobt::bridge::memory_pair;
    use iobt::ckpt::CkptError;
    use iobt::fleet::DiskStore;
    use iobt::netsim::{SimDuration, Simulator};
    use iobt::obs::TraceEvent;
    use iobt::types::{NodeCatalog, NodeId, NodeSpec, Point, Radio, RadioKind};

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("iobt-benchmark-timed-{}-{name}", std::process::id()))
    }

    #[test]
    fn timed_store_forwards_results_and_logs_each_call() {
        let dir = scratch("store");
        let (store, log) = TimedStore::new(DiskStore::new(&dir));
        assert!(matches!(store.load_latest(1, 9), Ok(None)), "nothing saved yet");
        store.save(1, 9, 2, b"payload").unwrap();
        assert_eq!(store.load_latest(1, 9).unwrap(), Some((2, b"payload".to_vec())));
        // A wrong seed is the inner store's answer, passed through untouched.
        assert_eq!(store.load_latest(1, 8).unwrap(), None);
        store.clear(1);
        assert!(matches!(store.load_latest(1, 9), Ok(None)), "clear reached the disk");
        let _ = std::fs::remove_dir_all(&dir);

        let log = log.lock().unwrap();
        let calls: Vec<StoreCall> = log.iter().map(|op| op.call).collect();
        use StoreCall::{Clear, Load, Save};
        assert_eq!(calls, [Load, Save, Load, Load, Clear, Load]);
        assert!(log.iter().all(|op| op.end >= op.start));
    }

    /// A store whose every call fails, to show errors pass through.
    #[derive(Debug)]
    struct Broken;
    impl Store for Broken {
        fn save(&self, _: u64, _: u64, _: u64, _: &[u8]) -> Result<(), CkptError> {
            Err(CkptError::Mismatch("no disk".into()))
        }
        fn load_latest(&self, _: u64, _: u64) -> Result<Option<(u64, Vec<u8>)>, CkptError> {
            Err(CkptError::Mismatch("no disk".into()))
        }
        fn clear(&self, _: u64) {}
    }

    #[test]
    fn timed_store_forwards_errors() {
        let (store, log) = TimedStore::new(Broken);
        assert!(matches!(store.save(0, 0, 0, b"x"), Err(CkptError::Mismatch(_))));
        assert!(matches!(store.load_latest(0, 0), Err(CkptError::Mismatch(_))));
        assert_eq!(log.lock().unwrap().len(), 2);
    }

    #[test]
    fn timed_transport_forwards_frames_errors_and_state() {
        let (mem, peer) = memory_pair();
        let tracer = Tracer::new();
        let send = Probe::new(2);
        let mut t = TimedTransport::new(mem, Rc::clone(&tracer), Rc::clone(&send));
        assert_eq!(t.send(b"early"), Err(TransportError::Disconnected), "not connected yet");
        t.connect().unwrap();
        t.send(b"one").unwrap();
        t.send(b"two").unwrap();
        assert_eq!(peer.take_frames(), vec![b"one".to_vec(), b"two".to_vec()]);
        peer.push_command(b"cmd");
        assert_eq!(t.recv().unwrap(), Some(b"cmd".to_vec()));
        assert_eq!(t.recv().unwrap(), None);
        t.close();
        assert!(!peer.is_connected());
        assert_eq!(send.calls(), 3);
        assert_eq!(tracer.durations(0, "bridge.transport_connect").len(), 1);
        assert_eq!(tracer.durations(0, "bridge.transport_recv").len(), 2);
        assert_eq!(tracer.durations(0, "bridge.transport_close").len(), 1);
    }

    /// A sink that keeps what it is given.
    struct Keep(Rc<RefCell<Vec<TraceRecord>>>, Rc<RefCell<u32>>);
    impl TraceSink for Keep {
        fn accept(&mut self, record: &TraceRecord) {
            self.0.borrow_mut().push(record.clone());
        }
        fn flush(&mut self) {
            *self.1.borrow_mut() += 1;
        }
    }

    #[test]
    fn timed_sink_forwards_every_record_and_flush() {
        let (kept, flushes) = (Rc::default(), Rc::default());
        let accept = Probe::new(3);
        let mut sink =
            TimedSink::new(Keep(Rc::clone(&kept), Rc::clone(&flushes)), Rc::clone(&accept));
        let records: Vec<TraceRecord> = (0..7)
            .map(|seq| TraceRecord {
                t_us: seq * 10,
                seq,
                event: TraceEvent::MsgSent { from: seq, to: 0 },
            })
            .collect();
        for r in &records {
            sink.accept(r);
        }
        sink.flush();
        assert_eq!(*kept.borrow(), records);
        assert_eq!(*flushes.borrow(), 1);
        assert_eq!(accept.calls(), 7);
    }

    /// Sends one message to `peer` at start and on every timer.
    struct Pinger {
        peer: NodeId,
    }
    impl Behavior for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs_f64(1.0), 7);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            ctx.send(self.peer, token as u32, vec![1u8; 8]);
            ctx.set_timer(SimDuration::from_secs_f64(1.0), token);
        }
    }

    fn two_node_run(timed: Option<Rc<Probe>>) -> (u64, u64, u64) {
        let mut catalog = NodeCatalog::new();
        for i in 0..2u64 {
            let spec = NodeSpec::builder(NodeId::new(i))
                .position(Point::new(i as f64 * 50.0, 0.0))
                .radio(Radio::new(RadioKind::Wifi))
                .build();
            catalog.insert(spec).unwrap();
        }
        let mut sim = Simulator::builder(catalog).seed(5).build();
        let pinger: Box<dyn Behavior> = Box::new(Pinger { peer: NodeId::new(1) });
        let behavior = match timed {
            Some(probe) => Box::new(TimedBehavior::new(pinger, probe)),
            None => pinger,
        };
        sim.set_behavior(NodeId::new(0), behavior);
        sim.run_for(SimDuration::from_secs_f64(10.5));
        (sim.stats().sent, sim.stats().delivered, sim.events_processed())
    }

    #[test]
    fn timed_behavior_leaves_the_simulation_unchanged() {
        let probe = Probe::new(1);
        let plain = two_node_run(None);
        let timed = two_node_run(Some(Rc::clone(&probe)));
        assert_eq!(plain, timed);
        assert!(plain.0 >= 10, "the pinger must actually send: {plain:?}");
        assert_eq!(probe.calls(), 11, "one on_start and ten on_timer callbacks");
    }
}
