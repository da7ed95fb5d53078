//! Pluggable trace sinks: null, bounded in-memory ring, JSONL writer.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

use crate::event::TraceRecord;

/// Where sampled trace records go. Sinks receive records *after* the
/// per-subsystem sampling gate; metrics are updated regardless of what
/// the sink does.
pub trait TraceSink {
    /// Accepts one record.
    fn accept(&mut self, record: &TraceRecord);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&mut self) {}

    /// The first write error that stopped the sink, if any. Default:
    /// `None` (a sink that cannot fail).
    fn io_error(&self) -> Option<io::ErrorKind> {
        None
    }
}

/// Discards every record. With a `NullSink` the recorder still counts
/// metrics, so this is the "metrics only, near-zero overhead" mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn accept(&mut self, _record: &TraceRecord) {}
}

#[derive(Debug, Default)]
struct RingState {
    records: Vec<TraceRecord>,
    capacity: usize,
    next: usize,
    dropped: u64,
}

/// A shared read handle onto the buffer of a
/// [`Recorder::memory`](crate::Recorder::memory) ring. Cloning is cheap
/// (reference-counted); the handle stays valid after the recorder is
/// dropped, which is how tests inspect what was traced.
#[derive(Debug, Clone, Default)]
pub struct RingHandle(Rc<RefCell<RingState>>);

impl RingHandle {
    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.0.borrow().records.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().records.is_empty()
    }

    /// How many records were overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }

    /// Snapshots the buffered records in emission order (oldest first).
    pub fn records(&self) -> Vec<TraceRecord> {
        let state = self.0.borrow();
        if state.records.len() < state.capacity {
            state.records.clone()
        } else {
            // Full ring: `next` points at the oldest record.
            let mut out = Vec::with_capacity(state.records.len());
            out.extend_from_slice(&state.records[state.next..]);
            out.extend_from_slice(&state.records[..state.next]);
            out
        }
    }
}

/// A bounded in-memory sink: keeps the most recent `capacity` records,
/// counting (not silently hiding) what it had to overwrite.
#[derive(Debug)]
pub struct RingSink(Rc<RefCell<RingState>>);

impl RingSink {
    /// Creates a ring of the given capacity (minimum 1) and the handle
    /// used to read it back.
    pub fn new(capacity: usize) -> (Self, RingHandle) {
        let capacity = capacity.max(1);
        let state = Rc::new(RefCell::new(RingState {
            records: Vec::new(),
            capacity,
            next: 0,
            dropped: 0,
        }));
        (RingSink(Rc::clone(&state)), RingHandle(state))
    }
}

impl TraceSink for RingSink {
    fn accept(&mut self, record: &TraceRecord) {
        let mut state = self.0.borrow_mut();
        let capacity = state.capacity;
        if state.records.len() < capacity {
            state.records.push(record.clone());
        } else {
            let slot = state.next;
            if let Some(r) = state.records.get_mut(slot) {
                *r = record.clone();
            }
            state.next = (slot + 1) % capacity;
            state.dropped += 1;
        }
    }
}

/// Streams records as JSON lines into any [`io::Write`]. Encoding is
/// deterministic (fixed key order, shortest-roundtrip floats), so two
/// runs of the same seed produce byte-identical output.
///
/// I/O errors poison the sink: it stops writing and remembers the
/// error instead of panicking mid-simulation (query with
/// [`TraceSink::io_error`], or [`Recorder::io_error`](crate::Recorder::io_error)
/// once a recorder owns the sink).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    line: String,
    error: Option<io::ErrorKind>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::with_capacity(128),
            error: None,
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn accept(&mut self, record: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        record.encode_jsonl(&mut self.line);
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            self.error = Some(e.kind());
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e.kind());
            }
        }
    }

    fn io_error(&self) -> Option<io::ErrorKind> {
        self.error
    }
}

/// A reference-counted byte buffer implementing [`io::Write`] — lets a
/// test hand a `JsonlSink` to a recorder and still read the bytes back
/// afterwards.
#[derive(Debug, Clone, Default)]
pub struct SharedBytes(Rc<RefCell<Vec<u8>>>);

impl SharedBytes {
    /// Creates an empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the accumulated bytes out.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.borrow().clone()
    }

    /// The accumulated bytes, lossily decoded as UTF-8.
    pub fn to_string_lossy(&self) -> String {
        String::from_utf8_lossy(&self.0.borrow()).into_owned()
    }

    /// Number of bytes accumulated.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when no bytes were written.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

impl Write for SharedBytes {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            t_us: seq * 10,
            seq,
            event: TraceEvent::MsgSent { from: seq, to: 0 },
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_overwrites() {
        let (mut sink, handle) = RingSink::new(3);
        for i in 0..5 {
            sink.accept(&rec(i));
        }
        assert_eq!(handle.len(), 3);
        assert_eq!(handle.dropped(), 2);
        let seqs: Vec<u64> = handle.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn ring_capacity_zero_is_clamped() {
        let (mut sink, handle) = RingSink::new(0);
        sink.accept(&rec(0));
        sink.accept(&rec(1));
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let shared = SharedBytes::new();
        let mut sink = JsonlSink::new(shared.clone());
        sink.accept(&rec(0));
        sink.accept(&rec(1));
        sink.flush();
        let text = shared.to_string_lossy();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"seq\":0,"));
        assert!(sink.io_error().is_none());
    }

    #[test]
    fn jsonl_sink_poisons_on_error() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "down"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.accept(&rec(0));
        assert_eq!(sink.io_error(), Some(io::ErrorKind::BrokenPipe));
        // Poisoned: further accepts are silently skipped, no panic.
        sink.accept(&rec(1));

        // Boxed inside a recorder, the error is still readable there.
        let recorder = crate::Recorder::jsonl(Failing);
        assert_eq!(recorder.io_error(), None);
        recorder.record(TraceEvent::MsgSent { from: 1, to: 2 });
        recorder.flush();
        assert_eq!(recorder.io_error(), Some(io::ErrorKind::BrokenPipe));
        assert_eq!(recorder.metrics_digest().counter("netsim.msg_sent"), Some(1));
        assert_eq!(crate::Recorder::null().io_error(), None);
    }
}
