//! Spans taken from outside the crates.
//!
//! A [`Tracer`] records one [`Span`] per call the benchmark makes into a
//! layer (name, start, end, parent, repetition id), keeps them in memory
//! and writes them out as JSON lines when the run ends. Calls that happen
//! millions of times per repetition (one per frame, one per simulator
//! callback) are not spanned; they go through a [`Probe`], which counts
//! every call and times a fixed share of them.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use crate::stats;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Which repetition of the workload the span belongs to.
    pub run: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

/// In-memory span store for one process. Single-threaded by design: spans
/// from worker threads are handed over after the join with
/// [`Tracer::adopt`].
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Rc<Self> {
        Rc::new(Tracer { origin: Instant::now(), inner: RefCell::new(Inner::default()) })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a new repetition; later spans carry its id.
    pub fn begin_run(&self, run: u32) {
        self.inner.borrow_mut().run = run;
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len() as u32;
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: inner.open.last().copied(),
                run: inner.run,
            };
            inner.spans.push(span);
            inner.open.push(index);
            index
        };
        let out = f();
        let end = Instant::now();
        let mut inner = self.inner.borrow_mut();
        inner.open.pop();
        inner.spans[index as usize].end_ns = self.ns(end);
        (out, (end - start).as_secs_f64())
    }

    /// Records a span measured elsewhere (another thread) as a child of
    /// the newest span called `parent` in the current repetition.
    pub fn adopt(&self, name: &'static str, start: Instant, end: Instant, parent: &str) {
        let mut inner = self.inner.borrow_mut();
        let run = inner.run;
        let parent =
            inner.spans.iter().rposition(|s| s.run == run && s.name == parent).map(|i| i as u32);
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, run };
        inner.spans.push(span);
    }

    /// Durations, in seconds, of every span called `name` in repetition
    /// `run`, in the order they started.
    pub fn durations(&self, run: u32, name: &str) -> Vec<f64> {
        let inner = self.inner.borrow();
        inner.spans.iter().filter(|s| s.run == run && s.name == name).map(Span::secs).collect()
    }

    /// Summed duration of every span called `name` in repetition `run`.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        self.durations(run, name).iter().sum()
    }

    /// Self time of `name` in repetition `run`: its spans' durations
    /// minus the durations of their direct children.
    pub fn self_time(&self, run: u32, name: &str) -> f64 {
        let inner = self.inner.borrow();
        let mut total = 0.0;
        for (i, s) in inner.spans.iter().enumerate() {
            if s.run != run || s.name != name {
                continue;
            }
            let children: f64 =
                inner.spans.iter().filter(|c| c.parent == Some(i as u32)).map(Span::secs).sum();
            total += s.secs() - children;
        }
        total
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let inner = self.inner.borrow();
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"workload\":\"{workload}\",\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counter plus sampled timer for calls too frequent to span: every call
/// is counted, every `every`-th call is timed, and the total is the
/// sampled mean scaled by the call count. The cost of reading the clock,
/// measured when the probe is made, is taken off every sample: on a call
/// of half a microsecond it would otherwise add a tenth.
#[derive(Debug)]
pub struct Probe {
    every: u64,
    clock_ns: u64,
    calls: Cell<u64>,
    /// Calls left until the next timed one (a countdown costs less per
    /// call than a remainder).
    until_sample: Cell<u64>,
    sampled_ns: RefCell<Vec<u64>>,
}

impl Probe {
    /// A probe that times one call in `every` (1 times them all).
    pub fn new(every: u64) -> Rc<Self> {
        let clock_ns = (0..64)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(());
                start.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0);
        Rc::new(Probe {
            every: every.max(1),
            clock_ns,
            calls: Cell::new(0),
            until_sample: Cell::new(0),
            sampled_ns: RefCell::new(Vec::new()),
        })
    }

    /// Runs `f`, counting the call and timing it if it is a sampled one.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        self.calls.set(self.calls.get() + 1);
        let left = self.until_sample.get();
        if left > 0 {
            self.until_sample.set(left - 1);
            return f();
        }
        self.until_sample.set(self.every - 1);
        let start = Instant::now();
        let out = f();
        let ns = (start.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
        self.sampled_ns.borrow_mut().push(ns);
        out
    }

    /// Calls seen.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated seconds spent in all calls.
    pub fn total_s(&self) -> f64 {
        let sampled = self.sampled_ns.borrow();
        if sampled.is_empty() {
            return 0.0;
        }
        let mean_ns = sampled.iter().sum::<u64>() as f64 / sampled.len() as f64;
        mean_ns * self.calls.get() as f64 / 1e9
    }

    /// Quantile `q` of the sampled call durations, in seconds.
    pub fn quantile_s(&self, q: f64) -> f64 {
        let secs: Vec<f64> = self.sampled_ns.borrow().iter().map(|&ns| ns as f64 / 1e9).collect();
        stats::quantile(&secs, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new();
        t.begin_run(3);
        let ((), outer) = t.time("outer", || {
            t.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            t.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        assert_eq!(t.durations(3, "inner").len(), 2);
        assert!(t.durations(2, "inner").is_empty(), "spans belong to their run");
        let inner_total = t.total(3, "inner");
        assert!(inner_total >= 0.010 && inner_total <= outer);
        let self_s = t.self_time(3, "outer");
        assert!(
            (self_s - (outer - inner_total)).abs() < 1e-6,
            "{self_s} vs {outer} - {inner_total}"
        );
    }

    #[test]
    fn adopted_spans_hang_under_the_named_span_and_serialise() {
        let t = Tracer::new();
        let start = Instant::now();
        t.time("drain", || ());
        t.adopt("store.save", start, Instant::now(), "drain");
        let dir = std::env::temp_dir().join(format!("iobt-benchmark-trace-{}", std::process::id()));
        let path = dir.join("w.spans.jsonl");
        t.write_jsonl(&path, "w").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"drain\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"name\":\"store.save\"") && lines[1].contains("\"parent\":0"));
    }

    #[test]
    fn probe_counts_all_calls_and_times_a_share() {
        let p = Probe::new(4);
        for _ in 0..10 {
            p.run(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(p.calls(), 10);
        assert_eq!(p.sampled_ns.borrow().len(), 3, "calls 0, 4 and 8 are timed");
        assert!(p.total_s() >= 0.0);
        assert!(p.quantile_s(0.5) <= p.quantile_s(0.99));
    }
}
