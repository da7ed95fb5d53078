//! `bridge_stream`: a captured mission trace replayed through the
//! recorder, the bridge's sink, egress ring and pump, and a loopback TCP
//! transport, to a consumer thread that counts frames, checks `seq`
//! contiguity and hashes the bytes.
//!
//! `obs`' record path and `bridge`'s encode/ring/pump/transport do all
//! the work; no simulation runs in the timed section. The consumer stops
//! on frame count, not on EOF: a live mission keeps a recorder clone, so
//! EOF may never come.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::time::Instant;

use iobt::bridge::{encode_frame, read_framed};
use iobt::obs::TraceSink;
use iobt::prelude::*;

use super::{Ctx, Outcome, THEATRE_SEED};
use crate::stats::{self, fnv1a, FNV_OFFSET};
use crate::timed::{TimedSink, TimedTransport};
use crate::trace::Probe;

/// Nodes of the mission whose trace is captured: about 3.2k records in
/// a quarter of a second (500 nodes give 5k records but take 1.4 s, more
/// than the timed section).
const TRACE_NODES: usize = 250;
const QUICK_TRACE_NODES: usize = 120;
/// Times the captured trace is replayed per repetition (about 0.8 M
/// frames, 1 s).
const REPLAYS: u64 = 250;
const QUICK_REPLAYS: u64 = 8;
/// The host loop pumps the bridge once per this many records.
const PUMP_EVERY: usize = 256;
/// One call in this many is timed by the per-frame probes. Prime, so the
/// sampled calls drift through the pump batches instead of always being
/// a batch's first (and slowest) one.
const PROBE_EVERY: u64 = 61;
/// One frame in this many is stamped for emit-to-arrival lag.
const LAG_EVERY: u64 = 1_024;

/// What the consumer thread saw.
struct Consumed {
    frames: u64,
    heartbeats: u64,
    out_of_order: u64,
    /// Bytes read off the wire, length prefixes included.
    bytes: u64,
    hash: u64,
    last_arrival: Instant,
    /// `(seq, arrival)` of every `LAG_EVERY`-th frame.
    stamps: Vec<(u64, Instant)>,
    /// The stream ended or broke before `expected` frames arrived.
    error: Option<String>,
    /// The connection, kept open until the producer has joined this
    /// thread: closing it on the last frame would race the bridge's final
    /// pump, whose ingress poll would see EOF and start reconnecting.
    _connection: Option<BufReader<TcpStream>>,
}

/// Reads frames until `expected` trace frames have arrived.
fn consume(listener: TcpListener, expected: u64) -> Consumed {
    let mut seen = Consumed {
        frames: 0,
        heartbeats: 0,
        out_of_order: 0,
        bytes: 0,
        hash: FNV_OFFSET,
        last_arrival: Instant::now(),
        stamps: Vec::new(),
        error: None,
        _connection: None,
    };
    let stream: TcpStream = match listener.accept() {
        Ok((stream, _)) => stream,
        Err(e) => {
            seen.error = Some(format!("accept: {e}"));
            return seen;
        }
    };
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    while seen.frames < expected {
        let frame = match read_framed(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                seen.error = Some("stream closed early".into());
                break;
            }
            Err(e) => {
                seen.error = Some(format!("read: {e}"));
                break;
            }
        };
        fnv1a(&mut seen.hash, &frame);
        seen.bytes += frame.len() as u64 + 4;
        match frame_seq(&frame) {
            Some(seq) => {
                if seq != seen.frames {
                    seen.out_of_order += 1;
                }
                if seq.is_multiple_of(LAG_EVERY) {
                    seen.stamps.push((seq, Instant::now()));
                }
                seen.frames += 1;
            }
            None => seen.heartbeats += 1,
        }
    }
    seen.last_arrival = Instant::now();
    seen._connection = Some(reader);
    seen
}

/// The `seq` of a trace frame (`{"topic":"…","seq":N,…`); `None` for a
/// heartbeat, which has no `seq`.
fn frame_seq(frame: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(frame).ok()?;
    let rest = text.strip_prefix("{\"topic\":\"")?;
    let rest = rest[rest.find('"')? + 1..].strip_prefix(",\"seq\":")?;
    rest[..rest.find(',')?].parse().ok()
}

/// One repetition.
pub fn run(ctx: &Ctx) -> Outcome {
    let (nodes, replays) =
        if ctx.quick { (QUICK_TRACE_NODES, QUICK_REPLAYS) } else { (TRACE_NODES, REPLAYS) };

    let ((records, listener), setup_s) = ctx.time("bridge_stream.setup", || {
        let mut scenario = urban_evacuation(nodes, THEATRE_SEED);
        scenario.seed = ctx.seed;
        let (recorder, ring) = Recorder::memory(1 << 20);
        let config = RunConfig::builder()
            .recorder(recorder.with_sampling(SamplingConfig::keep_all()))
            .build()
            .expect("the default run config is valid");
        run_mission(&scenario, &config);
        (ring.records(), TcpListener::bind("127.0.0.1:0"))
    });
    let expected = records.len() as u64 * replays;
    let mut out = Outcome { setup_s, attempted: expected.max(1), ..Outcome::default() };
    let bound = listener.and_then(|l| Ok((l.local_addr()?, l)));
    let (addr, listener) = match bound {
        Ok(bound) if expected > 0 => bound,
        other => {
            eprintln!("bridge_stream: no loopback listener or an empty trace: {other:?}");
            out.failed = out.attempted;
            return out;
        }
    };
    // Sim time one replay of the trace spans; later replays are offset by
    // it so `t_us` keeps rising.
    let span_us = records.last().map_or(0, |r| r.t_us) + 1;

    let send_probe = Probe::new(PROBE_EVERY);
    let accept_probe = Probe::new(PROBE_EVERY);
    let record_probe = Probe::new(PROBE_EVERY);
    let mut emit_stamps: Vec<(u64, Instant)> = Vec::new();

    let consumer = std::thread::spawn(move || consume(listener, expected));
    let config = BridgeConfig {
        mission: ctx.seed,
        seed: ctx.seed,
        ring_capacity: 1024,
        overflow: OverflowPolicy::Block { deadline: 8 },
        batch_per_tick: PUMP_EVERY,
        ..BridgeConfig::default()
    };
    let tcp = TcpTransport::new(addr.to_string());
    let bridge = match &ctx.tracer {
        Some(tracer) => Bridge::new(
            config,
            Box::new(TimedTransport::new(tcp, Rc::clone(tracer), Rc::clone(&send_probe))),
        ),
        None => Bridge::new(config, Box::new(tcp)),
    };
    let sink: Box<dyn TraceSink> = match &ctx.tracer {
        Some(_) => Box::new(TimedSink::new(bridge.sink(), Rc::clone(&accept_probe))),
        None => Box::new(bridge.sink()),
    };
    let recorder = Recorder::with_sink(sink);
    // Dial out before the clock starts: connecting is set-up, not streaming.
    bridge.pump();

    let first_record = Instant::now();
    let mut emitted = 0u64;
    let (drained, _) = ctx.time("bridge.replay", || {
        for replay in 0..replays {
            let offset = replay * span_us;
            for (i, record) in records.iter().enumerate() {
                let event = record.event.clone();
                if ctx.tracer.is_some() {
                    if emitted.is_multiple_of(LAG_EVERY) {
                        emit_stamps.push((emitted, Instant::now()));
                    }
                    record_probe.run(|| recorder.record_at(record.t_us + offset, event));
                } else {
                    recorder.record_at(record.t_us + offset, event);
                }
                emitted += 1;
                if (i + 1) % PUMP_EVERY == 0 {
                    ctx.time("bridge.pump", || bridge.pump());
                }
            }
        }
        ctx.time("bridge.drain", || bridge.drain(1 << 20))
    });
    let seen = consumer.join().expect("the consumer thread does not panic");
    let wall_s = seen.last_arrival.saturating_duration_since(first_record).as_secs_f64();

    let report = bridge.report();
    out.wall_s = wall_s;
    out.work = seen.frames as f64;
    out.work_s = wall_s;
    out.failed = (expected - seen.frames.min(expected)) + seen.out_of_order;
    if let Some(e) = &seen.error {
        eprintln!("bridge_stream: consumer: {e}");
    }
    if let Err(e) = drained.0 {
        eprintln!("bridge_stream: drain: {e}");
        out.failed = out.failed.max(1);
    }
    if !report.accounted() || report.delivered != expected || report.dropped != 0 {
        eprintln!("bridge_stream: ledger does not balance: {report:?}");
        out.failed = out.failed.max(1);
    }
    let mut fp = seen.hash;
    for v in [seen.frames, seen.heartbeats, report.emitted, report.delivered, report.dropped] {
        fnv1a(&mut fp, &v.to_le_bytes());
    }
    out.fingerprint = fp;
    out.phases = vec![("frames_per_s", seen.frames as f64 / wall_s)];

    if let Some(tracer) = &ctx.tracer {
        let l = &mut out.layers;
        let pumps: Vec<f64> =
            tracer.durations(ctx.rep, "bridge.pump").iter().map(|s| s * 1e3).collect();
        let record_s = record_probe.total_s();
        l.insert("obs.record_self_s", (record_s - accept_probe.total_s()).max(0.0));
        l.insert("bridge.sink_accept_s", accept_probe.total_s());
        l.insert("bridge.encode_frame_us", encode_frame_us(ctx.seed, &records));
        let drain_s = tracer.total(ctx.rep, "bridge.drain");
        l.insert("bridge.pump_s", pumps.iter().sum::<f64>() / 1e3 + drain_s);
        l.insert("bridge.pump_calls", pumps.len() as f64);
        l.insert("bridge.pump_ms_p50", stats::median(&pumps));
        l.insert("bridge.pump_ms_p99", stats::quantile(&pumps, 0.99));
        l.insert("bridge.transport_send_s", send_probe.total_s());
        l.insert("bridge.transport_send_calls", send_probe.calls() as f64);
        l.insert("bridge.transport_send_us_p50", send_probe.quantile_s(0.5) * 1e6);
        l.insert("bridge.transport_send_us_p99", send_probe.quantile_s(0.99) * 1e6);
        l.insert("bridge.transport_recv_s", tracer.total(ctx.rep, "bridge.transport_recv"));
        l.insert("bridge.bytes_out", seen.bytes as f64);
        // Read back from the bridge's own metrics-only recorder.
        let metrics = bridge.metrics_digest();
        for counter in [
            "bridge.emitted",
            "bridge.delivered",
            "bridge.dropped",
            "bridge.retries",
            "bridge.connects",
        ] {
            l.insert(counter, metrics.counter(counter).unwrap_or(0) as f64);
        }
        let lags: Vec<f64> = emit_stamps
            .iter()
            .zip(&seen.stamps)
            .filter(|((emitted, _), (arrived, _))| emitted == arrived)
            .map(|((_, emit), (_, arrive))| {
                arrive.saturating_duration_since(*emit).as_secs_f64() * 1e3
            })
            .collect();
        l.insert("bridge.frame_lag_ms_p50", stats::median(&lags));
        l.insert("bridge.frame_lag_ms_p99", stats::quantile(&lags, 0.99));
    }
    out
}

/// Microseconds per `encode_frame` call over one pass of the trace, taken
/// on its own after the timed section.
fn encode_frame_us(mission: u64, records: &[TraceRecord]) -> f64 {
    let start = Instant::now();
    let mut bytes = 0usize;
    for record in records {
        bytes += std::hint::black_box(encode_frame(mission, record)).len();
    }
    std::hint::black_box(bytes);
    start.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64
}
