//! `netsim_dense` and `netsim_mobile`: the simulator alone, on a
//! 10,000-node wifi grid with multi-hop reports to block cluster heads.
//!
//! Both bypass `core`, `synthesis`, `ckpt`, `fleet` and `bridge`. They
//! use the same layer in opposite ways. On `netsim_dense` every node
//! reports twice a second over a near-static topology, so the event loop,
//! the cached route trees and the `Bytes` payloads do all the work. On
//! `netsim_mobile` a tenth of the nodes move every simulated second (the
//! default mobility step) and churn is ten times heavier, so the
//! connectivity graph is patched and route trees are invalidated
//! continuously. A route-cache or promotion change that wins on the first
//! must not lose on the second.

use std::rc::Rc;

use iobt::netsim::prelude::*;
use iobt::obs::Recorder;
use iobt::types::prelude::*;

use super::{Ctx, Outcome};
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::timed::TimedBehavior;
use crate::trace::Probe;

/// Grid spacing, meters: adjacent and diagonal wifi links exist, two-away
/// does not, so traffic to a block head is multi-hop.
const SPACING_M: f64 = 70.0;
const REPORT_BYTES: usize = 64;

/// What distinguishes the two workloads.
struct Shape {
    /// Grid side; the field has `side * side` nodes.
    side: u64,
    /// Every `stride`-th node reports.
    stride: usize,
    /// Report period, seconds.
    period_s: f64,
    /// Every `mobile_every`-th node roams (0: nobody moves).
    mobile_every: u64,
    /// Mean time between failures per node, seconds (recovery mean 10 s).
    mtbf_s: f64,
    /// Simulated seconds per repetition.
    sim_s: f64,
}

/// `netsim_dense`: one repetition.
pub fn run_dense(ctx: &Ctx) -> Outcome {
    let shape = Shape {
        side: if ctx.quick { 40 } else { 100 },
        stride: 1,
        period_s: 0.5,
        mobile_every: 0,
        mtbf_s: 2_000.0,
        sim_s: if ctx.quick { 4.0 } else { 5.0 },
    };
    run(ctx, &shape)
}

/// `netsim_mobile`: one repetition.
pub fn run_mobile(ctx: &Ctx) -> Outcome {
    let shape = Shape {
        side: if ctx.quick { 40 } else { 100 },
        stride: 7,
        period_s: 1.0,
        mobile_every: 10,
        mtbf_s: 200.0,
        sim_s: if ctx.quick { 6.0 } else { 30.0 },
    };
    run(ctx, &shape)
}

/// Periodic reporter: a fixed payload to a fixed sink, forever.
struct Reporter {
    sink: NodeId,
    period: SimDuration,
}

impl Behavior for Reporter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.send(self.sink, 1, vec![0u8; REPORT_BYTES]);
        ctx.set_timer(self.period, 0);
    }
}

/// Head of the 10×10 block containing node `i`: the block's centre cell,
/// clamped to the grid.
fn block_head(i: u64, side: u64) -> u64 {
    let (row, col) = (i / side, i % side);
    let head_row = ((row / 10) * 10 + 5).min(side - 1);
    let head_col = ((col / 10) * 10 + 5).min(side - 1);
    head_row * side + head_col
}

fn run(ctx: &Ctx, shape: &Shape) -> Outcome {
    let n = shape.side * shape.side;
    let horizon = SimTime::from_secs_f64(shape.sim_s);
    let recorder = if ctx.tracer.is_some() { Recorder::null() } else { Recorder::disabled() };
    let callbacks = Probe::new(1);

    let (mut sim, setup_s) = ctx.time("netsim.setup", || {
        let extent = shape.side as f64 * SPACING_M;
        let field = Rect::new(Point::new(-50.0, -50.0), Point::new(extent + 50.0, extent + 50.0));
        let mut catalog = NodeCatalog::new();
        for i in 0..n {
            let (row, col) = (i / shape.side, i % shape.side);
            let spec = NodeSpec::builder(NodeId::new(i))
                .affiliation(Affiliation::Blue)
                .position(Point::new(col as f64 * SPACING_M, row as f64 * SPACING_M))
                .radio(Radio::new(RadioKind::Wifi))
                .energy(EnergyBudget::new(50_000.0))
                .build();
            catalog.insert(spec).expect("fresh ids never collide");
        }
        let (mut sim, _) = ctx.time("netsim.build", || {
            let mut builder = Simulator::builder(catalog)
                .terrain(Terrain::uniform(field, Clutter::Open))
                .seed(ctx.seed)
                .recorder(recorder.clone());
            if shape.mobile_every > 0 {
                for i in (0..n).step_by(shape.mobile_every as usize) {
                    let model =
                        MobilityModel::RandomWaypoint { area: field, speed_mps: 5.0, pause_s: 2.0 };
                    builder = builder.mobility(NodeId::new(i), model);
                }
            }
            builder.build()
        });
        for i in (0..n).step_by(shape.stride) {
            let head = block_head(i, shape.side);
            if head == i {
                continue;
            }
            let reporter: Box<dyn Behavior> = Box::new(Reporter {
                sink: NodeId::new(head),
                period: SimDuration::from_secs_f64(shape.period_s),
            });
            let behavior = match &ctx.tracer {
                Some(_) => Box::new(TimedBehavior::new(reporter, Rc::clone(&callbacks))),
                None => reporter,
            };
            sim.set_behavior(NodeId::new(i), behavior);
        }
        let ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        ChurnProcess::recovering(shape.mtbf_s, 10.0, ctx.seed).schedule(&mut sim, &ids, horizon);
        // The first graph build is lazy; users pay it once per simulator,
        // so it belongs to set-up, not to the event rate.
        ctx.time("netsim.first_graph", || sim.connectivity());
        sim
    });

    let ((), run_s) =
        ctx.time("netsim.run", || sim.run_for(SimDuration::from_secs_f64(shape.sim_s)));

    let stats = sim.stats();
    let events = sim.events_processed();
    let mut out = Outcome {
        setup_s,
        wall_s: run_s,
        work: events as f64,
        work_s: run_s,
        attempted: events.max(1),
        // Drops are simulated outcomes, not failures; a run fails only by
        // processing nothing or by a fingerprint mismatch.
        failed: if events == 0 || stats.sent == 0 { events.max(1) } else { 0 },
        fingerprint: fingerprint(&sim, n),
        phases: vec![("events_per_s", events as f64 / run_s)],
        ..Outcome::default()
    };
    if let Some(tracer) = &ctx.tracer {
        let l = &mut out.layers;
        l.insert("netsim.build_s", tracer.total(ctx.rep, "netsim.build"));
        l.insert("netsim.first_graph_s", tracer.total(ctx.rep, "netsim.first_graph"));
        l.insert("netsim.run_s", run_s);
        l.insert("netsim.events", events as f64);
        l.insert("netsim.us_per_event", run_s * 1e6 / events.max(1) as f64);
        let rebuilds = recorder.metrics_digest().counter("netsim.graph_rebuilds").unwrap_or(0);
        l.insert("netsim.graph_rebuilds", rebuilds as f64);
        l.insert("netsim.hop_attempts", stats.hop_attempts as f64);
        l.insert("netsim.retransmits", stats.retransmits as f64);
        l.insert("netsim.behavior_cb_s", callbacks.total_s());
        l.insert("netsim.behavior_cb_calls", callbacks.calls() as f64);
        l.insert("netsim.delivered_frac", stats.delivery_ratio());
    }
    out
}

/// Network statistics, the event count and every node's liveness,
/// remaining energy and position.
fn fingerprint(sim: &Simulator, n: u64) -> u64 {
    let stats = sim.stats();
    let mut fp = FNV_OFFSET;
    for v in [
        stats.sent,
        stats.delivered,
        stats.dropped,
        stats.dropped_no_route,
        stats.dropped_channel,
        stats.dropped_dead,
        stats.dropped_asleep,
        stats.hop_attempts,
        stats.retransmits,
        sim.events_processed(),
    ] {
        fnv1a(&mut fp, &v.to_le_bytes());
    }
    fnv1a(&mut fp, &stats.energy_spent_j.to_bits().to_le_bytes());
    fnv1a(&mut fp, &stats.latency_ms.mean().to_bits().to_le_bytes());
    for i in 0..n {
        let id = NodeId::new(i);
        fnv1a(&mut fp, &[u8::from(sim.is_alive(id))]);
        if let Some(e) = sim.energy(id) {
            fnv1a(&mut fp, &e.remaining_j().to_bits().to_le_bytes());
        }
        if let Some(p) = sim.position(id) {
            fnv1a(&mut fp, &p.x.to_bits().to_le_bytes());
            fnv1a(&mut fp, &p.y.to_bits().to_le_bytes());
        }
    }
    fp
}
