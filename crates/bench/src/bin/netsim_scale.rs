//! Battlefield-scale netsim throughput harness: events/sec and peak RSS
//! at 1k/10k/100k nodes, and at 10k with a tenth of the field moving.
//!
//! The workload is a sensor field on a √n × √n grid (70 m spacing, wifi
//! mesh) with periodic multi-hop reports from every 7th node to its
//! 10×10-block cluster head, plus a seeded fail/recover churn process —
//! the regime the zero-copy message path, batched event loop, dense
//! routing tables, and incremental connectivity maintenance are built
//! for. The static rows never move a node; the mobile row (`--mobile`)
//! puts every 10th node on a random-waypoint walk, so every mobility
//! tick patches ~1,000 moved nodes into the connectivity graph.
//!
//! ```sh
//! cargo run -p iobt-bench --release --bin netsim_scale -- --json
//! # CI determinism smokes (no timing in the output):
//! cargo run -p iobt-bench --release --bin netsim_scale -- --nodes 10000 --fingerprint
//! cargo run -p iobt-bench --release --bin netsim_scale -- --nodes 10000 --mobile --fingerprint
//! ```
//!
//! Wall-clock use here is reporting-only: it never feeds back into the
//! simulation, whose event stream is a pure function of the seed.

use std::time::Instant;

use iobt_netsim::prelude::*;
use iobt_types::prelude::*;

/// Grid spacing in meters (adjacent + diagonal wifi links exist, two-away
/// does not, so block traffic is genuinely multi-hop).
const SPACING_M: f64 = 70.0;
/// Simulated duration per size, seconds.
const SIM_SECONDS: f64 = 30.0;
/// Report period per sender, seconds.
const REPORT_PERIOD_S: f64 = 2.0;
/// Report payload size, bytes.
const REPORT_BYTES: usize = 64;
/// On a mobile row, every this-many-th node walks (5 m/s, 2 s pauses).
const MOBILE_EVERY: u64 = 10;

/// Periodic reporter: sends a fixed payload to a fixed sink forever.
struct Reporter {
    sink: NodeId,
}

impl Behavior for Reporter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.send(self.sink, 1, [0u8; REPORT_BYTES]);
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
    }
}

fn build_catalog(n: u64) -> NodeCatalog {
    let side = (n as f64).sqrt().ceil() as u64;
    let mut catalog = NodeCatalog::new();
    for i in 0..n {
        let (row, col) = (i / side, i % side);
        catalog
            .insert(
                NodeSpec::builder(NodeId::new(i))
                    .affiliation(Affiliation::Blue)
                    .position(Point::new(col as f64 * SPACING_M, row as f64 * SPACING_M))
                    .radio(Radio::new(RadioKind::Wifi))
                    .energy(EnergyBudget::new(50_000.0))
                    .build(),
            )
            .expect("fresh ids never collide");
    }
    catalog
}

/// Cluster head of the 10×10 block containing node `i`: the node at the
/// block's center cell (clamped to the grid).
fn block_head(i: u64, side: u64) -> u64 {
    let (row, col) = (i / side, i % side);
    let head_row = ((row / 10) * 10 + 5).min(side - 1);
    let head_col = ((col / 10) * 10 + 5).min(side - 1);
    head_row * side + head_col
}

struct SizeResult {
    nodes: u64,
    /// [`MOBILE_EVERY`] on a mobile row, 0 on a static one.
    mobile_every: u64,
    events: u64,
    wall_s: f64,
    sent: u64,
    delivered: u64,
    dropped: u64,
    peak_rss_mb: f64,
    /// Routes asked for by sends, and how many the per-source memo
    /// answered without a search. Reporting-only: not in the fingerprint.
    route_queries: u64,
    route_memo_hits: u64,
    /// Hops that found their link, and the hop budgets computed for them
    /// rather than read from the link's adjacency entry. Reporting-only:
    /// not in the fingerprint.
    hops: u64,
    hop_budgets: u64,
    fingerprint: u64,
}

fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

fn run_size(n: u64, mobile: bool, seed: u64) -> SizeResult {
    let side = (n as f64).sqrt().ceil() as u64;
    let extent = side as f64 * SPACING_M + 100.0;
    let catalog = build_catalog(n);
    let field = Rect::new(Point::new(-50.0, -50.0), Point::new(extent, extent));
    let mut builder = Simulator::builder(catalog)
        .terrain(Terrain::uniform(field, Clutter::Open))
        .seed(seed);
    let walkers: Vec<u64> = if mobile {
        (0..n).step_by(MOBILE_EVERY as usize).collect()
    } else {
        Vec::new()
    };
    for &i in &walkers {
        let model = MobilityModel::RandomWaypoint { area: field, speed_mps: 5.0, pause_s: 2.0 };
        builder = builder.mobility(NodeId::new(i), model);
    }
    let mut sim = builder.build();

    // Every 7th node reports to its block head (multi-hop over the mesh).
    for i in (0..n).step_by(7) {
        let head = block_head(i, side);
        if head != i {
            sim.set_behavior(NodeId::new(i), Box::new(Reporter { sink: NodeId::new(head) }));
        }
    }

    // Seeded churn: ~1.5% of the fleet fails during the run, most recover.
    let ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let churn = ChurnProcess::recovering(2_000.0, 10.0, seed);
    churn.schedule(&mut sim, &ids, SimTime::from_secs_f64(SIM_SECONDS));

    let start = Instant::now();
    sim.run_for(SimDuration::from_secs_f64(SIM_SECONDS));
    let wall_s = start.elapsed().as_secs_f64();

    let stats = sim.stats();
    let mut fp_bytes = Vec::new();
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
        fp_bytes.extend_from_slice(&v.to_le_bytes());
    }
    fp_bytes.extend_from_slice(&stats.energy_spent_j.to_bits().to_le_bytes());
    fp_bytes.extend_from_slice(&stats.latency_ms.mean().to_bits().to_le_bytes());
    for i in 0..n {
        let id = NodeId::new(i);
        fp_bytes.push(u8::from(sim.is_alive(id)));
        if let Some(e) = sim.energy(id) {
            fp_bytes.extend_from_slice(&e.remaining_j().to_bits().to_le_bytes());
        }
    }
    // Where every walker ended up (nothing on a static row, whose
    // fingerprints predate the mobile one).
    for &i in &walkers {
        if let Some(p) = sim.position(NodeId::new(i)) {
            fp_bytes.extend_from_slice(&p.x.to_bits().to_le_bytes());
            fp_bytes.extend_from_slice(&p.y.to_bits().to_le_bytes());
        }
    }
    let (route_queries, route_memo_hits) = sim.route_memo_counts();
    let (hops, hop_budgets) = sim.hop_budget_counts();

    SizeResult {
        nodes: n,
        mobile_every: if mobile { MOBILE_EVERY } else { 0 },
        events: sim.events_processed(),
        wall_s,
        sent: stats.sent,
        delivered: stats.delivered,
        dropped: stats.dropped,
        peak_rss_mb: peak_rss_mb(),
        route_queries,
        route_memo_hits,
        hops,
        hop_budgets,
        fingerprint: iobt_obs::fnv1a(&fp_bytes),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let fingerprint_only = args.iter().any(|a| a == "--fingerprint");
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    // `--nodes a,b` runs those sizes, static or (`--mobile`) mobile; with
    // neither, the ledger's rows: three static sizes and the mobile 10k.
    let mobile = args.iter().any(|a| a == "--mobile");
    let sizes: Vec<(u64, bool)> = match args
        .iter()
        .position(|a| a == "--nodes")
        .and_then(|i| args.get(i + 1))
    {
        Some(list) => list
            .split(',')
            .filter_map(|p| p.trim().parse().ok())
            .map(|n| (n, mobile))
            .collect(),
        None if mobile => vec![(10_000, true)],
        None => vec![(1_000, false), (10_000, false), (100_000, false), (10_000, true)],
    };

    let mut rows = Vec::new();
    for &(n, mobile) in &sizes {
        let r = run_size(n, mobile, seed);
        if fingerprint_only {
            println!(
                "nodes={} mobile_every={} seed={} events={} sent={} delivered={} dropped={} \
                 fingerprint={:016x}",
                r.nodes, r.mobile_every, seed, r.events, r.sent, r.delivered, r.dropped,
                r.fingerprint
            );
        } else if !json {
            println!(
                "nodes={:>7} mobile_every={:>2} events={:>9} wall={:>8.3}s events/s={:>10.0} \
                 sent={} delivered={} dropped={} routes={} memo_hits={} hops={} \
                 hop_budgets={} peak_rss={:.1}MB fp={:016x}",
                r.nodes,
                r.mobile_every,
                r.events,
                r.wall_s,
                r.events as f64 / r.wall_s.max(1e-9),
                r.sent,
                r.delivered,
                r.dropped,
                r.route_queries,
                r.route_memo_hits,
                r.hops,
                r.hop_budgets,
                r.peak_rss_mb,
                r.fingerprint
            );
        }
        rows.push(r);
    }

    if json {
        let mut out = String::from("{\n  \"bench\": \"netsim_scale\",\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"nodes\": {}, \"mobile_every\": {}, \"sim_seconds\": {}, \"events\": {}, \
                 \"wall_s\": {:.3}, \"events_per_sec\": {:.1}, \"peak_rss_mb\": {:.1}, \
                 \"sent\": {}, \"delivered\": {}, \"dropped\": {}, \"route_queries\": {}, \
                 \"route_memo_hits\": {}, \"hops\": {}, \"hop_budgets\": {}, \
                 \"fingerprint\": \"{:016x}\"}}{}\n",
                r.nodes,
                r.mobile_every,
                SIM_SECONDS,
                r.events,
                r.wall_s,
                r.events as f64 / r.wall_s.max(1e-9),
                r.peak_rss_mb,
                r.sent,
                r.delivered,
                r.dropped,
                r.route_queries,
                r.route_memo_hits,
                r.hops,
                r.hop_budgets,
                r.fingerprint,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        print!("{out}");
    }
}
