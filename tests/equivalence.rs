//! Integration: the simulator's optimized fast path is bit-identical to
//! the legacy reference path it replaced.
//!
//! The netsim hot path was rebuilt for 100k-node scale — a batched event
//! loop instead of one-at-a-time heap pops, incremental connectivity
//! maintenance instead of blanket graph invalidation, and hop budgets kept
//! on the adjacency entries instead of a terrain walk per hop (routing is
//! the same early-exit Dijkstra on both paths). None of that is allowed to move a single bit of any result:
//! `RunConfig::reference_mode` keeps the pre-optimization code path alive
//! as an in-process oracle, and this matrix runs both paths over the f1
//! evacuation vignette and the full chaos campaign for every CI seed,
//! demanding identical end-state digests, window traces, metric
//! fingerprints, and byte-identical JSONL trace streams.
//!
//! The two paths share code (the connectivity-graph slot serves both), so
//! agreeing with each other is not enough: [`GOLDEN`] also holds every
//! fast-path run to bytes committed before that slot was rewritten.
//!
//! No mission scenario moves a node, so neither mission above crosses a
//! link after one of its endpoints moved. The walking field below is the
//! smallest run that does: on the fast path such a hop must read a
//! budget re-derived at the new position, never the one the link kept
//! before the move.

use iobt::obs::fnv1a;
use iobt::prelude::*;

/// The CI seed matrix. Keep in sync with `.github/workflows/ci.yml`.
const SEEDS: [u64; 4] = [3, 17, 42, 1009];

const CHAOS_DURATION_S: f64 = 120.0;

/// `(label, metrics fingerprint, FNV-1a of the JSONL stream, FNV-1a of the
/// checkpoint-encoded `EndStateDigest`)` of each fast-path run below, taken
/// on the commit before `sim/topology.rs` existed.
const GOLDEN: [(&str, u64, u64, u64); 8] = [
    ("f1 seed 3", 0x0b719cf62434a73c, 0x0f1e72e903d94cd4, 0x9a869de99ee0be7d),
    ("f1 seed 17", 0xb57e9638594853a2, 0xab340411ceb478e8, 0x7990692a2eb41617),
    ("f1 seed 42", 0x3d7b56fea9f56802, 0x651005ecb9fe6926, 0xe1071f6ffb1f71e0),
    ("f1 seed 1009", 0x6b4500ef4a67a3f6, 0x446a2105be4d642c, 0x397eafe1d4c56ab9),
    ("chaos seed 3", 0x8573e97956a9e474, 0x5b7f0d95cd0355e8, 0x3d43204f6048beb6),
    ("chaos seed 17", 0xbe49258a60560732, 0x546fa7fb5d1ae5a9, 0x2903d1f9559f2028),
    ("chaos seed 42", 0xc025cfbccb6f895f, 0xa64fe0574573d357, 0x2ba9de97601e393e),
    ("chaos seed 1009", 0x149e4520350814a3, 0xaa6f108d416b57ef, 0x1dcb45125c7fd9f9),
];

fn chaos_scenario(seed: u64) -> Scenario {
    let mut scenario = persistent_surveillance(200, seed);
    let blue: Vec<NodeId> = scenario
        .catalog
        .with_affiliation(Affiliation::Blue)
        .iter()
        .map(|n| n.id())
        .collect();
    let cfg = CampaignConfig::light(
        SimDuration::from_secs_f64(CHAOS_DURATION_S),
        scenario.mission.area(),
    );
    scenario.fault_plan = generate_campaign(seed, &blue, &cfg);
    scenario
}

fn chaos_config(reference: bool, recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(CHAOS_DURATION_S))
        .window(SimDuration::from_secs_f64(10.0))
        .early_repair(true)
        .degradation_ladder(true)
        .acked_tasking(true)
        .reference_mode(reference)
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

/// Runs both paths over one scenario/config pair and asserts every
/// observable output matches bit for bit.
fn assert_paths_equivalent(label: &str, scenario: &Scenario, config: impl Fn(bool, Recorder) -> RunConfig) {
    let (rec_fast, ring_fast) = Recorder::memory(200_000);
    let (rec_ref, ring_ref) = Recorder::memory(200_000);
    let fast = run_mission(scenario, &config(false, rec_fast.clone()));
    let reference = run_mission(scenario, &config(true, rec_ref.clone()));

    assert_eq!(
        fast.digest, reference.digest,
        "{label}: end-state digests diverged between fast and reference paths"
    );
    assert_eq!(
        fast.windows, reference.windows,
        "{label}: window traces diverged"
    );
    assert_eq!(
        rec_fast.metrics_digest().fingerprint(),
        rec_ref.metrics_digest().fingerprint(),
        "{label}: metric fingerprints diverged"
    );
    // The trace streams must agree record for record — same events, same
    // sim-time stamps, same sequence numbers — and therefore byte for
    // byte once encoded as JSONL.
    assert_eq!(
        ring_fast.dropped(),
        ring_ref.dropped(),
        "{label}: ring overflow differed; raise the test capacity"
    );
    let records_fast = ring_fast.records();
    let records_ref = ring_ref.records();
    assert_eq!(
        records_fast, records_ref,
        "{label}: trace records diverged"
    );
    let jsonl_fast: String = records_fast.iter().map(|r| r.to_jsonl()).collect();
    let jsonl_ref: String = records_ref.iter().map(|r| r.to_jsonl()).collect();
    assert_eq!(
        jsonl_fast.as_bytes(),
        jsonl_ref.as_bytes(),
        "{label}: JSONL trace bytes diverged"
    );
    // Yesterday's bytes, not only the other path's.
    let mut digest = iobt::ckpt::Enc::new();
    iobt::core::encode_end_state_digest(&mut digest, &fast.digest);
    let observed = (
        rec_fast.metrics_digest().fingerprint(),
        fnv1a(jsonl_fast.as_bytes()),
        fnv1a(&digest.into_bytes()),
    );
    let golden = GOLDEN.iter().find(|g| g.0 == label).map(|g| (g.1, g.2, g.3));
    assert_eq!(Some(observed), golden, "{label}: fast path left its committed goldens");
    // Sanity: the runs exercised the network at all.
    assert!(fast.digest.sent > 0 && fast.digest.delivered > 0, "{label}");
    assert!(!records_fast.is_empty(), "{label}: nothing was traced");
}

#[test]
fn e1_f1_evacuation_fast_path_matches_reference() {
    for seed in SEEDS {
        let scenario = urban_evacuation(120, seed);
        assert_paths_equivalent(&format!("f1 seed {seed}"), &scenario, |reference, recorder| {
            RunConfig::builder()
                .duration(SimDuration::from_secs_f64(50.0))
                .reference_mode(reference)
                .recorder(recorder)
                .build()
                .expect("valid run config")
        });
    }
}

#[test]
fn e2_chaos_campaign_fast_path_matches_reference() {
    for seed in SEEDS {
        let scenario = chaos_scenario(seed);
        assert!(!scenario.fault_plan.is_empty());
        assert_paths_equivalent(&format!("chaos seed {seed}"), &scenario, chaos_config);
    }
}

/// Seconds between two reports on the walking field.
const WALK_REPORT_PERIOD_S: f64 = 0.4;
const WALK_DURATION_S: f64 = 20.0;
/// The walking field's side, in nodes, and their spacing.
const WALK_SIDE: u64 = 3;
const WALK_SPACING_M: f64 = 70.0;
/// The middle node of the grid, which every other node reports to.
const WALK_SINK: u64 = 4;

/// Reports to the sink every [`WALK_REPORT_PERIOD_S`].
struct Reporter;

impl Behavior for Reporter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs_f64(WALK_REPORT_PERIOD_S), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.send(NodeId::new(WALK_SINK), 1, [0u8; 48]);
        ctx.set_timer(SimDuration::from_secs_f64(WALK_REPORT_PERIOD_S), 0);
    }
}

/// A 3×3 wifi grid in urban clutter reporting to its middle node, two
/// opposite corners on random-waypoint walks across the whole field. Two
/// movers of nine stay under the share a patch takes; more, and every
/// tick rebuilds the graph from scratch, keeping no budget across a move.
/// On open ground every wifi link in range has a mean SINR above 40 dB,
/// so every attempt succeeds whatever budget it reads; in urban clutter
/// (19 dB at 100 m, 7 dB shadowing spread) a stale budget moves the
/// retransmit count.
fn walking_field(seed: u64, reference: bool, recorder: Recorder) -> Simulator {
    let extent = (WALK_SIDE - 1) as f64 * WALK_SPACING_M;
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(extent, extent));
    let mut catalog = NodeCatalog::new();
    for i in 0..WALK_SIDE * WALK_SIDE {
        let (col, row) = ((i % WALK_SIDE) as f64, (i / WALK_SIDE) as f64);
        let spec = NodeSpec::builder(NodeId::new(i))
            .affiliation(Affiliation::Blue)
            .position(Point::new(col * WALK_SPACING_M, row * WALK_SPACING_M))
            .radio(Radio::new(RadioKind::Wifi))
            .energy(EnergyBudget::new(5_000.0))
            .build();
        catalog.insert(spec).expect("fresh ids never collide");
    }
    let mut builder = Simulator::builder(catalog)
        .terrain(Terrain::uniform(area, Clutter::Urban))
        .seed(seed)
        .reference_mode(reference)
        .recorder(recorder);
    for corner in [0, 8] {
        let model = MobilityModel::RandomWaypoint { area, speed_mps: 12.0, pause_s: 1.0 };
        builder = builder.mobility(NodeId::new(corner), model);
    }
    let mut sim = builder.build();
    for i in (0..WALK_SIDE * WALK_SIDE).filter(|&i| i != WALK_SINK) {
        sim.set_behavior(NodeId::new(i), Box::new(Reporter));
    }
    sim
}

#[test]
fn e3_moved_endpoints_fast_path_matches_reference() {
    for seed in SEEDS {
        let (rec_fast, ring_fast) = Recorder::memory(100_000);
        let (rec_ref, ring_ref) = Recorder::memory(100_000);
        let mut fast = walking_field(seed, false, rec_fast);
        let mut reference = walking_field(seed, true, rec_ref);
        let start = fast.position(NodeId::new(0));
        fast.run_for(SimDuration::from_secs_f64(WALK_DURATION_S));
        reference.run_for(SimDuration::from_secs_f64(WALK_DURATION_S));

        let label = format!("walking field seed {seed}");
        assert_eq!(fast.stats(), reference.stats(), "{label}: statistics diverged");
        for i in 0..WALK_SIDE * WALK_SIDE {
            let id = NodeId::new(i);
            let energy = |sim: &Simulator| sim.energy(id).map(|e| e.remaining_j().to_bits());
            assert_eq!(energy(&fast), energy(&reference), "{label}: node {i}'s energy diverged");
            assert_eq!(fast.position(id), reference.position(id), "{label}: node {i} strayed");
        }
        assert_eq!(ring_fast.dropped(), 0, "{label}: raise the ring capacity");
        let jsonl =
            |ring: &RingHandle| -> String { ring.records().iter().map(|r| r.to_jsonl()).collect() };
        assert_eq!(
            jsonl(&ring_fast).as_bytes(),
            jsonl(&ring_ref).as_bytes(),
            "{label}: JSONL trace bytes diverged"
        );
        // The walkers walked, the reports arrived, and the fast path
        // read kept budgets where the reference path computed each one.
        assert_ne!(fast.position(NodeId::new(0)), start, "{label}: corner 0 never moved");
        let stats = fast.stats();
        assert!(stats.delivered > stats.sent / 2, "{label}: {}/{}", stats.delivered, stats.sent);
        let (hops, computed) = fast.hop_budget_counts();
        assert!(computed > 0 && computed < hops, "{label}: {computed} of {hops} budgets computed");
        let (ref_hops, ref_computed) = reference.hop_budget_counts();
        assert_eq!(ref_hops, ref_computed, "{label}: the reference path keeps no budget");
    }
}
