//! The route memo, the sink's search bound and the movement patch pay
//! per *change* without changing a bit: a convergecast field with churn
//! and walkers run on the fast path (memo consulted, searches bounded by
//! the sink's reverse-distance table, moved nodes patched into the cached
//! graph) and on `reference_mode` (an unbounded search per message, a
//! rebuild per invalidation) must agree on every statistic, every node's
//! energy and the whole JSONL stream; a node lost far from a route's
//! search must not cost that route its memo entry; and a snapshot taken
//! with the memo and the table warm, with a move still pending or
//! without, must resume into the uninterrupted run.

use iobt_netsim::prelude::*;
use iobt_obs::Recorder;
use iobt_types::prelude::*;

const SIDE: u64 = 8;
const N: u64 = SIDE * SIDE;
const SPACING_M: f64 = 70.0;
/// The command post: a node near the middle of the grid.
const SINK: u64 = 27;
/// Off the 1 s mobility step, so no report shares an instant with a tick
/// and a snapshot on a tick boundary finds that tick's moves unapplied.
const REPORT_PERIOD_S: f64 = 0.4;
/// How far behind the even nodes the odd ones report, so the odd round
/// searches under the table the even round earned.
const ODD_LAG_S: f64 = 0.1;

/// Periodic reporter to the sink; stateless, so checkpointable as is.
struct Reporter;

impl Behavior for Reporter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let lag = if ctx.id().raw() % 2 == 1 { ODD_LAG_S } else { 0.0 };
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S + lag), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.send(NodeId::new(SINK), 1, vec![0u8; 48]);
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
    }
    fn save_state(&self) -> Option<BehaviorSnapshot> {
        Some(BehaviorSnapshot::new("test.reporter", Vec::new()))
    }
}

fn registry() -> BehaviorRegistry {
    let mut registry = BehaviorRegistry::new();
    registry.register("test.reporter", || Box::new(Reporter));
    registry
}

/// An 8×8 wifi grid, everyone but the sink reporting to it, every fifth
/// node on a random-waypoint walk (the sink stays put), a fail/recover
/// process that takes a few nodes down and up within `horizon_s`, and
/// the sink's east neighbor lost for good at 4 s, so every route that
/// crossed it is wrong from then on.
fn field(seed: u64, reference: bool, recorder: Recorder, horizon_s: f64) -> Simulator {
    let extent = SIDE as f64 * SPACING_M;
    let area = Rect::new(Point::new(-50.0, -50.0), Point::new(extent, extent));
    let mut catalog = NodeCatalog::new();
    for i in 0..N {
        let spec = NodeSpec::builder(NodeId::new(i))
            .affiliation(Affiliation::Blue)
            .position(Point::new((i % SIDE) as f64 * SPACING_M, (i / SIDE) as f64 * SPACING_M))
            .radio(Radio::new(RadioKind::Wifi))
            .energy(EnergyBudget::new(5_000.0))
            .build();
        catalog.insert(spec).expect("fresh ids never collide");
    }
    let mut builder = Simulator::builder(catalog)
        .terrain(Terrain::uniform(area, Clutter::Open))
        .seed(seed)
        .reference_mode(reference)
        .recorder(recorder);
    for i in (0..N).step_by(5).filter(|&i| i != SINK) {
        let model = MobilityModel::RandomWaypoint { area, speed_mps: 12.0, pause_s: 1.0 };
        builder = builder.mobility(NodeId::new(i), model);
    }
    let mut sim = builder.build();
    for i in (0..N).filter(|&i| i != SINK) {
        sim.set_behavior(NodeId::new(i), Box::new(Reporter));
    }
    let ids: Vec<NodeId> = (0..N).map(NodeId::new).collect();
    ChurnProcess::recovering(150.0, 3.0, seed).schedule(
        &mut sim,
        &ids,
        SimTime::from_secs_f64(horizon_s),
    );
    sim.schedule_node_down(SimTime::from_secs_f64(4.0), NodeId::new(SINK + 1));
    sim
}

fn energy_bits(sim: &Simulator) -> Vec<Option<u64>> {
    (0..N)
        .map(|i| sim.energy(NodeId::new(i)).map(|e| e.remaining_j().to_bits()))
        .collect()
}

#[test]
fn fast_path_matches_reference_under_churn_and_movement() {
    for seed in [3, 17, 42] {
        let (rec_fast, ring_fast) = Recorder::memory(400_000);
        let (rec_ref, ring_ref) = Recorder::memory(400_000);
        let mut fast = field(seed, false, rec_fast.clone(), 12.0);
        let mut reference = field(seed, true, rec_ref, 12.0);
        fast.run_for(SimDuration::from_secs_f64(12.0));
        reference.run_for(SimDuration::from_secs_f64(12.0));

        assert_eq!(fast.stats(), reference.stats(), "seed {seed}: statistics diverged");
        assert_eq!(energy_bits(&fast), energy_bits(&reference), "seed {seed}: energy diverged");
        for i in 0..N {
            let id = NodeId::new(i);
            assert_eq!(fast.position(id), reference.position(id), "seed {seed}: node {i} strayed");
        }
        assert_eq!(ring_fast.dropped(), 0, "raise the ring capacity");
        let jsonl = |ring: &iobt_obs::RingHandle| -> String {
            ring.records().iter().map(|r| r.to_jsonl()).collect()
        };
        assert_eq!(
            jsonl(&ring_fast).as_bytes(),
            jsonl(&ring_ref).as_bytes(),
            "seed {seed}: JSONL trace bytes diverged"
        );

        // The run must have exercised what it claims to compare: nodes
        // went down and came back, most messages arrived, and the memo
        // answered some routes and the sink's table bounded some searches
        // on the fast path and neither on the reference path.
        let metrics = rec_fast.metrics_digest();
        let (downs, ups) = (metrics.counter("netsim.node_down"), metrics.counter("netsim.node_up"));
        assert!(downs > Some(0) && ups > Some(0), "seed {seed}: {downs:?} downs, {ups:?} ups");
        let stats = fast.stats();
        assert!(stats.delivered > stats.sent / 2, "seed {seed}: {}/{}", stats.delivered, stats.sent);
        let ((queries, hits), (ref_queries, ref_hits)) =
            (fast.route_memo_counts(), reference.route_memo_counts());
        assert_eq!(queries, ref_queries);
        assert!(hits > 0 && hits < queries, "seed {seed}: {hits} hits of {queries}");
        assert_eq!(ref_hits, 0);
        let (tables, bounded) = fast.route_bound_counts();
        assert!(tables > 0 && bounded > tables, "seed {seed}: {bounded} bounded, {tables} tables");
        assert!(bounded < queries - hits, "seed {seed}: every table is earned unbounded");
        assert_eq!(reference.route_bound_counts(), (0, 0));
    }
}

#[test]
fn snapshot_with_warm_memo_resumes_exactly() {
    let (seed, end_s) = (17, 11.0);
    let mut uninterrupted = field(seed, false, Recorder::disabled(), end_s);
    uninterrupted.run_for(SimDuration::from_secs_f64(end_s));
    let end_state = uninterrupted.save_state().expect("reporters are checkpointable");

    // Three cuts, all with the memo warm. At 5.0 s the tick at that very
    // instant has moved the walkers and no report has touched the graph
    // since, so the moves are pending and the next access rebuilds. At
    // 5.25 s and 5.5 s the reports of 5.2 s have refreshed the graph,
    // restore rebuilds it silently and clean, and nothing but restore
    // itself stands between the first report and a stale memo. At 5.25 s
    // the sink's table the even round earned is warm too, and bounds the
    // odd round of 5.3 s in the uninterrupted run; the resumed run has
    // to earn its own and must route the odd round the same.
    for cut_s in [5.0, 5.25, 5.5] {
        let mut first = field(seed, false, Recorder::disabled(), end_s);
        first.run_for(SimDuration::from_secs_f64(cut_s));
        let blob = first.save_state().expect("checkpointable");
        // The memo is warm at the cut and answers the very next round of
        // reports: one left over in the simulator restored into would too.
        let hits_at_cut = first.route_memo_counts().1;
        if cut_s == 5.25 {
            let (tables, bounded) = first.route_bound_counts();
            first.run_for(SimDuration::from_secs_f64(0.1));
            let (tables_after, bounded_after) = first.route_bound_counts();
            assert_eq!(tables_after, tables, "the odd round bought a table");
            assert!(bounded_after > bounded, "no table was warm at the cut");
        }
        first.run_for(SimDuration::from_secs_f64(0.7));
        assert!(first.route_memo_counts().1 > hits_at_cut, "cut at {cut_s} s: no hit follows");

        if cut_s == 5.0 {
            // A pending list that holds movement is written as a fully
            // stale graph, which is what the reference path — where
            // movement *is* a full invalidation — writes at the same
            // instant, along with the same everything else.
            let mut reference = field(seed, true, Recorder::disabled(), end_s);
            reference.run_for(SimDuration::from_secs_f64(cut_s));
            assert_eq!(blob, reference.save_state().expect("checkpointable"));
        }

        // The simulator restored into has a memo and a table of its own,
        // warm from another time and topology: restore must empty them.
        let mut resumed = field(seed, false, Recorder::disabled(), end_s);
        resumed.run_for(SimDuration::from_secs_f64(2.7));
        resumed.restore_state(&blob, &registry()).expect("restore");
        assert_eq!(resumed.now(), SimTime::from_secs_f64(cut_s));
        resumed.run_until(SimTime::from_secs_f64(end_s));

        assert_eq!(resumed.stats(), uninterrupted.stats(), "cut at {cut_s} s");
        assert_eq!(energy_bits(&resumed), energy_bits(&uninterrupted), "cut at {cut_s} s");
        assert_eq!(
            resumed.save_state().expect("checkpointable"),
            end_state,
            "cut at {cut_s} s: full end state must be byte-identical"
        );
    }
}

/// A static wifi strip `STRIP_COLS` nodes long and three deep, cut into
/// blocks of `BLOCK_COLS` columns, everyone reporting to the middle node
/// of their block's second column, with the node at the far east corner
/// lost at 2.1 s. The strip is long and the blocks small, so no head
/// earns a reverse-distance table and every answer is an unbounded
/// search's.
fn strip(reference: bool, recorder: Recorder) -> Simulator {
    let mut catalog = NodeCatalog::new();
    for i in 0..STRIP_COLS * 3 {
        let (col, row) = (i % STRIP_COLS, i / STRIP_COLS);
        let spec = NodeSpec::builder(NodeId::new(i))
            .affiliation(Affiliation::Blue)
            .position(Point::new(col as f64 * SPACING_M, row as f64 * SPACING_M))
            .radio(Radio::new(RadioKind::Wifi))
            .energy(EnergyBudget::new(5_000.0))
            .build();
        catalog.insert(spec).expect("fresh ids never collide");
    }
    let extent = STRIP_COLS as f64 * SPACING_M;
    let area = Rect::new(Point::new(-50.0, -50.0), Point::new(extent, 3.0 * SPACING_M));
    let mut sim = Simulator::builder(catalog)
        .terrain(Terrain::uniform(area, Clutter::Open))
        .seed(11)
        .reference_mode(reference)
        .recorder(recorder)
        .build();
    for i in 0..STRIP_COLS * 3 {
        let head = STRIP_COLS + (i % STRIP_COLS) / BLOCK_COLS * BLOCK_COLS + 1;
        if i != head {
            let sink = NodeId::new(head);
            sim.set_behavior(NodeId::new(i), Box::new(StripReporter { sink }));
        }
    }
    sim.schedule_node_down(SimTime::from_secs_f64(2.1), NodeId::new(3 * STRIP_COLS - 1));
    sim
}

const STRIP_COLS: u64 = 48;
const BLOCK_COLS: u64 = 4;

/// A reporter to a given sink, every [`REPORT_PERIOD_S`].
struct StripReporter {
    sink: NodeId,
}

impl Behavior for StripReporter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.send(self.sink, 1, vec![0u8; 48]);
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
    }
}

#[test]
fn a_far_away_loss_keeps_the_answers_it_cannot_reach() {
    let (rec_fast, ring_fast) = Recorder::memory(100_000);
    let (rec_ref, ring_ref) = Recorder::memory(100_000);
    let mut fast = strip(false, rec_fast);
    let mut reference = strip(true, rec_ref);
    // Rounds at 0.4 s steps: by 2.0 s the memo answers every report.
    let round = |sim: &mut Simulator, until_s: f64| {
        let before = sim.route_memo_counts();
        sim.run_until(SimTime::from_secs_f64(until_s));
        let after = sim.route_memo_counts();
        (after.0 - before.0, after.1 - before.1)
    };
    round(&mut fast, 1.9);
    let (queries, hits) = round(&mut fast, 2.3);
    assert_eq!(hits, queries, "a static strip re-asks nothing");
    // The round of 2.4 s, after the loss at 2.1 s: the blocks in the west
    // searched nowhere near the east corner and keep their answers; the
    // easternmost search again.
    let (queries, hits) = round(&mut fast, 2.7);
    let heads = STRIP_COLS / BLOCK_COLS;
    assert_eq!(queries, STRIP_COLS * 3 - heads - 1, "all but the heads and the lost node ask");
    assert!(hits > queries / 2 && hits < queries, "{hits} hits of {queries}");
    assert_eq!(fast.route_bound_counts(), (0, 0), "no head earned a table");

    reference.run_until(SimTime::from_secs_f64(2.7));
    assert_eq!(reference.route_memo_counts(), (fast.route_memo_counts().0, 0));
    assert_eq!(fast.stats(), reference.stats());
    assert!(!fast.is_alive(NodeId::new(3 * STRIP_COLS - 1)), "the loss happened");
    let jsonl = |ring: &iobt_obs::RingHandle| -> String {
        ring.records().iter().map(|r| r.to_jsonl()).collect()
    };
    assert_eq!(jsonl(&ring_fast).as_bytes(), jsonl(&ring_ref).as_bytes());
}
