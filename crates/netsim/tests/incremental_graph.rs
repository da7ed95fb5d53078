//! Property: incremental connectivity maintenance is indistinguishable
//! from rebuilding the graph from scratch.
//!
//! The simulator patches single-node liveness changes into its cached
//! [`ConnectivityGraph`] with [`ConnectivityGraph::refresh_node`] instead
//! of discarding the cache on every churn event. That is only sound if a
//! patched graph is *exactly* the graph a from-scratch
//! [`ConnectivityGraph::build_filtered`] would produce — same links, same
//! bit-identical link qualities, same routes. This suite drives random
//! churn sequences (arbitrary node sets, radio loadouts, jammers, and
//! partition-style deny predicates) and checks that equivalence after
//! every single step, not just at the end.
//!
//! Movement is patched the same way — [`ConnectivityGraph::move_node`]
//! re-files each moved node of a batch, then `refresh_node` relinks each
//! — and is held to the same standard: liveness flips mixed with moves
//! inside a spatial-hash cell, across cell boundaries, of dead nodes that
//! later revive, and of neighbors in one batch.
//!
//! The same churn also pins what [`ConnectivityGraph::component_of`]
//! means: after every step its answer for a sampled root is exactly the
//! set of sources [`ConnectivityGraph::route`] finds a path from. (That
//! every stored routing weight is the one function of its link's delivery
//! probability needs private access; `graph.rs`'s unit tests check it.)

use std::rc::Rc;

use iobt_netsim::{Channel, ConnectivityGraph, GraphNode, Jammer, Terrain};
use iobt_types::{NodeId, Point, RadioKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministically samples a node population: clustered positions so
/// links actually form, mixed radio loadouts (including radio-less and
/// long-range nodes), and mixed initial liveness.
fn population(seed: u64, n: usize) -> Vec<GraphNode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let loadouts: [&[RadioKind]; 6] = [
        &[RadioKind::Wifi],
        &[RadioKind::Wifi, RadioKind::Bluetooth],
        &[RadioKind::TacticalUhf],
        &[RadioKind::Wifi, RadioKind::TacticalUhf],
        &[RadioKind::Cellular],
        &[], // sensor with no working radio: never links
    ];
    (0..n)
        .map(|i| {
            let cluster = Point::new(
                f64::from(rng.gen_range(0..3u32)) * 150.0,
                f64::from(rng.gen_range(0..3u32)) * 150.0,
            );
            let position = Point::new(
                cluster.x + rng.gen_range(-80.0..80.0),
                cluster.y + rng.gen_range(-80.0..80.0),
            );
            let radios: Rc<[RadioKind]> = loadouts[rng.gen_range(0..loadouts.len())].into();
            GraphNode {
                id: NodeId::new(i as u64),
                position,
                radios,
                alive: rng.gen_bool(0.8),
            }
        })
        .collect()
}

fn channel(with_jammer: bool) -> Channel {
    let mut ch = Channel::new(Terrain::default());
    if with_jammer {
        ch.add_jammer(Jammer::new(Point::new(150.0, 150.0), 2.0));
    }
    ch
}

/// `component_of(root)` must be exactly `{s : route(s, root).is_some()}`.
/// Sources range one past the population so an id the graph has never
/// seen is asked about too, and include `root` itself.
fn check_component_is_route_reachability(
    g: &ConnectivityGraph,
    n: usize,
    root: NodeId,
) -> Result<(), proptest::TestCaseError> {
    let by_route: Vec<NodeId> = (0..=n as u64)
        .map(NodeId::new)
        .filter(|&s| g.route(s, root).is_some())
        .collect();
    prop_assert_eq!(g.component_of(root), by_route, "root {}", root.raw());
    Ok(())
}

/// The two roots checked after a churn step: the node just flipped (a
/// dead root whenever it went down, a radio-less one whenever its loadout
/// is empty) and one drawn from the op's spare bits, where `n` stands for
/// an id not in the graph.
fn sampled_roots(who: usize, n: usize) -> [NodeId; 2] {
    [who % n, (who / n) % (n + 1)].map(|i| NodeId::new(i as u64))
}

proptest! {
    /// Random churn: after every liveness flip, the patched graph must
    /// have the same topology (ids, liveness, bit-identical adjacency)
    /// as a from-scratch rebuild with the current liveness vector.
    #[test]
    fn random_churn_matches_scratch_rebuild(
        seed in 0u64..10_000,
        n in 8usize..48,
        with_jammer in proptest::bool::ANY,
        ops in proptest::collection::vec((0usize..1 << 16, proptest::bool::ANY), 1..40),
    ) {
        let ch = channel(with_jammer);
        let deny = |_: NodeId, _: NodeId| false;
        let mut nodes = population(seed, n);
        let mut patched = ConnectivityGraph::build_filtered(&nodes, &ch, &deny);
        for (who, up) in ops {
            let i = who % n;
            nodes[i].alive = up;
            patched.refresh_node(i as u32, up, &ch, &deny);
            let scratch = ConnectivityGraph::build_filtered(&nodes, &ch, &deny);
            prop_assert!(
                patched.same_topology(&scratch),
                "patched graph diverged from scratch rebuild after setting node {} alive={}",
                i, up
            );
            prop_assert_eq!(patched.link_count(), scratch.link_count());
            for root in sampled_roots(who, n) {
                check_component_is_route_reachability(&patched, n, root)?;
            }
        }
    }

    /// Same property under a partition-style deny predicate: the
    /// incremental path must consult the predicate exactly like the full
    /// build does, in both link orientations.
    #[test]
    fn random_churn_respects_deny_predicate(
        seed in 0u64..10_000,
        n in 8usize..48,
        cut in 0usize..1 << 16,
        ops in proptest::collection::vec((0usize..1 << 16, proptest::bool::ANY), 1..24),
    ) {
        let ch = channel(false);
        // Partition: no links across the id threshold, like a
        // network-partition fault cuts the topology.
        let threshold = (cut % n) as u64;
        let deny = move |a: NodeId, b: NodeId| {
            (a.raw() < threshold) != (b.raw() < threshold)
        };
        let mut nodes = population(seed ^ 0x9e37, n);
        let mut patched = ConnectivityGraph::build_filtered(&nodes, &ch, &deny);
        for (who, up) in ops {
            let i = who % n;
            nodes[i].alive = up;
            patched.refresh_node(i as u32, up, &ch, &deny);
            let scratch = ConnectivityGraph::build_filtered(&nodes, &ch, &deny);
            prop_assert!(
                patched.same_topology(&scratch),
                "deny-predicate churn diverged after setting node {} alive={}",
                i, up
            );
            for root in sampled_roots(who, n) {
                check_component_is_route_reachability(&patched, n, root)?;
            }
        }
    }

    /// Routes read off a patched graph equal routes off a fresh build:
    /// topology equivalence must extend to what the router actually sees.
    #[test]
    fn routes_after_churn_match_scratch_rebuild(
        seed in 0u64..10_000,
        n in 8usize..32,
        ops in proptest::collection::vec((0usize..1 << 16, proptest::bool::ANY), 1..12),
    ) {
        let ch = channel(false);
        let deny = |_: NodeId, _: NodeId| false;
        let mut nodes = population(seed ^ 0x51f0, n);
        let mut patched = ConnectivityGraph::build_filtered(&nodes, &ch, &deny);
        for (who, up) in ops {
            let i = who % n;
            nodes[i].alive = up;
            patched.refresh_node(i as u32, up, &ch, &deny);
        }
        let scratch = ConnectivityGraph::build_filtered(&nodes, &ch, &deny);
        for s in 0..n as u64 {
            for d in 0..n as u64 {
                prop_assert_eq!(
                    patched.route(NodeId::new(s), NodeId::new(d)),
                    scratch.route(NodeId::new(s), NodeId::new(d)),
                    "route {}->{} diverged after churn", s, d
                );
            }
        }
    }

    /// Liveness flips and *moves*, batched the way the simulator applies
    /// a pending list: every changed node re-filed first, then each
    /// relinked. After every batch the patched graph must equal a
    /// from-scratch build of the same world, and route the same, for all
    /// pairs. `long_range` decides whether the spatial hash has one
    /// kilometres-wide cell row around the origin or ~120 m wifi cells
    /// that a jump crosses; `cut` arms a partition-style deny predicate
    /// in about half the cases.
    #[test]
    fn moves_and_churn_match_scratch_rebuild(
        seed in 0u64..10_000,
        n in 8usize..22,
        long_range in proptest::bool::ANY,
        cut in 0usize..1 << 16,
        ops in proptest::collection::vec(
            (0usize..1 << 16, 0u8..6, -260.0..260.0f64, -260.0..260.0f64),
            1..14,
        ),
    ) {
        let ch = channel(cut % 3 == 0);
        let threshold = if cut % 2 == 0 { 0 } else { (cut % n) as u64 };
        let deny = move |a: NodeId, b: NodeId| {
            (a.raw() < threshold) != (b.raw() < threshold)
        };
        let mut nodes = population(seed ^ 0x6d0f, n);
        if !long_range {
            // Wifi/bluetooth only: cells shrink to the wifi range, so the
            // clusters span many and a jump changes cell.
            for node in &mut nodes {
                let short: Vec<RadioKind> = node
                    .radios
                    .iter()
                    .copied()
                    .filter(|r| matches!(r, RadioKind::Wifi | RadioKind::Bluetooth))
                    .collect();
                node.radios = short.into();
            }
        }
        let mut patched = ConnectivityGraph::build_filtered(&nodes, &ch, &deny);
        for (who, kind, dx, dy) in ops {
            let i = who % n;
            let shift = |p: Point, scale: f64| Point::new(p.x + dx * scale, p.y + dy * scale);
            // The batch of nodes this step changes.
            let batch: Vec<usize> = match kind {
                0 | 1 => {
                    nodes[i].alive = kind == 1;
                    vec![i]
                }
                // A nudge of a few meters: almost always inside its cell.
                2 => {
                    nodes[i].position = shift(nodes[i].position, 0.02);
                    vec![i]
                }
                // A jump of up to a few hundred meters: across wifi cells,
                // and across the origin's cell boundary at any cell size.
                3 => {
                    nodes[i].position = shift(nodes[i].position, 1.0);
                    vec![i]
                }
                // Two neighbors move in one batch, in opposite senses:
                // their link must be computed from both new positions.
                4 => {
                    let near = (0..n)
                        .filter(|&j| j != i)
                        .min_by(|&a, &b| {
                            let da = nodes[a].position.distance_to(nodes[i].position);
                            let db = nodes[b].position.distance_to(nodes[i].position);
                            da.total_cmp(&db)
                        })
                        .expect("n >= 8");
                    nodes[i].position = shift(nodes[i].position, 0.5);
                    nodes[near].position = shift(nodes[near].position, -0.25);
                    vec![near, i]
                }
                // A node moves and flips liveness in the same batch (a dead
                // node that roams and revives, or one that dies on arrival).
                _ => {
                    nodes[i].position = shift(nodes[i].position, 1.0);
                    nodes[i].alive = !nodes[i].alive;
                    vec![i]
                }
            };
            for &b in &batch {
                patched.move_node(b as u32, nodes[b].position);
            }
            for &b in &batch {
                patched.refresh_node(b as u32, nodes[b].alive, &ch, &deny);
            }
            let scratch = ConnectivityGraph::build_filtered(&nodes, &ch, &deny);
            prop_assert!(
                patched.same_topology(&scratch),
                "patched graph diverged from scratch rebuild after op {} on node {}",
                kind, i
            );
            for s in 0..n as u64 {
                for d in 0..n as u64 {
                    prop_assert_eq!(
                        patched.route(NodeId::new(s), NodeId::new(d)),
                        scratch.route(NodeId::new(s), NodeId::new(d)),
                        "route {}->{} diverged after op {} on node {}", s, d, kind, i
                    );
                }
            }
        }
    }
}
