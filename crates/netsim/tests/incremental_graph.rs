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
}
