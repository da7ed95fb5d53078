//! Diagnostics bridge: running network tomography against the *simulated*
//! battlefield network.
//!
//! `iobt-tomography` works on abstract topologies; this module derives
//! that topology from a live [`ConnectivityGraph`] snapshot, so the §V-A
//! diagnostics ("health … inferred without direct component observation")
//! run against the same network the mission executes on. Node failures in
//! the simulator become link failures in the tomography model (a dead
//! node's links all vanish), and [`diagnose_failures`] checks how well
//! boolean tomography localizes them from border monitors only.

use std::collections::BTreeMap;

use iobt_netsim::ConnectivityGraph;
use iobt_tomography::{localize_failures, Topology};
use iobt_types::NodeId;

/// A topology extracted from a connectivity snapshot, with the mappings
/// needed to translate results back to node/link identities.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// The abstract topology (tomography-side).
    pub topology: Topology,
    /// Dense index → node id.
    pub nodes: Vec<NodeId>,
    /// Edge index → (node id, node id).
    pub links: Vec<(NodeId, NodeId)>,
}

impl NetworkModel {
    /// Builds the model from a connectivity snapshot over the given node
    /// set (ascending-id dense indexing; only links among `nodes` are
    /// kept). Returns `None` when fewer than 2 nodes or no links exist.
    pub fn from_connectivity(graph: &ConnectivityGraph, nodes: &[NodeId]) -> Option<Self> {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() < 2 {
            return None;
        }
        let index: BTreeMap<NodeId, usize> =
            sorted.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut edges = Vec::new();
        let mut links = Vec::new();
        for (&a, &ai) in &index {
            for (b, _) in graph.neighbors(a) {
                let Some(&bi) = index.get(&b) else { continue };
                if ai < bi {
                    edges.push((ai, bi));
                    links.push((a, b));
                }
            }
        }
        if edges.is_empty() {
            return None;
        }
        // Deterministic edge order: sort both lists together.
        let mut paired: Vec<((usize, usize), (NodeId, NodeId))> =
            edges.into_iter().zip(links).collect();
        paired.sort();
        let (edges, links): (Vec<_>, Vec<_>) = paired.into_iter().unzip();
        Some(NetworkModel {
            topology: Topology::new(sorted.len(), edges),
            nodes: sorted,
            links,
        })
    }

    /// Edge indices incident to a node (a dead node fails all of them).
    pub fn links_of(&self, node: NodeId) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, (a, b))| *a == node || *b == node)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Outcome of a diagnostics pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    /// Nodes implicated by the localized link failures, ascending.
    pub suspected_nodes: Vec<NodeId>,
    /// Link-level precision against the injected ground truth.
    pub link_precision: f64,
}

/// Localizes the links of `dead_nodes` from monitor observations only.
///
/// `monitors` are the (healthy) vantage nodes; the ground truth is used
/// solely for scoring.
pub fn diagnose_failures(
    model: &NetworkModel,
    monitors: &[NodeId],
    dead_nodes: &[NodeId],
) -> Option<DiagnosisReport> {
    let index: BTreeMap<NodeId, usize> = model
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();
    let monitor_idx: Vec<usize> = monitors
        .iter()
        .filter_map(|m| index.get(m).copied())
        .collect();
    if monitor_idx.len() < 2 {
        return None;
    }
    let mut failed_links: Vec<usize> = dead_nodes
        .iter()
        .flat_map(|&n| model.links_of(n))
        .collect();
    failed_links.sort_unstable();
    failed_links.dedup();
    let loc = localize_failures(&model.topology, &monitor_idx, &failed_links);
    let mut suspected_nodes: Vec<NodeId> = loc
        .inferred_failed
        .iter()
        .flat_map(|&e| {
            let (a, b) = model.links[e];
            [a, b]
        })
        .collect();
    suspected_nodes.sort_unstable();
    suspected_nodes.dedup();
    Some(DiagnosisReport {
        link_precision: loc.precision(&failed_links),
        suspected_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_netsim::{SimDuration, SimTime, Simulator};
    use iobt_types::{Affiliation, EnergyBudget, NodeCatalog, NodeSpec, Point, Radio, RadioKind};

    /// A 4x4 grid of wifi nodes, 80 m spacing: a well-connected mesh.
    fn mesh() -> NodeCatalog {
        let mut catalog = NodeCatalog::new();
        for i in 0..16u64 {
            catalog
                .insert(
                    NodeSpec::builder(NodeId::new(i))
                        .affiliation(Affiliation::Blue)
                        .position(Point::new((i % 4) as f64 * 80.0, (i / 4) as f64 * 80.0))
                        .radio(Radio::new(RadioKind::Wifi))
                        .energy(EnergyBudget::unlimited())
                        .build(),
                )
                .unwrap();
        }
        catalog
    }

    #[test]
    fn model_extraction_matches_the_simulated_mesh() {
        let mut sim = Simulator::builder(mesh()).seed(1).build();
        let graph = sim.connectivity();
        let nodes: Vec<NodeId> = (0..16).map(NodeId::new).collect();
        let model = NetworkModel::from_connectivity(&graph, &nodes).unwrap();
        assert_eq!(model.nodes.len(), 16);
        assert!(model.topology.is_connected());
        assert_eq!(model.topology.edge_count(), model.links.len());
        // Every extracted link exists in the snapshot.
        for &(a, b) in &model.links {
            assert!(graph.link(a, b).is_some());
        }
    }

    #[test]
    fn dead_node_is_localized_from_monitors() {
        let mut sim = Simulator::builder(mesh()).seed(2).build();
        let model = {
            let graph = sim.connectivity();
            let nodes: Vec<NodeId> = (0..16).map(NodeId::new).collect();
            NetworkModel::from_connectivity(&graph, &nodes).unwrap()
        };
        // Kill an interior node in the simulator.
        let victim = NodeId::new(5);
        sim.schedule_node_down(SimTime::from_millis(1), victim);
        sim.run_for(SimDuration::from_millis(10));
        assert!(!sim.is_alive(victim));
        // Diagnose from all *other* nodes as monitors.
        let monitors: Vec<NodeId> = (0..16)
            .map(NodeId::new)
            .filter(|&n| n != victim)
            .collect();
        let report = diagnose_failures(&model, &monitors, &[victim]).unwrap();
        // Boolean tomography returns a *minimal* explanation, so recall
        // over all eight incident links is inherently partial; what must
        // hold is that nothing healthy is accused (precision) and the
        // victim is implicated.
        assert!(
            report.link_precision > 0.99,
            "no false accusations: {}",
            report.link_precision
        );
        assert!(
            report.suspected_nodes.contains(&victim),
            "victim implicated: {:?}",
            report.suspected_nodes
        );
    }

    #[test]
    fn border_monitors_still_implicate_the_victim() {
        let mut sim = Simulator::builder(mesh()).seed(3).build();
        let graph = sim.connectivity();
        let nodes: Vec<NodeId> = (0..16).map(NodeId::new).collect();
        let model = NetworkModel::from_connectivity(&graph, &nodes).unwrap();
        let victim = NodeId::new(5);
        // Monitors: the four corners only.
        let monitors = vec![NodeId::new(0), NodeId::new(3), NodeId::new(12), NodeId::new(15)];
        let report = diagnose_failures(&model, &monitors, &[victim]).unwrap();
        // With sparse monitors recall is partial but the victim should
        // appear among the suspects (its links carry corner-to-corner
        // shortest paths), if anything is localized at all.
        assert!(
            report.suspected_nodes.contains(&victim) || report.suspected_nodes.is_empty(),
            "sparse monitoring: {:?}",
            report
        );
    }

    #[test]
    fn degenerate_inputs_return_none() {
        let mut sim = Simulator::builder(mesh()).seed(4).build();
        let graph = sim.connectivity();
        assert!(NetworkModel::from_connectivity(&graph, &[NodeId::new(0)]).is_none());
        let nodes: Vec<NodeId> = (0..16).map(NodeId::new).collect();
        let model = NetworkModel::from_connectivity(&graph, &nodes).unwrap();
        assert!(diagnose_failures(&model, &[NodeId::new(0)], &[]).is_none());
    }
}
