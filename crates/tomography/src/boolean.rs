//! Boolean tomography: localizing failed links from path reachability
//! (ref \[21\], "node failure localization via network tomography").
//!
//! Monitors observe only whether each monitor-to-monitor path works. A
//! path fails iff it crosses at least one failed link. Localization first
//! exonerates every link on a working path, then greedily picks suspect
//! links that cover the most unexplained failed paths (minimum-hitting-set
//! heuristic).

use std::collections::BTreeSet;

use crate::topology::Topology;

/// Result of failure localization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Localization {
    /// Links inferred as failed, ascending.
    pub inferred_failed: Vec<usize>,
    /// Links proven good (on at least one working path), ascending.
    pub exonerated: Vec<usize>,
    /// Failed paths that could not be explained by any suspect link
    /// (indicates the failure set is outside the measurement's reach).
    pub unexplained_paths: usize,
}

impl Localization {
    /// Precision against a ground-truth failure set.
    pub fn precision(&self, truth: &[usize]) -> f64 {
        if self.inferred_failed.is_empty() {
            return if truth.is_empty() { 1.0 } else { 0.0 };
        }
        let truth: BTreeSet<usize> = truth.iter().copied().collect();
        let tp = self
            .inferred_failed
            .iter()
            .filter(|e| truth.contains(e))
            .count();
        tp as f64 / self.inferred_failed.len() as f64
    }

    /// Recall against a ground-truth failure set.
    pub fn recall(&self, truth: &[usize]) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let inferred: BTreeSet<usize> = self.inferred_failed.iter().copied().collect();
        let tp = truth.iter().filter(|e| inferred.contains(e)).count();
        tp as f64 / truth.len() as f64
    }
}

/// Simulates path observations for a ground-truth failure set and runs
/// localization.
///
/// Paths are the shortest monitor-pair paths of `topology` (computed on
/// the *healthy* topology — routing tables have not yet reacted, the common
/// assumption in boolean tomography).
///
/// # Panics
///
/// Panics when fewer than two distinct monitors are given, or when a
/// monitor or failed edge is out of range.
pub fn localize_failures(
    topology: &Topology,
    monitors: &[usize],
    failed_edges: &[usize],
) -> Localization {
    let mut unique: Vec<usize> = monitors.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert!(unique.len() >= 2, "need at least two monitors");
    for &m in &unique {
        assert!(m < topology.node_count(), "monitor out of range");
    }
    for &e in failed_edges {
        assert!(e < topology.edge_count(), "failed edge out of range");
    }
    let failed: BTreeSet<usize> = failed_edges.iter().copied().collect();

    // Collect paths and observe their health.
    let mut working_paths: Vec<Vec<usize>> = Vec::new();
    let mut failed_paths: Vec<Vec<usize>> = Vec::new();
    for i in 0..unique.len() {
        for j in (i + 1)..unique.len() {
            let Some(path) = topology.shortest_path_edges(unique[i], unique[j]) else {
                continue;
            };
            if path.iter().any(|e| failed.contains(e)) {
                failed_paths.push(path);
            } else {
                working_paths.push(path);
            }
        }
    }

    // Exoneration: every link on a working path is good.
    let mut exonerated: BTreeSet<usize> = BTreeSet::new();
    for p in &working_paths {
        exonerated.extend(p.iter().copied());
    }

    // Greedy hitting set over failed paths with non-exonerated candidates.
    let mut uncovered: Vec<&Vec<usize>> = failed_paths.iter().collect();
    let mut inferred: Vec<usize> = Vec::new();
    while !uncovered.is_empty() {
        // Count how many uncovered paths each candidate link would explain.
        let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        for p in &uncovered {
            for &e in p.iter() {
                if !exonerated.contains(&e) {
                    *counts.entry(e).or_insert(0) += 1;
                }
            }
        }
        // Pick the most-covering candidate; BTreeMap iteration makes ties
        // resolve to the smallest edge id.
        let Some((&best, &best_count)) = counts.iter().max_by_key(|(e, c)| (**c, std::cmp::Reverse(**e))) else {
            break; // remaining failures are unexplainable
        };
        if best_count == 0 {
            break;
        }
        inferred.push(best);
        uncovered.retain(|p| !p.contains(&best));
    }

    inferred.sort_unstable();
    let mut exonerated: Vec<usize> = exonerated.into_iter().collect();
    exonerated.sort_unstable();
    Localization {
        inferred_failed: inferred,
        exonerated,
        unexplained_paths: uncovered.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_failure_on_line_is_found_exactly() {
        let g = Topology::line(5);
        let loc = localize_failures(&g, &[0, 1, 2, 3, 4], &[2]);
        assert_eq!(loc.inferred_failed, vec![2]);
        assert_eq!(loc.precision(&[2]), 1.0);
        assert_eq!(loc.recall(&[2]), 1.0);
        assert_eq!(loc.unexplained_paths, 0);
    }

    #[test]
    fn no_failures_yields_empty_inference() {
        let g = Topology::grid(3, 3);
        let loc = localize_failures(&g, &[0, 2, 6, 8], &[]);
        assert!(loc.inferred_failed.is_empty());
        assert_eq!(loc.precision(&[]), 1.0);
        assert_eq!(loc.recall(&[]), 1.0);
    }

    #[test]
    fn end_monitors_cannot_disambiguate_on_a_line() {
        // Only monitors at the two ends: any single failure kills the one
        // path; greedy picks the smallest edge id, which may be wrong, but
        // recall over the *set* reflects ambiguity.
        let g = Topology::line(4);
        let loc = localize_failures(&g, &[0, 3], &[1]);
        assert_eq!(loc.inferred_failed.len(), 1, "one suspect explains all");
        assert_eq!(loc.unexplained_paths, 0);
        // Ambiguity: the suspect might not equal the truth.
        assert!(loc.exonerated.is_empty());
    }

    #[test]
    fn dense_monitors_improve_multi_failure_recall() {
        let g = Topology::grid(4, 4);
        let failures = vec![3, 11];
        let few = localize_failures(&g, &[0, 15], &failures);
        let all: Vec<usize> = (0..g.node_count()).collect();
        let many = localize_failures(&g, &all, &failures);
        assert!(many.recall(&failures) >= few.recall(&failures));
        assert!(many.recall(&failures) > 0.99);
        assert!(many.precision(&failures) > 0.99);
    }

    #[test]
    fn exonerated_links_are_never_inferred_failed() {
        let g = Topology::random_connected(25, 15, 7);
        let failures = vec![0, 5];
        let monitors: Vec<usize> = (0..25).step_by(3).collect();
        let loc = localize_failures(&g, &monitors, &failures);
        for e in &loc.inferred_failed {
            assert!(!loc.exonerated.contains(e));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_failed_edge() {
        let g = Topology::line(3);
        localize_failures(&g, &[0, 2], &[99]);
    }
}
