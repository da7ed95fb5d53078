//! Push-sum averaging over directed, time-varying graphs.
//!
//! Metropolis gossip ([`crate::gossip`]) needs *symmetric* exchanges; a
//! jammed or asymmetric-power battlefield network delivers one-way links.
//! Push-sum (Kempe–Dobra–Gehrke) converges to the exact average on any
//! sequence of strongly-connected directed graphs: each node keeps a value
//! `x` and a weight `w`, ships equal shares of both along its outgoing
//! edges (keeping one share), and estimates the average as `x / w`. The
//! mass-conservation invariants `Σx = const`, `Σw = n` hold exactly at
//! every step and are property-tested below.

/// State of one push-sum node.
#[derive(Debug, Clone, PartialEq)]
pub struct PushSumNode {
    /// Mass-carrying value vector.
    pub x: Vec<f64>,
    /// Weight (starts at 1).
    pub w: f64,
}

impl PushSumNode {
    /// Creates a node holding `value`.
    pub fn new(value: Vec<f64>) -> Self {
        PushSumNode { x: value, w: 1.0 }
    }

    /// Current estimate of the network average.
    pub fn estimate(&self) -> Vec<f64> {
        self.x.iter().map(|v| v / self.w.max(1e-300)).collect()
    }
}

/// One synchronous push-sum round over directed `edges` (`(from, to)`;
/// self-retention is implicit). Nodes with no outgoing edge keep all their
/// mass.
///
/// # Panics
///
/// Panics when an edge endpoint is out of range or node dimensions differ.
pub fn push_sum_round(nodes: &mut [PushSumNode], edges: &[(usize, usize)]) {
    let n = nodes.len();
    if n == 0 {
        return;
    }
    let dim = nodes[0].x.len();
    assert!(
        nodes.iter().all(|s| s.x.len() == dim),
        "node dimensions must match"
    );
    let mut out_degree = vec![0usize; n];
    for &(from, to) in edges {
        assert!(from < n && to < n, "edge endpoint out of range");
        out_degree[from] += 1;
    }
    // Each node splits its mass into (out_degree + 1) shares: one per
    // outgoing edge plus one kept.
    let mut new_x: Vec<Vec<f64>> = vec![vec![0.0; dim]; n];
    let mut new_w = vec![0.0; n];
    for (i, node) in nodes.iter().enumerate() {
        let shares = (out_degree[i] + 1) as f64;
        for (acc, v) in new_x[i].iter_mut().zip(&node.x) {
            *acc += v / shares;
        }
        new_w[i] += node.w / shares;
    }
    for &(from, to) in edges {
        let shares = (out_degree[from] + 1) as f64;
        for (acc, v) in new_x[to].iter_mut().zip(&nodes[from].x) {
            *acc += v / shares;
        }
        new_w[to] += nodes[from].w / shares;
    }
    for (node, (x, w)) in nodes.iter_mut().zip(new_x.into_iter().zip(new_w)) {
        node.x = x;
        node.w = w;
    }
}

/// Runs push-sum for `rounds` over a per-round directed edge supplier and
/// returns the worst node's L2 estimation error from the true average per
/// round (the convergence trace).
///
/// ```
/// # use iobt_learning::pushsum::push_sum_average;
/// let initial: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
/// // A directed ring, i -> i + 1: symmetric gossip cannot run on it.
/// let ring: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
/// let (nodes, trace) = push_sum_average(&initial, |_| ring.clone(), 150);
/// assert!(trace.last().unwrap() < &1e-6);
/// assert!((nodes[0].estimate()[0] - 2.5).abs() < 1e-6);
/// ```
pub fn push_sum_average(
    initial: &[Vec<f64>],
    mut edges_at: impl FnMut(u64) -> Vec<(usize, usize)>,
    rounds: usize,
) -> (Vec<PushSumNode>, Vec<f64>) {
    let n = initial.len();
    let mut nodes: Vec<PushSumNode> = initial.iter().cloned().map(PushSumNode::new).collect();
    if n == 0 {
        return (nodes, Vec::new());
    }
    let dim = initial[0].len();
    let mut truth = vec![0.0; dim];
    for v in initial {
        for (t, x) in truth.iter_mut().zip(v) {
            *t += x / n as f64;
        }
    }
    let mut trace = Vec::with_capacity(rounds);
    for round in 0..rounds {
        push_sum_round(&mut nodes, &edges_at(round as u64));
        let worst = nodes
            .iter()
            .map(|s| {
                s.estimate()
                    .iter()
                    .zip(&truth)
                    .map(|(e, t)| (e - t) * (e - t))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(0.0, f64::max);
        trace.push(worst);
    }
    (nodes, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A directed ring: `i -> (i + 1) % n` — strongly connected but
    /// maximally asymmetric; symmetric gossip cannot even be expressed on it.
    fn directed_ring(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    #[test]
    fn mass_invariants_hold_every_round() {
        let initial: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64, -(i as f64)]).collect();
        let mut nodes: Vec<PushSumNode> =
            initial.iter().cloned().map(PushSumNode::new).collect();
        let x_sum0: f64 = nodes.iter().map(|s| s.x[0]).sum();
        for round in 0..30 {
            let edges = if round % 2 == 0 {
                directed_ring(7)
            } else {
                vec![(0, 3), (3, 6), (6, 0), (1, 4)]
            };
            push_sum_round(&mut nodes, &edges);
            let x_sum: f64 = nodes.iter().map(|s| s.x[0]).sum();
            let w_sum: f64 = nodes.iter().map(|s| s.w).sum();
            assert!((x_sum - x_sum0).abs() < 1e-9, "x mass conserved");
            assert!((w_sum - 7.0).abs() < 1e-9, "w mass conserved");
        }
    }

    #[test]
    fn converges_on_a_directed_ring() {
        let initial: Vec<Vec<f64>> = (0..8).map(|i| vec![(i * 3) as f64]).collect();
        let (_, trace) = push_sum_average(&initial, |_| directed_ring(8), 200);
        assert!(trace[0] > 1.0, "starts far from consensus");
        assert!(
            *trace.last().unwrap() < 1e-6,
            "converges to the exact average: {}",
            trace.last().unwrap()
        );
    }

    #[test]
    fn converges_under_time_varying_directed_graphs() {
        let initial: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        // Alternate two different directed rings (jamming flips link
        // directions every round).
        let (_, trace) = push_sum_average(
            &initial,
            |round| {
                if round % 2 == 0 {
                    directed_ring(10)
                } else {
                    (0..10).map(|i| (i, (i + 3) % 10)).collect()
                }
            },
            200,
        );
        assert!(*trace.last().unwrap() < 1e-6);
    }

    #[test]
    fn error_is_monotone_decreasing_eventually() {
        let initial: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let (_, trace) = push_sum_average(&initial, |_| directed_ring(6), 100);
        let early = trace[10];
        let late = trace[99];
        assert!(late < early);
    }

    #[test]
    fn isolated_nodes_keep_their_value() {
        let initial = vec![vec![5.0], vec![9.0]];
        let (nodes, _) = push_sum_average(&initial, |_| Vec::new(), 10);
        assert_eq!(nodes[0].estimate(), vec![5.0]);
        assert_eq!(nodes[1].estimate(), vec![9.0]);
    }

    #[test]
    fn empty_network_is_safe() {
        let (nodes, trace) = push_sum_average(&[], |_| Vec::new(), 5);
        assert!(nodes.is_empty());
        assert!(trace.is_empty());
    }

    proptest! {
        #[test]
        fn estimates_converge_for_random_values(
            values in proptest::collection::vec(-100.0..100.0f64, 3..12)
        ) {
            let initial: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
            let n = initial.len();
            let truth: f64 = values.iter().sum::<f64>() / n as f64;
            // The directed ring mixes at rate ~cos(pi/n) per round; 800
            // rounds drive an 11-ring below 1e-6 relative error.
            let (nodes, _) = push_sum_average(&initial, |_| directed_ring(n), 800);
            let scale = 1.0 + values.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            for s in &nodes {
                prop_assert!((s.estimate()[0] - truth).abs() < 1e-6 * scale);
            }
        }
    }
}
