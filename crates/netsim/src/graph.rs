//! Connectivity graphs and routing over the current radio environment.
//!
//! The simulator periodically snapshots which node pairs can hear each
//! other (shared radio technology, acceptable mean delivery probability)
//! into a [`ConnectivityGraph`], then routes messages along the most
//! reliable path (Dijkstra on `-ln p` weights, so path weight is the
//! negative log of end-to-end delivery probability).
//!
//! The graph is built for battlefield scale:
//!
//! * **Dense `u32` indexing** — node ids are mapped once to dense
//!   indices; the id universe (`Rc<[NodeId]>`) and index map are shared
//!   with the simulator, so adjacency and routing scratch run on flat
//!   `Vec`s with no per-query map lookups.
//! * **Radius-matched spatial hashing** — the bucket size is the largest
//!   radio range actually present (capped at [`MAX_LINK_RANGE_M`]), so a
//!   wifi-only mesh gets ~120 m cells instead of 6 km ones and pair
//!   testing stays near-linear.
//! * **Incremental maintenance** — [`ConnectivityGraph::refresh_node`]
//!   recomputes one node's liveness and incident links in place, and
//!   [`ConnectivityGraph::move_node`] re-files a node that moved, which
//!   is what lets the simulator survive churn and mobility without
//!   rebuilding the whole graph (see the sim's dirty-tracking for the
//!   rules).
//! * **One routing path** — every search is an early-exit Dijkstra over
//!   reused scratch. The graph caches no routes; the simulator keeps
//!   each source's last answer for as long as the topology stands.
//! * **Reachability is a component** — links are undirected and every
//!   weight is finite, so "who can reach this node" is one `O(V + E)`
//!   sweep ([`ConnectivityGraph::component_of`]), not a route per asker.
//! * **Weights are stored, not derived** — each adjacency entry carries
//!   its `-ln p` routing weight, computed once when the link is built,
//!   so a relaxation is a load and an add.
//! * **The pair test rejects before it computes** — one kernel for build
//!   and relink: no shared radio, then too far for the longest shared
//!   range, and only then a terrain walk and a logistic; the partition
//!   predicate is asked last, about pairs that would otherwise link.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

use iobt_types::{NodeId, Point, RadioKind};

use crate::channel::{watts_to_dbm, Channel, LinkBudget};

/// Quality of a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Mean single-transmission delivery probability in `(0, 1]`.
    pub delivery_prob: f64,
    /// Radio technology the link uses.
    pub radio: RadioKind,
    /// Link distance in meters.
    pub distance_m: f64,
}

/// A node as seen by the graph builder.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Node identifier.
    pub id: NodeId,
    /// Current position.
    pub position: Point,
    /// Radio technologies the node carries. Refcounted so graph builds
    /// and snapshots share the immutable catalog data instead of cloning
    /// a `Vec` per node per rebuild.
    pub radios: Rc<[RadioKind]>,
    /// Whether the node is up (dead nodes keep their slot but get no links).
    pub alive: bool,
}

/// Snapshot of who can talk to whom.
#[derive(Debug, Clone, Default)]
pub struct ConnectivityGraph {
    ids: Rc<[NodeId]>,
    index: Rc<BTreeMap<NodeId, u32>>,
    /// Retained builder inputs, so single-node refreshes can recompute
    /// links without the caller re-supplying the world.
    nodes: Vec<GraphNode>,
    adj: Vec<Vec<Edge>>,
    /// Spatial hash over *all* radio-equipped nodes (dead ones included,
    /// so a revived node can rediscover its neighborhood), each bucket
    /// sorted by index. [`ConnectivityGraph::move_node`] keeps it in
    /// step with `nodes[..].position`.
    buckets: BTreeMap<(i64, i64), Vec<u32>>,
    cell_m: f64,
}

/// One adjacency entry: a [`LinkQuality`] flattened next to its target
/// index and its routing weight, so the weight rides in what was padding
/// around `(u32, LinkQuality)` — 32 bytes either way.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    to: u32,
    radio: RadioKind,
    delivery_prob: f64,
    distance_m: f64,
    /// `-ln p`: Dijkstra minimises the sum, i.e. maximises the product
    /// of per-hop delivery probabilities.
    weight: f64,
}

impl Edge {
    fn new(to: u32, link: LinkQuality) -> Self {
        Edge {
            to,
            radio: link.radio,
            delivery_prob: link.delivery_prob,
            distance_m: link.distance_m,
            weight: -(link.delivery_prob.max(1e-12)).ln(),
        }
    }

    fn quality(&self) -> LinkQuality {
        LinkQuality {
            delivery_prob: self.delivery_prob,
            radio: self.radio,
            distance_m: self.distance_m,
        }
    }
}

/// Minimum mean delivery probability for a link to exist at all.
pub const MIN_LINK_QUALITY: f64 = 0.05;

/// Links are only considered between nodes closer than this, keeping graph
/// construction near-linear via spatial hashing. Satcom-style infinite-range
/// radios are modelled as reachback, not mesh links.
pub const MAX_LINK_RANGE_M: f64 = 6_000.0;

/// A batch of changed nodes is patched into a cached graph only while it
/// is at most one node in this many; a larger batch is a full rebuild.
/// A patch computes each link between two changed nodes from both ends
/// and re-sorts per node, so it loses to the build's one pass per pair
/// well before everything moves (EXPERIMENTS.md, "Pay per change").
pub(crate) const PATCH_AT_MOST_ONE_IN: usize = 4;

/// Spatial-hash cell side: the longest radio range actually present,
/// capped at [`MAX_LINK_RANGE_M`]. No link can span more than one cell
/// diagonal's worth of range, so the 3×3 neighborhood scan stays exact
/// while short-range meshes get proportionally fine cells.
fn cell_size_m(nodes: &[GraphNode]) -> f64 {
    let mut cell: f64 = 0.0;
    for n in nodes {
        for r in n.radios.iter() {
            cell = cell.max(r.nominal_range_m().min(MAX_LINK_RANGE_M));
        }
    }
    if cell > 0.0 && cell.is_finite() {
        cell
    } else {
        MAX_LINK_RANGE_M
    }
}

fn bucket_key(p: Point, cell: f64) -> (i64, i64) {
    ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
}

impl ConnectivityGraph {
    /// Builds the graph from node states and the channel model.
    ///
    /// Uses a uniform spatial grid whose cell is the longest radio range
    /// present, so only pairs in neighbouring cells are tested: cost is
    /// `O(n + pairs-within-range)` while that range is small against the
    /// theatre, and `O(n^2)` cheap rejects when it spans it — 1,001 nodes
    /// with tactical UHF on a 3 km square file into one bucket and all
    /// 500,500 pairs meet the kernel.
    pub fn build(nodes: &[GraphNode], channel: &Channel) -> Self {
        Self::build_filtered(nodes, channel, &|_, _| false)
    }

    /// [`ConnectivityGraph::build`] with a link-deny predicate: any pair
    /// for which `deny(a, b)` returns true gets no link regardless of
    /// radio compatibility. This is how network-partition faults cut the
    /// topology without touching node liveness. The predicate must be
    /// pure and symmetric; it is consulted once per unordered pair that
    /// would otherwise link.
    pub fn build_filtered(
        nodes: &[GraphNode],
        channel: &Channel,
        deny: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> Self {
        let ids: Rc<[NodeId]> = nodes.iter().map(|g| g.id).collect();
        let index: Rc<BTreeMap<NodeId, u32>> = Rc::new(
            ids.iter()
                .enumerate()
                .map(|(i, &id)| (id, i as u32))
                .collect(),
        );
        Self::build_shared(ids, index, nodes.to_vec(), channel, deny)
    }

    /// [`ConnectivityGraph::build_filtered`] over a pre-built dense index.
    ///
    /// The simulator constructs the id universe once and shares it with
    /// every graph it builds, so graph index `i` and simulator index `i`
    /// always name the same node. `nodes[i].id` must equal `ids[i]`.
    pub(crate) fn build_shared(
        ids: Rc<[NodeId]>,
        index: Rc<BTreeMap<NodeId, u32>>,
        nodes: Vec<GraphNode>,
        channel: &Channel,
        deny: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> Self {
        debug_assert_eq!(ids.len(), nodes.len());
        debug_assert!(nodes.iter().enumerate().all(|(i, n)| n.id == ids[i]));
        let n = nodes.len();
        let mut adj: Vec<Vec<Edge>> = vec![Vec::new(); n];

        let cell = cell_size_m(&nodes);
        let mut buckets: BTreeMap<(i64, i64), Vec<u32>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if node.radios.is_empty() {
                continue;
            }
            buckets
                .entry(bucket_key(node.position, cell))
                .or_default()
                .push(i as u32);
        }
        let kernel = PairKernel::new(channel, deny);
        let masks: Vec<u8> = nodes.iter().map(radio_mask).collect();
        // Each unordered pair is visited exactly once with the lower
        // index as owner, so no dedup pass is needed and the stored link
        // orientation is deterministic regardless of bucket layout.
        for (&(bx, by), members) in &buckets {
            for &i in members {
                if masks[i as usize] == 0 {
                    continue;
                }
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let Some(others) = buckets.get(&(bx + dx, by + dy)) else {
                            continue;
                        };
                        for &j in others {
                            if j <= i {
                                continue;
                            }
                            let (a, b) = (&nodes[i as usize], &nodes[j as usize]);
                            if let Some(link) =
                                kernel.link(a, masks[i as usize], b, masks[j as usize])
                            {
                                let edge = Edge::new(j, link);
                                adj[i as usize].push(edge);
                                adj[j as usize].push(Edge { to: i, ..edge });
                            }
                        }
                    }
                }
            }
        }
        for list in &mut adj {
            list.sort_by_key(|e| e.to);
        }
        ConnectivityGraph {
            ids,
            index,
            nodes,
            adj,
            buckets,
            cell_m: cell,
        }
    }

    /// Records that node `i` now stands at `position`: rewrites its
    /// retained position and re-files it in the spatial hash. Dead nodes
    /// move too, so one that dies, roams and revives rediscovers the
    /// neighborhood it is actually in.
    ///
    /// Links are not touched. After *every* moved node of a batch has
    /// been re-filed, call [`ConnectivityGraph::refresh_node`] for each of
    /// them; relinking against a neighbor whose new position is not yet
    /// written would compute that link from a stale distance.
    pub fn move_node(&mut self, i: u32, position: Point) {
        let Some(node) = self.nodes.get_mut(i as usize) else {
            return;
        };
        let (from, to) = (
            bucket_key(node.position, self.cell_m),
            bucket_key(position, self.cell_m),
        );
        node.position = position;
        if from == to || node.radios.is_empty() {
            return;
        }
        if let Some(members) = self.buckets.get_mut(&from) {
            if let Ok(pos) = members.binary_search(&i) {
                members.remove(pos);
            }
            if members.is_empty() {
                self.buckets.remove(&from);
            }
        }
        let members = self.buckets.entry(to).or_default();
        if let Err(pos) = members.binary_search(&i) {
            members.insert(pos, i);
        }
    }

    /// Recomputes one node's liveness and incident links in place.
    ///
    /// Sound only while everything *else* is as it was at the last full
    /// build: radios, the channel (jammers, degradation loss) and the
    /// deny predicate — the caller falls back to a full rebuild for
    /// those — and every position the graph retains is current (see
    /// [`ConnectivityGraph::move_node`]). Produces a graph identical to
    /// rebuilding from scratch with the node's new liveness and place.
    pub fn refresh_node(
        &mut self,
        i: u32,
        alive: bool,
        channel: &Channel,
        deny: &dyn Fn(NodeId, NodeId) -> bool,
    ) {
        let iu = i as usize;
        if iu >= self.nodes.len() {
            return;
        }
        // Tear out the node's current incident links from both sides.
        let old = std::mem::take(&mut self.adj[iu]);
        for e in old {
            let list = &mut self.adj[e.to as usize];
            if let Ok(pos) = list.binary_search_by_key(&i, |k| k.to) {
                list.remove(pos);
            }
        }
        self.nodes[iu].alive = alive;
        let mask_i = radio_mask(&self.nodes[iu]);
        if mask_i == 0 {
            return;
        }
        let kernel = PairKernel::new(channel, deny);
        // Rediscover links against the neighborhood, with the same
        // lower-index-owner orientation as a full build.
        let (bx, by) = bucket_key(self.nodes[iu].position, self.cell_m);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(others) = self.buckets.get(&(bx + dx, by + dy)) else {
                    continue;
                };
                for &j in others {
                    if j == i {
                        continue;
                    }
                    let mask_j = radio_mask(&self.nodes[j as usize]);
                    let (a, mask_a, b, mask_b) = if i < j {
                        (iu, mask_i, j as usize, mask_j)
                    } else {
                        (j as usize, mask_j, iu, mask_i)
                    };
                    let link = kernel.link(&self.nodes[a], mask_a, &self.nodes[b], mask_b);
                    if let Some(link) = link {
                        let edge = Edge::new(j, link);
                        self.adj[iu].push(edge);
                        let list = &mut self.adj[j as usize];
                        if let Err(pos) = list.binary_search_by_key(&i, |k| k.to) {
                            list.insert(pos, Edge { to: i, ..edge });
                        }
                    }
                }
            }
        }
        self.adj[iu].sort_by_key(|e| e.to);
    }

    /// Whether two graphs describe the same routable topology: same id
    /// universe, same per-node liveness, and bit-identical adjacency.
    /// This is the oracle the incremental-maintenance checks compare
    /// against a from-scratch rebuild.
    pub fn same_topology(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self
                .nodes
                .iter()
                .zip(&other.nodes)
                .all(|(a, b)| a.alive == b.alive)
            && self.adj == other.adj
    }

    /// The builder inputs as held: each node's place and liveness as of
    /// the build or its last patch.
    pub(crate) fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Number of nodes (including dead ones, which have no links).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Neighbors of a node, with link qualities. Empty for unknown ids.
    pub fn neighbors(&self, id: NodeId) -> Vec<(NodeId, LinkQuality)> {
        match self.index.get(&id) {
            Some(&i) => self.adj[i as usize]
                .iter()
                .map(|e| (self.ids[e.to as usize], e.quality()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The most reliable route from `src` to `dst` as a node sequence
    /// (inclusive of both endpoints), or `None` when unreachable.
    ///
    /// Reliability is the product of per-hop delivery probabilities;
    /// Dijkstra runs on `-ln p` weights.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let &s = self.index.get(&src)?;
        let &d = self.index.get(&dst)?;
        Some(
            self.route_idx_with(&mut RouteScratch::new(), s, d)?
                .into_iter()
                .map(|i| self.ids[i as usize])
                .collect(),
        )
    }

    /// [`ConnectivityGraph::route`] on dense indices with caller-owned
    /// scratch space: the form the simulator uses for every message.
    ///
    /// The per-query distance/predecessor state is epoch-stamped instead
    /// of cleared and the heap keeps its capacity; the returned path is
    /// built in the scratch's path buffer and moved out, so a caller
    /// that hands it back with [`RouteScratch::recycle`] pays no
    /// allocation per query once the scratch has warmed up. Stale heap
    /// entries — nodes already settled via a cheaper path — are skipped
    /// on pop.
    pub(crate) fn route_idx_with(
        &self,
        scratch: &mut RouteScratch,
        s: u32,
        d: u32,
    ) -> Option<Vec<u32>> {
        if s as usize >= self.ids.len() || d as usize >= self.ids.len() {
            return None;
        }
        let mut path = scratch.take_path();
        path.push(d);
        if s == d {
            return Some(path);
        }
        scratch.reset(self.ids.len());
        scratch.set(s, 0.0, u32::MAX);
        scratch.heap.push(HeapEntry { cost: 0.0, node: s });
        while let Some(HeapEntry { cost, node }) = scratch.heap.pop() {
            if cost > scratch.dist(node) {
                continue; // stale entry: settled earlier via a cheaper path
            }
            if node == d {
                break;
            }
            for e in &self.adj[node as usize] {
                let nd = cost + e.weight;
                if nd < scratch.dist(e.to) {
                    scratch.set(e.to, nd, node);
                    scratch.heap.push(HeapEntry { cost: nd, node: e.to });
                }
            }
        }
        if scratch.dist(d).is_infinite() {
            scratch.path = path;
            return None;
        }
        let mut cur = d;
        while cur != s {
            cur = scratch.prev(cur);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Link quality between two adjacent nodes, if a link exists.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<LinkQuality> {
        let &i = self.index.get(&a)?;
        let &j = self.index.get(&b)?;
        self.link_idx(i, j)
    }

    /// [`ConnectivityGraph::link`] on dense indices.
    pub(crate) fn link_idx(&self, i: u32, j: u32) -> Option<LinkQuality> {
        let list = self.adj.get(i as usize)?;
        list.binary_search_by_key(&j, |e| e.to)
            .ok()
            .map(|pos| list[pos].quality())
    }

    /// Connected components as sorted id lists, largest first.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let n = self.ids.len();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if !seen[start] {
                components.push(self.sweep(start, &mut seen));
            }
        }
        components.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
        components
    }

    /// The connected component containing `id`, as a sorted id list (one
    /// row of [`ConnectivityGraph::components`]): exactly the nodes `s`
    /// for which `route(s, id)` is `Some`, in one `O(V + E)` sweep
    /// instead of a shortest-path search per `s`. A dead or linkless
    /// node is its own component; an unknown id has none.
    pub fn component_of(&self, id: NodeId) -> Vec<NodeId> {
        match self.index.get(&id) {
            Some(&i) => self.sweep(i as usize, &mut vec![false; self.ids.len()]),
            None => Vec::new(),
        }
    }

    /// Sorted ids of every node connected to index `start`, marking each
    /// in `seen`.
    fn sweep(&self, start: usize, seen: &mut [bool]) -> Vec<NodeId> {
        let mut stack = vec![start];
        let mut comp = Vec::new();
        seen[start] = true;
        while let Some(i) = stack.pop() {
            comp.push(self.ids[i]);
            for e in &self.adj[i] {
                if !seen[e.to as usize] {
                    seen[e.to as usize] = true;
                    stack.push(e.to as usize);
                }
            }
        }
        comp.sort();
        comp
    }

    /// Whether every node with at least one link can reach every other
    /// (isolated/dead nodes are ignored).
    pub fn connected_core(&self) -> bool {
        let linked: Vec<usize> = (0..self.ids.len())
            .filter(|&i| !self.adj[i].is_empty())
            .collect();
        if linked.len() <= 1 {
            return true;
        }
        self.components()
            .iter()
            .filter(|c| c.len() > 1)
            .count()
            <= 1
    }
}

/// One bit per [`RadioKind`] a live node carries; `0` for a dead or
/// radio-less node, which links to nothing.
fn radio_mask(node: &GraphNode) -> u8 {
    if !node.alive {
        return 0;
    }
    node.radios.iter().fold(0, |mask, &r| mask | 1 << r as u8)
}

/// The pair test of a full build and of a single-node relink, with
/// everything that is the same for every pair computed once. Each reject
/// only skips work whose answer is already `None`: no shared radio among
/// live nodes; squared distance beyond the longest shared nominal range,
/// padded by `1 + 1e-9` so that no rounding can reject a pair the exact
/// `distance_m > range` tests that follow accept; `deny`, pure and
/// symmetric, asked only about a pair that has a link to lose.
struct PairKernel<'a> {
    channel: &'a Channel,
    deny: &'a dyn Fn(NodeId, NodeId) -> bool,
    /// Indexed by shared-radio mask: the padded reject distance, squared.
    reach_sq: [f64; 1 << RadioKind::ALL.len()],
    /// Indexed by `RadioKind as usize`: transmit power in dBm.
    tx_dbm: [f64; RadioKind::ALL.len()],
    quiet_noise_dbm: Option<f64>,
}

impl<'a> PairKernel<'a> {
    fn new(channel: &'a Channel, deny: &'a dyn Fn(NodeId, NodeId) -> bool) -> Self {
        let mut reach_sq = [0.0; 1 << RadioKind::ALL.len()];
        for (mask, slot) in reach_sq.iter_mut().enumerate() {
            let reach = RadioKind::ALL
                .iter()
                .filter(|&&r| mask & (1 << r as usize) != 0)
                .map(|r| r.nominal_range_m().min(MAX_LINK_RANGE_M))
                .fold(0.0, f64::max)
                * (1.0 + 1e-9);
            *slot = reach * reach;
        }
        PairKernel {
            channel,
            deny,
            reach_sq,
            tx_dbm: RadioKind::ALL.map(|r| watts_to_dbm(r.tx_power_w())),
            quiet_noise_dbm: channel.quiet_noise_dbm(),
        }
    }

    /// The best link between `a` and `b` (`a` the lower index: on equal
    /// delivery probability its radio order decides), given each one's
    /// [`radio_mask`].
    fn link(&self, a: &GraphNode, mask_a: u8, b: &GraphNode, mask_b: u8) -> Option<LinkQuality> {
        let shared = mask_a & mask_b;
        if shared == 0 || a.position.distance_sq_to(b.position) > self.reach_sq[shared as usize] {
            return None;
        }
        let distance_m = a.position.distance_to(b.position);
        if distance_m > MAX_LINK_RANGE_M {
            return None;
        }
        let mut best: Option<LinkQuality> = None;
        // Path loss and receiver noise are radio-independent; compute them
        // at most once per pair (only when some shared radio survives the
        // range checks) and evaluate each radio against the shared budget.
        let mut budget = None;
        for &ra in a.radios.iter() {
            if shared & (1 << ra as u8) == 0 || distance_m > ra.nominal_range_m() {
                continue;
            }
            let budget = *budget.get_or_insert_with(|| {
                let (ch, from, to) = (self.channel, a.position, b.position);
                LinkBudget {
                    path_loss_db: ch.path_loss_over(from, to, distance_m),
                    noise_dbm: self.quiet_noise_dbm.unwrap_or_else(|| ch.noise_dbm(to)),
                }
            });
            let p = self.channel.mean_delivery_probability_at(budget, self.tx_dbm[ra as usize]);
            if p < MIN_LINK_QUALITY {
                continue;
            }
            let candidate = LinkQuality {
                delivery_prob: p,
                radio: ra,
                distance_m,
            };
            best = match best {
                Some(cur) if cur.delivery_prob >= p => Some(cur),
                _ => Some(candidate),
            };
        }
        best.filter(|_| !(self.deny)(a.id, b.id))
    }
}

/// Reusable Dijkstra working state for `ConnectivityGraph::route_idx_with`.
///
/// Distance and predecessor slots are validated by an epoch stamp, so
/// starting a new query is `O(1)` — no per-node clearing — and the heap
/// and path buffer keep their capacity across queries.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteScratch {
    dist: Vec<f64>,
    prev: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    path: Vec<u32>,
}

impl RouteScratch {
    /// An empty scratch; buffers grow to the graph size on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Takes the path buffer out, emptied: for `route_idx_with` to build
    /// its answer in, or for a caller to copy a remembered one into.
    pub(crate) fn take_path(&mut self) -> Vec<u32> {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        path
    }

    /// Hands a path from [`RouteScratch::take_path`] or `route_idx_with`
    /// back, so the next one is built in the same buffer.
    pub(crate) fn recycle(&mut self, path: Vec<u32>) {
        self.path = path;
    }

    /// Begins a new query over `n` nodes.
    fn reset(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, u32::MAX);
            self.stamp.resize(n, 0);
            // A resize may keep a prefix whose stamps collide with a
            // restarted epoch sequence; invalidate everything.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.heap.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Stamp wrap-around: invalidate everything explicitly.
                self.stamp.fill(0);
                1
            }
        };
    }

    #[inline]
    fn dist(&self, i: u32) -> f64 {
        if self.stamp[i as usize] == self.epoch {
            self.dist[i as usize]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn prev(&self, i: u32) -> u32 {
        debug_assert_eq!(self.stamp[i as usize], self.epoch);
        self.prev[i as usize]
    }

    #[inline]
    fn set(&mut self, i: u32, dist: f64, prev: u32) {
        self.dist[i as usize] = dist;
        self.prev[i as usize] = prev;
        self.stamp[i as usize] = self.epoch;
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; tie-break on node index for determinism.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::{Clutter, Terrain};
    use iobt_types::Rect;

    fn node(id: u64, x: f64, y: f64, radios: &[RadioKind]) -> GraphNode {
        GraphNode {
            id: NodeId::new(id),
            position: Point::new(x, y),
            radios: Rc::from(radios),
            alive: true,
        }
    }

    fn open_channel() -> Channel {
        Channel::new(Terrain::uniform(Rect::square(20_000.0), Clutter::Open))
    }

    /// The pair test spelled straight from the channel's public formulas:
    /// what [`PairKernel::link`] must equal bit for bit (`a` owns the
    /// pair; no deny predicate).
    fn reference_link(a: &GraphNode, b: &GraphNode, channel: &Channel) -> Option<LinkQuality> {
        let distance_m = a.position.distance_to(b.position);
        if !a.alive || !b.alive || distance_m > MAX_LINK_RANGE_M {
            return None;
        }
        let mut best: Option<LinkQuality> = None;
        for &radio in a.radios.iter() {
            if !b.radios.contains(&radio) || distance_m > radio.nominal_range_m() {
                continue;
            }
            let p = channel.mean_delivery_probability(a.position, b.position, radio);
            if p >= MIN_LINK_QUALITY && best.is_none_or(|cur| cur.delivery_prob < p) {
                best = Some(LinkQuality { delivery_prob: p, radio, distance_m });
            }
        }
        best
    }

    #[test]
    fn chain_topology_routes_end_to_end() {
        let nodes: Vec<GraphNode> = (0..5)
            .map(|i| node(i, i as f64 * 80.0, 0.0, &[RadioKind::Wifi]))
            .collect();
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        let route = g.route(NodeId::new(0), NodeId::new(4)).unwrap();
        assert_eq!(route.first(), Some(&NodeId::new(0)));
        assert_eq!(route.last(), Some(&NodeId::new(4)));
        assert!(route.len() >= 2);
        assert!(g.connected_core());
    }

    #[test]
    fn incompatible_radios_do_not_link() {
        let nodes = vec![
            node(0, 0.0, 0.0, &[RadioKind::Wifi]),
            node(1, 10.0, 0.0, &[RadioKind::Bluetooth]),
        ];
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        assert_eq!(g.link_count(), 0);
        assert!(g.route(NodeId::new(0), NodeId::new(1)).is_none());
    }

    #[test]
    fn dead_nodes_get_no_links() {
        let mut nodes = vec![
            node(0, 0.0, 0.0, &[RadioKind::Wifi]),
            node(1, 50.0, 0.0, &[RadioKind::Wifi]),
        ];
        nodes[1].alive = false;
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        assert_eq!(g.link_count(), 0);
    }

    #[test]
    fn out_of_range_pairs_do_not_link() {
        let nodes = vec![
            node(0, 0.0, 0.0, &[RadioKind::Bluetooth]),
            node(1, 100.0, 0.0, &[RadioKind::Bluetooth]), // beyond 25 m nominal
        ];
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        assert_eq!(g.link_count(), 0);
    }

    #[test]
    fn route_to_self_is_trivial() {
        let nodes = vec![node(0, 0.0, 0.0, &[RadioKind::Wifi])];
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        assert_eq!(
            g.route(NodeId::new(0), NodeId::new(0)),
            Some(vec![NodeId::new(0)])
        );
    }

    #[test]
    fn components_split_across_gap() {
        let nodes = vec![
            node(0, 0.0, 0.0, &[RadioKind::Wifi]),
            node(1, 60.0, 0.0, &[RadioKind::Wifi]),
            node(2, 5_000.0, 0.0, &[RadioKind::Wifi]),
            node(3, 5_060.0, 0.0, &[RadioKind::Wifi]),
        ];
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 2);
        assert!(!g.connected_core());
        assert!(g.route(NodeId::new(0), NodeId::new(3)).is_none());
    }

    #[test]
    fn route_prefers_reliable_paths() {
        // 0 -- 1 -- 2 short hops vs 0 -- 2 long direct: the two-hop path
        // multiplies two near-1 probabilities and beats the lossy direct hop.
        let nodes = vec![
            node(0, 0.0, 0.0, &[RadioKind::TacticalUhf]),
            node(1, 500.0, 0.0, &[RadioKind::TacticalUhf]),
            node(2, 1_000.0, 0.0, &[RadioKind::TacticalUhf]),
        ];
        let ch = open_channel();
        let g = ConnectivityGraph::build(&nodes, &ch);
        let direct = ch.mean_delivery_probability(
            Point::new(0.0, 0.0),
            Point::new(1_000.0, 0.0),
            RadioKind::TacticalUhf,
        );
        let hop = ch.mean_delivery_probability(
            Point::new(0.0, 0.0),
            Point::new(500.0, 0.0),
            RadioKind::TacticalUhf,
        );
        if hop * hop > direct {
            let route = g.route(NodeId::new(0), NodeId::new(2)).unwrap();
            assert_eq!(route.len(), 3, "should relay via node 1");
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let nodes: Vec<GraphNode> = (0..10)
            .map(|i| node(i, (i % 5) as f64 * 60.0, (i / 5) as f64 * 60.0, &[RadioKind::Wifi]))
            .collect();
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        for i in 0..10u64 {
            for (j, _) in g.neighbors(NodeId::new(i)) {
                assert!(
                    g.neighbors(j).iter().any(|(k, _)| *k == NodeId::new(i)),
                    "link {i} -> {j} must be symmetric"
                );
            }
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_routes() {
        // A shared scratch must give the same answers as per-call
        // allocation, across multiple graphs of different sizes and
        // unreachable queries in between.
        let ch = open_channel();
        let big: Vec<GraphNode> = (0..30)
            .map(|i| node(i, (i % 6) as f64 * 70.0, (i / 6) as f64 * 70.0, &[RadioKind::Wifi]))
            .collect();
        let small = vec![
            node(100, 0.0, 0.0, &[RadioKind::Wifi]),
            node(101, 60.0, 0.0, &[RadioKind::Wifi]),
            node(102, 9_000.0, 0.0, &[RadioKind::Wifi]), // isolated
        ];
        let g_big = ConnectivityGraph::build(&big, &ch);
        let g_small = ConnectivityGraph::build(&small, &ch);
        let mut scratch = RouteScratch::new();
        for (g, pairs) in [
            (&g_big, vec![(0u64, 29u64), (5, 17), (29, 0)]),
            (&g_small, vec![(100, 101), (100, 102), (101, 100)]),
            (&g_big, vec![(3, 22), (0, 29)]),
        ] {
            for (a, b) in pairs {
                let (ia, ib) = (g.index[&NodeId::new(a)], g.index[&NodeId::new(b)]);
                let reused = g
                    .route_idx_with(&mut scratch, ia, ib)
                    .map(|path| path.into_iter().map(|i| g.ids[i as usize]).collect());
                assert_eq!(
                    reused,
                    g.route(NodeId::new(a), NodeId::new(b)),
                    "route {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn spatial_hashing_matches_bruteforce_linkcount() {
        // Grid of nodes spanning multiple buckets: every adjacent pair in
        // range must be found exactly once.
        let nodes: Vec<GraphNode> = (0..40)
            .map(|i| node(i, (i as f64) * 90.0, 0.0, &[RadioKind::Wifi]))
            .collect();
        let ch = open_channel();
        let g = ConnectivityGraph::build(&nodes, &ch);
        let mut expected = 0;
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if reference_link(&nodes[i], &nodes[j], &ch).is_some() {
                    expected += 1;
                }
            }
        }
        assert_eq!(g.link_count(), expected);
    }

    #[test]
    fn mixed_radio_ranges_keep_hashing_exact() {
        // Cell size follows the longest range present (cellular, 2 km),
        // but short-range links must still be found exactly.
        let mut nodes: Vec<GraphNode> = (0..30)
            .map(|i| node(i, (i as f64) * 85.0, 0.0, &[RadioKind::Wifi]))
            .collect();
        nodes.push(node(100, 0.0, 900.0, &[RadioKind::Cellular]));
        nodes.push(node(101, 1_500.0, 900.0, &[RadioKind::Cellular]));
        let ch = open_channel();
        let g = ConnectivityGraph::build(&nodes, &ch);
        let mut expected = 0;
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if reference_link(&nodes[i], &nodes[j], &ch).is_some() {
                    expected += 1;
                }
            }
        }
        assert_eq!(g.link_count(), expected);
    }

    #[test]
    fn refresh_node_matches_full_rebuild() {
        // Kill and revive nodes one at a time; after every step the
        // incrementally maintained graph must be indistinguishable from
        // a from-scratch build over the same world state.
        let ch = open_channel();
        let mut world: Vec<GraphNode> = (0..36)
            .map(|i| node(i, (i % 6) as f64 * 75.0, (i / 6) as f64 * 75.0, &[RadioKind::Wifi]))
            .collect();
        let mut g = ConnectivityGraph::build(&world, &ch);
        // A deterministic little churn script: down, down, up, down, up...
        let script: [(u32, bool); 8] = [
            (7, false),
            (14, false),
            (7, true),
            (0, false),
            (35, false),
            (14, true),
            (0, true),
            (21, false),
        ];
        for &(i, alive) in &script {
            world[i as usize].alive = alive;
            g.refresh_node(i, alive, &ch, &|_, _| false);
            let fresh = ConnectivityGraph::build(&world, &ch);
            assert!(
                g.same_topology(&fresh),
                "incremental refresh diverged at node {i} alive={alive}"
            );
        }
    }

    #[test]
    fn moved_nodes_match_full_rebuild() {
        // One scripted batch per named case; after each, the patched
        // graph must equal a from-scratch build of the same world, spatial
        // hash included (a stale bucket entry is invisible to
        // `same_topology` until a later relink trips over it).
        let ch = open_channel();
        let deny = |a: NodeId, b: NodeId| a.raw().min(b.raw()) == 0 && a.raw().max(b.raw()) == 1;
        let mut world: Vec<GraphNode> = (0..36)
            .map(|i| node(i, (i % 6) as f64 * 75.0, (i / 6) as f64 * 75.0, &[RadioKind::Wifi]))
            .collect();
        world[20].radios = Rc::from(&[][..]); // radio-less: never filed, never linked
        let mut g = ConnectivityGraph::build_filtered(&world, &ch, &deny);
        let to = |x: f64, y: f64| Some(Point::new(x, y));
        let script: [&[(usize, Option<Point>, bool)]; 8] = [
            &[(7, to(80.0, 80.0), true)],      // within its 120 m cell
            &[(7, to(300.0, 10.0), true)],     // across cells
            &[(14, None, false)],              // dies ...
            &[(14, to(5.0, 370.0), false)],    // ... roams while dead ...
            &[(14, None, true)],               // ... revives where it now is
            &[(21, to(130.0, 230.0), true), (22, to(135.0, 236.0), true)], // neighbors, one batch
            &[(20, to(-40.0, -40.0), true)],   // radio-less, into a negative cell
            &[(1, to(10.0, 10.0), true), (0, to(-10.0, -10.0), true)], // the denied pair
        ];
        for (step, batch) in script.iter().enumerate() {
            for &(i, position, alive) in *batch {
                world[i].position = position.unwrap_or(world[i].position);
                world[i].alive = alive;
                g.move_node(i as u32, world[i].position);
            }
            for &(i, _, alive) in *batch {
                g.refresh_node(i as u32, alive, &ch, &deny);
            }
            let fresh = ConnectivityGraph::build_filtered(&world, &ch, &deny);
            assert!(g.same_topology(&fresh), "diverged at step {step}");
            assert_eq!(g.buckets, fresh.buckets, "spatial hash diverged at step {step}");
        }
        assert!(g.link(NodeId::new(0), NodeId::new(1)).is_none());
        assert!(g.neighbors(NodeId::new(20)).is_empty());
        assert!(g.link(NodeId::new(21), NodeId::new(22)).is_some());
    }

    #[test]
    fn edge_is_32_bytes() {
        // The routing weight rides in what was padding around
        // `(u32, LinkQuality)`. The 10,000-node benchmark grids hold the
        // adjacency's share of `peak_rss_mb` (bound 0.10 in
        // BENCHMARK.json; weights in a parallel vector cost +9.5 % on
        // `netsim_dense`), so a field that widens the record must fail
        // here rather than in a benchmark run.
        assert_eq!(std::mem::size_of::<Edge>(), 32);
    }

    #[test]
    fn stored_weights_follow_delivery_prob_through_churn() {
        // `same_topology` compares stored weights along with everything
        // else, so it only means "same routes" if every weight — pushed
        // by a full build or by either side of a refresh — is the one
        // function of its link's delivery probability.
        fn assert_weights_derived(g: &ConnectivityGraph) {
            for e in g.adj.iter().flatten() {
                let derived = -(e.delivery_prob.max(1e-12)).ln();
                assert_eq!(e.weight.to_bits(), derived.to_bits());
                assert!(e.weight.is_finite());
            }
        }
        let mut ch = open_channel();
        ch.add_jammer(crate::channel::Jammer::new(Point::new(150.0, 150.0), 2.0));
        let deny = |a: NodeId, b: NodeId| (a.raw() < 9) != (b.raw() < 9);
        let loadouts: [&[RadioKind]; 3] = [
            &[RadioKind::Wifi],
            &[RadioKind::Wifi, RadioKind::TacticalUhf],
            &[RadioKind::TacticalUhf],
        ];
        let mut world: Vec<GraphNode> = (0..36)
            .map(|i| {
                let (x, y) = ((i % 6) as f64 * 75.0, (i / 6) as f64 * 75.0);
                node(i, x, y, loadouts[i as usize % 3])
            })
            .collect();
        let mut g = ConnectivityGraph::build_filtered(&world, &ch, &deny);
        assert!(g.link_count() > 0);
        assert_weights_derived(&g);
        for step in 0..60u32 {
            let i = (step * 7 + 3) % 36;
            let alive = step % 3 == 2;
            world[i as usize].alive = alive;
            g.refresh_node(i, alive, &ch, &deny);
            assert_weights_derived(&g);
            let fresh = ConnectivityGraph::build_filtered(&world, &ch, &deny);
            assert_weights_derived(&fresh);
            assert!(g.same_topology(&fresh), "diverged at step {step}");
        }
    }

    proptest::proptest! {
        /// The kernel against the formulas it replaces, over everything
        /// its rejects and hoisted constants could get wrong: every radio
        /// kind in every loadout order (radio-less and dead nodes too),
        /// mixed and uniform terrain, jammers on, off and powerless, extra
        /// loss, and distances exactly on each nominal range and on
        /// [`MAX_LINK_RANGE_M`], one ulp short and one ulp past.
        #[test]
        fn kernel_is_bit_equal_to_the_reference_spelling(seed in 0u64..1_000_000) {
            use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let anywhere = |rng: &mut StdRng| {
                Point::new(rng.gen_range(0.0..8_000.0), rng.gen_range(0.0..8_000.0))
            };
            let bounds = Rect::square(8_000.0);
            let mut ch = Channel::new(if rng.gen() {
                Terrain::random_urban(bounds, 16, 16, seed)
            } else {
                let classes = [Clutter::Open, Clutter::Suburban, Clutter::Urban];
                Terrain::uniform(bounds, classes[rng.gen_range(0..3usize)])
            });
            for _ in 0..rng.gen_range(0..3) {
                let at = anywhere(&mut rng);
                let power_w = if rng.gen_range(0..4) == 0 { 0.0 } else { rng.gen_range(0.1..30.0) };
                let index = ch.add_jammer(crate::channel::Jammer::new(at, power_w));
                ch.set_jammer_active(index, rng.gen());
            }
            if rng.gen() {
                ch.set_extra_loss_db(rng.gen_range(0.0..15.0));
            }
            let never = |_: NodeId, _: NodeId| false;
            let kernel = PairKernel::new(&ch, &never);
            let random_node = |rng: &mut StdRng, id: u64, position: Point| {
                let mut radios = RadioKind::ALL.to_vec();
                radios.shuffle(rng);
                radios.truncate(rng.gen_range(0..=RadioKind::ALL.len()));
                let mut n = node(id, position.x, position.y, &radios);
                n.alive = rng.gen_range(0..8) != 0;
                n
            };
            for _ in 0..256 {
                let edges = [25.0f64, 120.0, 2_000.0, 5_000.0, MAX_LINK_RANGE_M];
                let edge = edges[rng.gen_range(0..edges.len())];
                let (from, to) = match rng.gen_range(0..3) {
                    // On a range boundary to the ulp: along an axis from
                    // zero, where the computed distance is the offset.
                    0 => {
                        let d = [edge.next_down(), edge, edge.next_up()][rng.gen_range(0..3usize)];
                        let y = rng.gen_range(0.0..8_000.0);
                        (Point::new(0.0, y), Point::new(d, y))
                    }
                    // Near enough that several radios saturate at p = 1
                    // and the owner's radio order breaks the tie.
                    1 => {
                        let at = anywhere(&mut rng);
                        (at, Point::new(at.x + rng.gen_range(0.0..3.0), at.y))
                    }
                    _ => {
                        let at = anywhere(&mut rng);
                        let r: f64 = rng.gen_range(0.0..1.2) * edge;
                        let phi: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                        (at, Point::new(at.x + r * phi.cos(), at.y + r * phi.sin()))
                    }
                };
                let (a, b) = (random_node(&mut rng, 0, from), random_node(&mut rng, 1, to));
                let bits = |l: Option<LinkQuality>| {
                    l.map(|l| (l.delivery_prob.to_bits(), l.radio, l.distance_m.to_bits()))
                };
                proptest::prop_assert_eq!(
                    bits(kernel.link(&a, radio_mask(&a), &b, radio_mask(&b))),
                    bits(reference_link(&a, &b, &ch)),
                    "{:?} -> {:?}", a, b
                );
            }
        }
    }

    #[test]
    fn deny_is_asked_only_about_pairs_that_would_link() {
        let nodes: Vec<GraphNode> = (0..40)
            .map(|i| node(i, (i % 8) as f64 * 70.0, (i / 8) as f64 * 70.0, &[RadioKind::Wifi]))
            .collect();
        let ch = open_channel();
        let asked = std::cell::Cell::new(0usize);
        let counting = |_: NodeId, _: NodeId| {
            asked.set(asked.get() + 1);
            false
        };
        let g = ConnectivityGraph::build_filtered(&nodes, &ch, &counting);
        assert!(g.link_count() > 0 && g.link_count() < 40 * 39 / 2);
        assert_eq!(asked.get(), g.link_count());
    }

    #[test]
    fn component_of_is_a_row_of_components() {
        let mut nodes = vec![
            node(0, 0.0, 0.0, &[RadioKind::Wifi]),
            node(1, 60.0, 0.0, &[RadioKind::Wifi]),
            node(2, 5_000.0, 0.0, &[RadioKind::Wifi]),
            node(3, 5_060.0, 0.0, &[RadioKind::Wifi]),
            node(4, 5_120.0, 0.0, &[RadioKind::Wifi]),
            node(5, 30.0, 0.0, &[]),
        ];
        nodes[4].alive = false;
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        let ids = |raw: &[u64]| raw.iter().map(|&r| NodeId::new(r)).collect::<Vec<_>>();
        assert_eq!(g.component_of(NodeId::new(1)), ids(&[0, 1]));
        assert_eq!(g.component_of(NodeId::new(2)), ids(&[2, 3]));
        // Dead and radio-less nodes are their own component, like
        // `route(s, s)`; an id outside the graph has none.
        assert_eq!(g.component_of(NodeId::new(4)), ids(&[4]));
        assert_eq!(g.component_of(NodeId::new(5)), ids(&[5]));
        assert_eq!(g.component_of(NodeId::new(99)), ids(&[]));
        for comp in g.components() {
            assert_eq!(g.component_of(comp[0]), comp);
        }
    }

    #[test]
    fn refresh_node_respects_deny_predicate() {
        let ch = open_channel();
        let mut world = vec![
            node(0, 0.0, 0.0, &[RadioKind::Wifi]),
            node(1, 60.0, 0.0, &[RadioKind::Wifi]),
            node(2, 120.0, 0.0, &[RadioKind::Wifi]),
        ];
        let deny = |a: NodeId, b: NodeId| {
            let (a, b) = (a.raw().min(b.raw()), a.raw().max(b.raw()));
            (a, b) == (0, 1)
        };
        let mut g = ConnectivityGraph::build_filtered(&world, &ch, &deny);
        assert!(g.link(NodeId::new(0), NodeId::new(1)).is_none());
        // Bounce node 1; the denied pair must stay cut afterwards.
        world[1].alive = false;
        g.refresh_node(1, false, &ch, &deny);
        assert!(g.same_topology(&ConnectivityGraph::build_filtered(&world, &ch, &deny)));
        world[1].alive = true;
        g.refresh_node(1, true, &ch, &deny);
        assert!(g.same_topology(&ConnectivityGraph::build_filtered(&world, &ch, &deny)));
        assert!(g.link(NodeId::new(0), NodeId::new(1)).is_none());
        assert!(g.link(NodeId::new(1), NodeId::new(2)).is_some());
    }
}
