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
//!   reused scratch whose binary heap takes an entry per strict
//!   improvement and skips the stale ones, so each node settles once, at
//!   its final distance. A search handed its destination's
//!   reverse-distance table (`ConnectivityGraph::distances_from`: the
//!   same loop run from the destination with no early exit) drops every
//!   offer that cannot lie on a route within `BOUND_SLACK` of the best
//!   one, and returns the same path bit for bit (DESIGN.md, "Bounded by
//!   the destination").
//!   The graph caches no routes and no tables; the simulator keeps each
//!   source's last answer, and each busy destination's table, for as
//!   long as the topology stands.
//! * **Reachability is a component** — links are undirected and every
//!   weight is finite, so "who can reach this node" is one `O(V + E)`
//!   sweep ([`ConnectivityGraph::component_of`]), not a route per asker.
//! * **Weights are stored, not derived** — each adjacency entry carries
//!   its `-ln p` routing weight, computed once when the link is built,
//!   so a relaxation is a load and an add. The link's distance is
//!   derived instead, from the two retained positions, and its place in
//!   the entry holds the directed link's hop budget (mean SINR and
//!   clutter class), computed the first time a hop crosses it
//!   (`ConnectivityGraph::hop_idx`) and kept until a patch re-creates
//!   the entry or the graph goes.
//! * **The pair test rejects before it computes** — one kernel for build
//!   and relink: no shared radio, then too far for the longest shared
//!   range, and only then a terrain walk and a logistic; the partition
//!   predicate is asked last, about pairs that would otherwise link.
//! * **Pairs on every core** — a full build of at least
//!   `STRIPE_MIN_OWNERS` live, radio-equipped nodes cuts its owners into
//!   one run of about equal work per core (at most `MAX_BUILD_STRIPES`),
//!   each computed on a scoped thread of its own and the first on the
//!   calling thread, which asks the partition predicate and files every
//!   link in the order one thread would. The kernel is a pure function
//!   of a pair and each adjacency list is sorted by its unique targets,
//!   so the graph is the same whatever the thread count or schedule. A
//!   single-node relink stays on the calling thread.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;
use std::sync::OnceLock;
use std::{panic, thread};

use iobt_types::{NodeId, Point, RadioKind};

use crate::channel::{watts_to_dbm, Channel, HopBudget, LinkBudget};
use crate::terrain::Clutter;

/// Quality of a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Mean single-transmission delivery probability in `(0, 1]`.
    pub delivery_prob: f64,
    /// Radio technology the link uses.
    pub radio: RadioKind,
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

/// One adjacency entry, 32 bytes: the link to `to` with its routing
/// weight and, once a hop has crossed it, the [`HopBudget`] of the
/// directed link from the list's owner to `to`. The clutter class rides
/// in what was padding; the mean SINR takes the place of the distance,
/// which [`ConnectivityGraph::quality`] derives from the positions.
///
/// The budget is a function of the two positions, the radio and the
/// channel, and no entry outlives any of them: a patch re-creates every
/// entry of a node it moves, in both lists, and a channel change drops
/// the graph. Equality compares the link only.
#[derive(Debug, Clone)]
struct Edge {
    to: u32,
    radio: RadioKind,
    /// The cached budget's clutter class; `None` until a hop fills it.
    clutter: Cell<Option<Clutter>>,
    delivery_prob: f64,
    /// `-ln p`: Dijkstra minimises the sum, i.e. maximises the product
    /// of per-hop delivery probabilities.
    weight: f64,
    /// The cached budget's mean SINR; meaningful once `clutter` is set.
    sinr_db: Cell<f64>,
}

impl Edge {
    fn new(to: u32, radio: RadioKind, delivery_prob: f64) -> Self {
        Edge {
            to,
            radio,
            clutter: Cell::new(None),
            delivery_prob,
            weight: -(delivery_prob.max(1e-12)).ln(),
            sinr_db: Cell::new(0.0),
        }
    }

    /// The same link filed in `to`'s neighbour's list, pointing back at
    /// `to`, with nothing cached.
    fn mirrored(&self, to: u32) -> Self {
        Edge { to, clutter: Cell::new(None), ..self.clone() }
    }

    /// The link as a [`LinkQuality`].
    fn quality(&self) -> LinkQuality {
        LinkQuality { delivery_prob: self.delivery_prob, radio: self.radio }
    }
}

impl PartialEq for Edge {
    fn eq(&self, other: &Self) -> bool {
        self.to == other.to
            && self.radio == other.radio
            && self.delivery_prob == other.delivery_prob
            && self.weight == other.weight
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

/// A rectangle of spatial-hash cells, both corners inclusive, in the
/// `i32` range (a key beyond it is clamped, which keeps every comparison
/// the rectangle is used for on the safe side): the cells of the nodes a
/// route search expanded ([`RouteScratch::expanded`]). Every link joins
/// two nodes whose cells differ by at most one in each axis — a build and
/// [`ConnectivityGraph::refresh_node`] only ever test such pairs — so
/// the lists a patch can rewrite belong to nodes within one cell of a
/// changed node's old or new cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellRect {
    pub(crate) x0: i32,
    pub(crate) y0: i32,
    pub(crate) x1: i32,
    pub(crate) y1: i32,
}

impl CellRect {
    /// No cell: what a search that expanded nothing read.
    pub(crate) const EMPTY: CellRect =
        CellRect { x0: i32::MAX, y0: i32::MAX, x1: i32::MIN, y1: i32::MIN };
    /// Every cell.
    pub(crate) const PLANE: CellRect =
        CellRect { x0: i32::MIN, y0: i32::MIN, x1: i32::MAX, y1: i32::MAX };
}

impl Default for CellRect {
    fn default() -> Self {
        CellRect::EMPTY
    }
}

impl ConnectivityGraph {
    /// Builds the graph from node states and the channel model.
    ///
    /// Uses a uniform spatial grid whose cell is the longest radio range
    /// present, so only pairs in neighbouring cells are tested: cost is
    /// `O(n + pairs-within-range)` while that range is small against the
    /// theatre, and `O(n^2)` cheap rejects when it spans it — 1,001 nodes
    /// with tactical UHF on a 3 km square file into one bucket and all
    /// 500,500 pairs meet the kernel. A build with enough nodes computes
    /// its pairs on every core the process may use (see the module doc);
    /// the result does not depend on how many there are.
    pub fn build(nodes: &[GraphNode], channel: &Channel) -> Self {
        Self::build_filtered(nodes, channel, &|_, _| false)
    }

    /// [`ConnectivityGraph::build`] with a link-deny predicate: any pair
    /// for which `deny(a, b)` returns true gets no link regardless of
    /// radio compatibility. This is how network-partition faults cut the
    /// topology without touching node liveness. The predicate must be
    /// pure and symmetric; it is asked once about each unordered pair
    /// that would otherwise link, always on the calling thread (so it
    /// need not be `Sync`), in an unspecified order.
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
        Self::build_striped(ids, index, nodes, channel, deny, stripes_for)
    }

    /// [`ConnectivityGraph::build_shared`] with the pair loop cut into
    /// `T = stripes(owners)` stripes, where `owners` counts the live,
    /// radio-equipped nodes; tests force `T` through it.
    ///
    /// The owners, in bucket-visiting order, are cut into `T` contiguous
    /// runs of about equal weight ([`stripe_bounds`]): run 0 on the
    /// calling thread, each other one on a scoped thread of its own. The
    /// calling thread asks `deny` and files every link — run 0's as it
    /// finds them, then each other run's in turn — so the predicate never
    /// leaves it, and links reach the adjacency in exactly the order one
    /// thread would file them. Each unordered pair is still computed once
    /// by the same pure kernel, and each list is sorted by its unique `to`
    /// keys at the end: the graph is the same for every `T`.
    ///
    /// Keep the one-thread filing order even though the bits would not
    /// show another: it also allocates the lists in the one-thread
    /// sequence, and route searches depend on that layout — the same
    /// bits filed owner-interleaved searched 7–10 % slower
    /// (EXPERIMENTS.md, "Every core builds the graph").
    fn build_striped(
        ids: Rc<[NodeId]>,
        index: Rc<BTreeMap<NodeId, u32>>,
        nodes: Vec<GraphNode>,
        channel: &Channel,
        deny: &dyn Fn(NodeId, NodeId) -> bool,
        stripes: impl FnOnce(usize) -> usize,
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
        let kernel = PairKernel::new(channel);
        let ends: Vec<PairEnd<'_>> = nodes.iter().map(PairEnd::of).collect();
        // Each owner weighs one plus the members after it in its own
        // bucket: the one-bucket triangle exactly (owner `i` of `n` meets
        // `n - 1 - i` pairs), and near-uniform where buckets are small.
        let owners: Vec<(u32, u32)> = buckets
            .values()
            .flat_map(|members| {
                let m = members.len();
                members
                    .iter()
                    .enumerate()
                    .map(move |(rank, &i)| (i, (m - rank) as u32))
            })
            .filter(|&(i, _)| ends[i as usize].mask != 0)
            .collect();
        let stripes = stripes(owners.len()).max(1);
        let bounds = stripe_bounds(&owners, stripes);
        // Each unordered pair is visited exactly once with the lower
        // index as owner, so no dedup pass is needed and the stored link
        // orientation is deterministic regardless of bucket layout.
        let pairs = |stripe: usize, out: LinkSink<'_>| {
            for &(i, _) in &owners[bounds[stripe]..bounds[stripe + 1]] {
                let a = &ends[i as usize];
                let (bx, by) = bucket_key(a.position, cell);
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let Some(others) = buckets.get(&(bx + dx, by + dy)) else {
                            continue;
                        };
                        for &j in others {
                            if j > i {
                                if let Some(link) = kernel.link(a, &ends[j as usize]) {
                                    out(i, j, link.radio, link.delivery_prob);
                                }
                            }
                        }
                    }
                }
            }
        };
        let mut file = |i: u32, j: u32, radio: RadioKind, delivery_prob: f64| {
            if !deny(ids[i as usize], ids[j as usize]) {
                let edge = Edge::new(j, radio, delivery_prob);
                let back = edge.mirrored(i);
                adj[i as usize].push(edge);
                adj[j as usize].push(back);
            }
        };
        thread::scope(|scope| {
            let pairs = &pairs;
            let workers: Vec<_> = (1..stripes)
                .map(|stripe| {
                    let worker = thread::Builder::new()
                        .spawn_scoped(scope, move || Found::record(|out| pairs(stripe, out)));
                    (stripe, worker.ok())
                })
                .collect();
            pairs(0, &mut file);
            for (stripe, worker) in workers {
                match worker {
                    Some(worker) => {
                        let found = worker.join().unwrap_or_else(|p| panic::resume_unwind(p));
                        Found::replay(found, &mut file);
                    }
                    // The OS refused a thread: the same stripe, run here.
                    None => pairs(stripe, &mut file),
                }
            }
        });
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
        let end_i = PairEnd::of(&self.nodes[iu]);
        if end_i.mask == 0 {
            return;
        }
        let kernel = PairKernel::new(channel);
        // Rediscover links against the neighborhood, with the same
        // lower-index-owner orientation as a full build.
        let (bx, by) = bucket_key(end_i.position, self.cell_m);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(others) = self.buckets.get(&(bx + dx, by + dy)) else {
                    continue;
                };
                for &j in others {
                    if j == i {
                        continue;
                    }
                    let end_j = PairEnd::of(&self.nodes[j as usize]);
                    let (a, b) = if i < j {
                        (&end_i, &end_j)
                    } else {
                        (&end_j, &end_i)
                    };
                    let (owner, far) = (self.ids[i.min(j) as usize], self.ids[i.max(j) as usize]);
                    let link = kernel.link(a, b).filter(|_| !deny(owner, far));
                    if let Some(link) = link {
                        let edge = Edge::new(j, link.radio, link.delivery_prob);
                        let back = edge.mirrored(i);
                        self.adj[iu].push(edge);
                        let list = &mut self.adj[j as usize];
                        if let Err(pos) = list.binary_search_by_key(&i, |k| k.to) {
                            list.insert(pos, back);
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

    /// The spatial-hash cell `p` falls in, clamped to the `i32` range
    /// (see [`CellRect`]).
    pub(crate) fn cell_of(&self, p: Point) -> (i32, i32) {
        let (x, y) = bucket_key(p, self.cell_m);
        let clamp = |k: i64| k.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
        (clamp(x), clamp(y))
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
            self.route_idx_with(&mut RouteScratch::new(), s, d, None)?
                .into_iter()
                .map(|i| self.ids[i as usize])
                .collect(),
        )
    }

    /// [`ConnectivityGraph::route`] on dense indices with caller-owned
    /// scratch space: the form the simulator uses for every message.
    ///
    /// The per-query node state is epoch-stamped instead of cleared and
    /// the heap keeps its capacity; the returned path is built in the
    /// scratch's path buffer and moved out, so a caller that hands it
    /// back with [`RouteScratch::recycle`] pays no allocation per query
    /// once the scratch has warmed up.
    ///
    /// Frontier entries order by cost (`total_cmp`), then node index. A
    /// node is queued again only at a strictly lower cost, and the
    /// costlier entries that leaves behind are skipped on pop, so each
    /// node settles once, at its final distance; a unit test holds every
    /// answer to Floyd–Warshall distances over the stored weights.
    ///
    /// `to_d`, when given, is `d`'s table from
    /// [`ConnectivityGraph::distances_from`] on this graph. The search
    /// then drops every offer of a cost `c` to a node `v` with `c +
    /// to_d[v] > to_d[s] · (1 + BOUND_SLACK)`: no such offer is on a
    /// route within float rounding of the best one, so the answer is the
    /// one the unbounded search returns (DESIGN.md, "Bounded by the
    /// destination"). Where `s` cannot reach `d` the search is unbounded.
    pub(crate) fn route_idx_with(
        &self,
        scratch: &mut RouteScratch,
        s: u32,
        d: u32,
        to_d: Option<&[f64]>,
    ) -> Option<Vec<u32>> {
        scratch.settled = 0;
        scratch.expanded = CellRect::EMPTY;
        if s as usize >= self.ids.len() || d as usize >= self.ids.len() {
            return None;
        }
        let mut path = scratch.take_path();
        path.push(d);
        if s == d {
            return Some(path);
        }
        match to_d.map(|h| (h, h[s as usize] * (1.0 + BOUND_SLACK))) {
            Some((h, limit)) if limit.is_finite() => {
                self.search(scratch, s, d, |v, c| c + h[v as usize] <= limit)
            }
            _ => self.search(scratch, s, d, |_, _| true),
        }
        if !scratch.touched(d) {
            scratch.path = path;
            return None;
        }
        let mut cur = d;
        while cur != s {
            cur = scratch.slots[cur as usize].prev;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Appends to `out` every node's distance from `d`, infinite where
    /// none is linked to it: one search from `d` with no early exit.
    /// Links are undirected and weigh the same both ways, so this is
    /// also each node's distance *to* `d`, summed in the other order.
    pub(crate) fn distances_from(&self, scratch: &mut RouteScratch, d: u32, out: &mut Vec<f64>) {
        self.search(scratch, d, u32::MAX, |_, _| true);
        let epoch = scratch.epoch;
        out.extend(scratch.slots[..self.ids.len()].iter().map(|slot| {
            if slot.stamp == epoch {
                slot.dist
            } else {
                f64::INFINITY
            }
        }));
    }

    /// The one search loop: settles nodes from `s` until it pops `stop`
    /// (never, for `u32::MAX`), offering a node `v` a cost `c` only where
    /// `admit(v, c)`, and records in `scratch` how many nodes it settled
    /// and the cells they stand in. Of the graph it reads only the size
    /// and the adjacency lists of the nodes it settles.
    fn search(
        &self,
        scratch: &mut RouteScratch,
        s: u32,
        stop: u32,
        admit: impl Fn(u32, f64) -> bool,
    ) {
        scratch.reset(self.ids.len());
        scratch.relax(s, 0.0, u32::MAX);
        let mut settled = 0;
        // The corners of the settled positions, converted to cells once
        // at the end: `bucket_key` is monotone in each axis.
        let (mut lo, mut hi) = (Point::new(f64::MAX, f64::MAX), Point::new(f64::MIN, f64::MIN));
        while let Some(Frontier { cost, node }) = scratch.pop() {
            if node == stop {
                break;
            }
            settled += 1;
            let at = self.nodes[node as usize].position;
            (lo.x, lo.y) = (lo.x.min(at.x), lo.y.min(at.y));
            (hi.x, hi.y) = (hi.x.max(at.x), hi.y.max(at.y));
            for e in &self.adj[node as usize] {
                let offer = cost + e.weight;
                if admit(e.to, offer) {
                    scratch.relax(e.to, offer, node);
                }
            }
        }
        scratch.settled = settled;
        scratch.expanded = if settled == 0 {
            CellRect::EMPTY
        } else {
            let ((x0, y0), (x1, y1)) = (self.cell_of(lo), self.cell_of(hi));
            CellRect { x0, y0, x1, y1 }
        };
    }

    /// Link quality between two adjacent nodes, if a link exists.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<LinkQuality> {
        let &i = self.index.get(&a)?;
        let &j = self.index.get(&b)?;
        self.link_idx(i, j)
    }

    /// [`ConnectivityGraph::link`] on dense indices.
    pub(crate) fn link_idx(&self, i: u32, j: u32) -> Option<LinkQuality> {
        self.entry(i, j).map(Edge::quality)
    }

    /// [`ConnectivityGraph::link_idx`] with the hop budget of the
    /// directed link `i → j`: [`Channel::hop_budget`] between the
    /// retained positions, computed the first time a hop asks and kept on
    /// the entry while it stands. The flag says whether this call
    /// computed it. `channel` must be the one the graph was built or last
    /// patched under.
    pub(crate) fn hop_idx(
        &self,
        i: u32,
        j: u32,
        channel: &Channel,
    ) -> Option<(LinkQuality, HopBudget, bool)> {
        let e = self.entry(i, j)?;
        let (budget, computed) = match e.clutter.get() {
            Some(clutter) => (HopBudget { sinr_db: e.sinr_db.get(), clutter }, false),
            None => {
                let at = |k: u32| self.nodes[k as usize].position;
                let budget = channel.hop_budget(at(i), at(j), e.radio);
                e.sinr_db.set(budget.sinr_db);
                e.clutter.set(Some(budget.clutter));
                (budget, true)
            }
        };
        Some((e.quality(), budget, computed))
    }

    /// The entry for `j` in node `i`'s list, if they are linked.
    fn entry(&self, i: u32, j: u32) -> Option<&Edge> {
        let list = self.adj.get(i as usize)?;
        list.binary_search_by_key(&j, |e| e.to).ok().map(|pos| &list[pos])
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
}

/// Threads that share one full build's pair loop, at most.
const MAX_BUILD_STRIPES: usize = 8;

/// A build with fewer owners than this runs its pair loop on the calling
/// thread alone: below it, starting a thread costs about what the pairs
/// it would take over do (EXPERIMENTS.md, "Every core builds the graph").
const STRIPE_MIN_OWNERS: usize = 128;

/// How many stripes a full build with `owners` owners runs in: one below
/// [`STRIPE_MIN_OWNERS`], else the cores this process may run on, capped
/// at [`MAX_BUILD_STRIPES`]. The core count is read once per process:
/// asking re-reads the affinity mask and the cgroup quota, ~15 µs, half
/// of what spawning and joining the thread costs.
fn stripes_for(owners: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if owners < STRIPE_MIN_OWNERS {
        return 1;
    }
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    cores.min(MAX_BUILD_STRIPES)
}

/// Where each of `stripes` contiguous runs of `owners` (each with its
/// weight) begins, then the end: run `s` begins at the first owner whose
/// predecessors weigh at least `s / stripes` of the total. A run may be
/// empty.
fn stripe_bounds(owners: &[(u32, u32)], stripes: usize) -> Vec<usize> {
    let total: u64 = owners.iter().map(|&(_, w)| u64::from(w)).sum();
    let mut bounds = Vec::with_capacity(stripes + 1);
    let mut before = 0u64;
    for (k, &(_, w)) in owners.iter().enumerate() {
        while bounds.len() < stripes && before * stripes as u64 >= bounds.len() as u64 * total {
            bounds.push(k);
        }
        before += u64::from(w);
    }
    bounds.resize(stripes + 1, owners.len());
    bounds
}

/// A node as the pair kernel reads it. Unlike [`GraphNode`], whose
/// loadout is an `Rc`, it is `Sync`, so a build's worker threads can
/// share one slice of them.
#[derive(Debug, Clone, Copy)]
struct PairEnd<'a> {
    position: Point,
    /// One bit per [`RadioKind`] a live node carries; `0` for a dead or
    /// radio-less node, which links to nothing.
    mask: u8,
    /// The loadout in the node's own order, which breaks ties.
    radios: &'a [RadioKind],
}

impl<'a> PairEnd<'a> {
    fn of(node: &'a GraphNode) -> Self {
        let mask = if node.alive {
            node.radios.iter().fold(0, |mask, &r| mask | 1 << r as u8)
        } else {
            0
        };
        PairEnd {
            position: node.position,
            mask,
            radios: &node.radios,
        }
    }
}

/// What a build's worker thread hands back, in the order it found it:
/// each owner that has links, then those links as far end, radio and
/// delivery probability — all an [`Edge`] is made from. That keeps a
/// record at 16 bytes, and the worker's buffer is what a striped build
/// adds to peak memory.
enum Found {
    Owner(u32),
    Link(u32, RadioKind, f64),
}

/// Where a build's pair loop files each link: owner, far end, radio and
/// delivery probability.
type LinkSink<'s> = &'s mut dyn FnMut(u32, u32, RadioKind, f64);

impl Found {
    /// Records the links `pairs` emits.
    fn record(pairs: impl FnOnce(LinkSink<'_>)) -> Vec<Found> {
        let (mut found, mut owner) = (Vec::new(), None);
        pairs(&mut |i, j, radio, delivery_prob| {
            if owner != Some(i) {
                owner = Some(i);
                found.push(Found::Owner(i));
            }
            found.push(Found::Link(j, radio, delivery_prob));
        });
        found
    }

    /// Emits the links [`Found::record`] recorded, in its order.
    fn replay(found: Vec<Found>, out: LinkSink<'_>) {
        let mut owner = 0;
        for found in found {
            match found {
                Found::Owner(i) => owner = i,
                Found::Link(j, radio, delivery_prob) => out(owner, j, radio, delivery_prob),
            }
        }
    }
}

/// The pair test of a full build and of a single-node relink, with
/// everything that is the same for every pair computed once. Each reject
/// only skips work whose answer is already `None`: no shared radio among
/// live nodes; squared distance beyond the longest shared nominal range,
/// padded by `1 + 1e-9` so that no rounding can reject a pair the exact
/// `distance_m > range` tests that follow accept. A pure function of its
/// two ends; the partition predicate is its callers' to ask.
struct PairKernel<'a> {
    channel: &'a Channel,
    /// Indexed by shared-radio mask: the padded reject distance, squared.
    reach_sq: [f64; 1 << RadioKind::ALL.len()],
    /// Indexed by `RadioKind as usize`: transmit power in dBm.
    tx_dbm: [f64; RadioKind::ALL.len()],
    quiet_noise_dbm: Option<f64>,
}

impl<'a> PairKernel<'a> {
    fn new(channel: &'a Channel) -> Self {
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
            reach_sq,
            tx_dbm: RadioKind::ALL.map(|r| watts_to_dbm(r.tx_power_w())),
            quiet_noise_dbm: channel.quiet_noise_dbm(),
        }
    }

    /// The best link between `a` and `b` (`a` the lower index: on equal
    /// delivery probability its radio order decides).
    ///
    /// Inlined into the build's pair loop, which calls it once per
    /// candidate pair and mostly takes the first reject: called out of
    /// line, a single-threaded build ran 5–10 % slower.
    #[inline(always)]
    fn link(&self, a: &PairEnd<'_>, b: &PairEnd<'_>) -> Option<LinkQuality> {
        let shared = a.mask & b.mask;
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
            let candidate = LinkQuality { delivery_prob: p, radio: ra };
            best = match best {
                Some(cur) if cur.delivery_prob >= p => Some(cur),
                _ => Some(candidate),
            };
        }
        best
    }
}

/// The relative slack of a bounded search's limit (see
/// `ConnectivityGraph::route_idx_with`). A node on the answer has a cost
/// plus remaining distance within float rounding of the best route's —
/// under `1e-11` relative for paths of up to 10^5 hops — so the slack
/// never drops one, and it is still small enough to prune the rest.
const BOUND_SLACK: f64 = 1e-9;

/// Reusable Dijkstra working state for `ConnectivityGraph::route_idx_with`:
/// one [`Slot`] per node and a lazy-deletion min-heap of frontier entries.
///
/// Slots are validated by an epoch stamp, so starting a new query is
/// `O(1)` — no per-node clearing — and the heap and path buffer keep
/// their capacity across queries.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteScratch {
    slots: Vec<Slot>,
    epoch: u32,
    /// One entry per improvement a search made, cheapest first; an entry
    /// costlier than its node's [`Slot::dist`] is stale.
    heap: BinaryHeap<Frontier>,
    path: Vec<u32>,
    /// Nodes the last search settled (popped and expanded).
    settled: u32,
    /// The cells those nodes stand in.
    expanded: CellRect,
}

/// One node's search state; meaningful only while `stamp` is the
/// scratch's epoch, i.e. once the current search has reached the node.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    dist: f64,
    prev: u32,
    stamp: u32,
}

/// A heap entry: a node on the search frontier and a cost it was offered.
#[derive(Debug, Clone, Copy)]
struct Frontier {
    cost: f64,
    node: u32,
}

/// Reversed, so `BinaryHeap`'s maximum is the entry that pops first:
/// the cheaper, or on equal cost (`total_cmp`) the lower node index. A
/// total order, so the minimum is unique.
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        other.cost.total_cmp(&self.cost).then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Frontier {}

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

    /// Nodes the last search settled: popped and expanded, the
    /// destination's own pop not counted; 0 after a `route_idx_with`
    /// that needed no search.
    pub(crate) fn settled(&self) -> u32 {
        self.settled
    }

    /// The smallest [`CellRect`] holding every node the last search
    /// settled; empty after a `route_idx_with` that needed no search.
    pub(crate) fn expanded(&self) -> CellRect {
        self.expanded
    }

    /// Begins a new query over `n` nodes. Slots a resize adds carry stamp
    /// 0, which no epoch takes, and the epoch only grows until it wraps.
    fn reset(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.heap.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Stamp wrap-around: invalidate everything explicitly.
                self.slots.iter_mut().for_each(|slot| slot.stamp = 0);
                1
            }
        };
    }

    /// Whether the current search has reached node `i`.
    #[inline]
    fn touched(&self, i: u32) -> bool {
        self.slots[i as usize].stamp == self.epoch
    }

    /// Offers node `i` the cost `cost` via `prev`: queues it if the
    /// search has not reached it or `cost` beats the one it has, and
    /// otherwise leaves it alone. A settled node is never beaten —
    /// weights are at least `-0.0` and pops come in non-decreasing cost.
    #[inline]
    fn relax(&mut self, i: u32, cost: f64, prev: u32) {
        let epoch = self.epoch;
        let slot = &mut self.slots[i as usize];
        if slot.stamp != epoch || cost < slot.dist {
            *slot = Slot { dist: cost, prev, stamp: epoch };
            self.heap.push(Frontier { cost, node: i });
        }
    }

    /// Removes and returns the first queued node at its current cost,
    /// skipping the entries later improvements left stale.
    fn pop(&mut self) -> Option<Frontier> {
        while let Some(top) = self.heap.pop() {
            if top.cost <= self.slots[top.node as usize].dist {
                return Some(top);
            }
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
    /// pair).
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
                best = Some(LinkQuality { delivery_prob: p, radio });
            }
        }
        best
    }

    /// All-pairs distances over the stored `-ln p` weights by
    /// Floyd–Warshall, row-major and infinite where no path exists: an
    /// oracle that shares no code and no heap with the search.
    fn floyd_warshall(g: &ConnectivityGraph) -> Vec<f64> {
        let n = g.len();
        let mut dist = vec![f64::INFINITY; n * n];
        for (i, list) in g.adj.iter().enumerate() {
            dist[i * n + i] = 0.0;
            for e in list {
                dist[i * n + e.to as usize] = e.weight;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let ik = dist[i * n + k];
                for j in 0..n {
                    let via = ik + dist[k * n + j];
                    if via < dist[i * n + j] {
                        dist[i * n + j] = via;
                    }
                }
            }
        }
        dist
    }

    /// `route_idx_with` through `scratch` for every `(s, d)` over the
    /// graph's indices and `extra` out-of-range ones, against
    /// [`floyd_warshall`]: a route exactly where the distance is finite,
    /// running from `s` to `d` over links of the graph, and weighing the
    /// distance to within summation order (`1e-12` relative). The path
    /// itself is not compared: on a tied lattice it is not unique.
    fn assert_routes_are_shortest(
        g: &ConnectivityGraph,
        scratch: &mut RouteScratch,
        extra: &[u32],
    ) {
        let n = g.len();
        let dist = floyd_warshall(g);
        let indices: Vec<u32> = (0..n as u32).chain(extra.iter().copied()).collect();
        for &s in &indices {
            for &d in &indices {
                let (si, di) = (s as usize, d as usize);
                let want = (si < n && di < n).then(|| dist[si * n + di]);
                let want = want.filter(|w| w.is_finite());
                let got = g.route_idx_with(scratch, s, d, None);
                match (&got, want) {
                    (None, None) => {}
                    (Some(path), Some(want)) => {
                        assert_eq!((path.first(), path.last()), (Some(&s), Some(&d)));
                        // Every node before `d` on the path was settled, and
                        // `d`'s own pop is not counted.
                        let settled = scratch.settled() as usize;
                        assert!((path.len() - 1..n).contains(&settled), "{s} -> {d}: {settled}");
                        let weight: f64 = path
                            .windows(2)
                            .map(|hop| {
                                let list = &g.adj[hop[0] as usize];
                                match list.binary_search_by_key(&hop[1], |e| e.to) {
                                    Ok(at) => list[at].weight,
                                    Err(_) => panic!("{s} -> {d}: no link {hop:?}"),
                                }
                            })
                            .sum();
                        assert!(
                            (weight - want).abs() <= 1e-12 * want,
                            "{s} -> {d}: the route weighs {weight}, the shortest {want}"
                        );
                    }
                    _ => panic!("{s} -> {d}: searched {got:?}, Floyd–Warshall {want:?}"),
                }
                if let Some(path) = got {
                    scratch.recycle(path);
                }
            }
        }
    }

    /// A `cols`×`rows` wifi lattice at exactly `spacing_m`, ids row-major.
    fn wifi_lattice(cols: u64, rows: u64, spacing_m: f64) -> Vec<GraphNode> {
        (0..cols * rows)
            .map(|i| {
                let (x, y) = ((i % cols) as f64 * spacing_m, (i / cols) as f64 * spacing_m);
                node(i, x, y, &[RadioKind::Wifi])
            })
            .collect()
    }

    /// The graphs the search oracles run over: random fields over mixed
    /// terrain and loadouts with dead and isolated nodes, an exact
    /// lattice full of equal-cost ties, and zero-weight clusters.
    fn oracle_fixtures() -> Vec<(String, ConnectivityGraph)> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut fixtures = Vec::new();

        // Random fields over mixed terrain and mixed loadouts, with dead
        // and isolated nodes among them.
        let loadouts: [&[RadioKind]; 5] = [
            &[RadioKind::Wifi],
            &[RadioKind::Wifi, RadioKind::TacticalUhf],
            &[RadioKind::TacticalUhf],
            &[RadioKind::Cellular, RadioKind::Wifi],
            &[RadioKind::Bluetooth],
        ];
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let bounds = Rect::square(1_500.0);
            let ch = Channel::new(Terrain::random_urban(bounds, 12, 12, seed));
            let mut nodes: Vec<GraphNode> = (0..70)
                .map(|i| {
                    let (x, y) = (rng.gen_range(0.0..1_500.0), rng.gen_range(0.0..1_500.0));
                    let mut n = node(i, x, y, loadouts[rng.gen_range(0..loadouts.len())]);
                    n.alive = rng.gen_range(0..10) != 0;
                    n
                })
                .collect();
            nodes.push(node(70, 1_499.0, 1_499.0, &[])); // isolated: no radio
            let g = ConnectivityGraph::build(&nodes, &ch);
            assert!(g.link_count() > 70, "seed {seed}: too sparse to test");
            fixtures.push((format!("random field {seed}"), g));
        }

        // Equal-cost ties everywhere: a lattice at exact spacing, where
        // straight, diagonal and stair-step paths sum the same weights.
        let g = ConnectivityGraph::build(&wifi_lattice(12, 12, 60.0), &open_channel());
        fixtures.push(("tied lattice".to_owned(), g));

        // Zero-weight links: clusters of co-located nodes whose links
        // saturate to p == 1.0, i.e. weight -0.0, joined by lossy ones.
        let nodes: Vec<GraphNode> = (0..24)
            .map(|i| {
                let (cluster, k) = (i / 4, i % 4);
                let x = (cluster % 3) as f64 * 80.0 + (k % 2) as f64;
                let y = (cluster / 3) as f64 * 80.0 + (k / 2) as f64 * 0.5;
                node(i, x, y, &[RadioKind::Wifi])
            })
            .collect();
        let g = ConnectivityGraph::build(&nodes, &open_channel());
        assert!(zero_weight_links(&g) >= 6 * 6, "every cluster's links must saturate");
        assert!(g.adj.iter().flatten().any(|e| e.weight > 0.0));
        fixtures.push(("zero-weight clusters".to_owned(), g));
        fixtures
    }

    /// Undirected links of weight `-0.0` (delivery probability 1).
    fn zero_weight_links(g: &ConnectivityGraph) -> usize {
        let zero = g.adj.iter().flatten().filter(|e| e.weight.to_bits() == (-0.0f64).to_bits());
        zero.count() / 2
    }

    #[test]
    fn searches_find_the_floyd_warshall_distance() {
        let mut scratch = RouteScratch::new();
        for (_, g) in oracle_fixtures() {
            let n = g.len() as u32;
            assert_routes_are_shortest(&g, &mut scratch, &[n, n + 5, u32::MAX]);
        }
    }

    /// A `large_mission`-shaped theatre: `n` tactical-UHF nodes (some
    /// carrying wifi too, one in ten dead) on a 3 km urban square — one
    /// spatial-hash bucket, so every pair meets the kernel — of which
    /// `clusters` groups of three stand within a metre of each other, so
    /// their links saturate to weight `-0.0`.
    fn one_bucket_field(seed: u64, n: u64, clusters: u64) -> ConnectivityGraph {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let ch = Channel::new(Terrain::random_urban(Rect::square(3_000.0), 24, 24, seed));
        let loadouts: [&[RadioKind]; 2] =
            [&[RadioKind::TacticalUhf], &[RadioKind::Wifi, RadioKind::TacticalUhf]];
        let mut nodes: Vec<GraphNode> = Vec::new();
        for i in 0..n {
            let radios = loadouts[rng.gen_range(0..loadouts.len())];
            let (x, y) = match nodes.get(i.saturating_sub(1) as usize) {
                Some(prev) if i % 3 != 0 && i < 3 * clusters => {
                    (prev.position.x + rng.gen_range(0.0..0.5), prev.position.y)
                }
                _ => (rng.gen_range(0.0..3_000.0), rng.gen_range(0.0..3_000.0)),
            };
            let mut node = node(i, x, y, radios);
            node.alive = i < 3 * clusters || rng.gen_range(0..10) != 0;
            nodes.push(node);
        }
        ConnectivityGraph::build(&nodes, &ch)
    }

    /// Every `(s, d)` of `g` searched bounded by `d`'s table and unbounded
    /// must return the same path; returns the nodes settled by the
    /// bounded and by the unbounded searches.
    fn assert_bounded_searches_match(g: &ConnectivityGraph, name: &str) -> (u64, u64) {
        let (mut scratch, mut table) = (RouteScratch::new(), Vec::new());
        let (mut bounded, mut unbounded) = (0, 0);
        for d in 0..g.len() as u32 {
            table.clear();
            g.distances_from(&mut scratch, d, &mut table);
            assert_eq!(table.len(), g.len());
            for s in 0..g.len() as u32 {
                let want = g.route_idx_with(&mut scratch, s, d, None);
                unbounded += u64::from(scratch.settled());
                let got = g.route_idx_with(&mut scratch, s, d, Some(&table));
                bounded += u64::from(scratch.settled());
                assert_eq!(got, want, "{name}: route {s} -> {d}");
                assert_eq!(got.is_some(), table[s as usize].is_finite(), "{name}: {s} -> {d}");
            }
        }
        (bounded, unbounded)
    }

    #[test]
    fn bounded_searches_equal_unbounded_searches() {
        let mut fixtures = oracle_fixtures();
        let g = one_bucket_field(28, 90, 3);
        // Nine zero-weight links; a `large_mission` graph has six.
        assert_eq!(zero_weight_links(&g), 9, "three saturated triangles");
        fixtures.push(("one-bucket UHF field".to_owned(), g));
        for (name, g) in fixtures {
            let (bounded, unbounded) = assert_bounded_searches_match(&g, &name);
            assert!(bounded < unbounded, "{name}: the bound pruned nothing");
        }
    }

    /// [`bounded_searches_equal_unbounded_searches`] over 300 seeded
    /// one-bucket fields of 40–120 nodes with up to five saturated
    /// clusters each; ~30 s in a release build on two cores (`cargo test
    /// --release -p iobt-netsim --lib -- --ignored bounded_search_sweep`).
    #[test]
    #[ignore = "a release-build sweep; CI runs it"]
    fn bounded_search_sweep() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (mut bounded, mut unbounded) = (0, 0);
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let (n, clusters) = (rng.gen_range(40..=120), rng.gen_range(0..=5));
            let g = one_bucket_field(seed, n, clusters);
            let (b, u) = assert_bounded_searches_match(&g, &format!("seed {seed}"));
            (bounded, unbounded) = (bounded + b, unbounded + u);
        }
        assert!(bounded * 2 < unbounded, "settled {bounded} bounded, {unbounded} unbounded");
    }

    #[test]
    fn searches_across_the_epoch_wrap_match_a_fresh_scratch() {
        let g = ConnectivityGraph::build(&wifi_lattice(12, 12, 60.0), &open_channel());
        let mut warm = RouteScratch::new();
        // The warm-up leaves stamp 1, the epoch the wrap restarts at, on
        // most of the lattice; the search at `u32::MAX` is one hop, so it
        // overwrites few of them.
        let path = g.route_idx_with(&mut warm, 0, 143, None).expect("lattice is connected");
        warm.recycle(path);
        warm.epoch = u32::MAX - 1;
        for (s, d) in [(70, 71), (143, 0), (132, 11)] {
            let got = g.route_idx_with(&mut warm, s, d, None);
            assert_eq!(got, g.route_idx_with(&mut RouteScratch::new(), s, d, None), "{s} -> {d}");
            warm.recycle(got.expect("lattice is connected"));
        }
        assert_eq!(warm.epoch, 2, "the three searches ran at u32::MAX, 1 and 2");
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
                    .route_idx_with(&mut scratch, ia, ib, None)
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
    fn a_worker_record_is_16_bytes() {
        // A striped build's worker buffers one record per link it finds
        // until the calling thread files them: 32 bytes per link read
        // +7.6 % `peak_rss_mb` on `large_mission`, 16 bytes +5.3 %.
        assert_eq!(std::mem::size_of::<Found>(), 16);
    }

    /// A seeded field: one in three Bluetooth only (25 m cells), one
    /// wifi with some Bluetooth, one wifi with some tactical UHF (5 km
    /// cells); 60 to 160 nodes over a random urban square three to eight
    /// cells across. The generator is handed back for the caller's
    /// patches, which move a node by up to one cell in each axis.
    pub(crate) struct SeededField {
        pub(crate) rng: rand::rngs::StdRng,
        pub(crate) nodes: Vec<(Point, &'static [RadioKind])>,
        pub(crate) terrain: Terrain,
        pub(crate) cell: f64,
        pub(crate) extent: f64,
    }

    pub(crate) fn seeded_field(seed: u64) -> SeededField {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use RadioKind::{Bluetooth, TacticalUhf, Wifi};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4B3E97);
        let mixes: [(&[&[RadioKind]], f64); 3] = [
            (&[&[Bluetooth]], 25.0),
            (&[&[Wifi], &[Bluetooth, Wifi]], 120.0),
            (&[&[Wifi], &[Wifi], &[Wifi, TacticalUhf]], 5_000.0),
        ];
        let (loadouts, cell) = mixes[(seed % 3) as usize];
        let n = rng.gen_range(60..=160u32);
        let extent = cell * rng.gen_range(3.0..8.0);
        let terrain = Terrain::random_urban(Rect::square(extent), 8, 8, seed);
        let nodes = (0..n)
            .map(|_| {
                let at = Point::new(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent));
                (at, loadouts[rng.gen_range(0..loadouts.len())])
            })
            .collect();
        SeededField { rng, nodes, terrain, cell, extent }
    }

    /// Asks `hop_idx` about every directed link of `g` — computing the
    /// budgets not yet kept, reading the rest — and holds each budget to
    /// a fresh terrain walk between the places `world` has now, and each
    /// link's quality, through `hop_idx`, `link_idx` and `neighbors`, to
    /// the reference spelling's (whose distance is the one a build
    /// stored before distances were derived). Returns the budgets read
    /// and the budgets computed.
    fn assert_hop_budgets_fresh(
        g: &ConnectivityGraph,
        world: &[GraphNode],
        ch: &Channel,
        label: &str,
    ) -> (u64, u64) {
        let bits = |q: LinkQuality| (q.delivery_prob.to_bits(), q.radio);
        let (mut read, mut computed) = (0, 0);
        for (i, list) in (0u32..).zip(&g.adj) {
            let neighbors = g.neighbors(world[i as usize].id);
            assert_eq!(neighbors.len(), list.len(), "{label}");
            for ((far, quality), e) in neighbors.into_iter().zip(list) {
                let j = e.to;
                let (owner, other) = (&world[i.min(j) as usize], &world[i.max(j) as usize]);
                let want = reference_link(owner, other, ch).map(bits);
                let (link, budget, fresh) = match g.hop_idx(i, j, ch) {
                    Some(hop) => hop,
                    None => panic!("{label}: {i} lists {j} but has no hop to it"),
                };
                let walked = ch.hop_budget(world[i as usize].position, world[j as usize].position, e.radio);
                assert_eq!(
                    (budget.sinr_db.to_bits(), budget.clutter),
                    (walked.sinr_db.to_bits(), walked.clutter),
                    "{label}: {i} -> {j}, computed here: {fresh}"
                );
                assert_eq!(Some(bits(link)), want, "{label}: {i} -> {j}");
                assert_eq!(g.link_idx(i, j).map(bits), want, "{label}: {i} -> {j}");
                assert_eq!((far, Some(bits(quality))), (world[j as usize].id, want), "{label}");
                (read, computed) = if fresh { (read, computed + 1) } else { (read + 1, computed) };
            }
        }
        (read, computed)
    }

    /// Builds [`seeded_field`]`(seed)` over `ch` (its terrain by default)
    /// and patches it thirty times — each patch flips the liveness of or
    /// moves one to three nodes — checking every directed link's budget
    /// after the build and after each patch with
    /// [`assert_hop_budgets_fresh`]. Returns its counts, summed.
    fn assert_hop_budgets_match(seed: u64, ch: Option<Channel>) -> (u64, u64) {
        use rand::Rng;
        let SeededField { mut rng, nodes, terrain, cell, extent } = seeded_field(seed);
        let ch = ch.unwrap_or_else(|| Channel::new(terrain));
        let mut world: Vec<GraphNode> = (0..)
            .zip(nodes)
            .map(|(i, (at, radios))| node(i, at.x, at.y, radios))
            .collect();
        let mut g = ConnectivityGraph::build(&world, &ch);
        let label = format!("seed {seed}, built");
        let (mut read, mut computed) = assert_hop_budgets_fresh(&g, &world, &ch, &label);
        let n = world.len() as u32;
        for step in 0..30 {
            let mut pending = Vec::new();
            for _ in 0..rng.gen_range(1..=3) {
                let i = rng.gen_range(0..n);
                let node = &mut world[i as usize];
                if rng.gen_bool(0.5) {
                    node.alive = !node.alive;
                } else {
                    let mut step_m = |v: f64| (v + rng.gen_range(-cell..cell)).clamp(0.0, extent);
                    node.position = Point::new(step_m(node.position.x), step_m(node.position.y));
                    g.move_node(i, node.position);
                }
                pending.push(i);
            }
            for &i in &pending {
                g.refresh_node(i, world[i as usize].alive, &ch, &|_, _| false);
            }
            let label = format!("seed {seed}, patch {step}");
            let (r, c) = assert_hop_budgets_fresh(&g, &world, &ch, &label);
            (read, computed) = (read + r, computed + c);
        }
        (read, computed)
    }

    #[test]
    fn hop_budgets_equal_a_fresh_walk() {
        let (mut read, mut computed) = (0, 0);
        let mut tally = |(r, c): (u64, u64)| {
            (read, computed) = (read + r, computed + c);
            c
        };
        for seed in 0..6 {
            tally(assert_hop_budgets_match(seed, None));
        }
        // A radiating jammer makes the noise floor differ per receiver,
        // so the two directions of a link keep different budgets; a
        // degradation loss moves every one.
        let SeededField { terrain, extent, .. } = seeded_field(1);
        let mut jammed = Channel::new(terrain);
        jammed.add_jammer(crate::channel::Jammer::new(Point::new(extent / 2.0, extent / 3.0), 0.5));
        assert!(tally(assert_hop_budgets_match(1, Some(jammed))) > 0, "the jammer cut every link");
        let mut degraded = Channel::new(seeded_field(2).terrain);
        degraded.set_extra_loss_db(6.5);
        assert!(tally(assert_hop_budgets_match(2, Some(degraded))) > 0, "the loss cut every link");
        // Both paths ran: budgets kept across patches were read back.
        assert!(read > computed && computed > 0, "read {read}, computed {computed}");
    }

    /// [`hop_budgets_equal_a_fresh_walk`]'s seeded fields over 300 seeds;
    /// a few seconds in a release build (`cargo test --release -p
    /// iobt-netsim --lib -- --ignored hop_budget_sweep`).
    #[test]
    #[ignore = "a release-build sweep; CI runs it"]
    fn hop_budget_sweep() {
        let (mut read, mut computed) = (0, 0);
        for seed in 0..300 {
            let (r, c) = assert_hop_budgets_match(seed, None);
            (read, computed) = (read + r, computed + c);
        }
        assert!(read > computed && computed > 0, "read {read}, computed {computed}");
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
            let kernel = PairKernel::new(&ch);
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
                let bits = |l: Option<LinkQuality>| l.map(|l| (l.delivery_prob.to_bits(), l.radio));
                proptest::prop_assert_eq!(
                    bits(kernel.link(&PairEnd::of(&a), &PairEnd::of(&b))),
                    bits(reference_link(&a, &b, &ch)),
                    "{:?} -> {:?}", a, b
                );
            }
        }
    }

    /// [`ConnectivityGraph::build_filtered`] in exactly `stripes` stripes,
    /// whatever the owner count or the cores.
    fn build_in_stripes(
        nodes: &[GraphNode],
        ch: &Channel,
        deny: &dyn Fn(NodeId, NodeId) -> bool,
        stripes: usize,
    ) -> ConnectivityGraph {
        let ids: Rc<[NodeId]> = nodes.iter().map(|g| g.id).collect();
        let index = Rc::new(
            ids.iter()
                .enumerate()
                .map(|(i, &id)| (id, i as u32))
                .collect(),
        );
        ConnectivityGraph::build_striped(ids, index, nodes.to_vec(), ch, deny, |_| stripes)
    }

    #[test]
    fn striped_builds_equal_the_serial_build() {
        use crate::channel::Jammer;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        // Tactical UHF's 5 km cell holds a 3 km theatre in one bucket, so
        // every pair meets the kernel and owner `i` has `n - 1 - i` pairs.
        let loadouts: [&[RadioKind]; 7] = [
            &[RadioKind::TacticalUhf],
            &[RadioKind::Wifi, RadioKind::TacticalUhf],
            &[RadioKind::TacticalUhf, RadioKind::Cellular],
            &[RadioKind::Cellular, RadioKind::Wifi],
            &[RadioKind::Wifi],
            &[RadioKind::Bluetooth],
            &[],
        ];
        let theatre: Vec<GraphNode> = (0..1_001)
            .map(|i| {
                let (x, y) = (rng.gen_range(0.0..3_000.0), rng.gen_range(0.0..3_000.0));
                let mut n = node(i, x, y, loadouts[rng.gen_range(0..loadouts.len())]);
                n.alive = rng.gen_range(0..12) != 0;
                n
            })
            .collect();
        let urban = Channel::new(Terrain::random_urban(Rect::square(3_000.0), 24, 24, 22));
        let mut jammed = urban.clone();
        jammed.add_jammer(Jammer::new(Point::new(1_200.0, 1_700.0), 5.0));
        assert!(jammed.quiet_noise_dbm().is_none(), "per-receiver noise");
        // A wifi lattice over many 120 m buckets, with dead and radio-less
        // nodes among them.
        let mut lattice = wifi_lattice(40, 30, 55.0);
        for i in (0..lattice.len()).step_by(7) {
            lattice[i].alive = false;
        }
        for i in (3..lattice.len()).step_by(11) {
            lattice[i].radios = Rc::from(&[][..]);
        }
        let open = open_channel();
        let never = |_: NodeId, _: NodeId| false;
        let west =
            |nodes: &[GraphNode], x: f64, id: NodeId| nodes[id.raw() as usize].position.x < x;
        let theatre_cut =
            |a: NodeId, b: NodeId| west(&theatre, 1_500.0, a) != west(&theatre, 1_500.0, b);
        let lattice_cut =
            |a: NodeId, b: NodeId| west(&lattice, 1_100.0, a) != west(&lattice, 1_100.0, b);
        type Deny<'a> = &'a dyn Fn(NodeId, NodeId) -> bool;
        let cases: [(&str, &[GraphNode], &Channel, Deny<'_>, bool); 4] = [
            ("one-bucket theatre", &theatre, &urban, &never, false),
            ("jammed, cut theatre", &theatre, &jammed, &theatre_cut, true),
            ("lattice", &lattice, &open, &never, false),
            ("partitioned lattice", &lattice, &open, &lattice_cut, true),
        ];
        for (name, nodes, ch, deny, cuts) in cases {
            // A `RefCell` recorder: `deny` is not `Sync`, so the compiler
            // holds it to the calling thread. It is asked in the order the
            // links are filed, which is the one-thread order for every `T`.
            let asked = std::cell::RefCell::new(Vec::new());
            let recording = |a: NodeId, b: NodeId| {
                asked.borrow_mut().push((a, b));
                deny(a, b)
            };
            let build = |stripes| {
                let g = build_in_stripes(nodes, ch, &recording, stripes);
                (g, asked.take())
            };
            let (serial, serial_asked) = build(1);
            assert!(serial.link_count() > 1_000, "{name}: too sparse to test");
            let cut = serial_asked.iter().filter(|&&(a, b)| deny(a, b)).count();
            assert_eq!(cut > 50, cuts, "{name}: {cut} links cut");
            for stripes in [2, 3, 5] {
                let (g, pairs) = build(stripes);
                assert!(g.same_topology(&serial), "{name}: {stripes} stripes");
                assert_eq!(g.adj, serial.adj, "{name}: {stripes} stripes");
                assert_eq!(pairs, serial_asked, "{name}: {stripes} stripes");
            }
        }
    }

    #[test]
    fn stripe_bounds_halve_the_triangle_and_allow_empty_runs() {
        // One bucket of 1,001: the first run ends where the pairs behind
        // it are half of all, near `n (1 - 1/√2)`, not at `n / 2`.
        let triangle: Vec<(u32, u32)> = (0..1_001).map(|r| (r, 1_001 - r)).collect();
        let bounds = stripe_bounds(&triangle, 2);
        assert_eq!((bounds[0], bounds[2]), (0, 1_001));
        assert!((290..=296).contains(&bounds[1]), "{bounds:?}");
        // Uniform weights cut evenly; more runs than owners leaves some empty.
        assert_eq!(stripe_bounds(&[(7, 1); 9], 3), [0, 3, 6, 9]);
        assert_eq!(stripe_bounds(&[(7, 1); 2], 5), [0, 1, 1, 2, 2, 2]);
        assert_eq!(stripe_bounds(&[], 3), [0, 0, 0, 0]);
    }

    #[test]
    fn deny_is_asked_only_about_pairs_that_would_link() {
        let ch = open_channel();
        let asked = std::cell::Cell::new(0usize);
        let counting = |_: NodeId, _: NodeId| {
            asked.set(asked.get() + 1);
            false
        };
        // Below the stripe threshold, above it, and above it in stripes
        // forced on whatever the cores: the pairs may be computed on other
        // threads, but `deny` is asked here.
        let (small, large) = (wifi_lattice(8, 5, 70.0), wifi_lattice(16, 12, 70.0));
        assert!(small.len() < STRIPE_MIN_OWNERS && large.len() >= STRIPE_MIN_OWNERS);
        for (nodes, stripes) in [(&small, None), (&large, None), (&large, Some(3))] {
            asked.set(0);
            let g = match stripes {
                None => ConnectivityGraph::build_filtered(nodes, &ch, &counting),
                Some(stripes) => build_in_stripes(nodes, &ch, &counting, stripes),
            };
            let n = nodes.len();
            assert!(g.link_count() > 0 && g.link_count() < n * (n - 1) / 2);
            assert_eq!(asked.get(), g.link_count());
        }
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
