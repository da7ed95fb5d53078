//! The simulator's derived topology state, behind one owner.
//!
//! Either no connectivity graph is held, or one is held together with the
//! node indices still to patch into it and what the next access owes
//! ([`Owes`]). A snapshot's disposition byte *is* that state:
//!
//! | state                         | byte | the next access                 |
//! |-------------------------------|------|---------------------------------|
//! | no graph held                 | 0    | builds, records `GraphRebuilt`  |
//! | held, [`Owes::UnseenRebuilt`] | 0    | patches, records `GraphRebuilt` |
//! | held, [`Owes::Nothing`]       | 1    | returns it                      |
//! | held, [`Owes::Rebuilt`]       | 2    | patches, records `GraphRebuilt` |
//!
//! A node's place or liveness changing joins the pending list; a
//! channel-wide change (jammer, partition, degradation) drops the graph.
//! [`Topology::peek`] brings the graph in step with the world and says
//! nothing; [`Topology::access`] does the same and pays what is owed —
//! exactly when rebuild-on-access would have rebuilt, with the same
//! counts, because a patched graph equals a built one;
//! [`Topology::restore`] patches whatever is held to a restored world.
//! On the reference path the slot *never patches and never keeps ahead*.
//!
//! What routing learns about the graph lives here with it: the route
//! memo (each source's last answer, with the cells its search expanded)
//! and, per destination, a reverse-distance table with the search work
//! that earned it. A destination earns its table — one full search from
//! it — once the unbounded searches toward it on this graph have settled
//! as many nodes as the graph has; every later search toward it is
//! bounded by the table and returns the same path (DESIGN.md, "Bounded
//! by the destination"). A build, a restore or a channel-wide change
//! empties all of it ([`Topology::links_changed`]); a patch empties the
//! tables and forgets only the answers whose search expanded a node
//! within one cell of a changed node ([`Topology::forget_near`];
//! DESIGN.md, "Pay per change"). The reference path neither memoises
//! nor bounds. None of this is serialised.

use std::collections::BTreeMap;
use std::rc::Rc;

use iobt_obs::{Recorder, TraceEvent};
use iobt_types::NodeId;

use crate::channel::Channel;
use crate::graph::{CellRect, ConnectivityGraph, GraphNode, RouteScratch, PATCH_AT_MOST_ONE_IN};

use super::{NodeRuntime, PartitionSpec};

/// What a graph is a function of, borrowed from the simulator.
pub(super) struct World<'a> {
    pub(super) ids: &'a Rc<[NodeId]>,
    pub(super) index: &'a Rc<BTreeMap<NodeId, u32>>,
    pub(super) nodes: &'a [NodeRuntime],
    pub(super) channel: &'a Channel,
    pub(super) partitions: &'a [(PartitionSpec, bool)],
}

impl World<'_> {
    /// The link-deny predicate: whether an active partition cuts `x`–`y`.
    fn deny(&self) -> impl Fn(NodeId, NodeId) -> bool + '_ {
        |x, y| self.partitions.iter().any(|(p, on)| *on && p.cuts(x, y))
    }

    /// The connectivity graph of the world as it stands: a pure function
    /// of it, recording nothing.
    fn build_graph(&self) -> ConnectivityGraph {
        let nodes: Vec<GraphNode> = self
            .nodes
            .iter()
            .map(|n| GraphNode {
                id: n.id,
                position: n.mobility.position(),
                radios: Rc::clone(&n.radios),
                alive: n.is_up(),
            })
            .collect();
        ConnectivityGraph::build_shared(
            Rc::clone(self.ids),
            Rc::clone(self.index),
            nodes,
            self.channel,
            &self.deny(),
        )
    }

    /// Whether `pending` is few enough nodes to patch rather than rebuild:
    /// a patch computes a link between two pending nodes from both ends.
    fn worth_patching(&self, pending: &[u32]) -> bool {
        pending.len() <= self.nodes.len().div_ceil(PATCH_AT_MOST_ONE_IN)
    }

    /// Patches the place and liveness of the nodes in `pending` (sorted,
    /// deduplicated) into `rc`, which must match the world in every
    /// other node, the channel and the active partitions.
    fn patch(&self, rc: &mut Rc<ConnectivityGraph>, pending: &[u32]) {
        // Copy-on-write: external `connectivity()` holders keep their
        // frozen snapshot.
        let g = Rc::make_mut(rc);
        // Every position first, then every relink: a link between two
        // movers must see both where they are.
        for &i in pending {
            g.move_node(i, self.nodes[i as usize].mobility.position());
        }
        let deny = self.deny();
        for &i in pending {
            g.refresh_node(i, self.nodes[i as usize].is_up(), self.channel, &deny);
        }
        debug_assert!(
            rc.same_topology(&self.build_graph()),
            "incremental graph maintenance diverged from a full rebuild"
        );
    }
}

/// What the next [`Topology::access`] owes for the held graph; the
/// discriminant is the snapshot's disposition byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owes {
    /// A `GraphRebuilt`, and a snapshot must say no graph is cached: a
    /// node moved (a full invalidation when the byte was defined), or the
    /// graph was built ahead of its first access.
    UnseenRebuilt = 0,
    /// Nothing: the graph is in step and announced.
    Nothing = 1,
    /// A `GraphRebuilt`, for liveness changes or a tick that moved nothing.
    Rebuilt = 2,
}

struct Held {
    graph: Rc<ConnectivityGraph>,
    /// Indices of nodes whose place or liveness changed since `graph`'s
    /// links were computed; may repeat. Empty while nothing is owed.
    pending: Vec<u32>,
    owes: Owes,
}

/// The connectivity-graph slot and what hangs off it; see the
/// [module docs](self).
#[derive(Default)]
pub(super) struct Topology {
    held: Option<Held>,
    /// Never patch, never keep ahead.
    rebuild_only: bool,
    scratch: RouteScratch,
    memo: RouteMemo,
    tables: RouteTables,
    /// Routes asked for, and how many of them the memo answered.
    /// Reporting-only, like `Core::events_processed`.
    route_queries: u64,
    memo_hits: u64,
    /// Tables built, and searches run with one. Reporting-only.
    tables_built: u64,
    bounded_searches: u64,
    /// From-scratch builds for the slot (not the `debug_assert!`
    /// oracle's). Reporting-only.
    builds: u64,
}

impl Topology {
    pub(super) fn new(rebuild_only: bool) -> Self {
        Topology { rebuild_only, ..Topology::default() }
    }

    /// `(queries, hits)` of [`Topology::route`] since construction.
    pub(super) fn route_memo_counts(&self) -> (u64, u64) {
        (self.route_queries, self.memo_hits)
    }

    /// `(tables built, searches run with a table)` since construction.
    pub(super) fn route_bound_counts(&self) -> (u64, u64) {
        (self.tables_built, self.bounded_searches)
    }

    /// From-scratch graph builds since construction.
    pub(super) fn builds(&self) -> u64 {
        self.builds
    }

    /// The byte a snapshot records for this state.
    pub(super) fn disposition(&self) -> u8 {
        self.held.as_ref().map_or(0, |held| held.owes as u8)
    }

    /// Node `i`'s liveness changed.
    pub(super) fn invalidate_node(&mut self, i: u32) {
        if let Some(pending) = self.stale(false) {
            pending.push(i);
        }
    }

    /// A mobility tick moved the nodes in `movers`. A tick that moved
    /// nothing still owes its `GraphRebuilt` but relinks nothing.
    pub(super) fn invalidate_moved(&mut self, movers: Vec<u32>) {
        if let Some(pending) = self.stale(!movers.is_empty()) {
            // Usually the tick's list *becomes* the pending list; a copy
            // beside it cost `netsim_mobile` 4 % of peak RSS.
            if pending.is_empty() {
                *pending = movers;
            } else {
                pending.extend(movers);
            }
        }
    }

    /// The channel or the partitions in force changed: no link of the
    /// held graph can be trusted.
    pub(super) fn invalidate_all(&mut self) {
        self.held = None;
    }

    /// Some node's place (`moved`) or liveness changed: drops a graph
    /// that may not be patched, else raises the debt and returns the
    /// pending list for the node to join.
    fn stale(&mut self, moved: bool) -> Option<&mut Vec<u32>> {
        if self.rebuild_only {
            self.held = None;
        }
        let held = self.held.as_mut()?;
        if moved || held.owes == Owes::Nothing {
            held.owes = if moved { Owes::UnseenRebuilt } else { Owes::Rebuilt };
        }
        Some(&mut held.pending)
    }

    /// The links routing learned from are gone: empties the memo, the
    /// tables and the work toward each destination, keeping every
    /// buffer's capacity for the next graph.
    fn links_changed(&mut self) {
        self.memo.clear();
        self.tables.clear();
    }

    /// `graph` is about to have the nodes in `pending` patched to where
    /// and how `world` has them: empties the tables and the work toward
    /// each destination, and forgets every remembered answer whose search
    /// expanded a cell within one of a pending node's cell before or
    /// after the patch. A kept answer is the one a fresh search would
    /// return: the patch rewrites only the lists of pending nodes and of
    /// their old and new neighbours, all within one cell of those cells,
    /// and the search read no such list (DESIGN.md, "Pay per change").
    fn forget_near(&mut self, graph: &ConnectivityGraph, world: &World<'_>, pending: &[u32]) {
        self.tables.clear();
        let cells: Vec<(i32, i32)> = pending
            .iter()
            .flat_map(|&i| {
                let i = i as usize;
                let now = world.nodes[i].mobility.position();
                [graph.cell_of(graph.nodes()[i].position), graph.cell_of(now)]
            })
            .collect();
        // A grid as fine as the graph is large costs about what a clear
        // saves, so past that the memo goes whole.
        match ChangedCells::count(&cells, graph.len()) {
            Some(changed) => self.memo.forget(|reach| changed.any_within_one_of(reach)),
            None => self.memo.clear(),
        }
    }

    fn build(&mut self, world: &World<'_>) -> Rc<ConnectivityGraph> {
        self.builds += 1;
        Rc::new(world.build_graph())
    }

    /// Brings the held graph in step with the world — building one, as
    /// yet unseen, if none is held — and records nothing. A remembered
    /// route goes whenever links its search read may have changed, and
    /// only then.
    fn sync(&mut self, world: &World<'_>) -> &mut Held {
        let (graph, owes) = match self.held.take() {
            Some(Held { mut graph, mut pending, owes }) => {
                pending.sort_unstable();
                pending.dedup();
                if !pending.is_empty() {
                    if world.worth_patching(&pending) {
                        self.forget_near(&graph, world, &pending);
                        world.patch(&mut graph, &pending);
                    } else {
                        self.links_changed();
                        // One graph at a time: the stale one goes first.
                        drop(graph);
                        graph = self.build(world);
                    }
                }
                (graph, owes)
            }
            None => {
                self.links_changed();
                (self.build(world), Owes::UnseenRebuilt)
            }
        };
        self.held.insert(Held { graph, pending: Vec::new(), owes })
    }

    /// The graph of the world as it stands, with no side effect a trace
    /// or a snapshot can see.
    pub(super) fn peek(&mut self, world: &World<'_>) -> Rc<ConnectivityGraph> {
        if self.rebuild_only && self.held.is_none() {
            return self.build(world);
        }
        Rc::clone(&self.sync(world).graph)
    }

    /// The graph of the world as it stands, announced. Every hop of every
    /// message passes here, so the common case — nothing owed — inlines.
    #[inline]
    #[expect(clippy::expect_used, reason = "`pay` leaves a held graph behind")]
    pub(super) fn access(
        &mut self,
        world: &World<'_>,
        recorder: &Recorder,
    ) -> &Rc<ConnectivityGraph> {
        if !matches!(self.held, Some(Held { owes: Owes::Nothing, .. })) {
            self.pay(world, recorder);
        }
        &self.held.as_ref().expect("paid").graph
    }

    #[cold]
    fn pay(&mut self, world: &World<'_>, recorder: &Recorder) {
        let held = self.sync(world);
        held.owes = Owes::Nothing;
        recorder.record(TraceEvent::GraphRebuilt {
            nodes: held.graph.len() as u64,
            edges: held.graph.link_count() as u64,
        });
    }

    /// The route `src → dst` over the accessed graph, in a buffer to hand
    /// back through [`Topology::recycle`]: the memo's answer when it has
    /// one for the graph as it stands, else a search. Only `shortcuts`
    /// (off on the reference path) lets the search use or earn `dst`'s
    /// table and the memo keep its answer.
    pub(super) fn route(
        &mut self,
        world: &World<'_>,
        recorder: &Recorder,
        src: u32,
        dst: u32,
        shortcuts: bool,
    ) -> Option<Vec<u32>> {
        let graph = Rc::clone(self.access(world, recorder));
        self.route_queries += 1;
        match self.memo.get(src, dst) {
            Some(path) => {
                self.memo_hits += 1;
                debug_assert!(
                    graph.route_idx_with(&mut RouteScratch::new(), src, dst, None).as_deref()
                        == (!path.is_empty()).then_some(path),
                    "a remembered route differs from a fresh search"
                );
                (!path.is_empty()).then(|| {
                    let mut route = self.scratch.take_path();
                    route.extend_from_slice(path);
                    route
                })
            }
            None => {
                let (found, reach) = self.search(&graph, src, dst, shortcuts);
                if shortcuts {
                    let path = found.as_deref().unwrap_or(&[]);
                    self.memo.store(graph.len(), src, dst, path, reach);
                }
                found
            }
        }
    }

    /// A search for `src → dst` on `graph`: bounded by `dst`'s table
    /// when `bound` and the destination has earned one (built here, the
    /// first time it is needed), else unbounded — and then, if `bound`,
    /// what it settled is put toward that table. Returns the answer with
    /// the cells whose lists it depends on: those the search expanded,
    /// or every cell for a bounded search, which skips nodes an
    /// unbounded search on a patched graph could expand.
    fn search(
        &mut self,
        graph: &ConnectivityGraph,
        src: u32,
        dst: u32,
        bound: bool,
    ) -> (Option<Vec<u32>>, CellRect) {
        let n = graph.len();
        let tables = &mut self.tables;
        if bound && tables.spent.is_empty() {
            tables.spent.resize(n, 0);
        }
        // Ski rental: the table costs one search that settles every
        // reachable node, so buy it once renting has cost as much.
        let earned = bound && tables.spent[dst as usize] as usize >= n;
        let table = if earned {
            let k = match tables.dsts.iter().position(|&t| t == dst) {
                Some(k) => k,
                None => {
                    graph.distances_from(&mut self.scratch, dst, &mut tables.dist);
                    tables.dsts.push(dst);
                    self.tables_built += 1;
                    tables.dsts.len() - 1
                }
            };
            Some(&tables.dist[k * n..][..n])
        } else {
            None
        };
        let found = graph.route_idx_with(&mut self.scratch, src, dst, table);
        if earned {
            self.bounded_searches += 1;
            debug_assert!(
                found == graph.route_idx_with(&mut RouteScratch::new(), src, dst, None),
                "a bounded route search diverged from an unbounded one"
            );
            return (found, CellRect::PLANE);
        }
        if bound {
            let spent = &mut tables.spent[dst as usize];
            *spent = spent.saturating_add(self.scratch.settled());
        }
        (found, self.scratch.expanded())
    }

    /// Hands a path from [`Topology::route`] back for reuse.
    pub(super) fn recycle(&mut self, route: Vec<u32>) {
        self.scratch.recycle(route);
    }

    /// Adopts `world`, just restored from a snapshot that recorded
    /// `disposition`. A held graph's retained `(position, alive)` describe
    /// the world its links were computed for, so under the same channel
    /// and partitions (`same_rf_world`) the nodes that differ in those are
    /// what is pending, and the byte is what is owed. A snapshot that had
    /// a graph gets one in step now, silently; one that had none leaves
    /// that to the next access.
    pub(super) fn restore(&mut self, world: &World<'_>, disposition: u8, same_rf_world: bool) {
        self.links_changed();
        let owes = match disposition {
            1 => Owes::Nothing,
            2 => Owes::Rebuilt,
            _ => Owes::UnseenRebuilt,
        };
        let kept = self.held.take().filter(|_| same_rf_world && !self.rebuild_only);
        self.held = kept.map(|Held { graph, .. }| {
            let pending = (0u32..)
                .zip(graph.nodes().iter().zip(world.nodes))
                .filter(|(_, (was, n))| {
                    was.position != n.mobility.position() || was.alive != n.is_up()
                })
                .map(|(i, _)| i)
                .collect();
            Held { graph, pending, owes }
        });
        if disposition > 0 {
            self.sync(world).owes = owes;
        }
    }
}

/// Per destination, the search work toward it on the held graph and, once
/// that work reaches the graph's size, its reverse-distance table. Derived
/// state like [`RouteMemo`], emptied with it, and never filled on the
/// reference path. Clearing keeps every buffer's capacity, so a run that
/// changes topology every tick allocates nothing per tick for this.
#[derive(Debug, Default)]
struct RouteTables {
    /// Per destination index: nodes the unbounded searches toward it have
    /// settled. Empty until the first search after a clear, like the
    /// memo's slots.
    spent: Vec<u32>,
    /// Destinations with a table, in the order they earned it; table `k`
    /// is `dist[k * n..][..n]`.
    dsts: Vec<u32>,
    dist: Vec<f64>,
}

impl RouteTables {
    fn clear(&mut self) {
        self.spent.clear();
        self.dsts.clear();
        self.dist.clear();
    }
}

/// Each source's last routing answer, with the cells its search expanded,
/// valid as long as the lists of the nodes in those cells stand. The same
/// lists and the same `(src, dst)` give the same deterministic search, so
/// an entry *is* the path a fresh search would return. Traffic is
/// convergecast — a sensor reports to one post — so one slot per source
/// is one slot per `(src, dst)` pair.
///
/// Derived state: never serialised, forgotten where a patch can reach
/// it and emptied on any other change of links, and never filled on the
/// reference path.
#[derive(Debug, Default)]
pub(super) struct RouteMemo {
    /// One slot per source index; empty until the first store after a
    /// clear, so clearing is O(1) and a simulator that never transmits
    /// holds nothing.
    slots: Vec<MemoSlot>,
    /// Path node indices, back to back; slots point into it.
    pub(super) arena: Vec<u32>,
    /// Arena entries some slot still points at. A slot overwritten for
    /// a new destination or forgotten at a patch strands its old path
    /// unless the next answer fits there, and a memo can outlive any
    /// number of patches, so the stranded share is bounded in
    /// [`RouteMemo::store`].
    pub(super) live: usize,
}

#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    /// Destination index the answer is for; `u32::MAX` marks a slot
    /// that answers nothing, whose `start` and `len` then name the
    /// stranded path its source's next answer may reuse.
    dst: u32,
    start: u32,
    /// Path length in nodes; 0 records that no route exists.
    len: u32,
    /// The cells whose nodes' lists the answer was read from.
    reach: CellRect,
}

impl MemoSlot {
    const EMPTY: MemoSlot = MemoSlot { dst: u32::MAX, start: 0, len: 0, reach: CellRect::EMPTY };
}

impl RouteMemo {
    pub(super) fn clear(&mut self) {
        self.slots.clear();
        self.arena.clear();
        self.live = 0;
    }

    /// The remembered answer for `src → dst`: `Some(path)` (empty when
    /// no route exists), or `None` when nothing is remembered.
    pub(super) fn get(&self, src: u32, dst: u32) -> Option<&[u32]> {
        let slot = self.slots.get(src as usize).filter(|s| s.dst == dst)?;
        Some(&self.arena[slot.start as usize..][..slot.len as usize])
    }

    /// Remembers `path` (empty: no route) as the answer for `src → dst`
    /// among `n` nodes, read from the lists of the nodes in `reach`.
    pub(super) fn store(&mut self, n: usize, src: u32, dst: u32, path: &[u32], reach: CellRect) {
        // Stranded paths are squeezed out once they outweigh what is live
        // plus a node's worth per source; everything goes only if, in
        // principle, `start` would still not fit its slot.
        if self.arena.len() - self.live > self.live + n {
            self.compact();
        }
        if self.arena.len() + path.len() > u32::MAX as usize {
            self.clear();
        }
        if self.slots.is_empty() {
            self.slots.resize(n, MemoSlot::EMPTY);
        }
        let slot = &mut self.slots[src as usize];
        if slot.dst != u32::MAX {
            self.live -= slot.len as usize;
        }
        self.live += path.len();
        // The source's last path, forgotten or overwritten, takes the new
        // one where it fits: the answer after a patch is usually as long
        // as the one before, so the arena need not grow past what the
        // first round of searches filled.
        let start = if path.len() <= slot.len as usize {
            let start = slot.start as usize;
            self.arena[start..start + path.len()].copy_from_slice(path);
            start
        } else {
            self.arena.extend_from_slice(path);
            self.arena.len() - path.len()
        };
        *slot = MemoSlot { dst, start: start as u32, len: path.len() as u32, reach };
    }

    /// Forgets every answer whose `reach` a change reaches; its path stays
    /// in the arena, stranded, for the source's next answer to reuse.
    pub(super) fn forget(&mut self, reaches: impl Fn(CellRect) -> bool) {
        for slot in &mut self.slots {
            if slot.dst != u32::MAX && reaches(slot.reach) {
                self.live -= slot.len as usize;
                slot.dst = u32::MAX;
            }
        }
    }

    /// Moves every live path to the front of the arena, in arena order
    /// (so each copy goes to or below where it is), and drops the
    /// stranded rest, keeping the capacity.
    fn compact(&mut self) {
        for slot in self.slots.iter_mut().filter(|slot| slot.dst == u32::MAX) {
            *slot = MemoSlot::EMPTY;
        }
        let mut order: Vec<u32> = (0u32..)
            .zip(&self.slots)
            .filter(|(_, slot)| slot.dst != u32::MAX)
            .map(|(src, _)| src)
            .collect();
        order.sort_unstable_by_key(|&src| self.slots[src as usize].start);
        let mut end = 0;
        for src in order {
            let slot = &mut self.slots[src as usize];
            let (start, len) = (slot.start as usize, slot.len as usize);
            self.arena.copy_within(start..start + len, end);
            slot.start = end as u32;
            end += len;
        }
        debug_assert_eq!(end, self.live, "live paths miscounted");
        self.arena.truncate(end);
    }
}

/// The cells a patch changes, counted over their bounding grid as a
/// summed-area table, so whether one lies near a rectangle is four reads.
/// Built afresh for each patch: a table kept from patch to patch is a
/// small allocation made mid-run that outlives everything around it, and
/// it held `netsim_dense`'s peak RSS up (EXPERIMENTS.md, "Forget only
/// what a change can reach").
struct ChangedCells {
    /// The grid's least cell and its width and height in cells.
    x0: i64,
    y0: i64,
    w: usize,
    h: usize,
    /// `(w + 1) × (h + 1)`, row-major: entry `(x, y)` counts the changed
    /// cells left of column `x` and below row `y` of the grid.
    sums: Vec<u32>,
}

impl ChangedCells {
    /// Counts `cells` (at least one), unless their bounding grid has more
    /// than `limit` cells.
    fn count(cells: &[(i32, i32)], limit: usize) -> Option<Self> {
        let (mut x0, mut y0, mut x1, mut y1) = (i32::MAX, i32::MAX, i32::MIN, i32::MIN);
        for &(x, y) in cells {
            (x0, y0, x1, y1) = (x0.min(x), y0.min(y), x1.max(x), y1.max(y));
        }
        let (w, h) = (i64::from(x1) - i64::from(x0) + 1, i64::from(y1) - i64::from(y0) + 1);
        if (w as u64).checked_mul(h as u64).is_none_or(|cells| cells > limit as u64) {
            return None;
        }
        let (x0, y0, w, h) = (i64::from(x0), i64::from(y0), w as usize, h as usize);
        let row = w + 1;
        let mut sums = vec![0u32; row * (h + 1)];
        for &(x, y) in cells {
            let (x, y) = ((i64::from(x) - x0) as usize, (i64::from(y) - y0) as usize);
            sums[(y + 1) * row + x + 1] += 1;
        }
        for y in 1..=h {
            for x in 1..=w {
                let at = y * row + x;
                sums[at] = sums[at] + sums[at - row] + sums[at - 1] - sums[at - row - 1];
            }
        }
        Some(ChangedCells { x0, y0, w, h, sums })
    }

    /// Whether a counted cell lies in `rect` widened by one cell on
    /// every side.
    fn any_within_one_of(&self, rect: CellRect) -> bool {
        let (gx1, gy1) = (self.x0 + self.w as i64 - 1, self.y0 + self.h as i64 - 1);
        let (x0, x1) = ((i64::from(rect.x0) - 1).max(self.x0), (i64::from(rect.x1) + 1).min(gx1));
        let (y0, y1) = ((i64::from(rect.y0) - 1).max(self.y0), (i64::from(rect.y1) + 1).min(gy1));
        if x0 > x1 || y0 > y1 {
            return false;
        }
        let (x0, x1) = ((x0 - self.x0) as usize, (x1 - self.x0) as usize + 1);
        let (y0, y1) = ((y0 - self.y0) as usize, (y1 - self.y0) as usize + 1);
        let row = self.w + 1;
        let sum = |x: usize, y: usize| self.sums[y * row + x];
        sum(x1, y1) + sum(x0, y0) > sum(x0, y1) + sum(x1, y0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Jammer;
    use crate::mobility::{MobilityModel, MobilityState};
    use iobt_types::{EnergyBudget, Point, RadioKind};

    /// A world the slot can be driven over without a `Simulator`.
    struct Field {
        ids: Rc<[NodeId]>,
        index: Rc<BTreeMap<NodeId, u32>>,
        nodes: Vec<NodeRuntime>,
        channel: Channel,
        partitions: Vec<(PartitionSpec, bool)>,
    }

    impl Field {
        /// Eight wifi nodes 80 m apart on a line, a jammer (off) between
        /// nodes 4 and 5 and a registered cut (inactive) between nodes 3
        /// and 4.
        fn new() -> Self {
            let line = (0..8).map(|i| (Point::new(f64::from(i) * 80.0, 0.0), [RadioKind::Wifi]));
            let mut field = Field::of(line, Channel::default());
            let mut jammer = Jammer::new(Point::new(360.0, 20.0), 1.0);
            jammer.active = false;
            field.channel.add_jammer(jammer);
            let cut = PartitionSpec::new([NodeId::new(3)], [NodeId::new(4)]);
            field.partitions.push((cut, false));
            field
        }

        /// One node, up, per `(place, radios)`, over `channel`, with no
        /// partition registered.
        fn of<R: Into<Rc<[RadioKind]>>>(
            nodes: impl IntoIterator<Item = (Point, R)>,
            channel: Channel,
        ) -> Self {
            let nodes: Vec<NodeRuntime> = (0..)
                .zip(nodes)
                .map(|(i, (at, radios))| {
                    let radios: Rc<[RadioKind]> = radios.into();
                    NodeRuntime {
                        id: NodeId::new(i),
                        tx_power_w: radios[0].tx_power_w(),
                        radios,
                        mobility: Self::parked(at),
                        energy: EnergyBudget::new(1_000.0),
                        alive: true,
                    }
                })
                .collect();
            let ids: Rc<[NodeId]> = nodes.iter().map(|n| n.id).collect();
            let index = Rc::new((0u32..).zip(ids.iter()).map(|(i, &id)| (id, i)).collect());
            Field { ids, index, nodes, channel, partitions: Vec::new() }
        }

        fn parked(at: Point) -> MobilityState {
            MobilityState::new(MobilityModel::Static, at)
        }

        fn world(&self) -> World<'_> {
            World {
                ids: &self.ids,
                index: &self.index,
                nodes: &self.nodes,
                channel: &self.channel,
                partitions: &self.partitions,
            }
        }

        /// Toggles the jammer, which must cost or return some link.
        fn toggle_jammer(&mut self) {
            let links = self.scratch().link_count();
            let on = self.channel.jammers()[0].active;
            self.channel.set_jammer_active(0, !on);
            assert_ne!(self.scratch().link_count(), links, "a jammer in name only");
        }

        /// The oracle: a from-scratch public build of the world as it stands.
        fn scratch(&self) -> ConnectivityGraph {
            let nodes: Vec<GraphNode> = self
                .nodes
                .iter()
                .map(|n| GraphNode {
                    id: n.id,
                    position: n.mobility.position(),
                    radios: Rc::clone(&n.radios),
                    alive: n.is_up(),
                })
                .collect();
            let deny = |x, y| self.partitions.iter().any(|(p, on)| *on && p.cuts(x, y));
            ConnectivityGraph::build_filtered(&nodes, &self.channel, &deny)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// One node's liveness flips: a node invalidation.
        Flip(u32),
        /// A tick that moves one node 30 m north / that moves nothing.
        Move(u32),
        EmptyTick,
        /// Channel-wide changes: the jammer or the cut toggles.
        Jam,
        Cut,
        Peek,
        Access,
        /// A restore of the given disposition byte into the world as the
        /// steps before it left it, under the same RF world or — the
        /// jammer toggles, and nothing tells the slot — a different one.
        Restore(u8, bool),
    }

    /// Drives every transition of the slot in the patchable and in the
    /// never-patch mode, checking after each step the disposition byte,
    /// whether a `GraphRebuilt` is owed, the build count, and any graph
    /// held in step against a scratch build.
    #[test]
    fn every_transition_in_both_modes() {
        use Step::*;
        /// `(disposition byte, announcement owed, builds so far)`.
        type After = (u8, bool, u64);
        // (step, [patchable, never-patch])
        #[rustfmt::skip]
        let table: &[(Step, [After; 2])] = &[
            // Nothing held: a change is nothing to remember.
            (Flip(2),          [(0, true, 0),  (0, true, 0)]),
            // Built ahead: kept and unseen, or not kept at all.
            (Peek,             [(0, true, 1),  (0, true, 1)]),
            (Peek,             [(0, true, 1),  (0, true, 2)]),
            (Flip(3),          [(0, true, 1),  (0, true, 2)]),
            (EmptyTick,        [(0, true, 1),  (0, true, 2)]),
            // The first access patches what was built ahead and pays.
            (Access,           [(1, false, 1), (1, false, 3)]),
            (Access,           [(1, false, 1), (1, false, 3)]),
            // An empty tick owes an announcement and relinks nothing.
            (EmptyTick,        [(2, true, 1),  (0, true, 3)]),
            (Peek,             [(2, true, 1),  (0, true, 4)]),
            (Access,           [(1, false, 1), (1, false, 5)]),
            // Liveness is byte 2, movement byte 0, and movement wins.
            (Flip(3),          [(2, true, 1),  (0, true, 5)]),
            (Move(5),          [(0, true, 1),  (0, true, 5)]),
            (Flip(3),          [(0, true, 1),  (0, true, 5)]),
            (Peek,             [(0, true, 1),  (0, true, 6)]),
            (Access,           [(1, false, 1), (1, false, 7)]),
            // Channel-wide: the graph goes, in either mode.
            (Jam,              [(0, true, 1),  (0, true, 7)]),
            (Access,           [(1, false, 2), (1, false, 8)]),
            (Cut,              [(0, true, 2),  (0, true, 8)]),
            (Access,           [(1, false, 3), (1, false, 9)]),
            // A patch under the cut asks the same deny as a build.
            (Flip(3),          [(2, true, 3),  (0, true, 9)]),
            (Access,           [(1, false, 3), (1, false, 10)]),
            (Cut,              [(0, true, 3),  (0, true, 10)]),
            (Access,           [(1, false, 4), (1, false, 11)]),
            // Three of eight pending is past one in four: a build.
            (Flip(0),          [(2, true, 4),  (0, true, 11)]),
            (Flip(1),          [(2, true, 4),  (0, true, 11)]),
            (Flip(6),          [(2, true, 4),  (0, true, 11)]),
            (Access,           [(1, false, 5), (1, false, 12)]),
            // Restores, same RF world: the held graph is patched where the
            // world moved on, and the byte says what is owed.
            (Flip(0),          [(2, true, 5),  (0, true, 12)]),
            (Restore(1, true), [(1, false, 5), (1, false, 13)]),
            (Move(1),          [(0, true, 5),  (0, true, 13)]),
            (Restore(2, true), [(2, true, 5),  (2, true, 14)]),
            (Access,           [(1, false, 5), (1, false, 14)]),
            (Restore(0, true), [(0, true, 5),  (0, true, 14)]),
            (Access,           [(1, false, 5), (1, false, 15)]),
            // A different RF world: built if the snapshot had a graph ...
            (Restore(1, false), [(1, false, 6), (1, false, 16)]),
            (Restore(2, false), [(2, true, 7),  (2, true, 17)]),
            // ... and none held if it had none, from whatever was held.
            (Restore(0, false), [(0, true, 7),  (0, true, 17)]),
            (Restore(0, true), [(0, true, 7),  (0, true, 17)]),
            (Restore(1, true), [(1, false, 8), (1, false, 18)]),
            // Too much changed to patch: built, or dropped at byte 0.
            (Flip(1),          [(2, true, 8),  (0, true, 18)]),
            (Flip(6),          [(2, true, 8),  (0, true, 18)]),
            (Flip(7),          [(2, true, 8),  (0, true, 18)]),
            (Restore(1, true), [(1, false, 9), (1, false, 19)]),
            (Flip(1),          [(2, true, 9),  (0, true, 19)]),
            (Flip(6),          [(2, true, 9),  (0, true, 19)]),
            (Flip(7),          [(2, true, 9),  (0, true, 19)]),
            (Restore(0, true), [(0, true, 9),  (0, true, 19)]),
        ];
        for (mode, rebuild_only) in [false, true].into_iter().enumerate() {
            let mut field = Field::new();
            let mut slot = Topology::new(rebuild_only);
            let (recorder, ring) = Recorder::memory(256);
            let owed = |slot: &Topology| {
                slot.held.as_ref().is_none_or(|held| held.owes != Owes::Nothing)
            };
            for (row, &(step, expected)) in table.iter().enumerate() {
                let at = format!("row {row} {step:?}, rebuild_only = {rebuild_only}");
                let (owed_before, announced_before) = (owed(&slot), ring.records().len());
                match step {
                    Flip(i) => {
                        let node = &mut field.nodes[i as usize];
                        node.alive = !node.alive;
                        slot.invalidate_node(i);
                    }
                    Move(i) => {
                        let node = &mut field.nodes[i as usize];
                        let here = node.mobility.position();
                        node.mobility = Field::parked(Point::new(here.x, here.y + 30.0));
                        slot.invalidate_moved(vec![i]);
                    }
                    EmptyTick => slot.invalidate_moved(Vec::new()),
                    Jam => {
                        field.toggle_jammer();
                        slot.invalidate_all();
                    }
                    Cut => {
                        field.partitions[0].1 ^= true;
                        slot.invalidate_all();
                    }
                    Peek => {
                        let seen = slot.peek(&field.world());
                        assert!(seen.same_topology(&field.scratch()), "{at}");
                    }
                    Access => {
                        let seen = Rc::clone(slot.access(&field.world(), &recorder));
                        assert!(seen.same_topology(&field.scratch()), "{at}");
                    }
                    Restore(byte, same_rf_world) => {
                        if !same_rf_world {
                            field.toggle_jammer();
                        }
                        slot.restore(&field.world(), byte, same_rf_world);
                    }
                }
                assert_eq!((slot.disposition(), owed(&slot), slot.builds()), expected[mode], "{at}");
                if let Some(held) = slot.held.as_ref().filter(|held| held.pending.is_empty()) {
                    let stale = matches!(step, Jam | Cut);
                    assert!(stale || held.graph.same_topology(&field.scratch()), "{at}");
                }
                let announced = ring.records().len() - announced_before;
                let due = matches!(step, Access) && owed_before;
                assert_eq!(announced, usize::from(due), "{at}: only an access pays, once");
            }
        }
    }

    /// The answer a fresh, unbounded search gives, spelled as the memo
    /// keeps it: empty for no route.
    fn fresh(graph: &ConnectivityGraph, src: u32, dst: u32) -> Vec<u32> {
        graph.route_idx_with(&mut RouteScratch::new(), src, dst, None).unwrap_or_default()
    }

    /// `src → dst` through the slot, as the fast path asks it.
    fn ask(slot: &mut Topology, field: &Field, src: u32, dst: u32) -> Vec<u32> {
        let route = slot.route(&field.world(), &Recorder::disabled(), src, dst, true);
        let answer = route.clone().unwrap_or_default();
        if let Some(route) = route {
            slot.recycle(route);
        }
        answer
    }

    /// A route whose answer changes only through a node that stands one
    /// cell beyond every node its search expanded: the patch that brings
    /// that node up must forget the answer, while a change two cells
    /// away keeps it.
    #[test]
    fn a_change_one_cell_beyond_what_a_search_expanded_forgets_its_answer() {
        // Wifi only, so 120 m cells. `s` and `d` share cell (0, 0), 100 m
        // apart; the relay `p`, 56 m from each, stands in cell (0, 1) and
        // starts down; `q`, alone, stands in cell (0, 2).
        let at = [(10.0, 100.0), (110.0, 100.0), (60.0, 125.0), (60.0, 300.0)];
        let nodes = at.map(|(x, y)| (Point::new(x, y), [RadioKind::Wifi]));
        let mut field = Field::of(nodes, Channel::default());
        let (s, d, p, q) = (0, 1, 2, 3);
        field.nodes[p as usize].alive = false;
        let mut slot = Topology::new(false);

        assert_eq!(ask(&mut slot, &field, s, d), [s, d]);
        let reach = slot.memo.slots[s as usize].reach;
        assert_eq!(reach, CellRect { x0: 0, y0: 0, x1: 0, y1: 0 }, "the search expanded `s` alone");
        let cell = |i: u32| {
            slot.held.as_ref().map(|h| h.graph.cell_of(h.graph.nodes()[i as usize].position))
        };
        assert_eq!((cell(p), cell(q)), (Some((0, 1)), Some((0, 2))));

        field.nodes[q as usize].alive = false;
        slot.invalidate_node(q);
        assert_eq!(ask(&mut slot, &field, s, d), [s, d]);
        assert_eq!(slot.route_memo_counts(), (2, 1), "a change two cells away keeps the answer");

        field.nodes[p as usize].alive = true;
        slot.invalidate_node(p);
        assert_eq!(ask(&mut slot, &field, s, d), [s, p, d], "two short hops beat one long one");
        assert_eq!(slot.route_memo_counts(), (3, 1), "a change one cell away forgets it");
    }

    /// Drives a seeded field through thirty patches, asking every
    /// non-sink node's route to one of three sinks between them, and
    /// checks after each patch that every answer the memo kept is the one
    /// a fresh search gives. One field in three is Bluetooth only (25 m
    /// cells), one wifi with some Bluetooth, one wifi with some tactical
    /// UHF (5 km cells), three to eight cells across; a patch moves,
    /// downs or revives one to three nodes. Returns the answers kept and
    /// forgotten across patches.
    fn assert_kept_answers_match(seed: u64) -> (u64, u64) {
        use crate::graph::tests::{seeded_field, SeededField};
        use rand::{rngs::StdRng, Rng};
        let SeededField { mut rng, nodes, terrain, cell, extent } = seeded_field(seed);
        let n = nodes.len() as u32;
        let mut field = Field::of(nodes, Channel::new(terrain));
        let sinks: Vec<u32> = (0..3).map(|_| rng.gen_range(0..n)).collect();
        let mut slot = Topology::new(false);
        let (mut kept, mut forgotten) = (0, 0);
        for step in 0..30 {
            for src in (0..n).filter(|i| !sinks.contains(i)) {
                ask(&mut slot, &field, src, sinks[src as usize % 3]);
            }
            let remembered =
                |slot: &Topology| slot.memo.slots.iter().filter(|s| s.dst != u32::MAX).count();
            let before = remembered(&slot);
            for _ in 0..rng.gen_range(1..=3) {
                let i = rng.gen_range(0..n);
                let node = &mut field.nodes[i as usize];
                if rng.gen_bool(0.5) {
                    node.alive = !node.alive;
                    slot.invalidate_node(i);
                } else {
                    let here = node.mobility.position();
                    let step_m = |v: f64, rng: &mut StdRng| {
                        (v + rng.gen_range(-cell..cell)).clamp(0.0, extent)
                    };
                    node.mobility = Field::parked(Point::new(
                        step_m(here.x, &mut rng),
                        step_m(here.y, &mut rng),
                    ));
                    slot.invalidate_moved(vec![i]);
                }
            }
            let graph = Rc::clone(slot.access(&field.world(), &Recorder::disabled()));
            assert!(graph.same_topology(&field.scratch()), "seed {seed} step {step}");
            let after = remembered(&slot);
            (kept, forgotten) = (kept + after as u64, forgotten + (before - after) as u64);
            for (src, memo) in (0u32..).zip(&slot.memo.slots) {
                if memo.dst != u32::MAX {
                    let answer = slot.memo.get(src, memo.dst).map(<[u32]>::to_vec);
                    assert_eq!(
                        answer,
                        Some(fresh(&graph, src, memo.dst)),
                        "seed {seed} step {step}: {src} -> {}",
                        memo.dst
                    );
                }
            }
        }
        (kept, forgotten)
    }

    #[test]
    fn kept_answers_equal_fresh_searches() {
        let (mut kept, mut forgotten) = (0, 0);
        for seed in 0..6 {
            let (k, f) = assert_kept_answers_match(seed);
            (kept, forgotten) = (kept + k, forgotten + f);
        }
        assert!(kept > 0 && forgotten > 0, "kept {kept}, forgot {forgotten}");
    }

    /// [`kept_answers_equal_fresh_searches`] over 300 seeds; a few
    /// seconds in a release build (`cargo test --release -p iobt-netsim
    /// --lib -- --ignored kept_answers_sweep`).
    #[test]
    #[ignore = "a release-build sweep; CI runs it"]
    fn kept_answers_sweep() {
        let (mut kept, mut forgotten) = (0, 0);
        for seed in 0..300 {
            let (k, f) = assert_kept_answers_match(seed);
            (kept, forgotten) = (kept + k, forgotten + f);
        }
        assert!(kept > 0 && forgotten > 0, "kept {kept}, forgot {forgotten}");
    }

    /// Sources storing, overwriting and losing answers at random: every
    /// answer still live must read back after each store, compactions
    /// included, and the arena must not outgrow what the store rule allows.
    #[test]
    fn a_compaction_keeps_every_live_answer() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 64;
        let mut rng = StdRng::seed_from_u64(5);
        let mut memo = RouteMemo::default();
        let mut want: Vec<Option<(u32, Vec<u32>, CellRect)>> = vec![None; n];
        let mut compactions = 0;
        for round in 0..5_000 {
            let src = rng.gen_range(0..n as u32);
            let dst = rng.gen_range(0..4);
            let path: Vec<u32> =
                (0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..n as u32)).collect();
            let x = rng.gen_range(0..8);
            let reach = CellRect { x0: x, y0: 0, x1: x, y1: 0 };
            let arena = memo.arena.len();
            memo.store(n, src, dst, &path, reach);
            compactions += usize::from(memo.arena.len() < arena);
            // Before the store at most `live + n` were stranded; it added
            // a path and may have stranded one, of at most five nodes each.
            assert!(memo.arena.len() <= 2 * memo.live + n + 10, "round {round}");
            want[src as usize] = Some((dst, path, reach));
            if round % 40 == 0 {
                let cut = rng.gen_range(0..8);
                memo.forget(|reach| reach.x0 == cut);
                for answer in &mut want {
                    answer.take_if(|(_, _, reach)| reach.x0 == cut);
                }
            }
            for (src, answer) in (0u32..).zip(&want) {
                match answer {
                    Some((dst, path, _)) => {
                        assert_eq!(memo.get(src, *dst), Some(&path[..]), "round {round}")
                    }
                    None => assert!(memo.slots[src as usize].dst == u32::MAX, "round {round}"),
                }
            }
        }
        assert!(compactions > 10, "{compactions} compactions");
        let live: usize = want.iter().flatten().map(|(_, path, _)| path.len()).sum();
        assert_eq!(memo.live, live);
    }
}
