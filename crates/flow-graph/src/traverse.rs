//! Reachability and subgraph extraction.
//!
//! The flow indicator `I(u, v; x)` of the paper asks whether `v` is
//! reachable from `u` across the *active* edges of a pseudo-state `x`.
//! [`reachable_filtered`] implements exactly that: a BFS restricted to an
//! edge mask. [`ego_subgraph`] extracts the radius-`r` neighbourhood of a
//! focus node, which the paper uses to bound Twitter experiments
//! (“all users are no more than distance n from this focus”).

use crate::bitset::BitSet;
use crate::graph::{DiGraph, EdgeId, NodeId};

/// Result of a (multi-source) reachability query.
#[derive(Clone, Debug)]
pub struct Reachability {
    /// `reached.get(v)` is true iff node `v` is reachable from the sources
    /// (sources are reachable from themselves).
    pub reached: BitSet,
    /// Nodes in the order they were first reached (sources first).
    pub order: Vec<NodeId>,
}

impl Reachability {
    /// True if `v` was reached.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.reached.get(v.index())
    }

    /// Number of reached nodes, including the sources.
    #[inline]
    pub fn count(&self) -> usize {
        self.order.len()
    }
}

/// BFS from `sources` over all edges of `graph`.
pub fn reachable(graph: &DiGraph, sources: &[NodeId]) -> Reachability {
    reachable_filtered(graph, sources, |_| true)
}

/// BFS from `sources` over the edges for which `active(e)` is true.
///
/// This is the flow-indicator workhorse: with `active = |e| x.get(e)` it
/// computes the set of nodes an information atom reaches under
/// pseudo-state `x` (the derived active-state's node set).
pub fn reachable_filtered(
    graph: &DiGraph,
    sources: &[NodeId],
    active: impl Fn(EdgeId) -> bool,
) -> Reachability {
    let mut reached = BitSet::new(graph.node_count());
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for &s in sources {
        if !reached.get(s.index()) {
            reached.set(s.index(), true);
            order.push(s);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &e in graph.out_edges(u) {
            if !active(e) {
                continue;
            }
            let v = graph.dst(e);
            if !reached.get(v.index()) {
                reached.set(v.index(), true);
                order.push(v);
                queue.push_back(v);
            }
        }
    }
    Reachability { reached, order }
}

/// A reusable BFS scratch buffer for hot loops (avoids reallocating the
/// visited set and queue on every Metropolis–Hastings sample).
///
/// After a search the scratch still holds what it found:
/// [`Self::reached`] is the reach set of a search that ran to the end,
/// and [`Self::path`] is the path a successful
/// [`Self::is_reachable`] found.
#[derive(Clone, Debug)]
pub struct BfsScratch {
    reached: BitSet,
    queue: std::collections::VecDeque<NodeId>,
    /// `parent[v]`: the edge [`Self::is_reachable`] first reached `v` by.
    parent: Vec<EdgeId>,
}

impl BfsScratch {
    /// Creates scratch space for graphs with `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        BfsScratch {
            reached: BitSet::new(node_count),
            queue: std::collections::VecDeque::new(),
            parent: vec![EdgeId(0); node_count],
        }
    }

    /// Returns true iff `target` is reachable from `source` over edges
    /// with `active(e)` true. Early-exits on reaching the target, and
    /// records the edge each node was first reached by, so
    /// [`Self::path`] can return the path found.
    pub fn is_reachable(
        &mut self,
        graph: &DiGraph,
        source: NodeId,
        target: NodeId,
        active: impl Fn(EdgeId) -> bool,
    ) -> bool {
        if source == target {
            return true;
        }
        self.reached.clear();
        self.queue.clear();
        self.reached.set(source.index(), true);
        self.queue.push_back(source);
        while let Some(u) = self.queue.pop_front() {
            for &e in graph.out_edges(u) {
                if !active(e) {
                    continue;
                }
                let v = graph.dst(e);
                if v == target {
                    self.parent[v.index()] = e;
                    return true;
                }
                if !self.reached.get(v.index()) {
                    self.reached.set(v.index(), true);
                    self.parent[v.index()] = e;
                    self.queue.push_back(v);
                }
            }
        }
        false
    }

    /// The edges of the path from `source` to `target` that the last
    /// [`Self::is_reachable`] call found, walked from `target` back to
    /// `source` (empty when they are the same node). Meaningful only
    /// right after that call returned `true` for this pair.
    pub fn path<'a>(
        &'a self,
        graph: &'a DiGraph,
        source: NodeId,
        target: NodeId,
    ) -> impl Iterator<Item = EdgeId> + 'a {
        let mut at = target;
        std::iter::from_fn(move || {
            if at == source {
                return None;
            }
            let e = self.parent[at.index()];
            at = graph.src(e);
            Some(e)
        })
    }

    /// The nodes the last search marked. After [`Self::is_reachable`]
    /// returned `false`, or after [`Self::reach_set`], this is exactly
    /// the set of nodes reachable from the source(s).
    pub fn reached(&self) -> &BitSet {
        &self.reached
    }

    /// Computes the full reachable set from `source` over active edges,
    /// leaving the result in an internal bitset returned by reference.
    pub fn reach_set(
        &mut self,
        graph: &DiGraph,
        sources: &[NodeId],
        active: impl Fn(EdgeId) -> bool,
    ) -> &BitSet {
        self.reached.clear();
        self.queue.clear();
        for &s in sources {
            if !self.reached.get(s.index()) {
                self.reached.set(s.index(), true);
                self.queue.push_back(s);
            }
        }
        while let Some(u) = self.queue.pop_front() {
            for &e in graph.out_edges(u) {
                if !active(e) {
                    continue;
                }
                let v = graph.dst(e);
                if !self.reached.get(v.index()) {
                    self.reached.set(v.index(), true);
                    self.queue.push_back(v);
                }
            }
        }
        &self.reached
    }
}

/// Backward BFS: all nodes from which some node in `targets` is
/// reachable (targets co-reach themselves). The mirror of
/// [`reachable`], walking in-edges; together they bound the
/// *query-relevant* edge set `{(u, v) : u reachable from the sources
/// and v co-reachable to the targets}` that shard routing projects
/// sub-models onto.
pub fn co_reachable(graph: &DiGraph, targets: &[NodeId]) -> Reachability {
    let mut reached = BitSet::new(graph.node_count());
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for &t in targets {
        if !reached.get(t.index()) {
            reached.set(t.index(), true);
            order.push(t);
            queue.push_back(t);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &e in graph.in_edges(v) {
            let u = graph.src(e);
            if !reached.get(u.index()) {
                reached.set(u.index(), true);
                order.push(u);
                queue.push_back(u);
            }
        }
    }
    Reachability { reached, order }
}

/// The query-relevant edge set between `sources` and `targets`: every
/// edge `(u, v)` with `u` reachable from a source and `v` co-reaching a
/// target — exactly the edges lying on some directed source→target
/// path. Under an edge-independent cascade model every other edge's
/// state is independent of the source→target flow indicator, so a
/// sub-model containing this set answers flow queries with the full
/// model's distribution; shard routing unions it per query.
///
/// Edges come back in ascending edge-id order (the order sub-model
/// projection requires).
pub fn relevant_edges(graph: &DiGraph, sources: &[NodeId], targets: &[NodeId]) -> Vec<EdgeId> {
    let fwd = reachable(graph, sources);
    let bwd = co_reachable(graph, targets);
    graph
        .edges()
        .filter(|&e| fwd.contains(graph.src(e)) && bwd.contains(graph.dst(e)))
        .collect()
}

/// A radius-bounded neighbourhood of a focus node, re-indexed as its own
/// compact graph.
#[derive(Clone, Debug)]
pub struct EgoSubgraph {
    /// The extracted subgraph with dense local ids.
    pub graph: DiGraph,
    /// `original[local.index()]` is the node id in the parent graph.
    pub original_nodes: Vec<NodeId>,
    /// `original_edges[local.index()]` is the edge id in the parent graph.
    pub original_edges: Vec<EdgeId>,
    /// Local id of the focus node (always `NodeId(0)`).
    pub focus: NodeId,
}

impl EgoSubgraph {
    /// Maps a parent-graph node to its local id, if included.
    pub fn local_node(&self, original: NodeId) -> Option<NodeId> {
        // `original_nodes` is small (ego nets); linear scan keeps the
        // structure simple. Callers doing bulk mapping should invert once.
        self.original_nodes
            .iter()
            .position(|&n| n == original)
            .map(|i| NodeId(i as u32))
    }
}

/// Direction convention for ego-net expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EgoDirection {
    /// Follow out-edges only (downstream flow from the focus).
    Out,
    /// Follow in-edges only (upstream).
    In,
    /// Treat edges as undirected for the radius computation.
    Both,
}

/// Extracts the subgraph induced by all nodes within `radius` hops of
/// `focus` (per `direction`), including *all* edges of the parent graph
/// whose endpoints both fall inside the ball.
///
/// The focus is local node 0; remaining nodes are numbered in BFS order,
/// making results deterministic.
pub fn ego_subgraph(
    graph: &DiGraph,
    focus: NodeId,
    radius: usize,
    direction: EgoDirection,
) -> EgoSubgraph {
    assert!(focus.index() < graph.node_count(), "focus out of range");
    let mut dist = vec![usize::MAX; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    dist[focus.index()] = 0;
    order.push(focus);
    queue.push_back(focus);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()];
        if d == radius {
            continue;
        }
        let mut visit = |v: NodeId| {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = d + 1;
                order.push(v);
                queue.push_back(v);
            }
        };
        if matches!(direction, EgoDirection::Out | EgoDirection::Both) {
            for &e in graph.out_edges(u) {
                visit(graph.dst(e));
            }
        }
        if matches!(direction, EgoDirection::In | EgoDirection::Both) {
            for &e in graph.in_edges(u) {
                visit(graph.src(e));
            }
        }
    }

    let mut local_of = vec![u32::MAX; graph.node_count()];
    for (i, &v) in order.iter().enumerate() {
        local_of[v.index()] = i as u32;
    }
    let mut b = crate::graph::GraphBuilder::new(order.len());
    let mut original_edges = Vec::new();
    for &u in &order {
        for &e in graph.out_edges(u) {
            let v = graph.dst(e);
            if local_of[v.index()] != u32::MAX {
                b.add_edge(NodeId(local_of[u.index()]), NodeId(local_of[v.index()]))
                    // flow-analyze: allow(L1: parent graph has no duplicate edges, so neither does the ego net)
                    .expect("parent graph has no duplicates, so neither does the ego net");
                original_edges.push(e);
            }
        }
    }
    EgoSubgraph {
        graph: b.build(),
        original_nodes: order,
        original_edges,
        focus: NodeId(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn reachable_full_graph() {
        let g = diamond();
        let r = reachable(&g, &[NodeId(0)]);
        assert_eq!(r.count(), 4);
        assert!(r.contains(NodeId(3)));
        let r2 = reachable(&g, &[NodeId(1)]);
        assert_eq!(r2.count(), 2);
        assert!(!r2.contains(NodeId(2)));
    }

    #[test]
    fn reachable_respects_edge_filter() {
        let g = diamond();
        // Deactivate both edges into node 3.
        let r = reachable_filtered(&g, &[NodeId(0)], |e| g.dst(e) != NodeId(3));
        assert!(!r.contains(NodeId(3)));
        assert_eq!(r.count(), 3);
    }

    #[test]
    fn multi_source_dedups() {
        let g = diamond();
        let r = reachable(&g, &[NodeId(1), NodeId(2), NodeId(1)]);
        assert_eq!(r.count(), 3); // 1, 2, 3
        assert!(!r.contains(NodeId(0)));
    }

    #[test]
    fn scratch_is_reachable_matches_full_bfs() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)]);
        let mut scratch = BfsScratch::new(6);
        assert!(scratch.is_reachable(&g, NodeId(0), NodeId(3), |_| true));
        assert!(!scratch.is_reachable(&g, NodeId(0), NodeId(5), |_| true));
        assert!(scratch.is_reachable(&g, NodeId(4), NodeId(5), |_| true));
        // Reflexive by convention.
        assert!(scratch.is_reachable(&g, NodeId(2), NodeId(2), |_| true));
        // Cut the cycle edge 2->3.
        let cut = g.find_edge(NodeId(2), NodeId(3)).unwrap();
        assert!(!scratch.is_reachable(&g, NodeId(0), NodeId(3), |e| e != cut));
    }

    #[test]
    fn scratch_path_and_reached_describe_the_last_search() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 1), (0, 4), (4, 3)]);
        let mut scratch = BfsScratch::new(6);
        // BFS reaches 3 through 4 (two hops) before it goes via 1, 2.
        assert!(scratch.is_reachable(&g, NodeId(0), NodeId(3), |_| true));
        let path: Vec<EdgeId> = scratch.path(&g, NodeId(0), NodeId(3)).collect();
        let want = [(4, 3), (0, 4)].map(|(u, v)| g.find_edge(NodeId(u), NodeId(v)).unwrap());
        assert_eq!(path, want);
        assert_eq!(scratch.path(&g, NodeId(2), NodeId(2)).count(), 0);
        // With 4 -> 3 off the path runs 0 -> 1 -> 2 -> 3.
        let cut = g.find_edge(NodeId(4), NodeId(3)).unwrap();
        assert!(scratch.is_reachable(&g, NodeId(0), NodeId(3), |e| e != cut));
        assert_eq!(scratch.path(&g, NodeId(0), NodeId(3)).count(), 3);
        // A search that fails ran to the end: `reached` is the reach set.
        assert!(!scratch.is_reachable(&g, NodeId(1), NodeId(0), |_| true));
        let want = reachable(&g, &[NodeId(1)]).reached;
        assert_eq!(scratch.reached(), &want);
    }

    #[test]
    fn scratch_reach_set_reusable() {
        let g = diamond();
        let mut scratch = BfsScratch::new(4);
        let set = scratch.reach_set(&g, &[NodeId(0)], |_| true);
        assert_eq!(set.count_ones(), 4);
        let set2 = scratch.reach_set(&g, &[NodeId(3)], |_| true);
        assert_eq!(set2.count_ones(), 1);
    }

    #[test]
    fn co_reachable_mirrors_reachable() {
        let g = diamond();
        let b = co_reachable(&g, &[NodeId(3)]);
        assert_eq!(b.count(), 4);
        let b1 = co_reachable(&g, &[NodeId(1)]);
        assert_eq!(b1.count(), 2); // 1 and 0
        assert!(b1.contains(NodeId(0)));
        assert!(!b1.contains(NodeId(2)));
        // Forward/backward agreement: u reaches v iff v co-reaches u.
        for u in g.nodes() {
            let fwd = reachable(&g, &[u]);
            for v in g.nodes() {
                assert_eq!(fwd.contains(v), co_reachable(&g, &[v]).contains(u));
            }
        }
    }

    #[test]
    fn co_reachable_multi_target_dedups() {
        let g = diamond();
        let b = co_reachable(&g, &[NodeId(1), NodeId(2), NodeId(1)]);
        assert_eq!(b.count(), 3); // 1, 2, 0
        assert!(!b.contains(NodeId(3)));
    }

    #[test]
    fn relevant_edges_are_exactly_the_path_edges() {
        // diamond 0->1, 0->2, 1->3, 2->3 plus a dangling 3->? none;
        // add a side graph via a bigger fixture.
        let g = crate::graph::graph_from_edges(
            6,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 4)],
        );
        // 0 -> 3: the diamond's four edges, nothing downstream of 3.
        let edges = relevant_edges(&g, &[NodeId(0)], &[NodeId(3)]);
        let ids: Vec<u32> = edges.iter().map(|e| e.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // 0 -> 5 includes the tail chain and the 5->4 back edge (4 is
        // both reachable and co-reaching through the cycle).
        let ids: Vec<u32> = relevant_edges(&g, &[NodeId(0)], &[NodeId(5)])
            .iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
        // Disconnected pair: empty.
        assert!(relevant_edges(&g, &[NodeId(4)], &[NodeId(0)]).is_empty());
        // Ascending order is part of the contract.
        let all = relevant_edges(&g, &[NodeId(0)], &[NodeId(4), NodeId(5)]);
        assert!(all.windows(2).all(|w| w[0].index() < w[1].index()));
    }

    #[test]
    fn ego_radius_zero_is_single_node() {
        let g = diamond();
        let ego = ego_subgraph(&g, NodeId(0), 0, EgoDirection::Out);
        assert_eq!(ego.graph.node_count(), 1);
        assert_eq!(ego.graph.edge_count(), 0);
        assert_eq!(ego.original_nodes, vec![NodeId(0)]);
    }

    #[test]
    fn ego_out_radius_one() {
        let g = diamond();
        let ego = ego_subgraph(&g, NodeId(0), 1, EgoDirection::Out);
        assert_eq!(ego.graph.node_count(), 3); // 0, 1, 2
        assert_eq!(ego.graph.edge_count(), 2); // 0->1, 0->2
        assert_eq!(ego.focus, NodeId(0));
        assert_eq!(ego.original_nodes[0], NodeId(0));
    }

    #[test]
    fn ego_includes_induced_edges() {
        let g = diamond();
        let ego = ego_subgraph(&g, NodeId(0), 2, EgoDirection::Out);
        assert_eq!(ego.graph.node_count(), 4);
        // All four original edges have both endpoints inside.
        assert_eq!(ego.graph.edge_count(), 4);
        assert_eq!(ego.original_edges.len(), 4);
        // Local/original edge correspondence preserves endpoints.
        for le in ego.graph.edges() {
            let (lu, lv) = ego.graph.endpoints(le);
            let oe = ego.original_edges[le.index()];
            assert_eq!(ego.original_nodes[lu.index()], g.src(oe));
            assert_eq!(ego.original_nodes[lv.index()], g.dst(oe));
        }
    }

    #[test]
    fn ego_direction_in_and_both() {
        let g = diamond();
        let ego_in = ego_subgraph(&g, NodeId(3), 1, EgoDirection::In);
        assert_eq!(ego_in.graph.node_count(), 3); // 3, 1, 2
        let ego_both = ego_subgraph(&g, NodeId(1), 1, EgoDirection::Both);
        // Neighbours of 1 in either direction: 0 (in), 3 (out).
        assert_eq!(ego_both.graph.node_count(), 3);
    }

    #[test]
    fn local_node_mapping() {
        let g = diamond();
        let ego = ego_subgraph(&g, NodeId(0), 1, EgoDirection::Out);
        assert_eq!(ego.local_node(NodeId(0)), Some(NodeId(0)));
        assert!(ego.local_node(NodeId(3)).is_none());
    }
}
