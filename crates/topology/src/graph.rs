//! Weighted router-level graphs and shortest-path computation.
//!
//! Edges carry two weights: a *routing* weight (used to select paths, mirroring
//! the routing-policy weights of the Georgia Tech topology generator) and a
//! *delay* weight (accumulated along the selected path to obtain the one-way
//! network delay). Keeping the two separate lets transit-stub topologies route
//! traffic through transit domains even when a shortcut through a stub domain
//! would have lower delay, exactly as the paper's GATech setup does.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::OnceLock;

use crate::transit_stub::{StubDomain, TransitStub};

/// Index of a router within a [`Graph`].
pub type RouterId = u32;

/// A single directed edge of the router graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Destination router.
    pub to: RouterId,
    /// Weight used by shortest-path routing (policy weight).
    pub routing_weight: f64,
    /// One-way delay accumulated when a packet traverses this edge, in
    /// microseconds.
    pub delay_us: u64,
}

/// An undirected weighted multigraph of routers.
///
/// The graph is built incrementally with [`Graph::add_edge`] and then frozen
/// into a [`DelayMatrix`] with [`DelayMatrix::lazy`] (or, for a transit-stub
/// topology, [`DelayMatrix::transit_stub`]).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<Edge>>,
}

impl Graph {
    /// Creates an empty graph with `n` routers and no links.
    pub fn with_routers(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of routers in the graph.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` if the graph has no routers.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds a new isolated router and returns its id.
    pub fn add_router(&mut self) -> RouterId {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as RouterId
    }

    /// Adds an undirected link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range, or if the weights are not finite
    /// and positive.
    pub fn add_edge(&mut self, a: RouterId, b: RouterId, routing_weight: f64, delay_us: u64) {
        assert!(
            routing_weight.is_finite() && routing_weight > 0.0,
            "routing weight must be finite and positive"
        );
        assert!((a as usize) < self.adj.len(), "router {a} out of range");
        assert!((b as usize) < self.adj.len(), "router {b} out of range");
        self.adj[a as usize].push(Edge {
            to: b,
            routing_weight,
            delay_us,
        });
        self.adj[b as usize].push(Edge {
            to: a,
            routing_weight,
            delay_us,
        });
    }

    /// Neighbours of router `r`.
    pub fn edges(&self, r: RouterId) -> &[Edge] {
        &self.adj[r as usize]
    }

    /// Single-source shortest paths from `src` by routing weight; returns the
    /// *delay* accumulated along the selected path for every destination.
    ///
    /// Unreachable routers get `u64::MAX`.
    pub fn shortest_delays_from(&self, src: RouterId) -> Vec<u64> {
        self.shortest_delays_within(src, 0..self.adj.len() as RouterId)
    }

    /// [`Graph::shortest_delays_from`] restricted to the routers in `range`:
    /// edges leaving the range are ignored. Entry `i` of the result is the
    /// delay to router `range.start + i`.
    ///
    /// Ties between equal routing weights break by router id, so when every
    /// path that leaves `range` can only come back through the edge it left
    /// by, the restricted search selects the same paths as the full one.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not in `range`.
    pub(crate) fn shortest_delays_within(&self, src: RouterId, range: Range<RouterId>) -> Vec<u64> {
        assert!(range.contains(&src), "source {src} outside {range:?}");
        let lo = range.start;
        let n = range.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut delay = vec![u64::MAX; n];
        // Heap keyed on routing weight; f64 is not Ord so store total ordering
        // through bit conversion (all values are non-negative finite).
        let mut heap: BinaryHeap<Reverse<(u64, RouterId)>> = BinaryHeap::new();
        dist[(src - lo) as usize] = 0.0;
        delay[(src - lo) as usize] = 0;
        heap.push(Reverse((0, src)));
        while let Some(Reverse((dbits, u))) = heap.pop() {
            let d = f64::from_bits(dbits);
            let ui = (u - lo) as usize;
            if d > dist[ui] {
                continue;
            }
            for e in &self.adj[u as usize] {
                if !range.contains(&e.to) {
                    continue;
                }
                let vi = (e.to - lo) as usize;
                let nd = d + e.routing_weight;
                if nd < dist[vi] {
                    dist[vi] = nd;
                    delay[vi] = delay[ui].saturating_add(e.delay_us);
                    heap.push(Reverse((nd.to_bits(), e.to)));
                }
            }
        }
        delay
    }

    /// Computes one source row of the delay matrix, clamped to `u32`.
    fn delay_row(&self, src: RouterId) -> Box<[u32]> {
        self.shortest_delays_from(src)
            .into_iter()
            .map(clamp_u32)
            .collect()
    }

    /// The `k × k` delay table of the routers in `range` (`k` its length),
    /// row-major by source, from searches restricted to `range`.
    fn delay_table_within(&self, range: Range<RouterId>) -> Box<[u32]> {
        range
            .clone()
            .flat_map(|src| self.shortest_delays_within(src, range.clone()))
            .map(clamp_u32)
            .collect()
    }

    /// Returns `true` if every router can reach every other router.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for e in &self.adj[u as usize] {
                if !seen[e.to as usize] {
                    seen[e.to as usize] = true;
                    count += 1;
                    stack.push(e.to);
                }
            }
        }
        count == self.adj.len()
    }
}

/// Saturates a path delay to the `u32` the delay tables store.
fn clamp_u32(d: u64) -> u32 {
    d.min(u32::MAX as u64) as u32
}

/// Backing storage of a [`DelayMatrix`].
#[derive(Debug, Clone)]
enum Table {
    /// Rows computed on first use: a run only ever asks about the routers
    /// its overlay nodes attach to, so the lazy form stores the graph and
    /// fills rows on demand.
    Lazy {
        graph: Graph,
        rows: Vec<OnceLock<Box<[u32]>>>,
    },
    /// A transit-stub graph's delays composed from small tables.
    Composed(Box<Composed>),
}

/// Delays of a transit-stub graph as a composition: one table per stub
/// domain plus one core matrix over the transit routers, each filled on
/// first use.
///
/// Within a stub the delay is the stub's table entry. Otherwise it is
/// `up(a) + core[tr(a)][tr(b)] + down(b)`, where `up(a)` climbs from `a` to
/// its gateway and over the core link to its transit router `tr(a)`, and
/// `down(b)` is the same descent to `b`; a transit router is its own
/// `tr` and contributes 0. Each stub has exactly one core link, so a full
/// shortest-path search from any source settles each part's routers in the
/// same (distance, id) order as a search restricted to that part, offset by
/// a constant: the composition is exact, not an approximation. (Routing
/// weights are small integers, so the f64 distances are exact.)
#[derive(Debug, Clone)]
struct Composed {
    graph: Graph,
    transit_routers: u32,
    stubs: Vec<StubDomain>,
    /// Stub index of every router from `transit_routers` on.
    stub_of: Vec<u32>,
    /// Per stub, its `len × len` table, row-major by source.
    stub_tables: Vec<OnceLock<Box<[u32]>>>,
    /// The `T × T` table of the transit routers.
    core: OnceLock<Box<[u32]>>,
}

impl Composed {
    /// Entry `(a, b)` of stub `s`'s table.
    fn intra(&self, s: usize, a: RouterId, b: RouterId) -> u64 {
        let stub = &self.stubs[s];
        let table =
            self.stub_tables[s].get_or_init(|| self.graph.delay_table_within(stub.routers()));
        table[((a - stub.first) * stub.len + (b - stub.first)) as usize] as u64
    }

    /// The stub index of router `r`, or `None` for a transit router.
    fn stub_index(&self, r: RouterId) -> Option<usize> {
        r.checked_sub(self.transit_routers)
            .map(|i| self.stub_of[i as usize] as usize)
    }

    fn delay_us(&self, a: RouterId, b: RouterId) -> u64 {
        let (sa, sb) = (self.stub_index(a), self.stub_index(b));
        if let (Some(x), Some(y)) = (sa, sb) {
            if x == y {
                return self.intra(x, a, b);
            }
        }
        let (ta, up) = match sa {
            None => (a, 0),
            Some(x) => {
                let s = &self.stubs[x];
                let up = self.intra(x, a, s.gateway).saturating_add(s.link_delay_us);
                (s.transit, up)
            }
        };
        let (tb, down) = match sb {
            None => (b, 0),
            Some(y) => {
                let s = &self.stubs[y];
                (
                    s.transit,
                    s.link_delay_us.saturating_add(self.intra(y, s.gateway, b)),
                )
            }
        };
        let t = self.transit_routers;
        let core = self
            .core
            .get_or_init(|| self.graph.delay_table_within(0..t));
        let mid = core[(ta * t + tb) as usize] as u64;
        clamp_u32(up.saturating_add(mid).saturating_add(down)) as u64
    }

    /// Source rows held by the filled tables: a stub table holds its
    /// routers' rows, the core matrix the transit routers'.
    fn rows_materialized(&self) -> usize {
        let stubs: usize = self
            .stubs
            .iter()
            .zip(&self.stub_tables)
            .filter(|(_, t)| t.get().is_some())
            .map(|(s, _)| s.len as usize)
            .sum();
        stubs + self.core.get().map_or(0, |_| self.transit_routers as usize)
    }
}

/// Matrix of one-way delays between all router pairs, in microseconds.
///
/// Either lazily materialised per source row (any graph), or composed from
/// per-stub tables and a core matrix (transit-stub graphs); both forms fill
/// on first use, and every delay equals that of
/// [`Graph::shortest_delays_from`] and is deterministic.
#[derive(Debug, Clone)]
pub struct DelayMatrix {
    n: usize,
    table: Table,
}

impl DelayMatrix {
    /// Wraps `graph` as a lazily materialised delay matrix: no shortest-path
    /// work happens until a source router's row is first queried.
    pub fn lazy(graph: Graph) -> Self {
        let n = graph.len();
        DelayMatrix {
            n,
            table: Table::Lazy {
                graph,
                rows: (0..n).map(|_| OnceLock::new()).collect(),
            },
        }
    }

    /// Wraps a generated transit-stub topology as a composed delay matrix:
    /// no shortest-path work happens until a query first reads a stub's
    /// table or the core matrix. Its delays equal those of
    /// [`Graph::shortest_delays_from`] on the whole graph.
    pub fn transit_stub(ts: TransitStub) -> Self {
        let (n, t) = (ts.graph.len(), ts.transit_routers as usize);
        let mut stub_of = Vec::with_capacity(n.saturating_sub(t));
        for (i, s) in ts.stubs.iter().enumerate() {
            assert_eq!(s.first as usize, t + stub_of.len(), "stubs out of id order");
            stub_of.extend(std::iter::repeat_n(i as u32, s.len as usize));
        }
        assert_eq!(
            t + stub_of.len(),
            n,
            "stubs must cover the non-transit routers"
        );
        DelayMatrix {
            n,
            table: Table::Composed(Box::new(Composed {
                graph: ts.graph,
                transit_routers: ts.transit_routers,
                stub_tables: ts.stubs.iter().map(|_| OnceLock::new()).collect(),
                stubs: ts.stubs,
                stub_of,
                core: OnceLock::new(),
            })),
        }
    }

    /// Number of routers covered by the matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matrix covers no routers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of source rows currently materialised: the filled rows of a
    /// lazy matrix, and for a composed one the routers whose table (their
    /// stub's, or the core matrix) is filled.
    /// Diagnostic for memory accounting.
    pub fn rows_materialized(&self) -> usize {
        match &self.table {
            Table::Lazy { rows, .. } => rows.iter().filter(|r| r.get().is_some()).count(),
            Table::Composed(c) => c.rows_materialized(),
        }
    }

    /// One-way delay from `a` to `b` in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if either router id is out of range.
    #[inline]
    pub fn delay_us(&self, a: RouterId, b: RouterId) -> u64 {
        assert!((a as usize) < self.n && (b as usize) < self.n);
        match &self.table {
            Table::Lazy { graph, rows } => {
                let row = rows[a as usize].get_or_init(|| graph.delay_row(a));
                row[b as usize] as u64
            }
            Table::Composed(c) => c.delay_us(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(n: usize) -> Graph {
        let mut g = Graph::with_routers(n);
        for i in 0..n - 1 {
            g.add_edge(i as u32, i as u32 + 1, 1.0, 1000);
        }
        g
    }

    #[test]
    fn line_graph_delays_accumulate() {
        let g = line_graph(5);
        let d = g.shortest_delays_from(0);
        assert_eq!(d, vec![0, 1000, 2000, 3000, 4000]);
    }

    #[test]
    fn routing_weight_overrides_delay() {
        // Two routes 0->2: direct edge with huge routing weight but tiny delay,
        // and a two-hop route with small routing weights but big delays. The
        // policy weight must win path selection.
        let mut g = Graph::with_routers(3);
        g.add_edge(0, 2, 100.0, 1);
        g.add_edge(0, 1, 1.0, 500);
        g.add_edge(1, 2, 1.0, 500);
        let d = g.shortest_delays_from(0);
        assert_eq!(d[2], 1000, "path via router 1 should be selected");
    }

    #[test]
    fn apsp_is_symmetric_for_undirected_graphs() {
        let m = DelayMatrix::lazy(line_graph(6));
        for a in 0..6u32 {
            for b in 0..6u32 {
                assert_eq!(m.delay_us(a, b), m.delay_us(b, a));
            }
        }
    }

    #[test]
    fn unreachable_is_max() {
        let mut g = Graph::with_routers(2);
        g.add_router();
        g.add_edge(0, 1, 1.0, 10);
        let d = g.shortest_delays_from(0);
        assert_eq!(d[2], u64::MAX);
        assert!(!g.is_connected());
    }

    #[test]
    fn connected_line_is_connected() {
        assert!(line_graph(10).is_connected());
    }

    #[test]
    fn pair_delay_is_the_link_delay() {
        let m = DelayMatrix::lazy(line_graph(2));
        assert_eq!((m.delay_us(0, 1), m.delay_us(1, 0)), (1000, 1000));
        assert_eq!((m.delay_us(0, 0), m.delay_us(1, 1)), (0, 0));
    }

    #[test]
    fn restricted_search_ignores_edges_leaving_the_range() {
        // 0-1-2-3 with a cheap detour 1-4-2 outside the range 0..4.
        let mut g = line_graph(4);
        g.add_router();
        g.add_edge(1, 4, 0.1, 1);
        g.add_edge(4, 2, 0.1, 1);
        assert_eq!(g.shortest_delays_from(0), vec![0, 1000, 1002, 2002, 1001]);
        assert_eq!(g.shortest_delays_within(0, 0..4), vec![0, 1000, 2000, 3000]);
        assert_eq!(g.shortest_delays_within(2, 1..3), vec![1000, 0]);
    }

    #[test]
    fn lazy_matrix_matches_dijkstra() {
        let mut g = line_graph(8);
        g.add_edge(0, 7, 3.0, 2500);
        g.add_edge(2, 5, 1.5, 700);
        let lazy = DelayMatrix::lazy(g.clone());
        assert_eq!(lazy.rows_materialized(), 0);
        for a in 0..8u32 {
            let expected = g.shortest_delays_from(a);
            for b in 0..8u32 {
                assert_eq!(lazy.delay_us(a, b), expected[b as usize]);
            }
            assert_eq!(lazy.rows_materialized(), a as usize + 1);
        }
    }

    #[test]
    #[should_panic]
    fn negative_weight_rejected() {
        let mut g = Graph::with_routers(2);
        g.add_edge(0, 1, -1.0, 10);
    }

    #[test]
    fn triangle_inequality_holds_for_shortest_paths() {
        // Shortest-path *routing weights* obey the triangle inequality; the
        // accumulated delays do too when routing weight == delay.
        let mut g = Graph::with_routers(4);
        g.add_edge(0, 1, 2.0, 2000);
        g.add_edge(1, 2, 2.0, 2000);
        g.add_edge(0, 2, 5.0, 5000);
        g.add_edge(2, 3, 1.0, 1000);
        let m = DelayMatrix::lazy(g);
        for a in 0..4u32 {
            for b in 0..4u32 {
                for c in 0..4u32 {
                    assert!(m.delay_us(a, b) <= m.delay_us(a, c) + m.delay_us(c, b));
                }
            }
        }
    }
}
