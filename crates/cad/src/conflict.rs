//! Per-iteration conflict graphs for parallel negotiated congestion.
//!
//! At the top of each congested PathFinder iteration the router knows
//! exactly which nets must reroute (the incremental rip-up set) and
//! exactly where the fabric is overused (the occupancy array). Two
//! rerouting nets can negotiate **concurrently** without losing
//! Gauss-Seidel feedback precisely when no contested resource is
//! visible to both of them — they are then bargaining over disjoint
//! hotspots, and each one's fresh tree is irrelevant to the other's
//! search outcome *for the congestion being resolved this iteration*.
//!
//! This module builds that independence relation as an explicit
//! **conflict graph**: one vertex per rerouting net, an edge whenever
//! both nets cover some currently-overused node ("hotspot"). *Which*
//! nets cover which hotspots is the caller's call —
//! [`ConflictGraph::from_members`] takes explicit per-hotspot covering
//! sets and makes each a clique. The router's coverage rule pairs
//! **tree-node identity** (the hotspot node sits in the net's current
//! route tree) with **terminal-span overlap** (the hotspot's corner-grid
//! span, [`msaf_fabric::rrg::NodeSpan`], touches one of the net's
//! terminal spans, where its searches are anchored). That pairing is
//! the survivor of two failed geometric generations: whole-tree ribbons
//! (every expanded bounding box in a congested channel overlaps every
//! crossing tree, serializing nets that never touch the same track) and
//! identity alone (adjacent bit-slice nets renegotiating around the
//! same pins pile onto the same detours and thrash). The graph stays
//! deliberately conservative-by-construction in the one case that
//! matters: two nets whose trees share an overused wire always conflict
//! — the wire lies in both trees, hence both covering sets contain both
//! nets — so the symmetric-oscillation livelock that sank naive chunked
//! Jacobi negotiation (PR 4) structurally cannot form inside a color
//! class.
//!
//! [`ConflictGraph::greedy_color`] then colors the graph greedily in
//! vertex order — the caller numbers vertices in its negotiation order
//! (decreasing bounding box), so the hardest nets claim color 0 — and
//! the router routes each color class with the frozen-occupancy chunk
//! discipline: exact Gauss-Seidel *between* classes, safe Jacobi
//! *within*. Everything here is a pure function of the boxes and
//! hotspots, so the schedule — and with it the routing result — is
//! byte-identical at every thread count.

use msaf_fabric::rrg::NodeSpan;

/// True when two corner-grid rectangles share at least one point
/// (touching counts: a wire on the boundary of both boxes is reachable
/// by both nets).
#[inline]
#[must_use]
pub fn overlaps(a: NodeSpan, b: NodeSpan) -> bool {
    a.x_lo <= b.x_hi && b.x_lo <= a.x_hi && a.y_lo <= b.y_hi && b.y_lo <= a.y_hi
}

/// The conflict relation over one iteration's reroute set, as a dense
/// symmetric bit matrix (the sets are small — tens to a few hundred
/// nets — so `n²/64` words beat any sparse structure).
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    n: usize,
    words: usize,
    adj: Vec<u64>,
    edges: u64,
}

impl ConflictGraph {
    /// Builds the graph from explicit per-hotspot covering sets: each
    /// entry of `members` lists the vertices covering one hotspot (any
    /// order, duplicates allowed), and every such set is connected into
    /// a clique — they all may claim or concede the same overused
    /// wires. This is the router's constructor: it decides coverage
    /// itself (tree membership by node identity plus terminal-span
    /// overlap), which no purely geometric test can express.
    ///
    /// Cost is one pairwise pass per clique over sets that shrink every
    /// iteration — noise next to a single net's search.
    #[must_use]
    pub fn from_members(n: usize, members: &[Vec<usize>]) -> Self {
        let words = n.div_ceil(64).max(1);
        let mut g = Self {
            n,
            words,
            adj: vec![0u64; n * words],
            edges: 0,
        };
        for clique in members {
            for (k, &a) in clique.iter().enumerate() {
                for &b in &clique[k + 1..] {
                    if a != b {
                        g.connect(a, b);
                    }
                }
            }
        }
        g
    }

    fn connect(&mut self, a: usize, b: usize) {
        let (wa, ba) = (a * self.words + b / 64, 1u64 << (b % 64));
        if self.adj[wa] & ba == 0 {
            self.adj[wa] |= ba;
            self.adj[b * self.words + a / 64] |= 1u64 << (a % 64);
            self.edges += 1;
        }
    }

    /// Vertex count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of (undirected) conflict edges.
    #[must_use]
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// True when nets `a` and `b` conflict (symmetric; a net never
    /// conflicts with itself).
    #[must_use]
    pub fn conflicts(&self, a: usize, b: usize) -> bool {
        self.adj[a * self.words + b / 64] & (1u64 << (b % 64)) != 0
    }

    /// Greedy proper coloring in vertex order: each vertex takes the
    /// smallest color unused by its already-colored neighbors. Uses at
    /// most `max_degree + 1` colors, and — because the caller orders
    /// vertices by decreasing bounding box — the hardest nets land in
    /// the earliest (first-routed) classes. Deterministic: no
    /// randomness, no tie-breaks, pure function of the graph.
    #[must_use]
    pub fn greedy_color(&self) -> Coloring {
        let mut color = vec![0u32; self.n];
        let mut num_colors = 0u32;
        let mut used: Vec<bool> = Vec::new();
        for i in 0..self.n {
            used.clear();
            used.resize(num_colors as usize + 1, false);
            let row = &self.adj[i * self.words..(i + 1) * self.words];
            for j in 0..i {
                if row[j / 64] & (1u64 << (j % 64)) != 0 {
                    used[color[j] as usize] = true;
                }
            }
            let c = used.iter().position(|&u| !u).expect("one spare slot") as u32;
            color[i] = c;
            num_colors = num_colors.max(c + 1);
        }
        if self.n == 0 {
            num_colors = 0;
        }
        Coloring { color, num_colors }
    }
}

/// A proper coloring of a [`ConflictGraph`]: `color[i]` is vertex `i`'s
/// class, classes are numbered densely from 0.
#[derive(Debug, Clone)]
pub struct Coloring {
    /// Per-vertex color, in the graph's vertex order.
    pub color: Vec<u32>,
    /// Number of distinct colors used (0 only for the empty graph).
    pub num_colors: u32,
}

impl Coloring {
    /// The color classes in color order, each listing its vertices in
    /// vertex order — the router's sequential schedule of concurrent
    /// groups. Every vertex appears in exactly one class.
    #[must_use]
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let mut classes: Vec<Vec<usize>> = vec![Vec::new(); self.num_colors as usize];
        for (i, &c) in self.color.iter().enumerate() {
            classes[c as usize].push(i);
        }
        classes
    }

    /// Size of the largest class — the iteration's exposed parallelism.
    #[must_use]
    pub fn max_class(&self) -> usize {
        let mut counts = vec![0usize; self.num_colors as usize];
        for &c in &self.color {
            counts[c as usize] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(x_lo: u16, y_lo: u16, x_hi: u16, y_hi: u16) -> NodeSpan {
        NodeSpan {
            x_lo,
            y_lo,
            x_hi,
            y_hi,
        }
    }

    /// The geometric coverage rule the router gave up (see the module
    /// docs): net `i` covers a hotspot iff its box overlaps the
    /// hotspot's span. Rectangles make test graphs easy to draw.
    fn build(boxes: &[NodeSpan], hotspots: &[NodeSpan]) -> ConflictGraph {
        let members: Vec<Vec<usize>> = hotspots
            .iter()
            .map(|&h| {
                (0..boxes.len())
                    .filter(|&i| overlaps(boxes[i], h))
                    .collect()
            })
            .collect();
        ConflictGraph::from_members(boxes.len(), &members)
    }

    #[test]
    fn overlap_is_inclusive_and_symmetric() {
        let a = span(0, 0, 2, 2);
        let b = span(2, 2, 4, 4); // touches at (2,2)
        let c = span(3, 0, 5, 1); // disjoint from a
        assert!(overlaps(a, b));
        assert!(overlaps(b, a));
        assert!(!overlaps(a, c));
        assert!(overlaps(a, a));
    }

    #[test]
    fn disjoint_hotspots_give_one_color() {
        // Two nets on opposite corners, each with its own hotspot: no
        // edge, a single class of 2.
        let boxes = [span(0, 0, 2, 2), span(8, 8, 10, 10)];
        let hotspots = [span(1, 1, 1, 1), span(9, 9, 9, 9)];
        let g = build(&boxes, &hotspots);
        assert_eq!(g.edges(), 0);
        assert!(!g.conflicts(0, 1));
        let c = g.greedy_color();
        assert_eq!(c.num_colors, 1);
        assert_eq!(c.max_class(), 2);
        assert_eq!(c.classes(), vec![vec![0, 1]]);
    }

    #[test]
    fn shared_hotspot_serializes_the_clique() {
        // Three nets all covering one hotspot: a triangle, three colors,
        // singleton classes — degenerating to exact Gauss-Seidel.
        let boxes = [span(0, 0, 4, 4); 3];
        let hotspots = [span(2, 2, 2, 2)];
        let g = build(&boxes, &hotspots);
        assert_eq!(g.edges(), 3);
        let c = g.greedy_color();
        assert_eq!(c.num_colors, 3);
        assert_eq!(c.max_class(), 1);
        assert_eq!(c.classes(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn chain_conflicts_two_color() {
        // net0 and net2 both conflict with net1 over different hotspots
        // but not with each other: colors 0,1,0.
        let boxes = [span(0, 0, 4, 1), span(3, 0, 7, 1), span(6, 0, 10, 1)];
        let hotspots = [span(3, 0, 4, 1), span(6, 0, 7, 1)];
        let g = build(&boxes, &hotspots);
        assert!(g.conflicts(0, 1));
        assert!(g.conflicts(1, 2));
        assert!(!g.conflicts(0, 2));
        let c = g.greedy_color();
        assert_eq!(c.num_colors, 2);
        assert_eq!(c.color, vec![0, 1, 0]);
        assert_eq!(c.classes(), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn from_members_ignores_order_and_duplicates() {
        // One hotspot covered by {2, 0, 2}: a single 0–2 edge, vertex 1
        // untouched.
        let g = ConflictGraph::from_members(3, &[vec![2, 0, 2]]);
        assert_eq!(g.edges(), 1);
        assert!(g.conflicts(0, 2));
        assert!(g.conflicts(2, 0));
        assert!(!g.conflicts(0, 1));
        assert!(!g.conflicts(1, 2));
        let c = g.greedy_color();
        assert_eq!(c.num_colors, 2);
        assert_eq!(c.classes(), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn empty_graph() {
        let g = build(&[], &[span(0, 0, 1, 1)]);
        assert!(g.is_empty());
        let c = g.greedy_color();
        assert_eq!(c.num_colors, 0);
        assert_eq!(c.max_class(), 0);
        assert!(c.classes().is_empty());
    }

    #[test]
    fn duplicate_hotspots_do_not_double_count_edges() {
        let boxes = [span(0, 0, 4, 4), span(0, 0, 4, 4)];
        let hotspots = [span(1, 1, 1, 1), span(1, 1, 2, 2)];
        let g = build(&boxes, &hotspots);
        assert_eq!(g.edges(), 1);
    }

    #[test]
    fn coloring_is_proper_on_a_dense_random_ish_pattern() {
        // 65+ vertices to cross the one-word bitset boundary.
        let n = 70usize;
        let boxes: Vec<NodeSpan> = (0..n)
            .map(|i| {
                let x = (i as u16 * 7) % 40;
                let y = (i as u16 * 13) % 40;
                span(x, y, x + 6, y + 6)
            })
            .collect();
        let hotspots: Vec<NodeSpan> = (0..25u16).map(|i| span(i * 2, i, i * 2, i + 1)).collect();
        let g = build(&boxes, &hotspots);
        let c = g.greedy_color();
        for i in 0..n {
            for j in 0..i {
                assert_eq!(g.conflicts(i, j), g.conflicts(j, i), "symmetry {i},{j}");
                if g.conflicts(i, j) {
                    assert_ne!(c.color[i], c.color[j], "edge {i}-{j} monochrome");
                }
            }
        }
        let total: usize = c.classes().iter().map(Vec::len).sum();
        assert_eq!(total, n, "classes must partition the vertex set");
    }
}
