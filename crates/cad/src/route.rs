//! PathFinder negotiated-congestion routing over the fabric's routing
//! resource graph.
//!
//! Classic iteration: route every net by an A*-guided Dijkstra with a
//! cost that mixes a unit base cost, *present* congestion (sharing
//! this iteration) and *history* (sharing in past iterations); rip up
//! and repeat with rising congestion pressure until no wire is shared:
//!
//! ```text
//! cost(node) = (1 + history) · (1 + pres_fac · occupancy)   (wires)
//! cost(node) = 1 + history                                   (pins, pads)
//! ```
//!
//! `pres_fac` starts at 1 and grows 1.8× per iteration; each overused
//! node's history grows by 0.4 per extra user, per iteration.
//!
//! # Search guidance
//!
//! * **A\* lookahead** ([`RouteOptions::astar_fac`]): each wavefront
//!   expansion is ordered by `g + astar_fac × h`, where `h` is the
//!   Manhattan gap from the node's corner-grid extent
//!   ([`msaf_fabric::rrg::NodeSpan`]) to the nearest remaining sink.
//!   Every hop traverses at most one corner unit and costs at least the
//!   unit base cost, so with `astar_fac ≤ 1.0` the heuristic stays
//!   admissible: the first sink popped carries exactly the cost
//!   Dijkstra would have found, only with far fewer heap pops.
//!   `astar_fac = 0.0` degenerates to the uninformed Dijkstra of the
//!   original implementation, bit-for-bit — the route goldens pin that
//!   mode.
//! * **Net ordering**: on congested iterations the rip-up set is
//!   rerouted in decreasing bounding-box half-perimeter, so the nets with
//!   the fewest routing alternatives (the long, channel-crossing ones)
//!   negotiate for wires first and short nets detour around them — the
//!   classic PathFinder ordering refinement. The first iteration keeps
//!   request order, so conflict-free runs are unaffected.
//!
//! # Deterministic chunked parallelism
//!
//! The **first** iteration — every net, by far the bulk of the search
//! work, conflict-free end state in the common case — processes its
//! route list in **chunks** of [`RouteOptions::chunk`] nets. A chunk
//! routes every member against the **frozen** occupancy left by earlier
//! chunks (read-only, so the members can be searched concurrently by
//! [`RouteOptions::threads`] workers with per-thread scratch — the
//! calling thread plus scoped spawns, none at one thread), then merges
//! all new trees back into the occupancy in request order.
//! Because every search is a deterministic function of the frozen view,
//! the routing result — trees, wirelength, iterations, rip-ups, even
//! the `nodes_popped` counter — is **byte-identical at every thread
//! count**; threads only change wall time. Thread scheduling physically
//! cannot leak into results: workers share nothing mutable but an
//! atomic work cursor and disjoint result slots (pinned by
//! `tests/route_goldens.rs` across thread counts).
//!
//! # Colored negotiation in congested iterations
//!
//! Congested iterations (the rip-up subsets, small under incremental
//! rip-up) cannot use fixed-size chunks: routing a whole negotiation
//! round against one frozen view (Jacobi-style) lets symmetric nets
//! oscillate in lockstep and never resolve — identical nets pick
//! identical detours every round, so congestion chases itself forever
//! (PR 4 tried and abandoned exactly that). But full net-by-net
//! Gauss-Seidel serializes nets that are *not even negotiating over the
//! same wires*. The router therefore builds a per-iteration
//! **conflict graph** ([`crate::conflict`]): two rerouting nets
//! conflict iff they *cover* a common currently-overused node, where a
//! net covers a hotspot when the hotspot node sits **in its current
//! tree** (node identity — so nets sharing an overused wire always
//! conflict) or the hotspot's span overlaps one of its terminal spans
//! (its searches are anchored there). A deterministic
//! greedy coloring in the negotiation order (decreasing bounding box)
//! partitions the reroute set into classes of mutually independent
//! nets; each class is then routed as one frozen-occupancy chunk and
//! merged before the next class starts — exact Gauss-Seidel *between*
//! classes, safe Jacobi *within*. The symmetric-oscillation livelock
//! cannot recur (symmetric conflicts share an overused wire, so they
//! land in different classes), and because the schedule is a pure
//! function of occupancy and geometry the results stay byte-identical
//! at every thread count. When every class degenerates to a singleton
//! (a fully-conflicted hotspot) the schedule *is* the historical
//! net-by-net discipline, bit for bit.
//!
//! `chunk = 1` degenerates to the historical fully-serial discipline
//! everywhere: net-by-net Gauss-Seidel in every iteration, no conflict
//! graphs built (the escape hatch the route goldens pin); the default
//! chunk of 16 trades a congestion view at most 15 nets stale in
//! iteration one for chunk-wide parallelism, plus colored negotiation
//! in the congested iterations.
//!
//! # Timing-driven cost
//!
//! [`route_timed`] accepts a [`TimingSource`] — per-connection
//! criticalities in `[0, 1]` (see `timing::RouteTimingCtx`) — and
//! blends the PathFinder congestion cost with a delay cost, VPR-style:
//!
//! ```text
//! cost(node) = crit · delay(node) + (1 − crit) · congestion(node)
//! ```
//!
//! where `delay(node)` is [`WIRE_DELAY`] for wires and zero for
//! pins/pads, and `crit` is the search's effective criticality —
//! `timing_fac × max(criticality of the remaining sinks)`, capped at
//! [`MAX_CRIT`] so congestion never fully vanishes from the cost (a
//! fully delay-driven net would never concede a wire and negotiation
//! could livelock). Critical connections therefore buy short paths and
//! ignore congestion pressure; slack-rich connections detour around
//! them.
//!
//! After **every** iteration — not within one — the router extracts
//! each connection's actual routed wire delay from the grown trees and
//! hands them to [`TimingSource::update`], so the next iteration's
//! criticalities reflect real detours, not estimates. Within an
//! iteration the criticalities are frozen: chunk members route against
//! one consistent timing view (updating mid-iteration would make the
//! result depend on chunk scheduling, breaking the determinism
//! contract above).
//!
//! With `timing_fac = 0.0` the blend is skipped entirely and every
//! cost, pop count and tree is **bit-identical** to the untimed router
//! — the escape hatch the route goldens pin, exactly like
//! `astar_fac = 0` pins the reference Dijkstra. The A* lookahead stays
//! admissible under the blend: every hop's blended cost is at least
//! `1 − crit` (the unit base cost, discounted), so the heuristic is
//! scaled by the same factor.
//!
//! # Hot-path design
//!
//! * The per-sink search keeps **no hash maps**: `dist`/`prev` are
//!   dense arrays indexed by [`NodeId`] and invalidated in O(1) between
//!   searches by a generation stamp, so nothing is cleared or
//!   reallocated across the thousands of searches a routing run performs.
//! * Sink membership ("is this node a remaining target?") and route-tree
//!   membership are the same kind of stamped dense array, replacing the
//!   `Vec::contains` scans of the first implementation.
//! * Expansion walks **wires only**. The graph stores each node's
//!   adjacent wires and nothing else ([`Rrg::adjacent_wires`]); with the
//!   paper preset's `fc_in = 1` a wire touches about four times as many
//!   pins as wires, and a search may enter none of those pins but its
//!   own net's sinks. So when a net collects its targets it stamps each
//!   pin or pad target's wires as **portals**, and popping a portal
//!   relaxes the remaining targets adjacent to it, in increasing node id.
//! * The push order is what a walk over the full adjacency would give.
//!   A wire's full neighbour list is its wires in link order followed by
//!   its pins and pads in increasing id (the graph's list-order
//!   invariant, pinned in `msaf-fabric`). Of those pins and pads, only a
//!   remaining target is enterable, and a tree member sits at distance
//!   0, so it is never relaxed. Every heap push therefore happens in the
//!   order, and with the priority, of a search over the full adjacency:
//!   trees, `nodes_popped`, rip-ups and every digest are the same as
//!   that search's at any thread count (the route goldens pin them).
//! * Rip-up, merge and the delay walk test [`Rrg::is_wire`], an id
//!   comparison, instead of loading a node kind.
//! * Rip-up is **incremental** (the standard PathFinder refinement):
//!   after the first iteration only nets whose trees touch an overused
//!   node are ripped up and rerouted; legal nets keep their trees and
//!   their occupancy. On conflict-free placements this converges in the
//!   same iteration count as full rip-up, and it never does more work.
//!   [`RouteStats`] reports how often it fired.
//! * Heap ordering uses [`f64::total_cmp`] — with `partial_cmp(..)
//!   .unwrap_or(Equal)` a single NaN cost would silently corrupt the
//!   priority queue's invariants and misroute everything after it.

use crate::conflict::{overlaps, ConflictGraph};
use msaf_fabric::bitstream::RouteTree;
use msaf_fabric::rrg::{NodeId, NodeSpan, Rrg};
use msaf_trace::Tracer;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

/// Routed-interconnect delay of one wire segment, in the timing model's
/// LE-delay units (pins and pads are free). One unit keeps routed delay
/// equal to per-connection wirelength, so timing and wirelength reports
/// stay directly comparable.
pub const WIRE_DELAY: u64 = 1;

/// Cap on the effective criticality entering the blended cost: even the
/// most critical connection keeps a sliver of congestion cost, so rising
/// `pres_fac` can always arbitrate two critical nets fighting over one
/// wire (at `crit = 1` they would both ignore congestion forever).
pub const MAX_CRIT: f64 = 0.99;

/// Growth of the present-congestion factor `pres_fac` per PathFinder
/// iteration.
pub(crate) const PRES_FAC_MULT: f64 = 1.8;

/// History added to an overused node per extra user, per iteration.
pub(crate) const HIST_FAC: f64 = 0.4;

/// Per-connection criticality provider for [`route_timed`].
///
/// Implementations must be [`Sync`]: during a chunked iteration the
/// worker threads all read criticalities concurrently. The router calls
/// [`TimingSource::update`] strictly between iterations, from the
/// coordinating thread.
pub trait TimingSource: Sync {
    /// Recompute slacks from actual routed delays. `delays[ri][si]` is
    /// the wire count (multiply by [`WIRE_DELAY`] for delay units) on
    /// the routed path from request `ri`'s source to its sink `si`,
    /// aligned with [`RouteRequest::sinks`]. Called once after every
    /// PathFinder iteration.
    fn update(&mut self, delays: &[Vec<u64>]);

    /// Criticalities of request `request`'s sinks, aligned with
    /// [`RouteRequest::sinks`]; every value in `[0, 1]`. An empty slice
    /// means "no timing information" (criticality 0 everywhere).
    fn crit(&self, request: usize) -> &[f64];
}

/// One net to route.
#[derive(Debug, Clone)]
pub struct RouteRequest {
    /// Design net name (for reports and errors).
    pub net: String,
    /// Source node (`Opin` or input `Pad`).
    pub source: NodeId,
    /// Sink nodes (`Ipin`s / output `Pad`s).
    pub sinks: Vec<NodeId>,
}

/// Router tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouteOptions {
    /// Maximum rip-up iterations before giving up.
    pub max_iterations: usize,
    /// A* lookahead strength: the heap is ordered by `g + astar_fac × h`
    /// with `h` the Manhattan corner-grid gap to the nearest remaining
    /// sink ([`NodeSpan::manhattan_to`]).
    ///
    /// `0.0` disables the lookahead and reproduces the uninformed
    /// Dijkstra bit-for-bit (the reference mode pinned by the route
    /// goldens). Values in `(0.0, 1.0]` are **admissible** — identical
    /// route costs, fewer heap pops; values above `1.0` trade optimality
    /// for speed (not used by default).
    pub astar_fac: f64,
    /// Worker threads routing each chunk's nets concurrently. Any value
    /// (including 1, the default) produces byte-identical results for a
    /// fixed [`Self::chunk`]; threads only change wall time.
    pub threads: usize,
    /// Nets per first-iteration chunk (the unit of deterministic
    /// occupancy merging — see the module docs). At `2` or more,
    /// congested iterations route conflict-graph color classes; `1` is
    /// the historical serial discipline, net-by-net in every iteration.
    /// The default 16 gives chunk-wide parallelism with a congestion
    /// view at most 15 nets stale.
    pub chunk: usize,
    /// Timing-driven blend strength in `[0, 1]`: each search's cost is
    /// `c·delay + (1−c)·congestion` with
    /// `c = timing_fac × criticality` (capped at [`MAX_CRIT`]).
    ///
    /// `0.0` (the default) skips the blend entirely and reproduces the
    /// untimed router **bit-for-bit** even when a [`TimingSource`] is
    /// attached — the reference mode pinned by the route goldens. Only
    /// meaningful through [`route_timed`]; plain [`route`] has no
    /// criticality source and always behaves as `0.0`.
    pub timing_fac: f64,
}

impl RouteOptions {
    /// Ceiling for [`Self::auto_threads`]: workers beyond the default
    /// chunk width can never all have work, and the deterministic
    /// merge discipline gains nothing past this.
    pub const MAX_AUTO_THREADS: usize = 8;

    /// Default options with [`Self::threads`] set from the host's
    /// [`std::thread::available_parallelism`], clamped to
    /// `1..=MAX_AUTO_THREADS`. Results are byte-identical to the
    /// single-threaded default at any clamp outcome (the determinism
    /// contract), so this is always safe to use where wall time
    /// matters — `msafc` and the bench timing loops do. The plain
    /// [`Default`] keeps `threads = 1` so every pinned golden and
    /// committed snapshot is reproduced on any host.
    #[must_use]
    pub fn auto_threads() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            threads: threads.clamp(1, Self::MAX_AUTO_THREADS),
            ..Self::default()
        }
    }
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            max_iterations: 40,
            astar_fac: 1.0,
            threads: 1,
            chunk: 16,
            timing_fac: 0.0,
        }
    }
}

/// Routing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// A sink was unreachable from its source (disconnected graph or
    /// exhausted capacity).
    Unreachable {
        /// The net.
        net: String,
    },
    /// Congestion did not resolve within the iteration budget.
    Unroutable {
        /// Wires still overused at the end.
        overused: usize,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Unreachable { net } => write!(f, "net '{net}' has unreachable sinks"),
            RouteError::Unroutable { overused } => {
                write!(f, "congestion unresolved: {overused} wires overused")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Search-effort counters for one routing run — the observables the
/// stress benchmarks track (`bench_summary` writes them to
/// `BENCH_cad.json`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Total heap pops across every per-sink search (the router's unit
    /// of work; the A* lookahead exists to shrink this). Identical at
    /// every thread count: each net's search effort depends only on the
    /// chunk's frozen occupancy view, never on scheduling.
    pub nodes_popped: u64,
    /// Nets ripped up and rerouted after the first iteration (0 on a
    /// conflict-free run — incremental rip-up never fired).
    pub ripups: u64,
    /// Total conflict-graph color classes across all congested
    /// iterations — the number of sequential negotiation groups the
    /// colored schedule ran after iteration one. 0 when the run never
    /// congested, or under `chunk = 1` (which never builds conflict
    /// graphs). `conflict_colors / ripups` is the serialized-conflict
    /// fraction: 1.0 means every reroute was its own group (fully
    /// serial, the historical discipline), values near 0 mean the
    /// congested work was almost entirely parallelizable.
    pub conflict_colors: u64,
    /// Largest single color class across all congested iterations — the
    /// peak exposed parallelism of the colored schedule (0 when no
    /// conflict graph was built).
    pub max_class: u64,
}

/// Result of a successful routing run.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// One tree per request, in request order.
    pub trees: Vec<RouteTree>,
    /// PathFinder iterations used.
    pub iterations: usize,
    /// Search-effort counters.
    pub stats: RouteStats,
}

/// A grown route tree: `(node, parent)` pairs in discovery order
/// (source first, parent `None`).
type NetTree = Vec<(NodeId, Option<NodeId>)>;

/// One chunk member's result slot: `None` = not yet routed, then the
/// [`route_net`] outcome (`None` inside = unreachable).
type ResultSlot = Mutex<Option<Option<(NetTree, u64)>>>;

/// Max-heap entry ordered for a min-heap (reversed compare) on the A*
/// priority `f = g + h`, with a deterministic node-id tie-break; the
/// plain path cost `g` rides along for the staleness check. With a zero
/// heuristic `f == g` and the order is exactly the original Dijkstra's.
/// `total_cmp` keeps the heap invariant even if a cost goes NaN (it then
/// sorts greatest, surfacing the bug as a bad route instead of silent
/// queue corruption).
struct Entry {
    f: f64,
    g: f64,
    node: NodeId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The chunk-constant part of the PathFinder cost function: history
/// and pressure (occupancy is passed alongside — it is the one input
/// that changes at chunk granularity).
struct CostModel<'a> {
    history: &'a [f64],
    pres_fac: f64,
    /// [`RouteOptions::astar_fac`], the admissible per-hop scale of the
    /// lookahead (zero disables it, reproducing plain Dijkstra).
    h_scale: f64,
    /// [`RouteOptions::timing_fac`]; zero bypasses the blend entirely.
    timing_fac: f64,
}

impl CostModel<'_> {
    /// Cost of entering node `index` with occupancy `occ`; only a wire
    /// (congestion-managed — pins and pads are dedicated by
    /// construction) pays for occupancy.
    #[inline]
    fn node_cost(&self, wire: bool, index: usize, occ: u32) -> f64 {
        let present = if wire {
            1.0 + self.pres_fac * f64::from(occ)
        } else {
            1.0
        };
        (1.0 + self.history[index]) * present
    }

    /// The timing-blended cost: `c·delay + (1−c)·congestion`, where `c`
    /// is the search's effective criticality (already scaled by
    /// `timing_fac` and capped). `c = 0.0` takes the congestion cost
    /// unchanged — bit-identical to the untimed router.
    #[inline]
    fn blended_cost(&self, wire: bool, index: usize, occ: u32, crit: f64) -> f64 {
        let cong = self.node_cost(wire, index, occ);
        if crit == 0.0 {
            return cong;
        }
        let delay = if wire { WIRE_DELAY as f64 } else { 0.0 };
        crit * delay + (1.0 - crit) * cong
    }
}

/// Dense, generation-stamped scratch shared by every Dijkstra run of a
/// routing invocation (one per worker thread). `dist`/`prev` entries are
/// valid only when the node's `search_stamp` matches the current search;
/// tree, target and portal membership likewise against per-net stamps —
/// so starting a new search or net is a counter increment, not an O(n)
/// clear.
struct Scratch {
    dist: Vec<f64>,
    prev: Vec<NodeId>,
    search_stamp: Vec<u32>,
    search: u32,
    in_tree_stamp: Vec<u32>,
    target_stamp: Vec<u32>,
    /// Wires adjacent to a pin or pad target of the current net: the
    /// only nodes whose expansion can enter a pin or pad.
    portal_stamp: Vec<u32>,
    net: u32,
    heap: BinaryHeap<Entry>,
    /// Remaining sinks of the current net, in increasing node id, with
    /// their corner-grid spans and criticalities — the A* heuristic's
    /// target set (pruned as sinks are reached).
    targets: Vec<(NodeId, NodeSpan, f64)>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![0.0; n],
            prev: vec![NodeId::default(); n],
            search_stamp: vec![0; n],
            search: 0,
            in_tree_stamp: vec![0; n],
            target_stamp: vec![0; n],
            portal_stamp: vec![0; n],
            net: 0,
            heap: BinaryHeap::new(),
            targets: Vec::new(),
        }
    }

    #[inline]
    fn dist_of(&self, n: NodeId) -> f64 {
        if self.search_stamp[n.index()] == self.search {
            self.dist[n.index()]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn in_tree(&self, n: NodeId) -> bool {
        self.in_tree_stamp[n.index()] == self.net
    }

    #[inline]
    fn is_target(&self, n: NodeId) -> bool {
        self.target_stamp[n.index()] == self.net
    }

    #[inline]
    fn is_portal(&self, n: NodeId) -> bool {
        self.portal_stamp[n.index()] == self.net
    }

    /// Relaxes `v` to path cost `nd` through `u` if that improves it,
    /// pushing it onto the heap at priority `nd` plus its lookahead.
    #[inline]
    fn relax(&mut self, u: NodeId, v: NodeId, nd: f64, h_scale: f64, spans: &[NodeSpan]) {
        if nd < self.dist_of(v) {
            let vi = v.index();
            self.search_stamp[vi] = self.search;
            self.dist[vi] = nd;
            self.prev[vi] = u;
            self.heap.push(Entry {
                f: nd + self.lookahead(h_scale, spans[vi]),
                g: nd,
                node: v,
            });
        }
    }

    /// A* lookahead: `h_scale ×` the Manhattan corner-grid gap from
    /// `span` to the nearest remaining sink. Zero when the lookahead is
    /// disabled (keeping the search bit-identical to plain Dijkstra).
    #[inline]
    fn lookahead(&self, h_scale: f64, span: NodeSpan) -> f64 {
        if h_scale == 0.0 {
            return 0.0;
        }
        let mut best = u32::MAX;
        for &(_, ts, _) in &self.targets {
            best = best.min(span.manhattan_to(ts));
        }
        h_scale * f64::from(best)
    }
}

/// Bounding-box half-perimeter of a request (source plus all sinks), in
/// corner units — the congested-iteration ordering key: big boxes have
/// the fewest detour options and negotiate first.
fn bbox_half_perimeter(rrg: &Rrg, req: &RouteRequest) -> u32 {
    let s = rrg.span(req.source);
    let (mut x_lo, mut y_lo, mut x_hi, mut y_hi) = (s.x_lo, s.y_lo, s.x_hi, s.y_hi);
    for &sink in &req.sinks {
        let t = rrg.span(sink);
        x_lo = x_lo.min(t.x_lo);
        y_lo = y_lo.min(t.y_lo);
        x_hi = x_hi.max(t.x_hi);
        y_hi = y_hi.max(t.y_hi);
    }
    u32::from(x_hi - x_lo) + u32::from(y_hi - y_lo)
}

/// Routes all `requests` over `rrg`.
///
/// # Errors
///
/// See [`RouteError`].
pub fn route(
    rrg: &Rrg,
    requests: &[RouteRequest],
    opts: &RouteOptions,
) -> Result<RoutingResult, RouteError> {
    route_impl(rrg, requests, opts, None, &Tracer::default())
}

/// Timing-driven routing: like [`route`], but each search's cost blends
/// wire delay with congestion according to the per-connection
/// criticalities of `timing` (see the module docs). After every
/// iteration the actual routed per-sink wire delays are fed back
/// through [`TimingSource::update`], so slacks track real detours; the
/// final update reflects the returned trees exactly.
///
/// With [`RouteOptions::timing_fac`] `= 0.0` the routing result is
/// bit-identical to [`route`] — `timing` then only *measures* (its
/// updates still run, so post-route slack reports stay available).
///
/// # Errors
///
/// See [`RouteError`].
pub fn route_timed(
    rrg: &Rrg,
    requests: &[RouteRequest],
    opts: &RouteOptions,
    timing: &mut dyn TimingSource,
) -> Result<RoutingResult, RouteError> {
    route_impl(rrg, requests, opts, Some(timing), &Tracer::default())
}

/// The fully-instrumented entry point: [`route_timed`] (or [`route`],
/// when `timing` is `None`) plus a [`Tracer`] that receives one
/// `route.iteration` event per PathFinder iteration (overuse, rip-ups,
/// nodes popped, colors), `route.class` spans around every negotiation
/// group — on the worker threads actually routing them — and explicit
/// `route.serial_discipline` / `route.chunk_capped` events whenever the
/// router declines to parallelize. Tracing is observation only: results
/// are byte-identical to the untraced entry points, sink or no sink
/// (pinned by `tests/trace_determinism.rs`).
///
/// # Errors
///
/// See [`RouteError`].
pub fn route_traced(
    rrg: &Rrg,
    requests: &[RouteRequest],
    opts: &RouteOptions,
    timing: Option<&mut dyn TimingSource>,
    tracer: &Tracer,
) -> Result<RoutingResult, RouteError> {
    route_impl(rrg, requests, opts, timing, tracer)
}

fn route_impl(
    rrg: &Rrg,
    requests: &[RouteRequest],
    opts: &RouteOptions,
    mut timing: Option<&mut dyn TimingSource>,
    tracer: &Tracer,
) -> Result<RoutingResult, RouteError> {
    let n = rrg.len();
    let threads = opts.threads.max(1);
    let chunk_size = opts.chunk.max(1);
    let mut history = vec![0.0f64; n];
    let mut occupancy = vec![0u32; n];
    let mut trees: Vec<Option<NetTree>> = vec![None; requests.len()];
    let mut pres_fac = 1.0f64;
    // One search scratch per worker (workers beyond the chunk size could
    // never get work).
    let mut scratches: Vec<Scratch> = (0..threads.min(chunk_size))
        .map(|_| Scratch::new(n))
        .collect();
    let mut popped = 0u64;
    let mut ripups = 0u64;
    let mut conflict_colors = 0u64;
    let mut max_class = 0u64;
    // Nets to (re)route this iteration; all of them, in request order, on
    // the first.
    let mut reroute: Vec<usize> = (0..requests.len()).collect();
    // Congested-iteration ordering key, computed lazily on first rip-up.
    let mut bbox: Vec<u32> = Vec::new();
    // Timing measurement state, allocated only when a source is attached
    // (plain `route` pays nothing).
    let mut delays: Vec<Vec<u64>> = if timing.is_some() {
        requests.iter().map(|r| vec![0u64; r.sinks.len()]).collect()
    } else {
        Vec::new()
    };
    let mut walk = DelayWalk::new(if timing.is_some() { n } else { 0 });

    for iteration in 0..opts.max_iterations {
        // Per-iteration trace deltas (the totals keep accumulating).
        let ripups_before = ripups;
        let popped_before = popped;
        let mut iter_colors = 0u32;
        let cm = CostModel {
            history: &history,
            pres_fac,
            h_scale: opts.astar_fac,
            timing_fac: opts.timing_fac.clamp(0.0, 1.0),
        };
        // Criticalities are frozen for the whole iteration (workers read
        // them concurrently; updating mid-iteration would make results
        // depend on group scheduling).
        let tview: Option<&dyn TimingSource> = timing.as_deref();
        // This iteration's schedule: an ordered sequence of *groups*.
        // Every group's members route against the frozen occupancy left
        // by the groups before it, then merge in member order — exact
        // Gauss-Seidel between groups, safe Jacobi within. The schedule
        // depends only on the options, the reroute list, and the
        // current occupancy/trees — never on thread count — so results
        // are byte-identical at any parallelism.
        let groups: Vec<Vec<usize>> = if iteration == 0 {
            // First iteration: strided chunks, never coarser than
            // 1/MIN_CHUNKS of the route list — small dense workloads
            // keep (nearly) serial congestion feedback, while
            // fabric-scale lists reach the full chunk width. Chunk `j`
            // takes every `nchunks`-th net starting at `j`: consecutive
            // requests are the nets most likely to collide (dual-rail
            // mates of one signal, bits of one bus — identical
            // terminals), so spreading them across different chunks
            // keeps sequential congestion feedback exactly where it
            // matters, while each chunk's members are spatially
            // scattered and nearly independent.
            const MIN_CHUNKS: usize = 16;
            let eff_chunk = chunk_size.min((reroute.len() / MIN_CHUNKS).max(1));
            if eff_chunk < chunk_size {
                // Why parallelism did not engage at full width: committed
                // traces must explain the cap, not silently drop to it.
                tracer.event("route.chunk_capped", || {
                    vec![
                        ("iteration", iteration.into()),
                        ("requested_chunk", chunk_size.into()),
                        ("effective_chunk", eff_chunk.into()),
                        ("nets", reroute.len().into()),
                        (
                            "reason",
                            "len/16 floor: chunks never coarser than 1/16 of the route list".into(),
                        ),
                    ]
                });
            }
            let nchunks = reroute.len().div_ceil(eff_chunk).max(1);
            (0..nchunks)
                .map(|j| reroute.iter().copied().skip(j).step_by(nchunks).collect())
                .collect()
        } else if chunk_size >= 2 {
            // Colored negotiation (see the module docs): nets that
            // don't cover a common currently-overused node can
            // renegotiate concurrently with no feedback loss. The graph
            // is built in reroute order (decreasing bounding box), so
            // class 0 leads with the hardest nets; a fully conflicted
            // hotspot degenerates to singleton classes — the historical
            // net-by-net discipline, bit for bit.
            let spans = rrg.spans();
            // Hotspots: the currently-overused nodes, densely indexed;
            // `hot_of` maps node index → hotspot index.
            let mut hot_of = vec![u32::MAX; n];
            let mut hotspots: Vec<NodeSpan> = Vec::new();
            for i in 0..n {
                if occupancy[i] > 1 {
                    hot_of[i] = u32::try_from(hotspots.len()).expect("hotspots fit u32");
                    hotspots.push(spans[i]);
                }
            }
            // Coverage — which hotspots each net negotiates over:
            // (a) overused nodes **in the net's current tree**, by node
            //     identity — the livelock guarantee (nets sharing an
            //     overused wire always conflict, so symmetric
            //     oscillation cannot hide inside a class), and
            // (b) hotspots whose span overlaps a terminal span — the
            //     net's searches are anchored there and will contest
            //     those wires wherever its old tree ran.
            // Geometric ribbons around whole trees (or expanded
            // terminals) proved far too coarse: every wire in a
            // congested channel overlaps every tree crossing that
            // channel, serializing nets that never touch the same
            // track. Tree-identity alone proved too loose: adjacent
            // bit-slice nets renegotiating around the same pins pile
            // onto the same detours and thrash for extra iterations.
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); hotspots.len()];
            let mut terminals: Vec<NodeSpan> = Vec::new();
            for (vi, &ri) in reroute.iter().enumerate() {
                for &(node, _) in trees[ri].as_deref().unwrap_or(&[]) {
                    let h = hot_of[node.index()];
                    if h != u32::MAX {
                        let m = &mut members[h as usize];
                        if m.last() != Some(&vi) {
                            m.push(vi);
                        }
                    }
                }
                terminals.clear();
                terminals.push(rrg.span(requests[ri].source));
                for &sink in &requests[ri].sinks {
                    terminals.push(rrg.span(sink));
                }
                for (h, &hs) in hotspots.iter().enumerate() {
                    if terminals.iter().any(|&t| overlaps(t, hs)) {
                        let m = &mut members[h];
                        if m.last() != Some(&vi) {
                            m.push(vi);
                        }
                    }
                }
            }
            let graph = ConflictGraph::from_members(reroute.len(), &members);
            let coloring = graph.greedy_color();
            tracer.event("route.conflict_coloring", || {
                let mut sizes: Vec<usize> = coloring.classes().iter().map(Vec::len).collect();
                sizes.sort_unstable_by(|a, b| b.cmp(a));
                vec![
                    ("iteration", iteration.into()),
                    ("rerouted", reroute.len().into()),
                    ("hotspots", hotspots.len().into()),
                    ("edges", graph.edges().into()),
                    ("colors", coloring.num_colors.into()),
                    ("sizes", format!("{sizes:?}").into()),
                ]
            });
            iter_colors = coloring.num_colors;
            conflict_colors += u64::from(coloring.num_colors);
            max_class = max_class.max(coloring.max_class() as u64);
            coloring
                .classes()
                .into_iter()
                .map(|class| class.into_iter().map(|i| reroute[i]).collect())
                .collect()
        } else {
            // `chunk = 1`: the historical fully-serial Gauss-Seidel
            // discipline — the goldens' escape hatch, no conflict graph.
            tracer.event("route.serial_discipline", || {
                vec![
                    ("iteration", iteration.into()),
                    ("rerouted", reroute.len().into()),
                    (
                        "reason",
                        "chunk=1: historical net-by-net Gauss-Seidel, no conflict graph".into(),
                    ),
                ]
            });
            reroute.iter().map(|&ri| vec![ri]).collect()
        };
        // One worker loop at every thread count: the coordinating thread
        // routes alongside `min(threads, chunk, largest group) − 1`
        // spawned workers, so a one-thread run, or an iteration of
        // single-net groups, spawns nothing.
        let lanes = scratches
            .len()
            .min(groups.iter().map(Vec::len).max().unwrap_or(0))
            .max(1);
        if lanes == 1 {
            tracer.event("route.serial_execution", || {
                let reason = if scratches.len() < 2 {
                    "one worker: threads=1 or chunk=1"
                } else {
                    "no group holds 2+ nets"
                };
                vec![("iteration", iteration.into()), ("reason", reason.into())]
            });
        }
        route_groups(
            rrg,
            requests,
            &groups,
            &cm,
            tview,
            &mut occupancy,
            &mut trees,
            &mut scratches[..lanes],
            &mut popped,
            &mut ripups,
            tracer,
        )?;

        // Slack recomputation happens between — never within —
        // iterations: hand the actual routed per-sink wire delays to the
        // timing source so the next iteration's criticalities (and the
        // final summary) reflect real detours.
        if let Some(t) = timing.as_deref_mut() {
            collect_routed_delays(rrg, requests, &reroute, &trees, &mut walk, &mut delays);
            t.update(&delays);
        }

        // Congestion check + history update.
        let mut overused = 0usize;
        for i in 0..n {
            if occupancy[i] > 1 {
                overused += 1;
                history[i] += HIST_FAC * f64::from(occupancy[i] - 1);
            }
        }
        // One event per PathFinder iteration — the converged final
        // iteration included — plus counter tracks for the trajectory.
        tracer.event("route.iteration", || {
            vec![
                ("iteration", iteration.into()),
                ("rerouted", reroute.len().into()),
                ("overuse", overused.into()),
                ("ripups", (ripups - ripups_before).into()),
                ("nodes_popped", (popped - popped_before).into()),
                ("colors", iter_colors.into()),
            ]
        });
        tracer.counter("route.overuse", overused as u64);
        tracer.counter("route.ripups", ripups);
        tracer.counter("route.nodes_popped", popped);
        if overused == 0 {
            let trees = trees
                .iter()
                .zip(requests)
                .map(|(t, req)| to_route_tree(rrg, req, t.as_ref().expect("routed")))
                .collect();
            return Ok(RoutingResult {
                trees,
                iterations: iteration + 1,
                stats: RouteStats {
                    nodes_popped: popped,
                    ripups,
                    conflict_colors,
                    max_class,
                },
            });
        }
        pres_fac *= PRES_FAC_MULT;

        // Incremental rip-up: only nets whose trees touch an overused
        // node reroute next iteration; legal nets keep their resources.
        reroute.clear();
        for (ri, tree) in trees.iter().enumerate() {
            let touches = tree
                .as_ref()
                .expect("all nets routed")
                .iter()
                .any(|(node, _)| occupancy[node.index()] > 1);
            if touches {
                reroute.push(ri);
            }
        }
        // Congested-iteration net ordering: biggest bounding box first —
        // those nets cross the most channels and have the fewest
        // alternatives, so they claim wires before short nets fill in
        // around them. Request index breaks ties for determinism.
        if bbox.is_empty() {
            bbox = requests
                .iter()
                .map(|req| bbox_half_perimeter(rrg, req))
                .collect();
        }
        reroute.sort_by_key(|&ri| (std::cmp::Reverse(bbox[ri]), ri));
    }

    let overused = occupancy.iter().filter(|&&o| o > 1).count();
    Err(RouteError::Unroutable { overused })
}

/// Routes one whole grouped iteration: this thread plus one scoped
/// worker per further scratch, spawned **once** (not once per group —
/// thread creation is far too expensive to re-pay 16+ times per routing
/// call); with one scratch nothing is spawned. The rounds are phased by
/// a [`Barrier`]: between two barrier waits everyone (the coordinator —
/// this thread — included) pulls group members off an atomic cursor and
/// routes them against a read-locked occupancy; between rounds the
/// coordinator alone write-locks to merge the finished trees and rip up
/// the next group's old ones. Workers share only the cursor, the
/// per-slot result mutexes (disjoint — one writer each) and the frozen
/// occupancy, so scheduling cannot influence results; the merge order
/// is the coordinator's deterministic member order.
///
/// On an unreachable net the coordinator records the error and stops
/// opening rounds (the cursor is never reset, so workers fall through
/// the remaining barriers without work); the error reported is the
/// first failure in group-member order at every thread count.
#[allow(clippy::too_many_arguments)]
fn route_groups(
    rrg: &Rrg,
    requests: &[RouteRequest],
    groups: &[Vec<usize>],
    cm: &CostModel<'_>,
    timing: Option<&dyn TimingSource>,
    occupancy: &mut Vec<u32>,
    trees: &mut [Option<NetTree>],
    scratches: &mut [Scratch],
    popped: &mut u64,
    ripups: &mut u64,
    tracer: &Tracer,
) -> Result<(), RouteError> {
    // Slots sized for the largest group.
    let max_group = groups.iter().map(Vec::len).max().unwrap_or(0);
    let slots: Vec<ResultSlot> = (0..max_group).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(usize::MAX / 2); // no work until a round opens
    let barrier = Barrier::new(scratches.len());
    let occ = RwLock::new(std::mem::take(occupancy));
    let (main_scratch, workers) = scratches.split_first_mut().expect("at least one scratch");
    let mut err: Option<RouteError> = None;

    // One round's work phase: route group `j` members off the cursor
    // against the frozen occupancy. Shared by workers and coordinator.
    // The span is emitted on whichever thread runs the round, so a
    // trace shows each color class once per participating worker lane.
    let run_round = |j: usize, scratch: &mut Scratch| {
        let _class_span = tracer.span_args("route.class", || {
            vec![("class", j.into()), ("size", groups[j].len().into())]
        });
        let occ_g = occ.read().expect("occupancy lock");
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&ri) = groups[j].get(k) else {
                break;
            };
            let res = route_net(
                rrg,
                &requests[ri],
                &occ_g,
                cm,
                crit_for(timing, ri),
                scratch,
            );
            *slots[k].lock().expect("result slot") = Some(res);
        }
    };
    let run_round = &run_round;

    std::thread::scope(|s| {
        for scratch in workers.iter_mut() {
            let barrier = &barrier;
            s.spawn(move || {
                for j in 0..groups.len() {
                    barrier.wait();
                    run_round(j, scratch);
                    barrier.wait();
                }
            });
        }

        // Coordinator: rip up group 0 before the first round opens.
        let rip = |j: usize, occ_g: &mut [u32], trees: &mut [Option<NetTree>], rips: &mut u64| {
            for &ri in &groups[j] {
                if let Some(tree) = trees[ri].take() {
                    *rips += 1;
                    for (node, _) in tree {
                        if rrg.is_wire(node) {
                            occ_g[node.index()] -= 1;
                        }
                    }
                }
            }
        };
        rip(0, &mut occ.write().expect("occupancy lock"), trees, ripups);

        for j in 0..groups.len() {
            if err.is_none() {
                cursor.store(0, Ordering::Relaxed);
            }
            barrier.wait();
            if err.is_none() {
                run_round(j, main_scratch);
            }
            barrier.wait();
            if err.is_some() {
                continue;
            }
            // Exclusive phase: merge group j in member order, then rip
            // up group j+1 — workers are parked at the next barrier.
            let mut occ_g = occ.write().expect("occupancy lock");
            for (k, &ri) in groups[j].iter().enumerate() {
                let res = slots[k].lock().expect("result slot").take();
                match res.expect("group member routed") {
                    Some((tree, pops)) => {
                        *popped += pops;
                        for (node, _) in &tree {
                            if rrg.is_wire(*node) {
                                occ_g[node.index()] += 1;
                            }
                        }
                        trees[ri] = Some(tree);
                    }
                    None => {
                        err = Some(RouteError::Unreachable {
                            net: requests[ri].net.clone(),
                        });
                        break;
                    }
                }
            }
            if err.is_none() && j + 1 < groups.len() {
                rip(j + 1, &mut occ_g, trees, ripups);
            }
        }
    });

    *occupancy = occ.into_inner().expect("occupancy lock");
    err.map_or(Ok(()), Err)
}

/// The per-sink criticalities of request `ri`, or the empty slice (all
/// zero) without a timing source.
fn crit_for(timing: Option<&dyn TimingSource>, ri: usize) -> &[f64] {
    timing.map_or(&[], |t| t.crit(ri))
}

/// Dense generation-stamped scratch for walking routed trees sink→source
/// when extracting per-connection delays (sized 0 when no timing source
/// is attached — the untimed path never touches it).
struct DelayWalk {
    stamp: Vec<u32>,
    parent: Vec<NodeId>,
    gen: u32,
}

impl DelayWalk {
    fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            parent: vec![NodeId::default(); n],
            gen: 0,
        }
    }
}

/// Extracts each connection's routed wire count (source→sink, wires
/// only — pins and pads are delay-free) from the grown trees into
/// `out[ri][si]`, aligned with every request's sink list.
///
/// Only the nets in `routed` — the ones (re)routed this iteration — are
/// walked: `out` persists across iterations, and a net that kept its
/// tree kept its delays. Iteration 0 routes every net, so every row is
/// filled before the first [`TimingSource::update`].
fn collect_routed_delays(
    rrg: &Rrg,
    requests: &[RouteRequest],
    routed: &[usize],
    trees: &[Option<NetTree>],
    walk: &mut DelayWalk,
    out: &mut [Vec<u64>],
) {
    for &ri in routed {
        let req = &requests[ri];
        let tree = trees[ri].as_ref().expect("all nets routed");
        walk.gen = walk.gen.wrapping_add(1);
        if walk.gen == 0 {
            walk.stamp.fill(0);
            walk.gen = 1;
        }
        for &(node, parent) in tree {
            walk.stamp[node.index()] = walk.gen;
            // The source (parent `None`) points at itself, terminating
            // the walk-back.
            walk.parent[node.index()] = parent.unwrap_or(node);
        }
        for (si, &sink) in req.sinks.iter().enumerate() {
            debug_assert_eq!(walk.stamp[sink.index()], walk.gen, "sink not in tree");
            let mut cur = sink;
            let mut wires = 0u64;
            loop {
                if rrg.is_wire(cur) {
                    wires += 1;
                }
                let p = walk.parent[cur.index()];
                if p == cur {
                    break;
                }
                cur = p;
            }
            out[ri][si] = wires;
        }
    }
}

/// A\*-grown route tree for one net: returns `(node, parent)` pairs in
/// discovery order (source first, parent `None`) plus the heap pops its
/// searches cost, or `None` when a sink is unreachable. Each per-sink
/// search is Dijkstra guided by [`Scratch::lookahead`]; with an
/// admissible factor the found path costs are exactly Dijkstra's.
///
/// `crit` carries the per-sink criticalities (aligned with
/// `req.sinks`; missing entries read as 0). Each search blends its cost
/// by the most critical *remaining* sink — see the module docs.
///
/// Allocation-free per call apart from the returned tree: all search
/// state lives in the stamped `scratch`. Reads only immutable inputs
/// otherwise, so chunk members can run this concurrently.
fn route_net(
    rrg: &Rrg,
    req: &RouteRequest,
    occupancy: &[u32],
    cm: &CostModel<'_>,
    crit: &[f64],
    scratch: &mut Scratch,
) -> Option<(NetTree, u64)> {
    let mut tree: NetTree = vec![(req.source, None)];
    let mut popped = 0u64;
    scratch.net = scratch.net.wrapping_add(1);
    if scratch.net == 0 {
        // u32 stamp wrapped: stale entries from 2^32 nets ago could
        // alias. Hard-reset the membership arrays and restart at 1.
        scratch.in_tree_stamp.fill(0);
        scratch.target_stamp.fill(0);
        scratch.portal_stamp.fill(0);
        scratch.net = 1;
    }
    let spans = rrg.spans();
    scratch.in_tree_stamp[req.source.index()] = scratch.net;
    scratch.targets.clear();
    let mut remaining = 0usize;
    for (si, &s) in req.sinks.iter().enumerate() {
        // A sink already in the tree (the source itself) needs no search;
        // duplicated sinks count once.
        if !scratch.in_tree(s) && !scratch.is_target(s) {
            scratch.target_stamp[s.index()] = scratch.net;
            scratch
                .targets
                .push((s, spans[s.index()], crit.get(si).copied().unwrap_or(0.0)));
            remaining += 1;
            if !rrg.is_wire(s) {
                for &w in rrg.adjacent_wires(s) {
                    scratch.portal_stamp[w.index()] = scratch.net;
                }
            }
        }
    }
    // Increasing node id: the order in which a portal enters the
    // targets it touches.
    scratch.targets.sort_unstable_by_key(|&(t, _, _)| t);

    // Reusable path buffer for the walk-back (grows to the longest path).
    let mut path: Vec<NodeId> = Vec::new();

    while remaining > 0 {
        // Effective criticality of this search: the most critical
        // remaining sink, scaled by `timing_fac` and capped. Zero (the
        // untimed case) leaves every cost — and the heuristic scale —
        // bit-identical to the congestion-only router.
        let c_eff = if cm.timing_fac == 0.0 {
            0.0
        } else {
            let worst = scratch
                .targets
                .iter()
                .fold(0.0f64, |a, &(_, _, c)| a.max(c));
            (cm.timing_fac * worst).min(MAX_CRIT)
        };
        // Admissibility under the blend: every hop still costs at least
        // `1 − c_eff` (the delay term is non-negative), so the lookahead
        // shrinks by the same factor.
        let h_scale = cm.h_scale * (1.0 - c_eff);
        // A* from the whole current tree to the nearest remaining sink.
        // Seed from every tree node at path cost 0 (heap priority = pure
        // lookahead).
        scratch.search = scratch.search.wrapping_add(1);
        if scratch.search == 0 {
            scratch.search_stamp.fill(0);
            scratch.search = 1;
        }
        scratch.heap.clear();
        for (node, _) in &tree {
            scratch.search_stamp[node.index()] = scratch.search;
            scratch.dist[node.index()] = 0.0;
            scratch.heap.push(Entry {
                f: scratch.lookahead(h_scale, spans[node.index()]),
                g: 0.0,
                node: *node,
            });
        }
        let mut found: Option<NodeId> = None;
        while let Some(Entry { g, node: u, .. }) = scratch.heap.pop() {
            popped += 1;
            if g > scratch.dist_of(u) {
                continue;
            }
            if scratch.is_target(u) && !scratch.in_tree(u) {
                found = Some(u);
                break;
            }
            // Expansion discipline: wires are fair game; a pin or pad
            // may only be entered if it is one of our remaining targets
            // (other nets' pins are never crossed — pins have a single
            // user — and tree members sit at distance 0 already).
            for &v in rrg.adjacent_wires(u) {
                let step = if scratch.in_tree(v) {
                    0.0
                } else {
                    let vi = v.index();
                    cm.blended_cost(true, vi, occupancy[vi], c_eff)
                };
                scratch.relax(u, v, g + step, h_scale, spans);
            }
            if scratch.is_portal(u) {
                // The pin and pad targets this wire touches, in
                // increasing id (a wire target is entered by the loop
                // above). A touching span is necessary for adjacency and
                // cheap to test before scanning the target's list.
                let us = spans[u.index()];
                for k in 0..scratch.targets.len() {
                    let (t, ts, _) = scratch.targets[k];
                    if !rrg.is_wire(t) && us.manhattan_to(ts) == 0 && rrg.adjacent(t, u) {
                        let ti = t.index();
                        let step = cm.blended_cost(false, ti, occupancy[ti], c_eff);
                        scratch.relax(u, t, g + step, h_scale, spans);
                    }
                }
            }
        }
        let sink = found?;
        // Walk back to the tree, adding path nodes. `prev` is valid for
        // every node relaxed in this search; tree seeds have no prev and
        // terminate the walk via the in-tree check.
        path.clear();
        path.push(sink);
        let mut cur = sink;
        while !scratch.in_tree(cur) {
            let p = scratch.prev[cur.index()];
            path.push(p);
            cur = p;
        }
        path.reverse();
        // path[0] is in the tree; append the rest.
        for w in path.windows(2) {
            let (parent, child) = (w[0], w[1]);
            if !scratch.in_tree(child) {
                scratch.in_tree_stamp[child.index()] = scratch.net;
                tree.push((child, Some(parent)));
            }
        }
        // The sink is no longer a target (nor a lookahead attractor).
        scratch.target_stamp[sink.index()] = 0;
        if let Some(pos) = scratch.targets.iter().position(|&(t, _, _)| t == sink) {
            scratch.targets.remove(pos);
        }
        remaining -= 1;
    }
    Some((tree, popped))
}

fn to_route_tree(rrg: &Rrg, req: &RouteRequest, tree: &[(NodeId, Option<NodeId>)]) -> RouteTree {
    RouteTree {
        net: req.net.clone(),
        source: rrg.kind(req.source),
        sinks: req.sinks.iter().map(|&s| rrg.kind(s)).collect(),
        nodes: tree.iter().map(|(n, _)| rrg.kind(*n)).collect(),
        edges: tree
            .iter()
            .filter_map(|(n, p)| p.map(|p| (rrg.kind(p), rrg.kind(*n))))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_fabric::arch::ArchSpec;
    use msaf_fabric::rrg::RrNodeKind;

    fn small_rrg() -> Rrg {
        let mut a = ArchSpec::paper(2, 2);
        a.channel_width = 4;
        Rrg::build(&a)
    }

    #[test]
    fn single_net_routes() {
        let g = small_rrg();
        let src = g.node(RrNodeKind::Pad { id: 0 }).unwrap();
        let dst = g.node(RrNodeKind::Ipin { x: 1, y: 1, pin: 3 }).unwrap();
        let res = route(
            &g,
            &[RouteRequest {
                net: "n".into(),
                source: src,
                sinks: vec![dst],
            }],
            &RouteOptions::default(),
        )
        .unwrap();
        assert_eq!(res.trees.len(), 1);
        let t = &res.trees[0];
        assert_eq!(t.source, RrNodeKind::Pad { id: 0 });
        assert!(t.wirelength() >= 1);
        assert!(t.sinks.contains(&RrNodeKind::Ipin { x: 1, y: 1, pin: 3 }));
    }

    #[test]
    fn multi_sink_net_routes_as_tree() {
        let g = small_rrg();
        let src = g.node(RrNodeKind::Opin { x: 0, y: 0, pin: 0 }).unwrap();
        let sinks = vec![
            g.node(RrNodeKind::Ipin { x: 1, y: 0, pin: 0 }).unwrap(),
            g.node(RrNodeKind::Ipin { x: 1, y: 1, pin: 1 }).unwrap(),
            g.node(RrNodeKind::Pad { id: 5 }).unwrap(),
        ];
        let res = route(
            &g,
            &[RouteRequest {
                net: "fanout".into(),
                source: src,
                sinks: sinks.clone(),
            }],
            &RouteOptions::default(),
        )
        .unwrap();
        assert_eq!(res.trees[0].sinks.len(), 3);
        // Every edge's parent appears before the child (tree property).
        let t = &res.trees[0];
        for (p, c) in &t.edges {
            let pi = t.nodes.iter().position(|n| n == p).unwrap();
            let ci = t.nodes.iter().position(|n| n == c).unwrap();
            assert!(pi < ci, "parent after child");
        }
    }

    #[test]
    fn congestion_negotiated() {
        // Many nets from the same tile; they must spread across tracks
        // with no wire shared.
        let g = small_rrg();
        let mut reqs = Vec::new();
        for pin in 0..6 {
            reqs.push(RouteRequest {
                net: format!("n{pin}"),
                source: g.node(RrNodeKind::Opin { x: 0, y: 0, pin }).unwrap(),
                sinks: vec![g.node(RrNodeKind::Ipin { x: 1, y: 1, pin }).unwrap()],
            });
        }
        let res = route(&g, &reqs, &RouteOptions::default()).unwrap();
        // No wire appears in two different trees.
        let mut used = std::collections::HashMap::new();
        for t in &res.trees {
            for n in &t.nodes {
                if matches!(n, RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }) {
                    if let Some(other) = used.insert(*n, t.net.clone()) {
                        panic!("wire {n:?} shared by {other} and {}", t.net);
                    }
                }
            }
        }
    }

    #[test]
    fn impossible_capacity_reported() {
        // Channel width 1 cannot carry 6 parallel nets between the same
        // pair of tiles.
        let mut a = ArchSpec::paper(2, 1);
        a.channel_width = 1;
        let g = Rrg::build(&a);
        let mut reqs = Vec::new();
        for pin in 0..6 {
            reqs.push(RouteRequest {
                net: format!("n{pin}"),
                source: g.node(RrNodeKind::Opin { x: 0, y: 0, pin }).unwrap(),
                sinks: vec![g.node(RrNodeKind::Ipin { x: 1, y: 0, pin }).unwrap()],
            });
        }
        let err = route(&g, &reqs, &RouteOptions::default()).unwrap_err();
        assert!(matches!(err, RouteError::Unroutable { .. }));
    }

    /// A bus forced through a narrowed channel: 8 nets leave column 0 of
    /// a 4×2 grid and terminate in column 3, with only 3 tracks per
    /// channel — every vertical cut must carry all 8 nets over 9 wires,
    /// so the first iteration overlaps somewhere (mirrors the
    /// `stress_dual_rail_bus` bench workload).
    fn contended_bus() -> (Rrg, Vec<RouteRequest>) {
        let mut a = ArchSpec::paper(4, 2);
        a.channel_width = 3;
        let g = Rrg::build(&a);
        let reqs = (0..8)
            .map(|rail| RouteRequest {
                net: format!("bus{rail}"),
                source: g
                    .node(RrNodeKind::Opin {
                        x: 0,
                        y: rail % 2,
                        pin: rail / 2,
                    })
                    .unwrap(),
                sinks: vec![g
                    .node(RrNodeKind::Ipin {
                        x: 3,
                        y: rail % 2,
                        pin: rail / 2,
                    })
                    .unwrap()],
            })
            .collect();
        (g, reqs)
    }

    #[test]
    fn congested_first_iteration_negotiates_and_rips_up() {
        let (g, reqs) = contended_bus();
        let res = route(&g, &reqs, &RouteOptions::default()).unwrap();
        // Convergence through actual negotiation, not a lucky first pass.
        assert!(res.iterations > 1, "first iteration did not conflict");
        assert!(res.stats.ripups > 0, "incremental rip-up never fired");
        // Legality: no wire in two trees.
        let mut used = std::collections::HashMap::new();
        for t in &res.trees {
            for n in &t.nodes {
                if matches!(n, RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }) {
                    if let Some(other) = used.insert(*n, t.net.clone()) {
                        panic!("wire {n:?} shared by {other} and {}", t.net);
                    }
                }
            }
        }
        // Every request still reaches all of its sinks.
        for (t, req) in res.trees.iter().zip(&reqs) {
            for &s in &req.sinks {
                assert!(t.nodes.contains(&g.kind(s)), "{}: sink dropped", t.net);
            }
        }
    }

    #[test]
    fn congested_outcome_identical_with_and_without_lookahead() {
        // Guaranteed by admissibility: each per-sink search finds a
        // path of the same congestion-weighted cost, with a smaller (≤)
        // frontier. The iteration-count and wirelength *equalities* are
        // stronger than the theory promises (equal-cost paths may
        // tie-break differently) — they are empirical pins on this
        // workload; if an innocuous change (new workload geometry,
        // different arch) trips them while legality holds, re-pin.
        let (g, reqs) = contended_bus();
        let astar = route(&g, &reqs, &RouteOptions::default()).unwrap();
        let dijkstra = route(
            &g,
            &reqs,
            &RouteOptions {
                astar_fac: 0.0,
                ..RouteOptions::default()
            },
        )
        .unwrap();
        assert_eq!(astar.iterations, dijkstra.iterations);
        let wl = |r: &RoutingResult| -> usize { r.trees.iter().map(RouteTree::wirelength).sum() };
        assert_eq!(wl(&astar), wl(&dijkstra));
        assert!(astar.stats.nodes_popped < dijkstra.stats.nodes_popped);
    }

    /// Byte-identity oracle between two routing results (trees compare
    /// node-for-node including discovery order).
    fn assert_identical(a: &RoutingResult, b: &RoutingResult, what: &str) {
        assert_eq!(a.iterations, b.iterations, "{what}: iterations differ");
        assert_eq!(a.stats, b.stats, "{what}: stats differ");
        assert_eq!(a.trees.len(), b.trees.len());
        for (ta, tb) in a.trees.iter().zip(&b.trees) {
            assert_eq!(ta.nodes, tb.nodes, "{what}: {} nodes differ", ta.net);
            assert_eq!(ta.edges, tb.edges, "{what}: {} edges differ", ta.net);
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        // Both a conflict-free fan-in pattern and the genuinely congested
        // bus, at several thread counts: trees, iterations, rip-ups and
        // even nodes_popped must match the single-threaded run exactly.
        let (g, reqs) = contended_bus();
        let serial = route(&g, &reqs, &RouteOptions::default()).unwrap();
        for threads in [2, 3, 4, 8] {
            let par = route(
                &g,
                &reqs,
                &RouteOptions {
                    threads,
                    ..RouteOptions::default()
                },
            )
            .unwrap();
            assert_identical(&serial, &par, &format!("contended bus, {threads} threads"));
        }

        let g = small_rrg();
        let reqs: Vec<RouteRequest> = (0..6)
            .map(|pin| RouteRequest {
                net: format!("n{pin}"),
                source: g.node(RrNodeKind::Opin { x: 0, y: 0, pin }).unwrap(),
                sinks: vec![g.node(RrNodeKind::Ipin { x: 1, y: 1, pin }).unwrap()],
            })
            .collect();
        let serial = route(&g, &reqs, &RouteOptions::default()).unwrap();
        for threads in [2, 4] {
            let par = route(
                &g,
                &reqs,
                &RouteOptions {
                    threads,
                    ..RouteOptions::default()
                },
            )
            .unwrap();
            assert_identical(&serial, &par, &format!("fan pattern, {threads} threads"));
        }
    }

    #[test]
    fn chunk_one_is_gauss_seidel_and_converges() {
        // chunk = 1 is the historical net-by-net serial discipline; it
        // must still converge and stay legal on the congested workload
        // (its exact routes differ from the chunked default — that is
        // the documented semantic of the knob).
        let (g, reqs) = contended_bus();
        let res = route(
            &g,
            &reqs,
            &RouteOptions {
                chunk: 1,
                ..RouteOptions::default()
            },
        )
        .unwrap();
        assert!(res.iterations > 1);
        let mut used = std::collections::HashSet::new();
        for t in &res.trees {
            for n in &t.nodes {
                if matches!(n, RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }) {
                    assert!(used.insert(*n), "wire shared under chunk=1");
                }
            }
        }
        // And thread count is still irrelevant under chunk = 1 (every
        // chunk is a single net, so workers never even spawn).
        let par = route(
            &g,
            &reqs,
            &RouteOptions {
                chunk: 1,
                threads: 4,
                ..RouteOptions::default()
            },
        )
        .unwrap();
        assert_identical(&res, &par, "chunk=1 thread invariance");
    }

    #[test]
    fn parallel_unroutable_matches_serial() {
        // Error behaviour must not change with thread count.
        let mut a = ArchSpec::paper(2, 1);
        a.channel_width = 1;
        let g = Rrg::build(&a);
        let reqs: Vec<RouteRequest> = (0..6)
            .map(|pin| RouteRequest {
                net: format!("n{pin}"),
                source: g.node(RrNodeKind::Opin { x: 0, y: 0, pin }).unwrap(),
                sinks: vec![g.node(RrNodeKind::Ipin { x: 1, y: 0, pin }).unwrap()],
            })
            .collect();
        let serial = route(&g, &reqs, &RouteOptions::default()).unwrap_err();
        let par = route(
            &g,
            &reqs,
            &RouteOptions {
                threads: 4,
                ..RouteOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(serial, par);
    }

    /// A canned criticality source: fixed per-connection values, and a
    /// log of every `update` call's delays.
    struct FixedCrit {
        crit: Vec<Vec<f64>>,
        updates: Vec<Vec<Vec<u64>>>,
    }

    impl FixedCrit {
        fn uniform(reqs: &[RouteRequest], value: f64) -> Self {
            Self {
                crit: reqs.iter().map(|r| vec![value; r.sinks.len()]).collect(),
                updates: Vec::new(),
            }
        }
    }

    impl TimingSource for FixedCrit {
        fn update(&mut self, delays: &[Vec<u64>]) {
            self.updates.push(delays.to_vec());
        }
        fn crit(&self, request: usize) -> &[f64] {
            &self.crit[request]
        }
    }

    #[test]
    fn timed_zero_factor_is_bit_identical_even_with_max_criticalities() {
        // timing_fac = 0 must gate the blend off completely, no matter
        // what the source reports — the escape hatch the goldens pin.
        let (g, reqs) = contended_bus();
        let plain = route(&g, &reqs, &RouteOptions::default()).unwrap();
        let mut src = FixedCrit::uniform(&reqs, 1.0);
        let timed = route_timed(&g, &reqs, &RouteOptions::default(), &mut src).unwrap();
        assert_identical(&plain, &timed, "timing_fac=0");
        // One slack recomputation per iteration, no more, no fewer.
        assert_eq!(src.updates.len(), plain.iterations);
    }

    #[test]
    fn update_receives_actual_per_sink_wire_delays() {
        // Single-sink nets: the reported delay must equal the tree's
        // wirelength exactly (wires only — pins and pads are free).
        let (g, reqs) = contended_bus();
        let mut src = FixedCrit::uniform(&reqs, 0.0);
        let res = route_timed(&g, &reqs, &RouteOptions::default(), &mut src).unwrap();
        let last = src.updates.last().expect("at least one update");
        for (ri, tree) in res.trees.iter().enumerate() {
            assert_eq!(last[ri].len(), 1);
            assert_eq!(
                last[ri][0] as usize,
                tree.wirelength(),
                "net {}: delay must equal routed wire count",
                tree.net
            );
        }
    }

    #[test]
    fn critical_connections_prefer_short_paths() {
        // One net, criticality 1 vs 0, on an otherwise empty fabric:
        // both must find a minimal path (no congestion to dodge), so
        // the timed route's delay can never exceed the untimed one.
        let g = small_rrg();
        let reqs = vec![RouteRequest {
            net: "n".into(),
            source: g.node(RrNodeKind::Opin { x: 0, y: 0, pin: 0 }).unwrap(),
            sinks: vec![g.node(RrNodeKind::Ipin { x: 1, y: 1, pin: 0 }).unwrap()],
        }];
        let timed_opts = RouteOptions {
            timing_fac: 1.0,
            ..RouteOptions::default()
        };
        let mut hot = FixedCrit::uniform(&reqs, 1.0);
        let hot_res = route_timed(&g, &reqs, &timed_opts, &mut hot).unwrap();
        let cold_res = route(&g, &reqs, &RouteOptions::default()).unwrap();
        assert!(hot_res.trees[0].wirelength() <= cold_res.trees[0].wirelength());
    }

    #[test]
    fn timed_routing_is_thread_invariant() {
        // Criticalities are frozen per iteration and read-only to the
        // workers, so the determinism contract must survive the blend.
        let (g, reqs) = contended_bus();
        let opts = RouteOptions {
            timing_fac: 0.9,
            ..RouteOptions::default()
        };
        let mut serial_src = FixedCrit::uniform(&reqs, 0.8);
        let serial = route_timed(&g, &reqs, &opts, &mut serial_src).unwrap();
        for threads in [2, 4] {
            let mut src = FixedCrit::uniform(&reqs, 0.8);
            let par = route_timed(&g, &reqs, &RouteOptions { threads, ..opts }, &mut src).unwrap();
            assert_identical(&serial, &par, &format!("timed, {threads} threads"));
        }
    }

    #[test]
    fn timed_congestion_still_resolves() {
        // Even at full blend strength the MAX_CRIT cap keeps a sliver
        // of congestion cost, so negotiation must still converge and
        // stay legal on the contended bus.
        let (g, reqs) = contended_bus();
        let mut src = FixedCrit::uniform(&reqs, 1.0);
        let res = route_timed(
            &g,
            &reqs,
            &RouteOptions {
                timing_fac: 1.0,
                ..RouteOptions::default()
            },
            &mut src,
        )
        .unwrap();
        let mut used = std::collections::HashSet::new();
        for t in &res.trees {
            for n in &t.nodes {
                if matches!(n, RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }) {
                    assert!(used.insert(*n), "wire shared under timed routing");
                }
            }
        }
    }

    #[test]
    fn duplicate_sinks_counted_once() {
        let g = small_rrg();
        let src = g.node(RrNodeKind::Opin { x: 0, y: 0, pin: 0 }).unwrap();
        let dst = g.node(RrNodeKind::Ipin { x: 1, y: 0, pin: 2 }).unwrap();
        let res = route(
            &g,
            &[RouteRequest {
                net: "dup".into(),
                source: src,
                sinks: vec![dst, dst],
            }],
            &RouteOptions::default(),
        )
        .unwrap();
        // Both sink entries report, the tree contains the node once.
        assert_eq!(res.trees[0].sinks.len(), 2);
        let hits = res.trees[0]
            .nodes
            .iter()
            .filter(|n| **n == RrNodeKind::Ipin { x: 1, y: 0, pin: 2 })
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn incremental_ripup_matches_full_ripup_legality() {
        // Same scenario as congestion_negotiated but checked against the
        // iteration bound of the full-ripup baseline: incremental rip-up
        // must converge at least as fast (it reroutes a subset).
        let g = small_rrg();
        let mut reqs = Vec::new();
        for pin in 0..6 {
            reqs.push(RouteRequest {
                net: format!("n{pin}"),
                source: g.node(RrNodeKind::Opin { x: 0, y: 0, pin }).unwrap(),
                sinks: vec![g.node(RrNodeKind::Ipin { x: 1, y: 1, pin }).unwrap()],
            });
        }
        let res = route(&g, &reqs, &RouteOptions::default()).unwrap();
        // Full rip-up on this workload (pre-rewrite baseline) converged
        // within the default iteration budget; incremental must too, and
        // the solution must be legal (checked by congestion_negotiated).
        assert!(res.iterations <= RouteOptions::default().max_iterations);
        // Occupancy legality: count wire usage across trees.
        let mut occ = std::collections::HashMap::new();
        for t in &res.trees {
            for n in &t.nodes {
                if matches!(n, RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }) {
                    *occ.entry(*n).or_insert(0u32) += 1;
                }
            }
        }
        assert!(occ.values().all(|&o| o <= 1), "overused wire survived");
    }

    #[test]
    fn shared_portal_enters_both_sinks_in_id_order() {
        // Tiles (1, 2) and (1, 1) both tap channel row 2, so each wire
        // H(1, 2, t) is a portal to both of the fork's sinks. Three
        // competing nets route first along row 2 on tracks 0-2, which
        // steers the fork (whose output pin taps tracks 3 and 0) onto
        // track 3. Its first search then pops H(1, 2, 3) while both
        // sinks remain and enters both from it, the lower id first.
        let mut a = ArchSpec::paper(4, 3);
        a.channel_width = 4;
        let g = Rrg::build(&a);
        let node = |kind| g.node(kind).unwrap();
        let opin = |x, y, pin| node(RrNodeKind::Opin { x, y, pin });
        let ipin = |x, y, pin| node(RrNodeKind::Ipin { x, y, pin });
        let mut reqs: Vec<RouteRequest> = (0..3)
            .map(|pin| RouteRequest {
                net: format!("c{pin}"),
                source: opin(3, 2, pin),
                sinks: vec![ipin(0, 1, pin)],
            })
            .collect();
        reqs.push(RouteRequest {
            net: "fork".into(),
            source: opin(3, 2, 3),
            sinks: vec![ipin(1, 2, 0), ipin(1, 1, 0)],
        });
        let res = route(&g, &reqs, &RouteOptions::default()).unwrap();
        let h = |x, t| RrNodeKind::HWire { x, y: 2, t };
        let sink = |y| RrNodeKind::Ipin { x: 1, y, pin: 0 };
        assert_eq!(
            res.trees[3].edges,
            [
                (RrNodeKind::Opin { x: 3, y: 2, pin: 3 }, h(3, 3)),
                (h(3, 3), h(2, 3)),
                (h(2, 3), h(1, 3)),
                (h(1, 3), sink(1)),
                (h(1, 3), sink(2)),
            ]
        );
        // Captured before the graph stored only wire adjacency.
        assert_eq!(
            msaf_artifact::digest::digest_trees(&res.trees),
            11_612_938_429_752_929_583
        );
        assert_eq!(res.stats.nodes_popped, 226);
        assert_eq!((res.iterations, res.stats.ripups), (1, 0));
    }
}
