//! The routing resource graph: "a grid of interconnection busses,
//! connection boxes, and switch boxes" (paper, Section 3).
//!
//! Geometry conventions (VPR-style, length-1 segments):
//!
//! * PLB tiles sit at `(x, y)` for `x in 0..width`, `y in 0..height`;
//! * switch boxes sit at grid corners `(x, y)` for `x in 0..=width`,
//!   `y in 0..=height`;
//! * horizontal wires `H(x, y, t)` join SB `(x, y)`–`(x+1, y)` and run
//!   along channel row `y` (below tile row `y`, above tile row `y-1`);
//! * vertical wires `V(x, y, t)` join SB `(x, y)`–`(x, y+1)` along
//!   channel column `x`.
//!
//! Tile `(x, y)` is therefore bounded by channels `H(·, y)` (south),
//! `H(·, y+1)` (north), `V(x, ·)` (west) and `V(x+1, ·)` (east);
//! connection boxes give its pins access to a configurable fraction
//! (`fc`) of the tracks in those channels. I/O pads live on the
//! perimeter channels.
//!
//! Wires are bidirectional. Every node carries a capacity of one signal
//! — the PathFinder router in `msaf-cad` negotiates congestion on top.
//!
//! # What is stored
//!
//! Every edge of the fabric has a wire at one end or both: a switch box
//! joins two wires, a connection box joins a pin to a wire, and a pad
//! taps its perimeter wires; no edge joins two pins or pads. The graph
//! therefore stores, per node, only its adjacent **wires**, in one CSR
//! array ([`Rrg::adjacent_wires`]):
//!
//! * a wire lists its switch-box wires, in the order the switch boxes
//!   link them;
//! * a pin lists its connection-box wires and a pad its perimeter wires,
//!   in tap order.
//!
//! A wire does not list its pins and pads: that half of a connection-box
//! edge is read from the pin's or pad's own list ([`Rrg::adjacent`]).
//!
//! The router relies on one ordering invariant. Linking both ends of
//! every edge in build order (switch boxes, then tiles, then pads) would
//! give each wire the neighbour list *its stored wires, in order,
//! followed by the pins and pads that list it, in increasing id*. So a
//! search that relaxes a wire's stored list and then the pins and pads
//! it may enter, in increasing id, pushes exactly what a search over
//! those full lists would. The unit tests pin this against such a
//! builder on every test architecture.
//!
//! Node kinds are not stored either: ids follow a fixed order (see
//! [`Rrg`]), so [`Rrg::node`] and [`Rrg::kind`] are closed-form inverses
//! and [`Rrg::is_wire`] compares an id against [`Rrg::wire_count`].
//!
//! Every node also carries its corner-grid extent ([`NodeSpan`],
//! precomputed at build time): one hop never traverses more than one
//! corner unit, so span-to-span Manhattan gaps lower-bound remaining hop
//! counts — the admissible A* lookahead the router's searches are
//! ordered by.

use crate::arch::{ArchSpec, SwitchBoxKind};
use serde::{Deserialize, Serialize};

/// Index of a node in the routing resource graph.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rr{}", self.0)
    }
}

/// What a routing node physically is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RrNodeKind {
    /// PLB output pin `pin` of tile `(x, y)` (drives the network).
    Opin {
        /// Tile column.
        x: usize,
        /// Tile row.
        y: usize,
        /// PLB output index.
        pin: usize,
    },
    /// PLB input pin `pin` of tile `(x, y)` (sinks from the network).
    Ipin {
        /// Tile column.
        x: usize,
        /// Tile row.
        y: usize,
        /// PLB input index.
        pin: usize,
    },
    /// Horizontal wire, track `t`, from SB `(x, y)` to `(x+1, y)`.
    HWire {
        /// West switch-box column.
        x: usize,
        /// Channel row.
        y: usize,
        /// Track index.
        t: usize,
    },
    /// Vertical wire, track `t`, from SB `(x, y)` to `(x, y+1)`.
    VWire {
        /// Channel column.
        x: usize,
        /// South switch-box row.
        y: usize,
        /// Track index.
        t: usize,
    },
    /// I/O pad `id` (bidirectional: source for primary inputs, sink for
    /// primary outputs).
    Pad {
        /// Pad index (see [`Rrg::pad_count`]).
        id: usize,
    },
}

/// Axis-aligned extent of a routing node on the switch-box corner grid,
/// in corner units (see the module docs for the geometry conventions).
///
/// * a horizontal wire `H(x, y, t)` spans corners `(x, y)`–`(x+1, y)`;
/// * a vertical wire `V(x, y, t)` spans `(x, y)`–`(x, y+1)`;
/// * a pin of tile `(x, y)` spans the tile's bounding corners
///   `(x, y)`–`(x+1, y+1)` (a pin's connection box can tap any of the
///   four bounding channels, so the whole tile footprint is reachable in
///   one hop);
/// * a pad spans its perimeter channel segment.
///
/// Spans exist so the router can run an **admissible distance lookahead**
/// ([`NodeSpan::manhattan_to`]): every routing hop traverses at most one
/// corner unit, so the span-to-span Manhattan gap lower-bounds the number
/// of nodes still to be entered on any path between two resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpan {
    /// West extent, in corner units.
    pub x_lo: u16,
    /// South extent, in corner units.
    pub y_lo: u16,
    /// East extent, in corner units.
    pub x_hi: u16,
    /// North extent, in corner units.
    pub y_hi: u16,
}

impl NodeSpan {
    /// Manhattan gap between two spans: 0 when they overlap or touch on
    /// both axes, otherwise the sum of the per-axis gaps.
    ///
    /// Because every wire is one corner unit long and pins/pads attach
    /// to the channels bounding their span, a legal route from a node to
    /// a target needs **at least** `manhattan_to` further hops, each of
    /// cost ≥ 1 under the PathFinder cost function (base cost 1, history
    /// and present factors only ever increase it). Scaled by a factor
    /// ≤ the minimum per-hop cost this is therefore an admissible (and
    /// consistent) A* heuristic.
    #[must_use]
    pub fn manhattan_to(self, other: NodeSpan) -> u32 {
        let axis = |lo_a: u16, hi_a: u16, lo_b: u16, hi_b: u16| -> u32 {
            u32::from(lo_b.saturating_sub(hi_a)) + u32::from(lo_a.saturating_sub(hi_b))
        };
        axis(self.x_lo, self.x_hi, other.x_lo, other.x_hi)
            + axis(self.y_lo, self.y_hi, other.y_lo, other.y_hi)
    }
}

/// The routing resource graph for one architecture instance.
///
/// Node ids follow a fixed order — horizontal wires, vertical wires, each
/// tile's output then input pins, pads — so [`Rrg::node`] and
/// [`Rrg::kind`] are closed-form, and wires hold the ids below
/// [`Rrg::wire_count`].
#[derive(Debug, Clone)]
pub struct Rrg {
    spans: Vec<NodeSpan>,
    /// CSR offsets: node `i`'s adjacent wires are
    /// `wires[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    wires: Vec<NodeId>,
    pad_count: usize,
    width: usize,
    height: usize,
    channel_width: usize,
    plb_outputs: usize,
    plb_inputs: usize,
}

impl Rrg {
    /// Builds the graph for `arch`.
    ///
    /// # Panics
    ///
    /// Panics if `arch` fails [`ArchSpec::assert_valid`], or if the graph
    /// has more nodes or edges than a `u32` can index.
    #[must_use]
    pub fn build(arch: &ArchSpec) -> Self {
        arch.assert_valid();
        let (w, h, cw) = (arch.width, arch.height, arch.channel_width);
        let mut g = Self {
            spans: Vec::new(),
            offsets: Vec::new(),
            wires: Vec::new(),
            // Pads: one per perimeter channel segment — south row, north
            // row, west column, east column, in that order.
            pad_count: 2 * w + 2 * h,
            width: w,
            height: h,
            channel_width: cw,
            plb_outputs: arch.plb.outputs,
            plb_inputs: arch.plb.inputs,
        };
        let n = g.len();
        let index = |v: usize| u32::try_from(v).expect("graph too large");
        g.spans = (0..n)
            .map(|i| g.span_of(g.kind(NodeId(index(i)))))
            .collect();

        // Wires: each one's switch-box wires in link order — count, then
        // fill.
        let wire_total = g.wire_count();
        let mut offsets = vec![0u32; n + 1];
        g.for_each_switch_link(arch.switchbox, |a, b| {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        });
        for i in 0..wire_total {
            offsets[i + 1] = index(offsets[i] as usize + offsets[i + 1] as usize);
        }
        let mut cursor = offsets[..wire_total].to_vec();
        let (n_out, n_in) = (arch.fc_out_tracks(), arch.fc_in_tracks());
        let taps = w * h * 4 * (g.plb_outputs * n_out + g.plb_inputs * n_in) + g.pad_count * cw;
        let mut wires = vec![NodeId::default(); offsets[wire_total] as usize];
        wires.reserve_exact(taps);
        g.for_each_switch_link(arch.switchbox, |a, b| {
            wires[cursor[a] as usize] = NodeId(index(b));
            cursor[a] += 1;
            wires[cursor[b] as usize] = NodeId(index(a));
            cursor[b] += 1;
        });

        // Pins, in id order: consecutive-track patterns staggered by pin
        // index, each track on the tile's four bounding channels. Under a
        // disjoint switch box, track domains never mix, so strided
        // patterns can maroon output pins on tracks no input pin taps;
        // consecutive windows guarantee overlap whenever
        // fc_in + fc_out > 1 (the paper preset uses fc_in = 1).
        let mut next = wire_total;
        let mut close = |len: usize| {
            next += 1;
            offsets[next] = index(len);
        };
        for y in 0..h {
            for x in 0..w {
                for (pins, tracks) in [(g.plb_outputs, n_out), (g.plb_inputs, n_in)] {
                    for pin in 0..pins {
                        for k in 0..tracks {
                            let t = (pin + k) % cw;
                            wires.extend(
                                [
                                    g.h_wire(x, y, t),     // south
                                    g.h_wire(x, y + 1, t), // north
                                    g.v_wire(x, y, t),     // west
                                    g.v_wire(x + 1, y, t), // east
                                ]
                                .map(|i| NodeId(index(i))),
                            );
                        }
                        close(wires.len());
                    }
                }
            }
        }
        // Pads onto their perimeter channel segment (all tracks — pads
        // are peripheral and cheap).
        for id in 0..g.pad_count {
            for t in 0..cw {
                wires.push(g.node(g.pad_channel(id, t)).expect("pad channel in graph"));
            }
            close(wires.len());
        }
        debug_assert_eq!(next, n, "every node's list closed");
        g.offsets = offsets;
        g.wires = wires;
        g
    }

    /// Id index of wire `H(x, y, t)`.
    fn h_wire(&self, x: usize, y: usize, t: usize) -> usize {
        (y * self.width + x) * self.channel_width + t
    }

    /// Id index of wire `V(x, y, t)`.
    fn v_wire(&self, x: usize, y: usize, t: usize) -> usize {
        self.v_base() + (x * self.height + y) * self.channel_width + t
    }

    /// First vertical-wire id.
    fn v_base(&self) -> usize {
        (self.height + 1) * self.width * self.channel_width
    }

    /// First pad id.
    fn pad_base(&self) -> usize {
        self.wire_count() + self.width * self.height * (self.plb_outputs + self.plb_inputs)
    }

    /// Calls `link(a, b)` for every switch-box edge, as wire id indices:
    /// corners column by column, each corner track by track, and per
    /// track the straight-through connections before the turns.
    fn for_each_switch_link(&self, switchbox: SwitchBoxKind, mut link: impl FnMut(usize, usize)) {
        let (w, h, cw) = (self.width, self.height, self.channel_width);
        for sx in 0..=w {
            for sy in 0..=h {
                for t in 0..cw {
                    // Incident wire stubs at this corner.
                    let west = (sx > 0).then(|| self.h_wire(sx - 1, sy, t));
                    let east = (sx < w).then(|| self.h_wire(sx, sy, t));
                    // Straight-through connections keep the track index.
                    if let (Some(a), Some(b)) = (west, east) {
                        link(a, b);
                    }
                    if sy > 0 && sy < h {
                        link(self.v_wire(sx, sy - 1, t), self.v_wire(sx, sy, t));
                    }
                    // Turns: disjoint keeps the track, Wilton rotates by one.
                    let tt = match switchbox {
                        SwitchBoxKind::Disjoint => t,
                        SwitchBoxKind::Wilton => (t + 1) % cw,
                    };
                    let south = (sy > 0).then(|| self.v_wire(sx, sy - 1, tt));
                    let north = (sy < h).then(|| self.v_wire(sx, sy, tt));
                    for (a, b) in [(west, south), (west, north), (east, south), (east, north)] {
                        if let (Some(a), Some(b)) = (a, b) {
                            link(a, b);
                        }
                    }
                }
            }
        }
    }

    /// Corner-grid extent of `kind` (see [`NodeSpan`]).
    fn span_of(&self, kind: RrNodeKind) -> NodeSpan {
        let c = |v: usize| u16::try_from(v).expect("grid too large for NodeSpan");
        match kind {
            RrNodeKind::HWire { x, y, .. } => NodeSpan {
                x_lo: c(x),
                y_lo: c(y),
                x_hi: c(x + 1),
                y_hi: c(y),
            },
            RrNodeKind::VWire { x, y, .. } => NodeSpan {
                x_lo: c(x),
                y_lo: c(y),
                x_hi: c(x),
                y_hi: c(y + 1),
            },
            RrNodeKind::Opin { x, y, .. } | RrNodeKind::Ipin { x, y, .. } => NodeSpan {
                x_lo: c(x),
                y_lo: c(y),
                x_hi: c(x + 1),
                y_hi: c(y + 1),
            },
            // A pad sits on its perimeter channel segment; reuse that
            // wire's span (track choice does not move the span).
            RrNodeKind::Pad { id } => self.span_of(self.pad_channel(id, 0)),
        }
    }

    /// The channel wire pad `id` attaches to, track `t`.
    fn pad_channel(&self, id: usize, t: usize) -> RrNodeKind {
        let (w, h) = (self.width, self.height);
        if id < w {
            // South row: H(x, 0).
            RrNodeKind::HWire { x: id, y: 0, t }
        } else if id < 2 * w {
            // North row: H(x, h).
            RrNodeKind::HWire { x: id - w, y: h, t }
        } else if id < 2 * w + h {
            // West column: V(0, y).
            RrNodeKind::VWire {
                x: 0,
                y: id - 2 * w,
                t,
            }
        } else {
            // East column: V(w, y).
            RrNodeKind::VWire {
                x: w,
                y: id - 2 * w - h,
                t,
            }
        }
    }

    /// Node count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pad_base() + self.pad_count
    }

    /// True when the graph has no nodes (never for a valid architecture).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Kind of node `id`: the closed-form inverse of [`Rrg::node`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn kind(&self, id: NodeId) -> RrNodeKind {
        let (w, h, cw) = (self.width, self.height, self.channel_width);
        let (v_base, pin_base, pad_base) = (self.v_base(), self.wire_count(), self.pad_base());
        let i = id.index();
        if i < v_base {
            let (segment, t) = (i / cw, i % cw);
            RrNodeKind::HWire {
                x: segment % w,
                y: segment / w,
                t,
            }
        } else if i < pin_base {
            let (segment, t) = ((i - v_base) / cw, (i - v_base) % cw);
            RrNodeKind::VWire {
                x: segment / h,
                y: segment % h,
                t,
            }
        } else if i < pad_base {
            let per_tile = self.plb_outputs + self.plb_inputs;
            let (tile, pin) = ((i - pin_base) / per_tile, (i - pin_base) % per_tile);
            let (x, y) = (tile % w, tile / w);
            if pin < self.plb_outputs {
                RrNodeKind::Opin { x, y, pin }
            } else {
                RrNodeKind::Ipin {
                    x,
                    y,
                    pin: pin - self.plb_outputs,
                }
            }
        } else {
            assert!(i < self.len(), "node {id} out of range");
            RrNodeKind::Pad { id: i - pad_base }
        }
    }

    /// True when node `id` is a wire: the congestion-managed nodes,
    /// which hold the ids below [`Rrg::wire_count`].
    #[must_use]
    pub fn is_wire(&self, id: NodeId) -> bool {
        id.index() < self.wire_count()
    }

    /// The wires adjacent to `id`: a wire's switch-box wires, a pin's
    /// connection-box wires or a pad's perimeter wires, in link order
    /// (see the module docs for what a wire's list leaves out).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn adjacent_wires(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.wires[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// True when `a` and `b` share an edge, in either orientation. Every
    /// edge has a wire end, so the answer is read from the list of the
    /// other end: a pin's or pad's own list, or either wire's.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        let (list, other) = if self.is_wire(a) { (b, a) } else { (a, b) };
        self.adjacent_wires(list).contains(&other)
    }

    /// Corner-grid extent of node `id` (see [`NodeSpan`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn span(&self, id: NodeId) -> NodeSpan {
        self.spans[id.index()]
    }

    /// All node spans as one dense slice indexed by [`NodeId::index`],
    /// for consumers that read spans in a tight loop (the router's A*
    /// lookahead fetches this once per net instead of calling
    /// [`Rrg::span`] per relaxation).
    #[must_use]
    pub fn spans(&self) -> &[NodeSpan] {
        &self.spans
    }

    /// Looks a node up by kind; `None` for kinds outside the graph
    /// (coordinates, tracks, pins or pad ids out of range).
    ///
    /// The id is computed from the build order (see [`Rrg`]): kinds of
    /// one class occupy one contiguous block, row-major in the order
    /// listed there.
    #[must_use]
    pub fn node(&self, kind: RrNodeKind) -> Option<NodeId> {
        let (w, h, cw) = (self.width, self.height, self.channel_width);
        let (outs, ins) = (self.plb_outputs, self.plb_inputs);
        let pin_base = self.wire_count();
        let index = match kind {
            RrNodeKind::HWire { x, y, t } if x < w && y <= h && t < cw => self.h_wire(x, y, t),
            RrNodeKind::VWire { x, y, t } if x <= w && y < h && t < cw => self.v_wire(x, y, t),
            RrNodeKind::Opin { x, y, pin } if x < w && y < h && pin < outs => {
                pin_base + (y * w + x) * (outs + ins) + pin
            }
            RrNodeKind::Ipin { x, y, pin } if x < w && y < h && pin < ins => {
                pin_base + (y * w + x) * (outs + ins) + outs + pin
            }
            RrNodeKind::Pad { id } if id < self.pad_count => self.pad_base() + id,
            _ => return None,
        };
        u32::try_from(index).ok().map(NodeId)
    }

    /// Number of I/O pads.
    #[must_use]
    pub fn pad_count(&self) -> usize {
        self.pad_count
    }

    /// Tile-grid position of a pad, for placement cost estimation:
    /// returns the (x, y) of the tile nearest to the pad.
    #[must_use]
    pub fn pad_position(&self, id: usize) -> (usize, usize) {
        let (w, h) = (self.width, self.height);
        if id < w {
            (id, 0)
        } else if id < 2 * w {
            (id - w, h - 1)
        } else if id < 2 * w + h {
            (0, id - 2 * w)
        } else {
            (w - 1, id - 2 * w - h)
        }
    }

    /// Total wire nodes; wires hold the ids `0..wire_count()`.
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.v_base() + (self.width + 1) * self.height * self.channel_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::paper(2, 2);
        a.channel_width = 4;
        a
    }

    /// Every switch-box kind, edge-case channel widths (1, 2, 4, 96),
    /// a single tile and a PLB without auxiliary outputs.
    fn architectures() -> Vec<ArchSpec> {
        let with = |mut a: ArchSpec, cw: usize, switchbox: SwitchBoxKind| {
            a.channel_width = cw;
            a.switchbox = switchbox;
            a
        };
        let (disjoint, wilton) = (SwitchBoxKind::Disjoint, SwitchBoxKind::Wilton);
        vec![
            ArchSpec::paper(1, 1),
            ArchSpec::paper(2, 2),
            arch(),
            with(ArchSpec::paper(3, 3), 12, wilton),
            with(ArchSpec::paper(4, 2), 1, disjoint),
            with(ArchSpec::paper(4, 2), 1, wilton),
            with(ArchSpec::paper(3, 2), 2, wilton),
            ArchSpec::no_aux_outputs(2, 5),
            with(ArchSpec::paper(5, 3), 96, disjoint),
        ]
    }

    /// The full undirected adjacency, built the way the graph was before
    /// it stored only wire lists: every edge linked at both ends, in
    /// build order (switch boxes, tiles, pads), with a `contains` dedup.
    /// Returns the lists and how often the dedup fired.
    fn reference_adjacency(arch: &ArchSpec, g: &Rrg) -> (Vec<Vec<NodeId>>, usize) {
        let (w, h, cw) = (arch.width, arch.height, arch.channel_width);
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.len()];
        let mut dedup_hits = 0;
        let mut link = |a: RrNodeKind, b: RrNodeKind| {
            let (ia, ib) = (g.node(a).unwrap(), g.node(b).unwrap());
            if adj[ia.index()].contains(&ib) {
                dedup_hits += 1;
            } else {
                adj[ia.index()].push(ib);
                adj[ib.index()].push(ia);
            }
        };
        for sx in 0..=w {
            for sy in 0..=h {
                for t in 0..cw {
                    let west = (sx > 0).then(|| RrNodeKind::HWire {
                        x: sx - 1,
                        y: sy,
                        t,
                    });
                    let east = (sx < w).then_some(RrNodeKind::HWire { x: sx, y: sy, t });
                    let south = (sy > 0).then(|| RrNodeKind::VWire {
                        x: sx,
                        y: sy - 1,
                        t,
                    });
                    let north = (sy < h).then_some(RrNodeKind::VWire { x: sx, y: sy, t });
                    if let (Some(a), Some(b)) = (west, east) {
                        link(a, b);
                    }
                    if let (Some(a), Some(b)) = (south, north) {
                        link(a, b);
                    }
                    let tt = match arch.switchbox {
                        SwitchBoxKind::Disjoint => t,
                        SwitchBoxKind::Wilton => (t + 1) % cw,
                    };
                    let remap = |k: RrNodeKind| match k {
                        RrNodeKind::VWire { x, y, .. } => RrNodeKind::VWire { x, y, t: tt },
                        other => other,
                    };
                    for (a, b) in [(west, south), (west, north), (east, south), (east, north)] {
                        if let (Some(a), Some(b)) = (a, b) {
                            link(a, remap(b));
                        }
                    }
                }
            }
        }
        for y in 0..h {
            for x in 0..w {
                let channels = |t: usize| {
                    [
                        RrNodeKind::HWire { x, y, t },
                        RrNodeKind::HWire { x, y: y + 1, t },
                        RrNodeKind::VWire { x, y, t },
                        RrNodeKind::VWire { x: x + 1, y, t },
                    ]
                };
                for pin in 0..arch.plb.outputs {
                    for k in 0..arch.fc_out_tracks() {
                        for ch in channels((pin + k) % cw) {
                            link(RrNodeKind::Opin { x, y, pin }, ch);
                        }
                    }
                }
                for pin in 0..arch.plb.inputs {
                    for k in 0..arch.fc_in_tracks() {
                        for ch in channels((pin + k) % cw) {
                            link(RrNodeKind::Ipin { x, y, pin }, ch);
                        }
                    }
                }
            }
        }
        for id in 0..g.pad_count() {
            for t in 0..cw {
                link(RrNodeKind::Pad { id }, g.pad_channel(id, t));
            }
        }
        (adj, dedup_hits)
    }

    fn id(i: usize) -> NodeId {
        NodeId(u32::try_from(i).unwrap())
    }

    #[test]
    fn compact_graph_matches_reference_builder() {
        for a in architectures() {
            let g = Rrg::build(&a);
            let (reference, dedup_hits) = reference_adjacency(&a, &g);
            assert_eq!(dedup_hits, 0, "{}: an edge was linked twice", a.name);
            // Per wire, the pins and pads whose lists name it, in
            // increasing id.
            let mut listed_by: Vec<Vec<NodeId>> = vec![Vec::new(); g.wire_count()];
            for p in g.wire_count()..g.len() {
                for &w in g.adjacent_wires(id(p)) {
                    listed_by[w.index()].push(id(p));
                }
            }
            for (i, full) in reference.iter().enumerate() {
                let u = id(i);
                let (wires, others): (Vec<NodeId>, Vec<NodeId>) =
                    full.iter().partition(|&&v| g.is_wire(v));
                assert_eq!(g.adjacent_wires(u), wires, "{} node {i}", a.name);
                if g.is_wire(u) {
                    // The router's invariant: the full list is the stored
                    // wires, then the pins and pads, in increasing id.
                    assert_eq!(full[..wires.len()], wires, "{} wire {i}", a.name);
                    assert!(others.windows(2).all(|p| p[0] < p[1]), "{} {i}", a.name);
                    assert_eq!(listed_by[i], others, "{} wire {i}", a.name);
                } else {
                    assert!(others.is_empty(), "{}: pin {i} touches a pin", a.name);
                }
                for &v in full {
                    assert!(g.adjacent(u, v) && g.adjacent(v, u), "{} {i}-{v}", a.name);
                }
                // The first id that is neither `u` nor a neighbour.
                let non_edge = (0..g.len())
                    .map(id)
                    .find(|&v| v != u && !full.contains(&v))
                    .unwrap();
                assert!(!g.adjacent(u, non_edge) && !g.adjacent(non_edge, u));
            }
        }
    }

    #[test]
    fn node_counts() {
        let a = arch();
        let g = Rrg::build(&a);
        let wires = 4 * ((2 * 3) + (3 * 2)); // cw * (H segs + V segs)
        assert_eq!(g.wire_count(), wires);
        assert_eq!(g.pad_count(), 8);
        let pins = 2 * 2 * (a.plb.inputs + a.plb.outputs);
        assert_eq!(g.len(), wires + pins + 8);
        assert!(!g.is_empty());
        for i in 0..g.len() {
            let wire = matches!(
                g.kind(id(i)),
                RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }
            );
            assert_eq!(g.is_wire(id(i)), wire, "node {i}");
        }
    }

    #[test]
    fn node_index_inverts_kind_on_every_architecture() {
        for a in architectures() {
            let g = Rrg::build(&a);
            for i in 0..g.len() {
                assert_eq!(g.node(g.kind(id(i))), Some(id(i)), "{} node {i}", a.name);
            }
            let (w, h, cw) = (a.width, a.height, a.channel_width);
            let (ins, outs) = (a.plb.inputs, a.plb.outputs);
            for kind in [
                RrNodeKind::HWire { x: w, y: 0, t: 0 },
                RrNodeKind::HWire {
                    x: 0,
                    y: h + 1,
                    t: 0,
                },
                RrNodeKind::HWire { x: 0, y: 0, t: cw },
                RrNodeKind::VWire {
                    x: w + 1,
                    y: 0,
                    t: 0,
                },
                RrNodeKind::VWire { x: 0, y: h, t: 0 },
                RrNodeKind::VWire { x: 0, y: 0, t: cw },
                RrNodeKind::Opin { x: w, y: 0, pin: 0 },
                RrNodeKind::Opin { x: 0, y: h, pin: 0 },
                RrNodeKind::Opin {
                    x: 0,
                    y: 0,
                    pin: outs,
                },
                RrNodeKind::Ipin { x: w, y: 0, pin: 0 },
                RrNodeKind::Ipin { x: 0, y: h, pin: 0 },
                RrNodeKind::Ipin {
                    x: 0,
                    y: 0,
                    pin: ins,
                },
                RrNodeKind::Pad { id: g.pad_count() },
                RrNodeKind::Pad { id: usize::MAX },
                RrNodeKind::HWire {
                    x: usize::MAX,
                    y: usize::MAX,
                    t: usize::MAX,
                },
            ] {
                assert_eq!(g.node(kind), None, "{} {kind:?}", a.name);
            }
        }
    }

    #[test]
    fn disjoint_switchbox_preserves_track() {
        let g = Rrg::build(&arch());
        // H(0,1,2) and H(1,1,2) meet at SB(1,1): straight-through.
        let a = g.node(RrNodeKind::HWire { x: 0, y: 1, t: 2 }).unwrap();
        let b = g.node(RrNodeKind::HWire { x: 1, y: 1, t: 2 }).unwrap();
        assert!(g.adjacent_wires(a).contains(&b));
        // Turn at SB(1,1) onto V(1,0,2) and V(1,1,2) with same track.
        let s = g.node(RrNodeKind::VWire { x: 1, y: 0, t: 2 }).unwrap();
        assert!(g.adjacent_wires(a).contains(&s));
        // Different track not connected under disjoint topology.
        let s3 = g.node(RrNodeKind::VWire { x: 1, y: 0, t: 3 }).unwrap();
        assert!(!g.adjacent_wires(a).contains(&s3));
    }

    #[test]
    fn wilton_switchbox_rotates_turns() {
        let mut a = arch();
        a.switchbox = SwitchBoxKind::Wilton;
        let g = Rrg::build(&a);
        let h = g.node(RrNodeKind::HWire { x: 0, y: 1, t: 2 }).unwrap();
        // Straight still preserves track...
        let h2 = g.node(RrNodeKind::HWire { x: 1, y: 1, t: 2 }).unwrap();
        assert!(g.adjacent_wires(h).contains(&h2));
        // ...but turns land on track 3.
        let v3 = g.node(RrNodeKind::VWire { x: 1, y: 0, t: 3 }).unwrap();
        assert!(g.adjacent_wires(h).contains(&v3));
    }

    #[test]
    fn pins_reach_adjacent_channels() {
        let a = arch();
        let g = Rrg::build(&a);
        let opin = g.node(RrNodeKind::Opin { x: 1, y: 1, pin: 0 }).unwrap();
        let touches_channel = g.adjacent_wires(opin).iter().any(|&n| {
            matches!(
                g.kind(n),
                RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }
            )
        });
        assert!(touches_channel);
        // fc = 0.5 on cw=4 -> 2 tracks × 4 channels.
        assert_eq!(g.adjacent_wires(opin).len(), 8);
    }

    #[test]
    fn pads_cover_perimeter() {
        let g = Rrg::build(&arch());
        for id in 0..g.pad_count() {
            let pad = g.node(RrNodeKind::Pad { id }).unwrap();
            assert!(
                !g.adjacent_wires(pad).is_empty(),
                "pad {id} must reach the fabric"
            );
            let (x, y) = g.pad_position(id);
            assert!(x < 2 && y < 2);
        }
    }

    #[test]
    fn spans_follow_geometry() {
        let g = Rrg::build(&arch());
        let h = g.node(RrNodeKind::HWire { x: 1, y: 2, t: 0 }).unwrap();
        assert_eq!(
            g.span(h),
            NodeSpan {
                x_lo: 1,
                y_lo: 2,
                x_hi: 2,
                y_hi: 2
            }
        );
        let v = g.node(RrNodeKind::VWire { x: 2, y: 0, t: 3 }).unwrap();
        assert_eq!(
            g.span(v),
            NodeSpan {
                x_lo: 2,
                y_lo: 0,
                x_hi: 2,
                y_hi: 1
            }
        );
        let pin = g.node(RrNodeKind::Ipin { x: 1, y: 1, pin: 0 }).unwrap();
        assert_eq!(
            g.span(pin),
            NodeSpan {
                x_lo: 1,
                y_lo: 1,
                x_hi: 2,
                y_hi: 2
            }
        );
        // Pad 0 sits on the south row segment H(0, 0).
        let pad = g.node(RrNodeKind::Pad { id: 0 }).unwrap();
        assert_eq!(
            g.span(pad),
            g.span(g.node(RrNodeKind::HWire { x: 0, y: 0, t: 0 }).unwrap())
        );
        assert_eq!(g.spans().len(), g.len());
    }

    #[test]
    fn span_distance_is_interval_gap() {
        let a = NodeSpan {
            x_lo: 0,
            y_lo: 0,
            x_hi: 1,
            y_hi: 0,
        };
        let b = NodeSpan {
            x_lo: 3,
            y_lo: 2,
            x_hi: 4,
            y_hi: 2,
        };
        assert_eq!(a.manhattan_to(b), 2 + 2);
        assert_eq!(b.manhattan_to(a), 4);
        // Touching or overlapping spans have zero gap.
        let c = NodeSpan {
            x_lo: 1,
            y_lo: 0,
            x_hi: 2,
            y_hi: 0,
        };
        assert_eq!(a.manhattan_to(c), 0);
        assert_eq!(a.manhattan_to(a), 0);
    }

    #[test]
    fn span_lower_bounds_hop_count() {
        // The admissibility invariant the router's A* relies on: along
        // any adjacency edge, in either direction, the span gap to a
        // fixed target shrinks by at most 1.
        let g = Rrg::build(&arch());
        let target = g.span(g.node(RrNodeKind::Ipin { x: 1, y: 1, pin: 0 }).unwrap());
        let gap = |n: NodeId| g.span(n).manhattan_to(target);
        for i in 0..g.len() {
            let u = id(i);
            for &v in g.adjacent_wires(u) {
                for (a, b) in [(u, v), (v, u)] {
                    assert!(
                        gap(b) + 1 >= gap(a),
                        "edge {:?} -> {:?} shrinks the gap by more than one ({} -> {})",
                        g.kind(a),
                        g.kind(b),
                        gap(a),
                        gap(b)
                    );
                }
            }
        }
    }

    #[test]
    fn fabric_is_connected() {
        // BFS from pad 0 must reach every pin and pad. A wire's pins and
        // pads are the ones whose lists name it.
        let g = Rrg::build(&arch());
        let mut listed_by: Vec<Vec<NodeId>> = vec![Vec::new(); g.wire_count()];
        for p in g.wire_count()..g.len() {
            for &w in g.adjacent_wires(id(p)) {
                listed_by[w.index()].push(id(p));
            }
        }
        let start = g.node(RrNodeKind::Pad { id: 0 }).unwrap();
        let mut seen = vec![false; g.len()];
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start.index()] = true;
        while let Some(n) = queue.pop_front() {
            let pins: &[NodeId] = if g.is_wire(n) {
                &listed_by[n.index()]
            } else {
                &[]
            };
            for &m in g.adjacent_wires(n).iter().chain(pins) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    queue.push_back(m);
                }
            }
        }
        for (i, &reached) in seen.iter().enumerate() {
            assert!(
                reached,
                "node {:?} unreachable from pad 0 — fabric is split",
                g.kind(id(i))
            );
        }
    }
}
