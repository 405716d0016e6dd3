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
//! Wires are bidirectional; the graph stores undirected adjacency and the
//! router expands both ways. Every node carries a capacity of one signal
//! — the PathFinder router in `msaf-cad` negotiates congestion on top.
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
/// Node ids follow the fixed order in which [`Rrg::build`] adds nodes —
/// horizontal wires, vertical wires, each tile's output then input
/// pins, pads — so [`Rrg::node`] is a closed-form index, not a map.
#[derive(Debug, Clone)]
pub struct Rrg {
    nodes: Vec<RrNodeKind>,
    spans: Vec<NodeSpan>,
    adj: Vec<Vec<NodeId>>,
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
    /// Panics if `arch` fails [`ArchSpec::assert_valid`].
    #[must_use]
    pub fn build(arch: &ArchSpec) -> Self {
        arch.assert_valid();
        let (w, h, cw) = (arch.width, arch.height, arch.channel_width);
        let pad_total = 2 * w + 2 * h;
        let mut g = Self {
            nodes: Vec::new(),
            spans: Vec::new(),
            adj: Vec::new(),
            pad_count: pad_total,
            width: w,
            height: h,
            channel_width: cw,
            plb_outputs: arch.plb.outputs,
            plb_inputs: arch.plb.inputs,
        };

        // Wires.
        for y in 0..=h {
            for x in 0..w {
                for t in 0..cw {
                    g.add(RrNodeKind::HWire { x, y, t });
                }
            }
        }
        for x in 0..=w {
            for y in 0..h {
                for t in 0..cw {
                    g.add(RrNodeKind::VWire { x, y, t });
                }
            }
        }
        // Pins.
        for y in 0..h {
            for x in 0..w {
                for pin in 0..arch.plb.outputs {
                    g.add(RrNodeKind::Opin { x, y, pin });
                }
                for pin in 0..arch.plb.inputs {
                    g.add(RrNodeKind::Ipin { x, y, pin });
                }
            }
        }
        // Pads: one per perimeter channel segment end — south row, north
        // row, west column, east column, in that order.
        for id in 0..pad_total {
            g.add(RrNodeKind::Pad { id });
        }

        // Switch boxes.
        for sx in 0..=w {
            for sy in 0..=h {
                g.connect_switchbox(arch, sx, sy);
            }
        }
        // Connection boxes.
        for y in 0..h {
            for x in 0..w {
                g.connect_tile(arch, x, y);
            }
        }
        // Pads onto their perimeter channel segment (all tracks — pads
        // are peripheral and cheap).
        for id in 0..pad_total {
            let wires: Vec<RrNodeKind> = (0..cw).map(|t| g.pad_channel(id, t)).collect();
            for kind in wires {
                g.link_kind(RrNodeKind::Pad { id }, kind);
            }
        }
        g
    }

    fn add(&mut self, kind: RrNodeKind) {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("graph too large"));
        debug_assert_eq!(self.node(kind), Some(id), "build order drifted from node()");
        self.nodes.push(kind);
        self.spans.push(self.span_of(kind));
        self.adj.push(Vec::new());
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

    fn connect_switchbox(&mut self, arch: &ArchSpec, sx: usize, sy: usize) {
        let cw = arch.channel_width;
        for t in 0..cw {
            // Incident wire stubs at this corner.
            let west = (sx > 0).then(|| RrNodeKind::HWire {
                x: sx - 1,
                y: sy,
                t,
            });
            let east = (sx < self.width).then_some(RrNodeKind::HWire { x: sx, y: sy, t });
            let south = (sy > 0).then(|| RrNodeKind::VWire {
                x: sx,
                y: sy - 1,
                t,
            });
            let north = (sy < self.height).then_some(RrNodeKind::VWire { x: sx, y: sy, t });

            let turn = |track: usize| match arch.switchbox {
                SwitchBoxKind::Disjoint => track,
                SwitchBoxKind::Wilton => (track + 1) % cw,
            };

            // Straight-through connections keep the track index.
            if let (Some(a), Some(b)) = (west, east) {
                self.link_kind(a, b);
            }
            if let (Some(a), Some(b)) = (south, north) {
                self.link_kind(a, b);
            }
            // Turns: disjoint keeps the track, Wilton rotates by one.
            let tt = turn(t);
            let remap = |k: RrNodeKind| match k {
                RrNodeKind::HWire { x, y, .. } => RrNodeKind::HWire { x, y, t: tt },
                RrNodeKind::VWire { x, y, .. } => RrNodeKind::VWire { x, y, t: tt },
                other => other,
            };
            for (a, b) in [(west, south), (west, north), (east, south), (east, north)] {
                if let (Some(a), Some(b)) = (a, b) {
                    self.link_kind(a, remap(b));
                }
            }
        }
    }

    fn connect_tile(&mut self, arch: &ArchSpec, x: usize, y: usize) {
        let cw = arch.channel_width;
        // The four channels bounding tile (x, y).
        let channels = |t: usize| {
            [
                RrNodeKind::HWire { x, y, t },        // south
                RrNodeKind::HWire { x, y: y + 1, t }, // north
                RrNodeKind::VWire { x, y, t },        // west
                RrNodeKind::VWire { x: x + 1, y, t }, // east
            ]
        };
        // Consecutive-track patterns staggered by pin index: under a
        // disjoint switch box, track domains never mix, so strided
        // patterns can marooon output pins on tracks no input pin taps;
        // consecutive windows guarantee overlap whenever
        // fc_in + fc_out > 1 (the paper preset uses fc_in = 1).
        let n_out = arch.fc_out_tracks();
        for pin in 0..arch.plb.outputs {
            let opin = RrNodeKind::Opin { x, y, pin };
            for k in 0..n_out {
                let t = (pin + k) % cw;
                for ch in channels(t) {
                    self.link_kind(opin, ch);
                }
            }
        }
        let n_in = arch.fc_in_tracks();
        for pin in 0..arch.plb.inputs {
            let ipin = RrNodeKind::Ipin { x, y, pin };
            for k in 0..n_in {
                let t = (pin + k) % cw;
                for ch in channels(t) {
                    self.link_kind(ipin, ch);
                }
            }
        }
    }

    fn link_kind(&mut self, a: RrNodeKind, b: RrNodeKind) {
        let (Some(ia), Some(ib)) = (self.node(a), self.node(b)) else {
            panic!("linking unknown node {a:?} or {b:?}");
        };
        if !self.adj[ia.index()].contains(&ib) {
            self.adj[ia.index()].push(ib);
            self.adj[ib.index()].push(ia);
        }
    }

    /// Node count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes (never for a valid architecture).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn kind(&self, id: NodeId) -> RrNodeKind {
        self.nodes[id.index()]
    }

    /// Neighbours of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.adj[id.index()]
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
    /// [`Rrg::build`] loops over them.
    #[must_use]
    pub fn node(&self, kind: RrNodeKind) -> Option<NodeId> {
        let (w, h, cw) = (self.width, self.height, self.channel_width);
        let (outs, ins) = (self.plb_outputs, self.plb_inputs);
        let v_base = (h + 1) * w * cw;
        let pin_base = v_base + (w + 1) * h * cw;
        let pad_base = pin_base + w * h * (outs + ins);
        let index = match kind {
            RrNodeKind::HWire { x, y, t } if x < w && y <= h && t < cw => (y * w + x) * cw + t,
            RrNodeKind::VWire { x, y, t } if x <= w && y < h && t < cw => {
                v_base + (x * h + y) * cw + t
            }
            RrNodeKind::Opin { x, y, pin } if x < w && y < h && pin < outs => {
                pin_base + (y * w + x) * (outs + ins) + pin
            }
            RrNodeKind::Ipin { x, y, pin } if x < w && y < h && pin < ins => {
                pin_base + (y * w + x) * (outs + ins) + outs + pin
            }
            RrNodeKind::Pad { id } if id < self.pad_count => pad_base + id,
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

    /// Total wire nodes (for routing-stat reports).
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|k| matches!(k, RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }))
            .count()
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
    }

    #[test]
    fn node_index_inverts_kind_on_every_architecture() {
        let mut wilton = ArchSpec::paper(3, 3);
        wilton.switchbox = SwitchBoxKind::Wilton;
        let mut narrow = ArchSpec::paper(4, 2);
        narrow.channel_width = 1;
        let mut tall = ArchSpec::no_aux_outputs(2, 5);
        tall.channel_width = 12;
        for a in [ArchSpec::paper(2, 2), arch(), wilton, narrow, tall] {
            let g = Rrg::build(&a);
            for i in 0..g.len() {
                let id = NodeId(u32::try_from(i).unwrap());
                assert_eq!(g.node(g.kind(id)), Some(id), "{} node {i}", a.name);
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
        assert!(g.neighbors(a).contains(&b));
        // Turn at SB(1,1) onto V(1,0,2) and V(1,1,2) with same track.
        let s = g.node(RrNodeKind::VWire { x: 1, y: 0, t: 2 }).unwrap();
        assert!(g.neighbors(a).contains(&s));
        // Different track not connected under disjoint topology.
        let s3 = g.node(RrNodeKind::VWire { x: 1, y: 0, t: 3 }).unwrap();
        assert!(!g.neighbors(a).contains(&s3));
    }

    #[test]
    fn wilton_switchbox_rotates_turns() {
        let mut a = arch();
        a.switchbox = SwitchBoxKind::Wilton;
        let g = Rrg::build(&a);
        let h = g.node(RrNodeKind::HWire { x: 0, y: 1, t: 2 }).unwrap();
        // Straight still preserves track...
        let h2 = g.node(RrNodeKind::HWire { x: 1, y: 1, t: 2 }).unwrap();
        assert!(g.neighbors(h).contains(&h2));
        // ...but turns land on track 3.
        let v3 = g.node(RrNodeKind::VWire { x: 1, y: 0, t: 3 }).unwrap();
        assert!(g.neighbors(h).contains(&v3));
    }

    #[test]
    fn pins_reach_adjacent_channels() {
        let a = arch();
        let g = Rrg::build(&a);
        let opin = g.node(RrNodeKind::Opin { x: 1, y: 1, pin: 0 }).unwrap();
        let touches_channel = g.neighbors(opin).iter().any(|&n| {
            matches!(
                g.kind(n),
                RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }
            )
        });
        assert!(touches_channel);
        // fc = 0.5 on cw=4 -> 2 tracks × 4 channels.
        assert_eq!(g.neighbors(opin).len(), 8);
    }

    #[test]
    fn pads_cover_perimeter() {
        let g = Rrg::build(&arch());
        for id in 0..g.pad_count() {
            let pad = g.node(RrNodeKind::Pad { id }).unwrap();
            assert!(
                !g.neighbors(pad).is_empty(),
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
        // any adjacency edge the span gap to a fixed target shrinks by
        // at most 1.
        let g = Rrg::build(&arch());
        let target = g.span(g.node(RrNodeKind::Ipin { x: 1, y: 1, pin: 0 }).unwrap());
        for i in 0..g.len() {
            let u = NodeId(u32::try_from(i).unwrap());
            let du = g.span(u).manhattan_to(target);
            for &v in g.neighbors(u) {
                let dv = g.span(v).manhattan_to(target);
                assert!(
                    dv + 1 >= du,
                    "edge {:?} -> {:?} shrinks the gap by more than one ({du} -> {dv})",
                    g.kind(u),
                    g.kind(v)
                );
            }
        }
    }

    #[test]
    fn fabric_is_connected() {
        // BFS from pad 0 must reach every pin and pad.
        let g = Rrg::build(&arch());
        let start = g.node(RrNodeKind::Pad { id: 0 }).unwrap();
        let mut seen = vec![false; g.len()];
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start.index()] = true;
        while let Some(n) = queue.pop_front() {
            for &m in g.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    queue.push_back(m);
                }
            }
        }
        for (i, kind) in (0..g.len()).map(|i| (i, g.kind(NodeId(i as u32)))) {
            assert!(
                seen[i],
                "node {kind:?} unreachable from pad 0 — fabric is split"
            );
        }
    }
}
