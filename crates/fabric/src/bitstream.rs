//! The programmed fabric: PLB configurations + routing state + pad map.
//!
//! [`FabricConfig`] is the "bitstream" of the reproduction — everything a
//! configuration memory would hold, in a serialisable, diffable form.
//! Route trees store [`RrNodeKind`]s rather than node indices so a saved
//! bitstream remains valid across graph rebuilds of the same
//! architecture.

use crate::arch::ArchSpec;
use crate::plb::PlbConfig;
use crate::rrg::{RrNodeKind, Rrg};
use serde::{Deserialize, Serialize};

/// Direction of an I/O pad assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PadDir {
    /// The pad drives into the fabric (a design primary input).
    Input,
    /// The pad is driven by the fabric (a design primary output).
    Output,
}

/// Binding of one design-level net to an I/O pad.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PadAssignment {
    /// Pad index in the RRG.
    pub pad: usize,
    /// The design net name bound to this pad.
    pub net: String,
    /// Direction.
    pub dir: PadDir,
}

/// The routed tree of one logical net: a source node, the wire/pin nodes
/// it occupies, and the sinks it reaches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteTree {
    /// The design net name.
    pub net: String,
    /// Source node (an `Opin` or input `Pad`).
    pub source: RrNodeKind,
    /// Sink nodes (`Ipin`s and/or output `Pad`s).
    pub sinks: Vec<RrNodeKind>,
    /// Every node occupied by the tree, including source and sinks.
    pub nodes: Vec<RrNodeKind>,
    /// Tree edges as `(parent, child)` pairs.
    pub edges: Vec<(RrNodeKind, RrNodeKind)>,
}

impl RouteTree {
    /// Wire segments used (routing cost of this net).
    #[must_use]
    pub fn wirelength(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, RrNodeKind::HWire { .. } | RrNodeKind::VWire { .. }))
            .count()
    }
}

/// A fully-programmed fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// The design name (usually the source netlist's).
    pub design: String,
    /// The architecture this bitstream targets.
    pub arch: ArchSpec,
    /// PLB configurations, row-major (`y * width + x`).
    pub plbs: Vec<PlbConfig>,
    /// One route tree per inter-PLB net.
    pub routes: Vec<RouteTree>,
    /// I/O pad bindings.
    pub pads: Vec<PadAssignment>,
}

impl FabricConfig {
    /// An unprogrammed fabric for `arch`.
    #[must_use]
    pub fn empty(design: impl Into<String>, arch: ArchSpec) -> Self {
        let plbs = (0..arch.plb_count())
            .map(|_| PlbConfig::empty(&arch.plb))
            .collect();
        Self {
            design: design.into(),
            arch,
            plbs,
            routes: Vec::new(),
            pads: Vec::new(),
        }
    }

    /// The PLB at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn plb(&self, x: usize, y: usize) -> &PlbConfig {
        assert!(x < self.arch.width && y < self.arch.height, "PLB oob");
        &self.plbs[y * self.arch.width + x]
    }

    /// Mutable access to the PLB at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn plb_mut(&mut self, x: usize, y: usize) -> &mut PlbConfig {
        assert!(x < self.arch.width && y < self.arch.height, "PLB oob");
        &mut self.plbs[y * self.arch.width + x]
    }

    /// Pad assignment for `net`, if any.
    #[must_use]
    pub fn pad_for_net(&self, net: &str) -> Option<&PadAssignment> {
        self.pads.iter().find(|p| p.net == net)
    }

    /// Total wirelength over all route trees.
    #[must_use]
    pub fn total_wirelength(&self) -> usize {
        self.routes.iter().map(RouteTree::wirelength).sum()
    }

    /// Validates the whole bitstream against the architecture and graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: an ill-formed PLB, a route edge
    /// that does not exist in the RRG, two nets sharing a wire, or a pad
    /// bound twice.
    pub fn check(&self, rrg: &Rrg) -> Result<(), String> {
        for (i, plb) in self.plbs.iter().enumerate() {
            plb.check(&self.arch.plb)
                .map_err(|e| format!("PLB #{i}: {e}"))?;
        }
        // Per wire, the index of the last tree seen on it. Wires are
        // exclusive; pins are per-net by construction.
        let mut occupant: Vec<Option<usize>> = vec![None; rrg.wire_count()];
        for (i, tree) in self.routes.iter().enumerate() {
            for node in &tree.nodes {
                let Some(id) = rrg.node(*node) else {
                    return Err(format!("net '{}': node {node:?} not in graph", tree.net));
                };
                if rrg.is_wire(id) {
                    if let Some(k) = occupant[id.index()].replace(i) {
                        let other = &self.routes[k].net;
                        if *other != tree.net {
                            return Err(format!(
                                "wire {node:?} shared by '{other}' and '{}'",
                                tree.net
                            ));
                        }
                    }
                }
            }
            for (a, b) in &tree.edges {
                let (Some(ia), Some(ib)) = (rrg.node(*a), rrg.node(*b)) else {
                    return Err(format!("net '{}': edge endpoint missing", tree.net));
                };
                if !rrg.adjacent(ia, ib) {
                    return Err(format!(
                        "net '{}': edge {a:?} -> {b:?} not present in fabric",
                        tree.net
                    ));
                }
            }
        }
        let mut pads_seen = std::collections::HashSet::new();
        for pad in &self.pads {
            if pad.pad >= rrg.pad_count() {
                return Err(format!("pad {} out of range", pad.pad));
            }
            if !pads_seen.insert(pad.pad) {
                return Err(format!("pad {} bound twice", pad.pad));
            }
        }
        Ok(())
    }

    /// Serialises to JSON.
    ///
    /// # Errors
    ///
    /// Propagates serde errors (should not happen for well-formed data).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// Propagates serde errors for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plb::{ImSink, ImSource};

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::paper(2, 2);
        a.channel_width = 4;
        a
    }

    #[test]
    fn empty_config_checks_clean() {
        let a = arch();
        let rrg = Rrg::build(&a);
        let cfg = FabricConfig::empty("t", a);
        assert!(cfg.check(&rrg).is_ok());
        assert_eq!(cfg.plbs.len(), 4);
    }

    #[test]
    fn plb_indexing() {
        let mut cfg = FabricConfig::empty("t", arch());
        cfg.plb_mut(1, 0)
            .im_connect(ImSink::PlbOut(0), ImSource::PlbInput(0));
        assert!(cfg.plb(1, 0).is_used());
        assert!(!cfg.plb(0, 1).is_used());
    }

    #[test]
    fn bad_route_edge_detected() {
        let a = arch();
        let rrg = Rrg::build(&a);
        let mut cfg = FabricConfig::empty("t", a);
        // Two parallel wires that never touch.
        let w1 = RrNodeKind::HWire { x: 0, y: 0, t: 0 };
        let w2 = RrNodeKind::HWire { x: 0, y: 1, t: 0 };
        cfg.routes.push(RouteTree {
            net: "n".into(),
            source: w1,
            sinks: vec![w2],
            nodes: vec![w1, w2],
            edges: vec![(w1, w2)],
        });
        let err = cfg.check(&rrg).unwrap_err();
        assert!(err.contains("not present"), "{err}");

        // A wire into an input pin of a tile the wire does not border:
        // H(0, 0) runs below tile (0, 0), not tile (1, 1).
        let far_pin = RrNodeKind::Ipin { x: 1, y: 1, pin: 0 };
        cfg.routes[0] = RouteTree {
            net: "n".into(),
            source: w1,
            sinks: vec![far_pin],
            nodes: vec![w1, far_pin],
            edges: vec![(w1, far_pin)],
        };
        let err = cfg.check(&rrg).unwrap_err();
        assert!(err.contains("not present"), "{err}");

        // A real connection-box edge passes in both orientations: tile
        // (0, 0)'s input pin 0 taps track 0 of its south channel.
        let pin = RrNodeKind::Ipin { x: 0, y: 0, pin: 0 };
        for edge in [(w1, pin), (pin, w1)] {
            cfg.routes[0] = RouteTree {
                net: "n".into(),
                source: edge.0,
                sinks: vec![edge.1],
                nodes: vec![edge.0, edge.1],
                edges: vec![edge],
            };
            assert_eq!(cfg.check(&rrg), Ok(()), "{edge:?}");
        }
    }

    #[test]
    fn wire_sharing_detected() {
        let a = arch();
        let rrg = Rrg::build(&a);
        let mut cfg = FabricConfig::empty("t", a);
        let w = RrNodeKind::HWire { x: 0, y: 0, t: 1 };
        for name in ["n1", "n2"] {
            cfg.routes.push(RouteTree {
                net: name.into(),
                source: w,
                sinks: vec![],
                nodes: vec![w],
                edges: vec![],
            });
        }
        let err = cfg.check(&rrg).unwrap_err();
        assert!(err.contains("shared"), "{err}");
    }

    #[test]
    fn duplicate_pad_detected() {
        let a = arch();
        let rrg = Rrg::build(&a);
        let mut cfg = FabricConfig::empty("t", a);
        cfg.pads.push(PadAssignment {
            pad: 0,
            net: "a".into(),
            dir: PadDir::Input,
        });
        cfg.pads.push(PadAssignment {
            pad: 0,
            net: "b".into(),
            dir: PadDir::Output,
        });
        assert!(cfg.check(&rrg).unwrap_err().contains("twice"));
    }

    #[test]
    fn json_roundtrip() {
        let mut cfg = FabricConfig::empty("t", arch());
        cfg.pads.push(PadAssignment {
            pad: 3,
            net: "x".into(),
            dir: PadDir::Input,
        });
        let json = cfg.to_json().unwrap();
        let back = FabricConfig::from_json(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn wirelength_counts_only_wires() {
        let tree = RouteTree {
            net: "n".into(),
            source: RrNodeKind::Pad { id: 0 },
            sinks: vec![RrNodeKind::Ipin { x: 0, y: 0, pin: 0 }],
            nodes: vec![
                RrNodeKind::Pad { id: 0 },
                RrNodeKind::HWire { x: 0, y: 0, t: 0 },
                RrNodeKind::HWire { x: 1, y: 0, t: 0 },
                RrNodeKind::Ipin { x: 0, y: 0, pin: 0 },
            ],
            edges: vec![],
        };
        assert_eq!(tree.wirelength(), 2);
    }
}
