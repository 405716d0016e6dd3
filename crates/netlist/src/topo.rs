//! Levelisation of netlists with state-holding feedback.
//!
//! Asynchronous netlists are cyclic by construction (C-elements, latches,
//! looped LUTs). Levelisation therefore cuts every edge that *leaves* a
//! cycle-breaking gate (see [`crate::Gate::breaks_cycles`]) and then runs
//! Kahn's algorithm over the remaining combinational edges. The result is
//! used by [`Netlist::validate`](crate::Netlist::validate), which reports
//! any gates left on a cycle as an unbroken combinational loop, and by
//! [`NetlistStats`](crate::NetlistStats) for the combinational depth.

use crate::ids::GateId;
use crate::netlist::Netlist;

/// Gates grouped by combinational depth.
///
/// `levels[0]` contains gates all of whose inputs are primary inputs or
/// outputs of cycle-breaking gates; `levels[d]` depends only on levels
/// `< d` (and cut edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    levels: Vec<Vec<GateId>>,
}

impl Levels {
    /// The level groups, shallowest first.
    #[must_use]
    pub fn groups(&self) -> &[Vec<GateId>] {
        &self.levels
    }

    /// Combinational depth (number of levels).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Flattened topological order.
    pub fn iter(&self) -> impl Iterator<Item = GateId> + '_ {
        self.levels.iter().flatten().copied()
    }
}

/// Error: the netlist contains a combinational cycle not broken by any
/// state-holding or feedback-marked gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelizeError {
    /// Gates participating in unresolved cycles.
    pub cyclic_gates: Vec<GateId>,
}

impl std::fmt::Display for LevelizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "combinational cycle through {} gate(s) with no state-holding break",
            self.cyclic_gates.len()
        )
    }
}

impl std::error::Error for LevelizeError {}

/// Levelises `netlist`, treating outputs of cycle-breaking gates as
/// sources.
///
/// # Errors
///
/// Returns [`LevelizeError`] listing the offending gates when a pure
/// combinational cycle remains.
pub fn levelize(netlist: &Netlist) -> Result<Levels, LevelizeError> {
    let n = netlist.gates().len();
    // In-degree counting only *combinational* predecessors: an input edge is
    // combinational unless its driver breaks cycles (or it has no driver).
    let mut indeg = vec![0usize; n];
    for (gid, gate) in netlist.iter_gates() {
        for &input in gate.inputs() {
            if let Some(driver) = netlist.net(input).driver() {
                if !netlist.gate(driver).breaks_cycles() {
                    indeg[gid.index()] += 1;
                }
            }
        }
    }

    let mut frontier: Vec<GateId> = (0..n)
        .map(GateId::new)
        .filter(|g| indeg[g.index()] == 0)
        .collect();
    let mut levels: Vec<Vec<GateId>> = Vec::new();
    let mut placed = 0usize;

    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &gid in &frontier {
            placed += 1;
            // A cycle-breaking gate's output does not propagate combinational
            // dependence, so its successors were never counted against it.
            if netlist.gate(gid).breaks_cycles() {
                continue;
            }
            let out = netlist.gate(gid).output();
            for sink in netlist.net(out).sinks() {
                let s = sink.gate.index();
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    next.push(sink.gate);
                }
            }
        }
        levels.push(std::mem::take(&mut frontier));
        frontier = next;
    }

    if placed != n {
        let cyclic_gates = (0..n)
            .map(GateId::new)
            .filter(|g| indeg[g.index()] > 0)
            .collect();
        return Err(LevelizeError { cyclic_gates });
    }
    Ok(Levels { levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{GateKind, LutTable};

    #[test]
    fn chain_levels() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let (_, y0) = nl.add_gate_new(GateKind::Not, "n0", &[a]);
        let (_, y1) = nl.add_gate_new(GateKind::Not, "n1", &[y0]);
        let (_, y2) = nl.add_gate_new(GateKind::Not, "n2", &[y1]);
        nl.mark_output(y2);
        let lv = levelize(&nl).unwrap();
        assert_eq!(lv.depth(), 3);
        assert_eq!(lv.groups()[0], vec![GateId::new(0)]);
        assert_eq!(lv.iter().count(), 3);
    }

    #[test]
    fn celement_cycle_is_fine() {
        // Handshake loop: c0 <- not(c0) through an inverter — legal because
        // the C-element holds state.
        let mut nl = Netlist::new("ring");
        let a = nl.add_input("a");
        let cy = nl.add_net("cy");
        let (_, ny) = nl.add_gate_new(GateKind::Not, "inv", &[cy]);
        nl.add_gate(GateKind::Celement, "c0", &[a, ny], cy);
        nl.mark_output(cy);
        let lv = levelize(&nl).unwrap();
        assert_eq!(lv.iter().count(), 2);
    }

    #[test]
    fn looped_lut_requires_feedback_mark() {
        let mut nl = Netlist::new("lut_loop");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        let g = nl.add_gate(GateKind::Lut(LutTable::majority3()), "c_lut", &[a, b, y], y);
        assert!(levelize(&nl).is_err());
        nl.mark_feedback(g);
        assert!(levelize(&nl).is_ok());
    }

    #[test]
    fn pure_comb_cycle_detected() {
        let mut nl = Netlist::new("bad_ring");
        let a = nl.add_input("a");
        let y0 = nl.add_net("y0");
        let y1 = nl.add_net("y1");
        nl.add_gate(GateKind::And, "g0", &[a, y1], y0);
        nl.add_gate(GateKind::Buf, "g1", &[y0], y1);
        let err = levelize(&nl).unwrap_err();
        assert_eq!(err.cyclic_gates.len(), 2);
        assert!(err.to_string().contains("combinational cycle"));
    }

    #[test]
    fn diamond_depth() {
        let mut nl = Netlist::new("diamond");
        let a = nl.add_input("a");
        let (_, l) = nl.add_gate_new(GateKind::Not, "l", &[a]);
        let (_, r) = nl.add_gate_new(GateKind::Buf, "r", &[a]);
        let (_, y) = nl.add_gate_new(GateKind::And, "m", &[l, r]);
        nl.mark_output(y);
        let lv = levelize(&nl).unwrap();
        assert_eq!(lv.depth(), 2);
        assert_eq!(lv.groups()[0].len(), 2);
        assert_eq!(lv.groups()[1].len(), 1);
    }

    #[test]
    fn empty_netlist() {
        let nl = Netlist::new("empty");
        let lv = levelize(&nl).unwrap();
        assert_eq!(lv.depth(), 0);
    }
}
