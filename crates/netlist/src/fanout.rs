//! Compressed-sparse-row (CSR) fanout index.
//!
//! The event-driven simulator's hottest operation is "which gates observe
//! this net" — executed once per committed event. Walking
//! [`crate::Net::sinks`] for that means chasing a per-net `Vec` allocation
//! (and, worse, *collecting* the gate ids into a fresh `Vec` to appease
//! the borrow checker, as the pre-optimization engine did). The
//! [`FanoutIndex`] flattens all sink lists into two contiguous arrays once,
//! so the per-event work is a pair of offset reads plus a linear scan of a
//! shared slice — zero allocation, cache-friendly, branch-predictable.
//!
//! # Invariants
//!
//! * `offsets.len() == netlist.nets().len() + 1`, `offsets[0] == 0`, and
//!   `offsets` is non-decreasing; net `n`'s observers live at
//!   `sinks[offsets[n] .. offsets[n + 1]]`.
//! * `sinks` preserves the netlist's sink order (pin order within a net),
//!   and a gate consuming the same net on several pins appears once *per
//!   pin*, exactly like [`crate::Net::sinks`] — consumers that need
//!   distinct gates must deduplicate (the simulator's dirty-stamp does).
//! * The index is a snapshot: netlist mutations after [`Netlist::fanout_index`]
//!   (adding gates, rewiring pins) are not reflected. Build it once per
//!   analysis/simulation over a finished netlist.

use crate::ids::{GateId, NetId};
use crate::netlist::Netlist;

/// Flattened net → consuming-gates map. See the module docs for the
/// layout invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutIndex {
    /// CSR row offsets into `sinks`; length = net count + 1.
    offsets: Vec<u32>,
    /// Consuming gate per sink pin, net-major.
    sinks: Vec<GateId>,
}

impl FanoutIndex {
    /// Builds the index from a netlist (one pass over the sink lists).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` sink pins total
    /// (far beyond any fabric this tool-chain targets).
    #[must_use]
    pub fn build(netlist: &Netlist) -> Self {
        let n_nets = netlist.nets().len();
        let total: usize = netlist.nets().iter().map(|n| n.sinks().len()).sum();
        let mut offsets = Vec::with_capacity(n_nets + 1);
        let mut sinks = Vec::with_capacity(total);
        offsets.push(0);
        for net in netlist.nets() {
            for s in net.sinks() {
                sinks.push(s.gate);
            }
            offsets.push(u32::try_from(sinks.len()).expect("sink count overflows u32"));
        }
        Self { offsets, sinks }
    }

    /// The gates observing `net`, one entry per consuming pin.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for the indexed netlist.
    #[must_use]
    #[inline]
    pub fn gates_of(&self, net: NetId) -> &[GateId] {
        let i = net.index();
        &self.sinks[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of nets the index covers.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

impl Netlist {
    /// Builds a [`FanoutIndex`] snapshot of this netlist's connectivity.
    #[must_use]
    pub fn fanout_index(&self) -> FanoutIndex {
        FanoutIndex::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    #[test]
    fn csr_matches_sink_lists() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, y0) = nl.add_gate_new(GateKind::And, "g0", &[a, b]);
        let (_, y1) = nl.add_gate_new(GateKind::Or, "g1", &[a, y0]);
        let (_, _y2) = nl.add_gate_new(GateKind::Xor, "g2", &[y0, y1]);
        let idx = nl.fanout_index();
        assert_eq!(idx.net_count(), nl.nets().len());
        for (id, net) in nl.iter_nets() {
            let via_csr: Vec<GateId> = idx.gates_of(id).to_vec();
            let via_net: Vec<GateId> = net.sinks().iter().map(|s| s.gate).collect();
            assert_eq!(via_csr, via_net, "net {id}");
        }
    }

    #[test]
    fn multi_pin_consumer_appears_per_pin() {
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let (g, _) = nl.add_gate_new(GateKind::And, "g", &[a, a]);
        let idx = nl.fanout_index();
        assert_eq!(idx.gates_of(a), &[g, g]);
    }

    #[test]
    fn empty_and_dangling_nets() {
        let mut nl = Netlist::new("e");
        let a = nl.add_input("unused");
        let idx = nl.fanout_index();
        assert!(idx.gates_of(a).is_empty());
    }
}
