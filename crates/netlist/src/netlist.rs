//! The flat netlist container and its builder API.

use crate::channel::Channel;
use crate::gate::GateKind;
use crate::ids::{ChannelId, GateId, NetId};
use serde::{Deserialize, Serialize};

/// One sink of a net: input pin `pin` of gate `gate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Sink {
    /// The consuming gate.
    pub gate: GateId,
    /// The input-pin position on that gate.
    pub pin: usize,
}

/// A single wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Net {
    name: String,
    driver: Option<GateId>,
    sinks: Vec<Sink>,
    is_primary_input: bool,
}

impl Net {
    /// Net name (unique within the netlist).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate driving this net, if any. Primary inputs have no driver.
    #[must_use]
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }

    /// The gate input pins this net fans out to.
    #[must_use]
    pub fn sinks(&self) -> &[Sink] {
        &self.sinks
    }

    /// True when the net is a primary input of the netlist.
    #[must_use]
    pub fn is_primary_input(&self) -> bool {
        self.is_primary_input
    }
}

/// A gate instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gate {
    name: String,
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
    feedback: bool,
}

impl Gate {
    /// Instance name (unique within the netlist).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate's kind.
    #[must_use]
    pub fn kind(&self) -> &GateKind {
        &self.kind
    }

    /// Input nets, in pin order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The single output net.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }

    /// True when the gate was explicitly marked as an intentional feedback
    /// point (e.g. a LUT whose output loops back to one of its inputs to
    /// realise a C-element). Such gates are treated like state-holding
    /// primitives by levelisation and loop validation.
    #[must_use]
    pub fn is_feedback(&self) -> bool {
        self.feedback
    }

    /// True when this gate breaks combinational cycles: either its kind is
    /// state-holding or it was marked with [`Netlist::mark_feedback`].
    #[must_use]
    pub fn breaks_cycles(&self) -> bool {
        self.feedback || self.kind.is_state_holding()
    }
}

/// A flat gate-level netlist with handshake-channel annotations.
///
/// Construction is incremental: create nets, attach gates, declare primary
/// inputs/outputs and channels, then [`Netlist::validate`]. All mutating
/// methods enforce the single-driver rule and gate arities eagerly, so an
/// ill-formed netlist is hard to express in the first place.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    channels: Vec<Channel>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// The netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an undriven internal net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId::new(self.nets.len());
        self.nets.push(Net {
            name: name.into(),
            driver: None,
            sinks: Vec::new(),
            is_primary_input: false,
        });
        id
    }

    /// Adds a primary-input net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.nets[id.index()].is_primary_input = true;
        self.inputs.push(id);
        id
    }

    /// Declares an existing net as a primary output.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn mark_output(&mut self, net: NetId) {
        assert!(net.index() < self.nets.len(), "unknown net {net}");
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Adds a gate driving the existing net `output`.
    ///
    /// # Panics
    ///
    /// Panics if the arity is illegal for `kind`, if any net id is out of
    /// range, or if `output` already has a driver or is a primary input.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        name: impl Into<String>,
        inputs: &[NetId],
        output: NetId,
    ) -> GateId {
        let name = name.into();
        assert!(
            kind.accepts_arity(inputs.len()),
            "gate '{name}' ({kind}) cannot take {} inputs",
            inputs.len()
        );
        for &i in inputs {
            assert!(i.index() < self.nets.len(), "unknown input net {i}");
        }
        assert!(output.index() < self.nets.len(), "unknown output net");
        assert!(
            self.nets[output.index()].driver.is_none(),
            "net '{}' already driven",
            self.nets[output.index()].name
        );
        assert!(
            !self.nets[output.index()].is_primary_input,
            "cannot drive primary input '{}'",
            self.nets[output.index()].name
        );

        let id = GateId::new(self.gates.len());
        for (pin, &i) in inputs.iter().enumerate() {
            self.nets[i.index()].sinks.push(Sink { gate: id, pin });
        }
        self.nets[output.index()].driver = Some(id);
        self.gates.push(Gate {
            name,
            kind,
            inputs: inputs.to_vec(),
            output,
            feedback: false,
        });
        id
    }

    /// Adds a gate together with a fresh output net named `"<name>_y"`.
    /// Returns `(gate, output_net)`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Netlist::add_gate`].
    pub fn add_gate_new(
        &mut self,
        kind: GateKind,
        name: impl Into<String>,
        inputs: &[NetId],
    ) -> (GateId, NetId) {
        let name = name.into();
        let out = self.add_net(format!("{name}_y"));
        let gate = self.add_gate(kind, name, inputs, out);
        (gate, out)
    }

    /// Marks a gate as an intentional feedback point (see
    /// [`Gate::is_feedback`]).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn mark_feedback(&mut self, gate: GateId) {
        self.gates[gate.index()].feedback = true;
    }

    /// Registers a handshake channel annotation.
    ///
    /// # Panics
    ///
    /// Panics if the channel references unknown nets or its rail count does
    /// not match its encoding (see [`Channel::check_shape`]).
    pub fn add_channel(&mut self, channel: Channel) -> ChannelId {
        channel
            .check_shape(self.nets.len())
            .unwrap_or_else(|e| panic!("bad channel '{}': {e}", channel.name()));
        let id = ChannelId::new(self.channels.len());
        self.channels.push(channel);
        id
    }

    /// All nets, indexable by [`NetId::index`].
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All gates, indexable by [`GateId::index`].
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Accessor for one net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Accessor for one gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Registered handshake channels.
    #[must_use]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Accessor for one channel.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Iterator over `(GateId, &Gate)` pairs.
    pub fn iter_gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::new(i), g))
    }

    /// Iterator over `(NetId, &Net)` pairs.
    pub fn iter_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::new(i), n))
    }

    /// Looks up a net by name (linear scan — intended for tests/examples).
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.iter_nets()
            .find(|(_, n)| n.name() == name)
            .map(|(id, _)| id)
    }

    /// Looks up a gate by name (linear scan — intended for tests/examples).
    #[must_use]
    pub fn find_gate(&self, name: &str) -> Option<GateId> {
        self.iter_gates()
            .find(|(_, g)| g.name() == name)
            .map(|(id, _)| id)
    }

    /// Number of gates of each coarse category, used in reports.
    #[must_use]
    pub fn count_kind(&self, pred: impl Fn(&GateKind) -> bool) -> usize {
        self.gates.iter().filter(|g| pred(&g.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::LutTable;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, y) = nl.add_gate_new(GateKind::And, "and0", &[a, b]);
        nl.mark_output(y);
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = tiny();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.gates().len(), 1);
        let g = nl.gate(GateId::new(0));
        assert_eq!(g.inputs().len(), 2);
        assert_eq!(nl.net(g.output()).driver(), Some(GateId::new(0)));
        assert_eq!(nl.net(nl.inputs()[0]).sinks().len(), 1);
    }

    #[test]
    fn find_by_name() {
        let nl = tiny();
        assert!(nl.find_net("a").is_some());
        assert!(nl.find_gate("and0").is_some());
        assert!(nl.find_net("zzz").is_none());
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut nl = tiny();
        let y = nl.outputs()[0];
        nl.mark_output(y);
        assert_eq!(nl.outputs().len(), 1);
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_drive_rejected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Buf, "b0", &[a], y);
        nl.add_gate(GateKind::Not, "b1", &[a], y);
    }

    #[test]
    #[should_panic(expected = "cannot drive primary input")]
    fn driving_input_rejected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.add_gate(GateKind::Buf, "b0", &[b], a);
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        nl.add_gate_new(GateKind::Mux2, "m", &[a, a]);
    }

    #[test]
    fn feedback_marking() {
        let mut nl = Netlist::new("fb");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        let g = nl.add_gate(GateKind::Lut(LutTable::majority3()), "c_lut", &[a, b, y], y);
        nl.mark_feedback(g);
        assert!(nl.gate(g).breaks_cycles());
        assert!(!nl.gate(g).kind().is_state_holding());
    }

    #[test]
    fn state_gates_break_cycles_implicitly() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (g, _) = nl.add_gate_new(GateKind::Celement, "c0", &[a, b]);
        assert!(nl.gate(g).breaks_cycles());
    }
}
