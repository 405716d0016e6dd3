//! Technology mapping: gate netlist → LE-level functions.
//!
//! The passes, in order:
//!
//! 1. **alias sweep** — `Buf` gates disappear (output ≡ input);
//! 2. **lowering** — every remaining gate becomes a LUT *candidate*
//!    (truth table over signals). State-holding gates (C-elements,
//!    latches) gain a trailing feedback input — the looped-LUT encoding
//!    the paper's IM makes possible; `Delay` gates become PDE requests;
//! 3. **inverter folding** — `Not` candidates are folded into consumer
//!    tables;
//! 4. **wide-gate decomposition** — candidates wider than the LUT window
//!    split into balanced trees;
//! 5. **LE packing** — candidates pair up on the LUT7-3's A/B taps when
//!    their joint support fits the shared 6-pin window (dual-rail pairs
//!    and latch banks do), the free LUT2-1 absorbs 2-input functions of
//!    a pair's outputs (validity/completion ORs), and pure OR/AND/XOR
//!    candidates are rewritten to consume LUT2 partial terms.
//!
//! The result, [`MappedDesign`], speaks in *signals* — original nets plus
//! synthetic intermediates — and is consumed by the packer.

use msaf_fabric::arch::ArchSpec;
use msaf_fabric::le::LeOutput;
use msaf_netlist::{GateKind, LutTable, NetId, Netlist};
use std::collections::HashMap;

/// Index of a logical signal in a [`MappedDesign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(usize);

impl SignalId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a `SignalId` from a raw index — the inverse of
    /// [`SignalId::index`], used when restoring placements from
    /// serialized artifacts. The index is not validated against any
    /// particular design; callers pair it with the design the index
    /// was taken from.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }
}

impl std::fmt::Display for SignalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// What produces a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Producer {
    /// Environment (primary input).
    Pi,
    /// LE `le`'s tap `tap`.
    Le {
        /// Index into [`MappedDesign::les`].
        le: usize,
        /// The producing tap.
        tap: LeOutput,
    },
    /// PDE `pde`'s output.
    Pde {
        /// Index into [`MappedDesign::pdes`].
        pde: usize,
    },
    /// Constant value.
    Const(bool),
}

/// One function assigned to an LE tap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedFunc {
    /// The tap this function occupies.
    pub tap: LeOutput,
    /// Truth table over `inputs` (pin 0 first).
    pub table: LutTable,
    /// Input signals, deduplicated, in table pin order.
    pub inputs: Vec<SignalId>,
    /// The signal this function produces.
    pub output: SignalId,
    /// True when `inputs` contains `output` (looped LUT).
    pub feedback: bool,
}

/// One mapped logic element (1–3 functions sharing the input port).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MappedLe {
    /// The functions on this LE's taps.
    pub funcs: Vec<MappedFunc>,
}

impl MappedLe {
    /// Distinct input signals across all functions, excluding LUT2
    /// (whose inputs are the internal A/B taps).
    #[must_use]
    pub fn input_signals(&self) -> Vec<SignalId> {
        let mut v: Vec<SignalId> = self
            .funcs
            .iter()
            .filter(|f| f.tap != LeOutput::Lut2)
            .flat_map(|f| f.inputs.iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Signals produced by this LE.
    #[must_use]
    pub fn output_signals(&self) -> Vec<SignalId> {
        self.funcs.iter().map(|f| f.output).collect()
    }

    /// The function on `tap`, if any.
    #[must_use]
    pub fn func(&self, tap: LeOutput) -> Option<&MappedFunc> {
        self.funcs.iter().find(|f| f.tap == tap)
    }
}

/// One programmable-delay-element request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedPde {
    /// The delayed signal's source.
    pub input: SignalId,
    /// The delayed output signal.
    pub output: SignalId,
    /// Transport delay required, in simulator time units (from the
    /// netlist's `Delay` amount; the timing pass may raise it).
    pub required_delay: u64,
}

/// The output of technology mapping.
#[derive(Debug, Clone)]
pub struct MappedDesign {
    /// Source netlist name.
    pub name: String,
    /// Signal names, indexable by [`SignalId::index`].
    pub signal_names: Vec<String>,
    /// Producer of each signal.
    pub producers: Vec<Producer>,
    /// Original net → signal (after alias resolution).
    pub net_to_signal: Vec<SignalId>,
    /// Primary-input signals, in netlist order.
    pub pis: Vec<SignalId>,
    /// Primary-output signals, in netlist order.
    pub pos: Vec<SignalId>,
    /// Mapped logic elements.
    pub les: Vec<MappedLe>,
    /// PDE requests.
    pub pdes: Vec<MappedPde>,
}

impl MappedDesign {
    /// Name of `signal`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.signal_names[signal.index()]
    }

    /// The signal an original net maps to.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn signal_of_net(&self, net: NetId) -> SignalId {
        self.net_to_signal[net.index()]
    }

    /// Design I/O signals — PIs first, then POs that do not alias a PI,
    /// deduplicated. This is both the pad-binding order of the placer
    /// and the I/O count feeding the grid-sizing policy
    /// (`ArchSpec::size_for`); every consumer must use this one
    /// definition or grids silently desynchronize between the flow and
    /// the benchmark workloads.
    #[must_use]
    pub fn io_signals(&self) -> Vec<SignalId> {
        let mut io = self.pis.clone();
        for &po in &self.pos {
            if !io.contains(&po) {
                io.push(po);
            }
        }
        io
    }

    /// Total used LE input pins (the numerator of the paper's filling
    /// ratio under our input-pin definition).
    #[must_use]
    pub fn used_input_pins(&self) -> usize {
        self.les.iter().map(|le| le.input_signals().len()).sum()
    }
}

/// Who uses each signal of a [`MappedDesign`], flattened once so the
/// packer and the binder never scan the whole design per query.
///
/// The layout is the compressed-sparse-row idiom of
/// `msaf_netlist::FanoutIndex`: one offsets array plus one flat array
/// per relation. Built in O(LEs + pins) by [`SignalUses::build`]; a
/// snapshot, so a design edited afterwards needs a fresh index.
#[derive(Debug)]
pub(crate) struct SignalUses {
    /// LE `i`'s distinct input signals ([`MappedLe::input_signals`]) are
    /// `le_inputs[le_input_offsets[i]..le_input_offsets[i + 1]]`.
    le_input_offsets: Vec<usize>,
    le_inputs: Vec<SignalId>,
    /// LE `i`'s output signals ([`MappedLe::output_signals`]), same layout.
    le_output_offsets: Vec<usize>,
    le_outputs: Vec<SignalId>,
    /// Signal `s`'s consuming LEs, in index order, same layout.
    consumer_offsets: Vec<usize>,
    consumers: Vec<usize>,
    /// Signal `s`'s consuming PDEs, in index order, same layout.
    pde_consumer_offsets: Vec<usize>,
    pde_consumers: Vec<usize>,
    /// The LE producing each signal, if one does.
    producer: Vec<Option<usize>>,
    /// Primary-output flags.
    po: Vec<bool>,
    /// Constant-producer flags.
    constant: Vec<bool>,
}

/// Per-row lists flattened into `(offsets, items)`.
fn csr<T>(rows: impl Iterator<Item = impl IntoIterator<Item = T>>) -> (Vec<usize>, Vec<T>) {
    let mut offsets = vec![0];
    let mut items = Vec::new();
    for row in rows {
        items.extend(row);
        offsets.push(items.len());
    }
    (offsets, items)
}

/// Inverts `rows` (row → signals) into signal → rows, each list in row
/// order: a counting sort over `signals` buckets.
fn invert(
    signals: usize,
    rows: impl Iterator<Item = (usize, SignalId)> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut offsets = vec![0; signals + 1];
    for (_, s) in rows.clone() {
        offsets[s.index() + 1] += 1;
    }
    for i in 0..signals {
        offsets[i + 1] += offsets[i];
    }
    let mut fill = offsets.clone();
    let mut items = vec![0; offsets[signals]];
    for (row, s) in rows {
        items[fill[s.index()]] = row;
        fill[s.index()] += 1;
    }
    (offsets, items)
}

impl SignalUses {
    /// Indexes `design`.
    pub(crate) fn build(design: &MappedDesign) -> Self {
        let signals = design.producers.len();
        let (le_input_offsets, le_inputs) = csr(design.les.iter().map(MappedLe::input_signals));
        let (le_output_offsets, le_outputs) = csr(design.les.iter().map(MappedLe::output_signals));
        let le_rows = (0..design.les.len()).flat_map(|li| {
            le_inputs[le_input_offsets[li]..le_input_offsets[li + 1]]
                .iter()
                .map(move |&s| (li, s))
        });
        let (consumer_offsets, consumers) = invert(signals, le_rows);
        let (pde_consumer_offsets, pde_consumers) = invert(
            signals,
            design.pdes.iter().enumerate().map(|(pi, p)| (pi, p.input)),
        );
        let producer = design
            .producers
            .iter()
            .map(|p| match *p {
                Producer::Le { le, .. } => Some(le),
                _ => None,
            })
            .collect();
        let mut po = vec![false; signals];
        for &s in &design.pos {
            po[s.index()] = true;
        }
        let constant = design
            .producers
            .iter()
            .map(|p| matches!(p, Producer::Const(_)))
            .collect();
        Self {
            le_input_offsets,
            le_inputs,
            le_output_offsets,
            le_outputs,
            consumer_offsets,
            consumers,
            pde_consumer_offsets,
            pde_consumers,
            producer,
            po,
            constant,
        }
    }

    /// LE `le`'s distinct input signals, ascending.
    pub(crate) fn inputs(&self, le: usize) -> &[SignalId] {
        &self.le_inputs[self.le_input_offsets[le]..self.le_input_offsets[le + 1]]
    }

    /// LE `le`'s output signals, in tap order.
    pub(crate) fn outputs(&self, le: usize) -> &[SignalId] {
        &self.le_outputs[self.le_output_offsets[le]..self.le_output_offsets[le + 1]]
    }

    /// The LEs consuming `s`, ascending.
    pub(crate) fn consumers(&self, s: SignalId) -> &[usize] {
        &self.consumers[self.consumer_offsets[s.index()]..self.consumer_offsets[s.index() + 1]]
    }

    /// The PDEs consuming `s`, ascending.
    pub(crate) fn pde_consumers(&self, s: SignalId) -> &[usize] {
        &self.pde_consumers
            [self.pde_consumer_offsets[s.index()]..self.pde_consumer_offsets[s.index() + 1]]
    }

    /// The LE producing `s`, if one does.
    pub(crate) fn producer(&self, s: SignalId) -> Option<usize> {
        self.producer[s.index()]
    }

    /// Whether `s` is a primary output.
    pub(crate) fn is_po(&self, s: SignalId) -> bool {
        self.po[s.index()]
    }

    /// Whether `s` is a constant.
    pub(crate) fn is_const(&self, s: SignalId) -> bool {
        self.constant[s.index()]
    }
}

/// Errors from [`map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The source netlist failed validation.
    InvalidNetlist(String),
    /// A gate's support exceeds the LUT window even after decomposition
    /// (cannot happen for the built-in decompositions; guards internal
    /// invariants).
    TooWide {
        /// Gate name.
        gate: String,
        /// Its support size.
        support: usize,
    },
    /// A primary output is driven by nothing mappable.
    UnmappedOutput(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::InvalidNetlist(e) => write!(f, "netlist invalid: {e}"),
            MapError::TooWide { gate, support } => {
                write!(
                    f,
                    "gate '{gate}' too wide for LUT window ({support} inputs)"
                )
            }
            MapError::UnmappedOutput(n) => write!(f, "primary output '{n}' unmapped"),
        }
    }
}

impl std::error::Error for MapError {}

/// Internal LUT candidate.
#[derive(Debug, Clone)]
struct Cand {
    table: LutTable,
    inputs: Vec<SignalId>,
    output: SignalId,
    feedback: bool,
    name: String,
}

impl Cand {
    fn arity(&self) -> usize {
        self.inputs.len()
    }
}

/// Symmetric op classification for rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymOp {
    Or,
    And,
    Xor,
}

impl SymOp {
    fn lut2(self) -> u8 {
        match self {
            SymOp::Or => 0b1110,
            SymOp::And => 0b1000,
            SymOp::Xor => 0b0110,
        }
    }
    fn eval(self, vals: &[bool]) -> bool {
        match self {
            SymOp::Or => vals.iter().any(|&v| v),
            SymOp::And => vals.iter().all(|&v| v),
            SymOp::Xor => vals.iter().fold(false, |a, &v| a ^ v),
        }
    }
}

fn classify_sym(table: &LutTable) -> Option<SymOp> {
    [SymOp::Or, SymOp::And, SymOp::Xor]
        .into_iter()
        .find(|op| *table == LutTable::from_fn(table.arity(), |v| op.eval(v)))
}

/// Maps `netlist` onto the LE geometry of `arch`.
///
/// # Errors
///
/// See [`MapError`].
pub fn map(netlist: &Netlist, arch: &ArchSpec) -> Result<MappedDesign, MapError> {
    let validation = netlist.validate();
    if !validation.is_ok() {
        return Err(MapError::InvalidNetlist(validation.to_string()));
    }

    // --- Pass 1: alias sweep (Buf) --------------------------------------
    // rep[net] = representative net after collapsing Buf chains.
    let n_nets = netlist.nets().len();
    let mut rep: Vec<NetId> = (0..n_nets).map(NetId::new).collect();
    // Iterate to fixpoint (chains are short; bounded by net count).
    loop {
        let mut changed = false;
        for (_, gate) in netlist.iter_gates() {
            if matches!(gate.kind(), GateKind::Buf) {
                let from = rep[gate.output().index()];
                let to = rep[gate.inputs()[0].index()];
                if from != to {
                    rep[gate.output().index()] = to;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Pad passthroughs: a primary output aliasing straight to a primary
    // input would need one pad to be simultaneously input and output.
    // Un-alias such nets; the lowering pass keeps their final buffer as
    // an identity LUT1 instead.
    let mut passthrough = vec![false; n_nets];
    for &po in netlist.outputs() {
        if rep[po.index()] != po && netlist.net(rep[po.index()]).is_primary_input() {
            rep[po.index()] = po;
            passthrough[po.index()] = true;
        }
    }

    // --- Signals ---------------------------------------------------------
    let mut signal_names: Vec<String> = Vec::new();
    let mut producers: Vec<Producer> = Vec::new();
    let mut net_rep_to_signal: HashMap<NetId, SignalId> = HashMap::new();
    let signal_of = |names: &mut Vec<String>,
                     prods: &mut Vec<Producer>,
                     map: &mut HashMap<NetId, SignalId>,
                     rep: &[NetId],
                     net: NetId|
     -> SignalId {
        let r = rep[net.index()];
        *map.entry(r).or_insert_with(|| {
            let id = SignalId(names.len());
            names.push(netlist.net(r).name().to_string());
            prods.push(Producer::Const(false));
            id
        })
    };

    // --- Pass 2: lowering --------------------------------------------------
    let mut cands: Vec<Cand> = Vec::new();
    let mut pdes: Vec<MappedPde> = Vec::new();
    for (_, gate) in netlist.iter_gates() {
        let out = signal_of(
            &mut signal_names,
            &mut producers,
            &mut net_rep_to_signal,
            &rep,
            gate.output(),
        );
        match gate.kind() {
            GateKind::Buf => {
                // Normally aliased away; kept as an identity LUT when the
                // output is a pad passthrough (see above).
                if passthrough[gate.output().index()] {
                    let input = signal_of(
                        &mut signal_names,
                        &mut producers,
                        &mut net_rep_to_signal,
                        &rep,
                        gate.inputs()[0],
                    );
                    cands.push(Cand {
                        table: LutTable::from_fn(1, |v| v[0]),
                        inputs: vec![input],
                        output: out,
                        feedback: false,
                        name: gate.name().to_string(),
                    });
                }
            }
            GateKind::Const(v) => {
                producers[out.index()] = Producer::Const(*v);
            }
            GateKind::Delay(amount) => {
                let input = signal_of(
                    &mut signal_names,
                    &mut producers,
                    &mut net_rep_to_signal,
                    &rep,
                    gate.inputs()[0],
                );
                pdes.push(MappedPde {
                    input,
                    output: out,
                    required_delay: u64::from(*amount),
                });
            }
            kind => {
                // Dedup inputs preserving order.
                let mut sig_inputs: Vec<SignalId> = Vec::new();
                let mut positions: Vec<usize> = Vec::new(); // gate pin -> dedup slot
                for &n in gate.inputs() {
                    let s = signal_of(
                        &mut signal_names,
                        &mut producers,
                        &mut net_rep_to_signal,
                        &rep,
                        n,
                    );
                    if let Some(pos) = sig_inputs.iter().position(|&x| x == s) {
                        positions.push(pos);
                    } else {
                        positions.push(sig_inputs.len());
                        sig_inputs.push(s);
                    }
                }
                let state = kind.is_state_holding();
                // Pre-chunk gates whose truth table would exceed the
                // 7-input LUT limit (wide symmetric ops and C-trees);
                // reduction introduces synthetic signals and rewrites
                // `sig_inputs` to the reduced list.
                let fb_pins = usize::from(state);
                if sig_inputs.len() + fb_pins > 7 {
                    let reduce_op = match kind {
                        GateKind::And | GateKind::Nand => Some(SymOp::And),
                        GateKind::Or | GateKind::Nor => Some(SymOp::Or),
                        GateKind::Xor | GateKind::Xnor => Some(SymOp::Xor),
                        _ => None,
                    };
                    if let Some(op) = reduce_op {
                        // XOR parity: a signal wired to an even number of
                        // pins cancels out; keep odd-multiplicity signals.
                        if matches!(kind, GateKind::Xor | GateKind::Xnor) {
                            sig_inputs = sig_inputs
                                .iter()
                                .enumerate()
                                .filter(|(slot, _)| {
                                    positions.iter().filter(|&&p| p == *slot).count() % 2 == 1
                                })
                                .map(|(_, &s)| s)
                                .collect();
                        }
                        let mut level = 0;
                        while sig_inputs.len() > 7 {
                            let mut next = Vec::new();
                            for (gi, group) in sig_inputs.chunks(6).enumerate() {
                                if group.len() == 1 {
                                    next.push(group[0]);
                                    continue;
                                }
                                let s = SignalId(signal_names.len());
                                signal_names.push(format!("{}_r{level}_{gi}", gate.name()));
                                producers.push(Producer::Const(false));
                                cands.push(Cand {
                                    table: LutTable::from_fn(group.len(), |v| op.eval(v)),
                                    inputs: group.to_vec(),
                                    output: s,
                                    feedback: false,
                                    name: format!("{}_r{level}_{gi}", gate.name()),
                                });
                                next.push(s);
                            }
                            sig_inputs = next;
                            level += 1;
                        }
                        let invert =
                            matches!(kind, GateKind::Nand | GateKind::Nor | GateKind::Xnor);
                        cands.push(Cand {
                            table: LutTable::from_fn(sig_inputs.len(), |v| invert ^ op.eval(v)),
                            inputs: sig_inputs.clone(),
                            output: out,
                            feedback: false,
                            name: gate.name().to_string(),
                        });
                        continue;
                    }
                    if matches!(kind, GateKind::Celement) {
                        // Wide C-element: binary C-tree of looped majority
                        // LUTs, with a final ≤6-input C stage.
                        let mut level = 0;
                        while sig_inputs.len() > 6 {
                            let mut next = Vec::new();
                            for (gi, group) in sig_inputs.chunks(2).enumerate() {
                                if group.len() == 1 {
                                    next.push(group[0]);
                                    continue;
                                }
                                let s = SignalId(signal_names.len());
                                signal_names.push(format!("{}_c{level}_{gi}", gate.name()));
                                producers.push(Producer::Const(false));
                                cands.push(Cand {
                                    table: LutTable::majority3(),
                                    inputs: vec![group[0], group[1], s],
                                    output: s,
                                    feedback: true,
                                    name: format!("{}_c{level}_{gi}", gate.name()),
                                });
                                next.push(s);
                            }
                            sig_inputs = next;
                            level += 1;
                        }
                        let k = sig_inputs.len();
                        let table =
                            LutTable::from_fn(k + 1, |v| GateKind::Celement.eval(&v[..k], v[k]));
                        let mut ins = sig_inputs.clone();
                        ins.push(out);
                        cands.push(Cand {
                            table,
                            inputs: ins,
                            output: out,
                            feedback: true,
                            name: gate.name().to_string(),
                        });
                        continue;
                    }
                    return Err(MapError::TooWide {
                        gate: gate.name().to_string(),
                        support: sig_inputs.len() + fb_pins,
                    });
                }
                let already_looped = gate.is_feedback() && sig_inputs.contains(&out);
                let (table, inputs, feedback) = if state {
                    // Append a feedback pin: table over (inputs..., fb).
                    let k = sig_inputs.len();
                    let table = LutTable::from_fn(k + 1, |v| {
                        let gate_ins: Vec<bool> = positions.iter().map(|&p| v[p]).collect();
                        kind.eval(&gate_ins, v[k])
                    });
                    let mut ins = sig_inputs.clone();
                    ins.push(out);
                    (table, ins, true)
                } else {
                    let k = sig_inputs.len();
                    let table = LutTable::from_fn(k, |v| {
                        let gate_ins: Vec<bool> = positions.iter().map(|&p| v[p]).collect();
                        kind.eval(&gate_ins, false)
                    });
                    (table, sig_inputs.clone(), already_looped)
                };
                cands.push(Cand {
                    table,
                    inputs,
                    output: out,
                    feedback,
                    name: gate.name().to_string(),
                });
            }
        }
    }

    // Primary inputs/outputs as signals.
    let mut pis = Vec::new();
    for &pi in netlist.inputs() {
        let s = signal_of(
            &mut signal_names,
            &mut producers,
            &mut net_rep_to_signal,
            &rep,
            pi,
        );
        producers[s.index()] = Producer::Pi;
        pis.push(s);
    }
    let mut pos = Vec::new();
    for &po in netlist.outputs() {
        let s = signal_of(
            &mut signal_names,
            &mut producers,
            &mut net_rep_to_signal,
            &rep,
            po,
        );
        pos.push(s);
    }

    let root_window = arch.plb.le.lut_inputs;
    let pair_window = arch.plb.le.subtree_inputs();
    let pairing_enabled = arch.plb.le.lut_outputs >= 3;
    let lut2_enabled = arch.plb.le.has_lut2;

    // --- Pass 3: inverter folding ---------------------------------------
    fold_inverters(&mut cands, &pos, &pdes);

    // --- Pass 4: wide-gate decomposition ---------------------------------
    decompose_wide(
        &mut cands,
        &mut signal_names,
        &mut producers,
        root_window,
        pair_window.max(2),
    )?;

    for c in &cands {
        if c.arity() > root_window {
            return Err(MapError::TooWide {
                gate: c.name.clone(),
                support: c.arity(),
            });
        }
    }

    // --- Pass 5: LE packing ----------------------------------------------
    let les = pack_les(
        &mut cands,
        &mut signal_names,
        &mut producers,
        pairing_enabled,
        lut2_enabled,
        pair_window,
    );

    // Fix producer entries for LE outputs and PDEs.
    let mut design = MappedDesign {
        name: netlist.name().to_string(),
        signal_names,
        producers,
        net_to_signal: (0..n_nets)
            .map(|i| net_rep_to_signal[&rep[i]])
            .collect::<Vec<_>>(),
        pis,
        pos,
        les,
        pdes,
    };
    for (li, le) in design.les.iter().enumerate() {
        for f in &le.funcs {
            design.producers[f.output.index()] = Producer::Le { le: li, tap: f.tap };
        }
    }
    for (pi_, p) in design.pdes.iter().enumerate() {
        design.producers[p.output.index()] = Producer::Pde { pde: pi_ };
    }
    // Sanity: every PO must have a producer other than the placeholder,
    // unless it is a PI passthrough or constant.
    for &po in &design.pos {
        if let Producer::Const(_) = design.producers[po.index()] {
            // Either a real constant (fine) or the untouched placeholder:
            // distinguish by checking whether anything produces it.
            let produced = design
                .les
                .iter()
                .any(|le| le.output_signals().contains(&po))
                || design.pdes.iter().any(|p| p.output == po);
            let is_const_gate = netlist.iter_gates().any(|(_, g)| {
                matches!(g.kind(), GateKind::Const(_))
                    && design.net_to_signal[g.output().index()] == po
            });
            if !produced && !is_const_gate {
                return Err(MapError::UnmappedOutput(design.signal_name(po).to_string()));
            }
        }
    }
    Ok(design)
}

/// Folds `Not` candidates into consumer tables; drops the inverter when
/// nothing else needs its output.
fn fold_inverters(cands: &mut Vec<Cand>, pos: &[SignalId], pdes: &[MappedPde]) {
    loop {
        // Find an inverter: arity 1, table = NOT, not feedback.
        let not_table = LutTable::from_fn(1, |v| !v[0]);
        let Some(idx) = cands
            .iter()
            .position(|c| !c.feedback && c.arity() == 1 && c.table == not_table)
        else {
            return;
        };
        let inv_out = cands[idx].output;
        let inv_in = cands[idx].inputs[0];
        // Self-inverting loop (ring oscillator): leave it alone.
        if inv_in == inv_out {
            return;
        }
        // Fold into every candidate consumer.
        for (j, cand) in cands.iter_mut().enumerate() {
            if j == idx {
                continue;
            }
            while let Some(pin) = cand.inputs.iter().position(|&s| s == inv_out) {
                // Replace pin signal and invert that variable; if inv_in is
                // already an input, merge pins instead of duplicating.
                let old_table = cand.table;
                let arity = cand.arity();
                if let Some(existing) = cand.inputs.iter().position(|&s| s == inv_in) {
                    // Merged: new table reads existing pin inverted at `pin`.
                    let new_table = LutTable::from_fn(arity - 1, |v| {
                        let mut full = Vec::with_capacity(arity);
                        let mut vi = 0;
                        for p in 0..arity {
                            if p == pin {
                                full.push(false); // placeholder, fixed below
                            } else {
                                full.push(v[vi]);
                                vi += 1;
                            }
                        }
                        // The folded pin reads !existing (position shifts if
                        // existing > pin because of removal).
                        let epos = if existing > pin {
                            existing - 1
                        } else {
                            existing
                        };
                        full[pin] = !v[epos];
                        old_table.eval(&full)
                    });
                    cand.inputs.remove(pin);
                    cand.table = new_table;
                } else {
                    let new_table = LutTable::from_fn(arity, |v| {
                        let mut flipped: Vec<bool> = v.to_vec();
                        flipped[pin] = !flipped[pin];
                        old_table.eval(&flipped)
                    });
                    cand.inputs[pin] = inv_in;
                    cand.table = new_table;
                }
            }
        }
        // Can we drop the inverter? Only if its output is not a PO, not a
        // PDE input, and no candidate still reads it.
        let still_used = pos.contains(&inv_out)
            || pdes.iter().any(|p| p.input == inv_out)
            || cands
                .iter()
                .enumerate()
                .any(|(j, c)| j != idx && c.inputs.contains(&inv_out));
        if still_used {
            // Keep it, but stop trying to fold it again (mark by table
            // change? simplest: leave as-is; the loop would spin). Convert
            // to a non-foldable marker by breaking out.
            // We instead skip folding loops by checking progress:
            break;
        }
        cands.remove(idx);
    }
}

/// Splits candidates wider than `root_window` into balanced trees of
/// symmetric ops (only symmetric tables can be wide in this IR; anything
/// else is a bug surfaced as [`MapError::TooWide`] by the caller).
fn decompose_wide(
    cands: &mut Vec<Cand>,
    names: &mut Vec<String>,
    producers: &mut Vec<Producer>,
    root_window: usize,
    chunk: usize,
) -> Result<(), MapError> {
    let mut i = 0;
    while i < cands.len() {
        if cands[i].arity() <= root_window {
            i += 1;
            continue;
        }
        let c = cands[i].clone();
        let Some(op) = classify_sym(&c.table) else {
            return Err(MapError::TooWide {
                gate: c.name.clone(),
                support: c.arity(),
            });
        };
        // Reduce by chunks until it fits.
        let mut layer = c.inputs.clone();
        let mut level = 0;
        while layer.len() > root_window {
            let mut next = Vec::new();
            for (gi, group) in layer.chunks(chunk).enumerate() {
                if group.len() == 1 {
                    next.push(group[0]);
                    continue;
                }
                let out = SignalId(names.len());
                names.push(format!("{}_d{level}_{gi}", c.name));
                producers.push(Producer::Const(false));
                cands.push(Cand {
                    table: LutTable::from_fn(group.len(), |v| op.eval(v)),
                    inputs: group.to_vec(),
                    output: out,
                    feedback: false,
                    name: format!("{}_d{level}_{gi}", c.name),
                });
                next.push(out);
            }
            layer = next;
            level += 1;
        }
        cands[i] = Cand {
            table: LutTable::from_fn(layer.len(), |v| op.eval(v)),
            inputs: layer,
            output: c.output,
            feedback: false,
            name: c.name,
        };
        i += 1;
    }
    Ok(())
}

/// A locked A/B pairing of two candidates, optionally with a LUT2
/// function of their outputs.
#[derive(Debug)]
struct Pair {
    a: usize,
    b: usize,
    lut2: Option<(LutTable, SignalId)>, // table over (A.out, B.out)
}

/// Greedy LE packing with A/B pairing, LUT2 absorption and symmetric-op
/// rewriting. Consumes `cands`.
fn pack_les(
    cands: &mut Vec<Cand>,
    names: &mut Vec<String>,
    producers: &mut Vec<Producer>,
    pairing_enabled: bool,
    lut2_enabled: bool,
    pair_window: usize,
) -> Vec<MappedLe> {
    let union_size = |g: &Cand, h: &Cand| -> usize {
        let mut u: Vec<SignalId> = g.inputs.iter().chain(h.inputs.iter()).copied().collect();
        u.sort();
        u.dedup();
        u.len()
    };
    let shared =
        |g: &Cand, h: &Cand| -> usize { g.inputs.iter().filter(|s| h.inputs.contains(s)).count() };

    let mut paired: Vec<bool> = vec![false; cands.len()];
    let mut pairs: Vec<Pair> = Vec::new();

    let pairing_round = |cands: &Vec<Cand>, paired: &mut Vec<bool>, pairs: &mut Vec<Pair>| {
        if !pairing_enabled {
            return;
        }
        for i in 0..cands.len() {
            if paired[i] || cands[i].arity() > pair_window {
                continue;
            }
            let mut best: Option<(usize, usize, usize)> = None; // (j, shared, union)
            for j in (i + 1)..cands.len() {
                if paired[j] || cands[j].arity() > pair_window {
                    continue;
                }
                let u = union_size(&cands[i], &cands[j]);
                if u > pair_window {
                    continue;
                }
                let s = shared(&cands[i], &cands[j]);
                let better = match best {
                    None => true,
                    Some((_, bs, bu)) => s > bs || (s == bs && u < bu),
                };
                if better {
                    best = Some((j, s, u));
                }
            }
            // Only lock a pair when something is shared OR both are tiny;
            // pairing two unrelated functions wastes routing flexibility,
            // so require at least one shared signal.
            if let Some((j, s, _)) = best {
                if s > 0 {
                    paired[i] = true;
                    paired[j] = true;
                    pairs.push(Pair {
                        a: i,
                        b: j,
                        lut2: None,
                    });
                }
            }
        }
    };

    pairing_round(cands, &mut paired, &mut pairs);

    // LUT2 absorption + symmetric rewrite.
    if lut2_enabled {
        // Direct absorption: a 2-input candidate over exactly (A.out, B.out).
        let mut removed: Vec<bool> = vec![false; cands.len()];
        for p in &mut pairs {
            if p.lut2.is_some() {
                continue;
            }
            let (ao, bo) = (cands[p.a].output, cands[p.b].output);
            let target = cands.iter().enumerate().find(|(k, c)| {
                !paired[*k]
                    && !removed[*k]
                    && !c.feedback
                    && c.arity() == 2
                    && ((c.inputs[0] == ao && c.inputs[1] == bo)
                        || (c.inputs[0] == bo && c.inputs[1] == ao))
            });
            if let Some((k, c)) = target {
                // Permute table to (A, B) pin order.
                let table = if c.inputs[0] == ao {
                    c.table
                } else {
                    let t = c.table;
                    LutTable::from_fn(2, |v| t.eval(&[v[1], v[0]]))
                };
                p.lut2 = Some((table, c.output));
                removed[k] = true;
            }
        }
        // Symmetric rewrite: OR/AND/XOR candidates consume LUT2 partials.
        loop {
            let mut changed = false;
            for p in &mut pairs {
                if p.lut2.is_some() {
                    continue;
                }
                let (ao, bo) = (cands[p.a].output, cands[p.b].output);
                for k in 0..cands.len() {
                    if paired[k] || removed[k] || cands[k].feedback || cands[k].arity() < 3 {
                        continue;
                    }
                    let Some(op) = classify_sym(&cands[k].table) else {
                        continue;
                    };
                    if cands[k].inputs.contains(&ao) && cands[k].inputs.contains(&bo) {
                        // New partial-term signal produced by the LUT2.
                        let s = SignalId(names.len());
                        names.push(format!("{}_lut2", cands[p.a].name));
                        producers.push(Producer::Const(false));
                        p.lut2 = Some((LutTable::new(2, u128::from(op.lut2())), s));
                        let c = &mut cands[k];
                        c.inputs.retain(|&x| x != ao && x != bo);
                        c.inputs.push(s);
                        c.table = LutTable::from_fn(c.inputs.len(), |v| op.eval(v));
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Second pairing round for rewritten/unpaired candidates.
        // Mark removed as paired so they are skipped.
        for (k, r) in removed.iter().enumerate() {
            if *r {
                paired[k] = true;
            }
        }
        pairing_round(cands, &mut paired, &mut pairs);
        // Build LEs, skipping removed.
        return build_les(cands, &paired, &pairs, &removed, pairing_enabled);
    }

    let removed = vec![false; cands.len()];
    build_les(cands, &paired, &pairs, &removed, pairing_enabled)
}

/// Materialises [`MappedLe`]s from the pairing decisions: pairs occupy
/// taps A and B (plus LUT2 when absorbed), leftover singles take tap A
/// when they fit the subtree window, Root otherwise.
fn build_les(
    cands: &[Cand],
    paired: &[bool],
    pairs: &[Pair],
    removed: &[bool],
    aux_available: bool,
) -> Vec<MappedLe> {
    let mut les = Vec::new();
    let mut in_pair = vec![false; cands.len()];
    for p in pairs {
        in_pair[p.a] = true;
        in_pair[p.b] = true;
        let mut funcs = vec![
            MappedFunc {
                tap: LeOutput::A,
                table: cands[p.a].table,
                inputs: cands[p.a].inputs.clone(),
                output: cands[p.a].output,
                feedback: cands[p.a].feedback,
            },
            MappedFunc {
                tap: LeOutput::B,
                table: cands[p.b].table,
                inputs: cands[p.b].inputs.clone(),
                output: cands[p.b].output,
                feedback: cands[p.b].feedback,
            },
        ];
        if let Some((table, out)) = &p.lut2 {
            funcs.push(MappedFunc {
                tap: LeOutput::Lut2,
                table: *table,
                inputs: vec![cands[p.a].output, cands[p.b].output],
                output: *out,
                feedback: false,
            });
        }
        les.push(MappedLe { funcs });
    }
    for (k, c) in cands.iter().enumerate() {
        if removed[k] || (paired[k] && in_pair[k]) {
            continue;
        }
        if paired[k] && !in_pair[k] {
            // Marked paired only to exclude from rounds (absorbed); skip.
            continue;
        }
        // A 6-or-fewer-input single sits on tap A (leaving B available for
        // a later incremental pass); a 7-input function needs the root.
        let tap = if aux_available && c.arity() <= 6 {
            LeOutput::A
        } else {
            LeOutput::Root
        };
        les.push(MappedLe {
            funcs: vec![MappedFunc {
                tap,
                table: c.table,
                inputs: c.inputs.clone(),
                output: c.output,
                feedback: c.feedback,
            }],
        });
    }
    les
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_cells::fulladder::{micropipeline_full_adder, qdi_full_adder, SAFE_FA_MATCHED_DELAY};
    use msaf_netlist::Netlist;

    fn paper_arch() -> ArchSpec {
        ArchSpec::paper(4, 4)
    }

    #[test]
    fn qdi_full_adder_maps_compactly() {
        // Fig 3b: 8 minterm C-elements + 4 rail ORs. Expected LE budget
        // with pairing + LUT2 absorption: 4 paired C LEs + the OR network
        // in <= 4 more LEs (see DESIGN.md E5 analysis).
        let nl = qdi_full_adder();
        let mapped = map(&nl, &paper_arch()).expect("maps");
        assert!(
            mapped.les.len() <= 8,
            "QDI FA should fit 8 LEs, used {}",
            mapped.les.len()
        );
        // All 8 C-elements must be feedback-looped LUTs.
        let feedback_funcs: usize = mapped
            .les
            .iter()
            .flat_map(|le| &le.funcs)
            .filter(|f| f.feedback)
            .count();
        assert_eq!(feedback_funcs, 8, "8 C-elements as looped LUTs");
        // Pairing must happen: at least 4 LEs carry two+ functions.
        let paired = mapped.les.iter().filter(|le| le.funcs.len() >= 2).count();
        assert!(
            paired >= 4,
            "dual-rail pairs should share LEs, got {paired}"
        );
        assert!(mapped.pdes.is_empty());
    }

    #[test]
    fn micropipeline_full_adder_maps_with_pde() {
        let nl = micropipeline_full_adder(SAFE_FA_MATCHED_DELAY);
        let mapped = map(&nl, &paper_arch()).expect("maps");
        assert_eq!(mapped.pdes.len(), 1);
        assert_eq!(
            mapped.pdes[0].required_delay,
            u64::from(SAFE_FA_MATCHED_DELAY)
        );
        // Controller C-element + 3 latches are looped LUTs.
        let feedback_funcs: usize = mapped
            .les
            .iter()
            .flat_map(|le| &le.funcs)
            .filter(|f| f.feedback)
            .count();
        assert_eq!(feedback_funcs, 4, "1 controller + 3 latches");
        // The ack inverter must have been folded into the controller LUT.
        assert!(
            mapped.les.len() <= 5,
            "micropipeline FA should fit 5 LEs, used {}",
            mapped.les.len()
        );
    }

    #[test]
    fn filling_ratio_gap_matches_paper_direction() {
        // The paper's headline: QDI fills LEs much better (76%) than
        // micropipeline (51%). Check the input-pin ratio gap on the FA.
        let arch = paper_arch();
        let qdi = map(&qdi_full_adder(), &arch).expect("maps");
        let mp = map(&micropipeline_full_adder(SAFE_FA_MATCHED_DELAY), &arch).expect("maps");
        let ratio = |m: &MappedDesign| m.used_input_pins() as f64 / (7.0 * m.les.len() as f64);
        let (rq, rm) = (ratio(&qdi), ratio(&mp));
        assert!(
            rq > rm + 0.1,
            "QDI ratio {rq:.2} must clearly beat micropipeline {rm:.2}"
        );
    }

    #[test]
    fn buf_chains_alias_away() {
        let mut nl = Netlist::new("bufs");
        let a = nl.add_input("a");
        let (_, b1) = nl.add_gate_new(GateKind::Buf, "b1", &[a]);
        let (_, b2) = nl.add_gate_new(GateKind::Buf, "b2", &[b1]);
        let (_, y) = nl.add_gate_new(GateKind::Not, "n", &[b2]);
        nl.mark_output(y);
        let mapped = map(&nl, &paper_arch()).expect("maps");
        assert_eq!(mapped.les.len(), 1);
        // The inverter's input signal is the PI itself.
        assert_eq!(mapped.les[0].funcs[0].inputs[0], mapped.pis[0]);
    }

    #[test]
    fn inverter_folds_into_consumer() {
        let mut nl = Netlist::new("fold");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, na) = nl.add_gate_new(GateKind::Not, "na", &[a]);
        let (_, y) = nl.add_gate_new(GateKind::And, "g", &[na, b]);
        nl.mark_output(y);
        let mapped = map(&nl, &paper_arch()).expect("maps");
        assert_eq!(mapped.les.len(), 1, "inverter must fold away");
        let f = &mapped.les[0].funcs[0];
        // Table is now a & !b or !a & b depending on pin order — verify
        // semantically: y = !a & b.
        let pa = f.inputs.iter().position(|&s| s == mapped.pis[0]).unwrap();
        let pb = f.inputs.iter().position(|&s| s == mapped.pis[1]).unwrap();
        let mut v = vec![false; f.inputs.len()];
        v[pb] = true;
        assert!(f.table.eval(&v), "!a & b with a=0,b=1");
        v[pa] = true;
        assert!(!f.table.eval(&v), "!a & b with a=1,b=1");
    }

    #[test]
    fn inverter_kept_when_output_is_po() {
        let mut nl = Netlist::new("keep");
        let a = nl.add_input("a");
        let (_, na) = nl.add_gate_new(GateKind::Not, "na", &[a]);
        let (_, y) = nl.add_gate_new(GateKind::And, "g", &[na, a]);
        nl.mark_output(y);
        nl.mark_output(na); // the inverted signal leaves the design too
        let mapped = map(&nl, &paper_arch()).expect("maps");
        // The inverter stays (its output is a PO) — possibly sharing an LE.
        let produced: Vec<SignalId> = mapped
            .les
            .iter()
            .flat_map(MappedLe::output_signals)
            .collect();
        for &po in &mapped.pos {
            assert!(produced.contains(&po), "PO {po} must be produced");
        }
    }

    #[test]
    fn wide_xor_decomposes() {
        let mut nl = Netlist::new("wide");
        let ins: Vec<NetId> = (0..17).map(|i| nl.add_input(format!("i{i}"))).collect();
        let (_, y) = nl.add_gate_new(GateKind::Xor, "x", &ins);
        nl.mark_output(y);
        let mapped = map(&nl, &paper_arch()).expect("maps");
        for le in &mapped.les {
            for f in &le.funcs {
                assert!(f.inputs.len() <= 7);
            }
        }
        // Parity over 17 inputs: 17/6 -> 3 partials, then root.
        assert!(mapped.les.len() >= 2);
    }

    #[test]
    fn no_aux_arch_disables_pairing() {
        let nl = qdi_full_adder();
        let arch = ArchSpec::no_aux_outputs(4, 4);
        let mapped = map(&nl, &arch).expect("maps");
        for le in &mapped.les {
            assert_eq!(le.funcs.len(), 1, "no pairing without aux outputs");
            assert_eq!(le.funcs[0].tap, LeOutput::Root);
        }
        // Strictly more LEs than on the paper's architecture.
        let paper_les = map(&nl, &paper_arch()).unwrap().les.len();
        assert!(mapped.les.len() > paper_les);
    }

    #[test]
    fn no_lut2_arch_still_maps() {
        let nl = qdi_full_adder();
        let arch = ArchSpec::no_lut2(4, 4);
        let mapped = map(&nl, &arch).expect("maps");
        for le in &mapped.les {
            assert!(le.func(LeOutput::Lut2).is_none());
        }
    }

    #[test]
    fn celement_gets_feedback_pin() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, y) = nl.add_gate_new(GateKind::Celement, "c0", &[a, b]);
        nl.mark_output(y);
        let mapped = map(&nl, &paper_arch()).expect("maps");
        let f = mapped
            .les
            .iter()
            .flat_map(|le| &le.funcs)
            .find(|f| f.feedback)
            .expect("looped");
        assert_eq!(f.inputs.len(), 3);
        assert_eq!(*f.inputs.last().unwrap(), f.output);
        // Table is majority(a, b, fb).
        assert_eq!(f.table, LutTable::majority3());
    }

    #[test]
    fn invalid_netlist_rejected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let floating = nl.add_net("x");
        let (_, y) = nl.add_gate_new(GateKind::And, "g", &[a, floating]);
        nl.mark_output(y);
        assert!(matches!(
            map(&nl, &paper_arch()),
            Err(MapError::InvalidNetlist(_))
        ));
    }
}
