//! Dual-rail signals, DIMS function blocks and completion detection.
//!
//! DIMS (Delay-Insensitive Minterm Synthesis) is the textbook QDI logic
//! style (Sparsø & Furber, the paper's reference \[9\]): every minterm of
//! the inputs gets a Muller C-element, and each output rail ORs the
//! minterms on which it fires. Outputs become valid only after *all*
//! inputs are valid and return to neutral only after all inputs are
//! neutral — the weak conditions that make the logic QDI.

use msaf_netlist::{GateKind, NetId, Netlist};

/// A dual-rail encoded bit: `t` fires for 1, `f` fires for 0; both low is
/// the neutral spacer, both high is illegal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dr {
    /// True rail.
    pub t: NetId,
    /// False rail.
    pub f: NetId,
}

impl Dr {
    /// The rail asserting value `v`.
    #[must_use]
    pub fn rail(&self, v: bool) -> NetId {
        if v {
            self.t
        } else {
            self.f
        }
    }

    /// Rails in channel layout order `[t, f]` (see
    /// [`msaf_netlist::Channel`] conventions).
    #[must_use]
    pub fn rails(&self) -> [NetId; 2] {
        [self.t, self.f]
    }
}

/// Creates `width` dual-rail primary-input bit pairs named
/// `"<prefix><i>_t"` / `"<prefix><i>_f"`.
pub fn dr_inputs(nl: &mut Netlist, prefix: &str, width: usize) -> Vec<Dr> {
    (0..width)
        .map(|i| Dr {
            t: nl.add_input(format!("{prefix}{i}_t")),
            f: nl.add_input(format!("{prefix}{i}_f")),
        })
        .collect()
}

/// Flattens dual-rail bits into channel rail order
/// (`[b0.t, b0.f, b1.t, b1.f, ...]`).
#[must_use]
pub fn dr_channel_data(bits: &[Dr]) -> Vec<NetId> {
    bits.iter().flat_map(|d| [d.t, d.f]).collect()
}

/// Per-bit validity: `OR(t, f)` — high exactly while the bit holds a
/// value.
pub fn validity(nl: &mut Netlist, prefix: &str, bit: Dr) -> NetId {
    let (_, v) = nl.add_gate_new(GateKind::Or, format!("{prefix}_valid"), &[bit.t, bit.f]);
    v
}

/// Builds a balanced Muller C-element tree over `items` — the canonical
/// completion detector. Returns `items[0]` unchanged for a single item.
///
/// # Panics
///
/// Panics if `items` is empty.
pub fn completion_tree(nl: &mut Netlist, prefix: &str, items: &[NetId]) -> NetId {
    assert!(
        !items.is_empty(),
        "completion tree needs at least one input"
    );
    let mut layer: Vec<NetId> = items.to_vec();
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                let (_, y) =
                    nl.add_gate_new(GateKind::Celement, format!("{prefix}_c{level}_{i}"), pair);
                next.push(y);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    layer[0]
}

/// One named boolean function computed by a DIMS block.
pub type DimsFn<'a> = (&'a str, &'a dyn Fn(&[bool]) -> bool);

/// DIMS synthesis of one or more functions over the same dual-rail
/// inputs, **sharing the minterm C-elements** between all outputs — the
/// structure the paper's multi-output LUT is designed to absorb.
///
/// For each of the `2^n` input minterms a C-element joins the
/// corresponding rails; each output rail then ORs its minterms. `funcs`
/// maps an output name to its truth function over the inputs
/// (pin 0 first).
///
/// Returns one [`Dr`] per function, in `funcs` order.
///
/// # Panics
///
/// Panics if `inputs` is empty or larger than 4 (DIMS is exponential; the
/// library keeps blocks LUT-sized), or if `funcs` is empty.
pub fn dims(nl: &mut Netlist, prefix: &str, inputs: &[Dr], funcs: &[DimsFn<'_>]) -> Vec<Dr> {
    let n = inputs.len();
    assert!((1..=4).contains(&n), "DIMS block supports 1..=4 inputs");
    assert!(!funcs.is_empty(), "DIMS block needs at least one function");

    // One C-element per minterm (a 1-input "C-element" is just the rail).
    let mut minterms = Vec::with_capacity(1 << n);
    let mut pattern = vec![false; n];
    for m in 0..(1usize << n) {
        for (bit, slot) in pattern.iter_mut().enumerate() {
            *slot = (m >> bit) & 1 == 1;
        }
        let rails: Vec<NetId> = inputs
            .iter()
            .zip(&pattern)
            .map(|(d, &v)| d.rail(v))
            .collect();
        let y = if rails.len() == 1 {
            rails[0]
        } else {
            let (_, y) = nl.add_gate_new(GateKind::Celement, format!("{prefix}_m{m}"), &rails);
            y
        };
        minterms.push(y);
    }

    funcs
        .iter()
        .map(|(name, f)| {
            let mut t_terms = Vec::new();
            let mut f_terms = Vec::new();
            let mut pattern = vec![false; n];
            for (m, &y) in minterms.iter().enumerate() {
                for (bit, slot) in pattern.iter_mut().enumerate() {
                    *slot = (m >> bit) & 1 == 1;
                }
                if f(&pattern) {
                    t_terms.push(y);
                } else {
                    f_terms.push(y);
                }
            }
            let or_rail = |nl: &mut Netlist, terms: &[NetId], rail: &str| -> NetId {
                match terms.len() {
                    0 => {
                        // Constant function: rail that never fires. A
                        // never-firing rail breaks 4-phase neutrality only
                        // if observed alone; DIMS blocks for constants are
                        // degenerate and flagged by keeping a Const(false).
                        let (_, y) = nl.add_gate_new(
                            GateKind::Const(false),
                            format!("{prefix}_{name}_{rail}_never"),
                            &[],
                        );
                        y
                    }
                    1 => terms[0],
                    _ => {
                        let (_, y) =
                            nl.add_gate_new(GateKind::Or, format!("{prefix}_{name}_{rail}"), terms);
                        y
                    }
                }
            };
            let t = or_rail(nl, &t_terms, "t");
            let f_net = or_rail(nl, &f_terms, "f");
            Dr { t, f: f_net }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_netlist::{Channel, ChannelDir, Encoding, Protocol};
    use msaf_sim::{token_run, FixedDelay};
    use std::collections::BTreeMap;

    /// Wraps a 2-input DIMS block as a complete handshake circuit:
    /// in: dual-rail[2] (a,b), out: dual-rail[1].
    fn dims2_circuit(f: &dyn Fn(&[bool]) -> bool) -> Netlist {
        let mut nl = Netlist::new("dims2");
        let ins = dr_inputs(&mut nl, "x", 2);
        let out_ack = nl.add_input("out_ack");
        let y = dims(&mut nl, "g", &ins, &[("y", f)])[0];
        let (_, in_ack) = nl.add_gate_new(GateKind::Buf, "ack_buf", &[out_ack]);
        for r in y.rails() {
            nl.mark_output(r);
        }
        nl.mark_output(in_ack);
        nl.add_channel(Channel::new(
            "in",
            ChannelDir::Input,
            Protocol::FourPhase,
            Encoding::DualRail { width: 2 },
            None,
            in_ack,
            dr_channel_data(&ins),
        ));
        nl.add_channel(Channel::new(
            "out",
            ChannelDir::Output,
            Protocol::FourPhase,
            Encoding::DualRail { width: 1 },
            None,
            out_ack,
            dr_channel_data(&[y]),
        ));
        nl
    }

    fn run_truth_table(f: &dyn Fn(&[bool]) -> bool) -> Vec<u64> {
        let nl = dims2_circuit(f);
        assert!(nl.validate().is_ok(), "{}", nl.validate());
        let mut inputs = BTreeMap::new();
        // tokens encode (a,b) as bits 0,1.
        inputs.insert("in".to_string(), vec![0b00, 0b01, 0b10, 0b11]);
        let report =
            token_run(&nl, &FixedDelay::new(1), &inputs, &Default::default()).expect("token run");
        assert!(report.violations.is_empty());
        report.outputs["out"].values()
    }

    #[test]
    fn dims_and_truth_table() {
        assert_eq!(
            run_truth_table(&|v: &[bool]| v[0] && v[1]),
            vec![0, 0, 0, 1]
        );
    }

    #[test]
    fn dims_xor_truth_table() {
        assert_eq!(run_truth_table(&|v: &[bool]| v[0] ^ v[1]), vec![0, 1, 1, 0]);
    }

    #[test]
    fn dims_or_truth_table() {
        assert_eq!(
            run_truth_table(&|v: &[bool]| v[0] || v[1]),
            vec![0, 1, 1, 1]
        );
    }

    #[test]
    fn dims_shares_minterms_between_outputs() {
        let mut nl = Netlist::new("shared");
        let ins = dr_inputs(&mut nl, "x", 2);
        let before = nl.gates().len();
        let outs = dims(
            &mut nl,
            "g",
            &ins,
            &[
                ("and", &|v: &[bool]| v[0] && v[1]),
                ("or", &|v: &[bool]| v[0] || v[1]),
            ],
        );
        assert_eq!(outs.len(), 2);
        // 4 minterm C-elements shared + per-output OR gates (and.f: 3
        // terms, and.t: 1 => direct; or.t: 3 terms, or.f: 1 => direct):
        // exactly 4 C + 2 OR gates.
        let added = nl.gates().len() - before;
        assert_eq!(added, 6, "expected shared minterms, got {added} gates");
    }

    #[test]
    fn completion_tree_shapes() {
        let mut nl = Netlist::new("ct");
        let items: Vec<NetId> = (0..5).map(|i| nl.add_input(format!("v{i}"))).collect();
        let before = nl.gates().len();
        let root = completion_tree(&mut nl, "done", &items);
        nl.mark_output(root);
        // 5 leaves -> 2 pairs + carry = 4 C-elements total (3+1 levels).
        assert_eq!(nl.gates().len() - before, 4);
        // Single input: no gate.
        let single = completion_tree(&mut nl, "one", &items[..1]);
        assert_eq!(single, items[0]);
    }

    #[test]
    fn validity_is_or_of_rails() {
        let mut nl = Netlist::new("v");
        let bits = dr_inputs(&mut nl, "x", 1);
        let v = validity(&mut nl, "x0", bits[0]);
        nl.mark_output(v);
        let g = nl.net(v).driver().unwrap();
        assert!(matches!(nl.gate(g).kind(), GateKind::Or));
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn dims_rejects_wide_blocks() {
        let mut nl = Netlist::new("wide");
        let ins = dr_inputs(&mut nl, "x", 5);
        let _ = dims(&mut nl, "g", &ins, &[("y", &|v: &[bool]| v[0])]);
    }
}
