//! Parity and multiplexer workloads beyond adders: a QDI parity tree
//! (a wide completion tree) and the reference functions that the
//! `parity8.msa` and `muxtree4.msa` examples are checked against.

use crate::dualrail::{dims, dr_channel_data, dr_inputs, Dr};
use msaf_netlist::{Channel, ChannelDir, Encoding, Netlist, Protocol};

/// Reference: parity (XOR-reduce) of the low `width` bits of `token`.
#[must_use]
pub fn parity_reference(width: usize, token: u64) -> u64 {
    (token & ((1u64 << width) - 1)).count_ones() as u64 & 1
}

/// Reference: mux-tree output — `token` packs `2^sel_bits` data bits then
/// `sel_bits` select bits; the selected data bit is returned.
#[must_use]
pub fn muxtree_reference(sel_bits: usize, token: u64) -> u64 {
    let n = 1usize << sel_bits;
    let sel = (token >> n) & ((1u64 << sel_bits) - 1);
    (token >> sel) & 1
}

/// Builds a `width`-input **QDI dual-rail** parity tree (balanced tree of
/// DIMS XOR2 blocks). Channels: `"op"` dual-rail\[width\] → `"res"`
/// dual-rail\[1\].
///
/// # Panics
///
/// Panics if `width < 2` or `width > 32`.
#[must_use]
pub fn qdi_parity_tree(width: usize) -> Netlist {
    assert!((2..=32).contains(&width), "width must be in 2..=32");
    let mut nl = Netlist::new(format!("qdi_parity_{width}"));
    let ins = dr_inputs(&mut nl, "x", width);
    let res_ack = nl.add_input("res_ack");

    let mut layer: Vec<Dr> = ins.clone();
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                let y = dims(
                    &mut nl,
                    &format!("x{level}_{i}"),
                    pair,
                    &[("xor", &|v: &[bool]| v[0] ^ v[1])],
                )[0];
                next.push(y);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    let out = layer[0];

    nl.mark_output(out.t);
    nl.mark_output(out.f);
    nl.add_channel(Channel::new(
        "op",
        ChannelDir::Input,
        Protocol::FourPhase,
        Encoding::DualRail { width },
        None,
        res_ack,
        dr_channel_data(&ins),
    ));
    nl.add_channel(Channel::new(
        "res",
        ChannelDir::Output,
        Protocol::FourPhase,
        Encoding::DualRail { width: 1 },
        None,
        res_ack,
        dr_channel_data(&[out]),
    ));
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_sim::{token_run, PerKindDelay};
    use std::collections::BTreeMap;

    fn run(nl: &Netlist, toks: Vec<u64>) -> Vec<u64> {
        let v = nl.validate();
        assert!(v.is_ok(), "{v}");
        let mut inputs = BTreeMap::new();
        inputs.insert("op".to_string(), toks);
        token_run(nl, &PerKindDelay::new(), &inputs, &Default::default())
            .expect("token run")
            .outputs["res"]
            .values()
    }

    #[test]
    fn qdi_parity_matches_reference() {
        let nl = qdi_parity_tree(5);
        let toks: Vec<u64> = vec![0, 1, 0b10110, 0b11111, 0b01010];
        let want: Vec<u64> = toks.iter().map(|&t| parity_reference(5, t)).collect();
        assert_eq!(run(&nl, toks), want);
    }

    #[test]
    fn references_agree_with_manual_cases() {
        assert_eq!(parity_reference(4, 0b1011), 1);
        assert_eq!(parity_reference(4, 0b1111), 0);
        assert_eq!(muxtree_reference(1, 0b0_10), 0b0);
        assert_eq!(muxtree_reference(1, 0b1_10), 0b1);
    }

    #[test]
    fn parity_tree_sizes() {
        // width w QDI parity: w-1 XOR2 DIMS blocks, each 4 C + 2 OR.
        let nl = qdi_parity_tree(8);
        use msaf_netlist::NetlistStats;
        let st = NetlistStats::of(&nl);
        assert_eq!(st.kind_count("c"), 7 * 4);
        assert_eq!(st.kind_count("or"), 7 * 2);
    }
}
