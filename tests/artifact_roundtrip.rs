//! Cross-crate contract tests for the artifact layer (`msaf-artifact` +
//! `msaf_cad::checkpoint`): serialize → deserialize → re-digest is the
//! identity, over both randomized artifact contents and real compiled
//! workloads. Two goldens ride along: the digests of the stored place,
//! route and bitstream artifacts and of the served pretty bitstream JSON
//! for the committed `adder4.msa`, `wide32.msa` and `fir4.msa` examples
//! per style (the compile server's "byte-identical bitstream" fact), and
//! the pack artifact digest of every committed example per style. A
//! stored artifact truncated anywhere is a decode error and a miss.

use msaf::artifact::digest::{digest_trees, fnv1a, pretty_json_digest};
use msaf::artifact::{
    BitstreamArtifact, PackArtifact, PackedPlbArtifact, PlaceArtifact, RouteArtifact, Stage,
    TimingArtifact, ARTIFACT_FORMAT_VERSION,
};
use msaf::cad::checkpoint;
use msaf::cad::pack::pack;
use msaf::fabric::rrg::RrNodeKind;
use msaf::prelude::*;
use proptest::prelude::*;

const ADDER4: &str = include_str!("../examples/msa/adder4.msa");
const WIDE32: &str = include_str!("../examples/msa/wide32.msa");
const FIR4: &str = include_str!("../examples/msa/fir4.msa");

/// A proptest strategy for routing-resource node kinds covering every
/// coordinate-carrying variant the router actually emits.
fn node_kind() -> impl Strategy<Value = RrNodeKind> {
    (0usize..4, 0usize..4, 0usize..6, 0usize..3).prop_map(|(x, y, t, v)| match v {
        0 => RrNodeKind::Opin { x, y, pin: t },
        1 => RrNodeKind::Ipin { x, y, pin: t },
        _ => RrNodeKind::HWire { x, y, t },
    })
}

fn route_tree() -> impl Strategy<Value = msaf::fabric::bitstream::RouteTree> {
    (
        (0u64..10_000).prop_map(|v| format!("n{v}")),
        node_kind(),
        proptest::collection::vec(node_kind(), 1..5),
    )
        .prop_map(|(net, source, nodes)| msaf::fabric::bitstream::RouteTree {
            net,
            source,
            sinks: vec![*nodes.last().expect("non-empty")],
            edges: nodes.windows(2).map(|w| (w[0], w[1])).collect(),
            nodes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Randomized artifact contents: JSON round-trips reproduce the
    // struct and its digest exactly, for every artifact kind.
    #[test]
    fn random_artifacts_round_trip_with_stable_digests(
        les in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 0..3), 1..6),
        pde_host in proptest::option::of(0usize..6),
        positions in proptest::collection::vec((0usize..8, 0usize..8), 1..6),
        pads in proptest::collection::vec((0usize..32, 0usize..16), 0..5),
        cost in 0.0f64..1e4,
        trees in proptest::collection::vec(route_tree(), 0..4),
        counters in (0u64..1000, 0u64..100, 0u64..50, 0u64..10),
    ) {
        let pack = PackArtifact {
            plbs: les
                .into_iter()
                .enumerate()
                .map(|(i, les)| PackedPlbArtifact {
                    les,
                    pde: pde_host.filter(|&h| h == i),
                })
                .collect(),
        };
        let back = PackArtifact::from_json(&pack.to_json()).expect("pack round-trips");
        prop_assert_eq!(&back, &pack);
        prop_assert_eq!(back.digest(), pack.digest());

        let mut sorted_pads = pads;
        sorted_pads.sort_unstable();
        sorted_pads.dedup_by_key(|&mut (s, _)| s);
        let place = PlaceArtifact {
            plb_pos: positions,
            pads: sorted_pads,
            cost,
            moves_attempted: counters.0,
            moves_accepted: counters.1,
        };
        let back = PlaceArtifact::from_json(&place.to_json()).expect("place round-trips");
        prop_assert_eq!(&back, &place);
        prop_assert_eq!(back.digest(), place.digest());

        let route = RouteArtifact {
            channel_width: 12,
            iterations: 3,
            nodes_popped: counters.0,
            ripups: counters.2,
            conflict_colors: counters.3,
            max_class: counters.3,
            trees,
            timing: TimingArtifact {
                levels: 4,
                pre_route_critical_delay: counters.1,
                critical_signal: Some("s0".to_string()),
                post_route_critical_delay: counters.1 + 3,
                worst_slack: 1,
                crit_histogram: [0, 1, 0, 2, 0, 0, 0, 0, 0, 3],
            },
        };
        let back = RouteArtifact::from_json(&route.to_json()).expect("route round-trips");
        prop_assert_eq!(back.digest(), route.digest());
        // The historical route-tree identity survives the round trip too.
        prop_assert_eq!(digest_trees(&back.trees), digest_trees(&route.trees));
        prop_assert_eq!(back, route);
    }

    // Real workloads: checkpoint → serialize → deserialize → restore →
    // re-checkpoint is the identity for every stage of a real compile,
    // across adder widths, seeds and styles.
    #[test]
    fn compiled_workload_checkpoints_round_trip(
        bits in 1usize..3,
        seed in 1u64..4,
        style_idx in 0usize..3,
    ) {
        let style = Style::ALL[style_idx];
        let src = format!(
            "pipeline rt {{ input a[{bits}]; output y[1]; stage s {{ y = parity(a); }} }}"
        );
        let nl = compile_msa(&src, style).expect("compiles");
        let opts = FlowOptions { seed, ..FlowOptions::default() };
        let compiled = compile(&nl, &opts).expect("flow succeeds");

        let pack_art = checkpoint::checkpoint_pack(&compiled.packed);
        let pack_back = PackArtifact::from_json(&pack_art.to_json()).expect("pack json");
        prop_assert_eq!(
            checkpoint::checkpoint_pack(&checkpoint::restore_pack(&pack_back)).digest(),
            pack_art.digest()
        );

        let place_art = checkpoint::checkpoint_place(&compiled.placement);
        let place_back = PlaceArtifact::from_json(&place_art.to_json()).expect("place json");
        prop_assert_eq!(
            checkpoint::checkpoint_place(&checkpoint::restore_place(&place_back)).digest(),
            place_art.digest()
        );

        let bit_art = checkpoint::checkpoint_bitstream(&compiled.config);
        let bit_back = BitstreamArtifact::from_json(&bit_art.to_json()).expect("bitstream json");
        prop_assert_eq!(bit_back.digest(), bit_art.digest());
        prop_assert_eq!(
            digest_trees(&bit_back.config.routes),
            digest_trees(&compiled.config.routes)
        );
    }
}

/// Digests of the bytes one compile stores and serves: the compact
/// place, route and bitstream artifacts as the store holds them, and
/// the bitstream's pretty JSON, whose digest the compile server reports
/// as `bitstream_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pins {
    place: u64,
    route: u64,
    bitstream: u64,
    pretty: u64,
}

/// The [`Pins`] of `src` compiled in `style` (seed 1, default options)
/// through a fresh store.
fn compile_pins(src: &str, style: Style) -> Pins {
    let nl = compile_msa(src, style).expect("elaborates");
    let store = MemStore::new();
    let (compiled, _) = compile_cached(&nl, &FlowOptions::default(), &store, fnv1a(src.as_bytes()))
        .expect("flow succeeds");
    let stored = |stage: Stage| fnv1a(stored_artifact(&store, stage).as_bytes());
    let pins = Pins {
        place: stored(Stage::Place),
        route: stored(Stage::Route),
        bitstream: stored(Stage::Bitgen),
        pretty: fnv1a(compiled.config.to_json().expect("serializes").as_bytes()),
    };
    // The store holds each artifact's canonical encoding, and the
    // server's streaming digest hashes the same pretty text.
    assert_eq!(
        pins.place,
        checkpoint::checkpoint_place(&compiled.placement).digest()
    );
    assert_eq!(
        pins.bitstream,
        checkpoint::checkpoint_bitstream(&compiled.config).digest()
    );
    assert_eq!(pins.pretty, pretty_json_digest(&compiled.config));
    pins
}

/// The JSON `store` holds for `stage` (it holds one design's entries).
fn stored_artifact(store: &MemStore, stage: Stage) -> String {
    let prefix = format!("v{ARTIFACT_FORMAT_VERSION}:{}:", stage.name());
    let key = store
        .keys()
        .into_iter()
        .find(|k| k.starts_with(&prefix))
        .expect("stage stored");
    store.get(&key).expect("entry present")
}

/// Checks `pins` against `expected`, naming every digest that drifted.
fn assert_pins(what: &str, pins: Pins, expected: Pins) {
    assert_eq!(
        pins, expected,
        "{what}: stored or served bytes drifted (got {pins:#x?}); re-pin only for an \
         intentional flow or format change"
    );
}

/// The pinned digests of `examples/msa/adder4.msa`, one set per style
/// (seed 1, default options). These are drift detectors exactly like the
/// route goldens: an intentional change to mapping, packing, placement,
/// routing, bitgen, or the JSON the artifacts and the server write shows
/// up here and is re-pinned consciously (`ARTIFACT_FORMAT_VERSION` bumps
/// ride along).
#[test]
fn adder4_bitstream_digests_are_pinned_per_style() {
    const PINNED: [(&str, Pins); 3] = [
        (
            "qdi",
            Pins {
                place: 0x7960_b3af_382b_484f,
                route: 0x7a7d_7c06_e541_47d9,
                bitstream: 0x4a30_a09c_9c42_ed33,
                pretty: 0x25a5_6427_89eb_f03b,
            },
        ),
        (
            "wchb",
            Pins {
                place: 0x4e03_1f8f_65ad_7a2d,
                route: 0xe660_484e_f6bd_d55b,
                bitstream: 0x95e7_747b_72b1_8954,
                pretty: 0xa704_018a_2b17_81b8,
            },
        ),
        (
            "bundled",
            Pins {
                place: 0x02e0_eb83_b82c_1737,
                route: 0x8618_6091_6e41_ecf1,
                bitstream: 0x53e7_348b_c6f7_5060,
                pretty: 0x3da5_5c08_47da_45fa,
            },
        ),
    ];
    for (style_name, expected) in PINNED {
        let style = Style::from_name(style_name).expect("known style");
        assert_pins(style_name, compile_pins(ADDER4, style), expected);
        // The uncached flow checkpoints the same bitstream, and a repeat
        // compile through a store restores the identical bytes.
        let nl = compile_msa(ADDER4, style).expect("adder4 compiles");
        let compiled = compile(&nl, &FlowOptions::default()).expect("flow succeeds");
        assert_eq!(
            checkpoint::checkpoint_bitstream(&compiled.config).digest(),
            expected.bitstream
        );
        let store = MemStore::new();
        let src_digest = fnv1a(ADDER4.as_bytes());
        compile_cached(&nl, &FlowOptions::default(), &store, src_digest).expect("cached flow");
        let (second, outcomes) = compile_cached(&nl, &FlowOptions::default(), &store, src_digest)
            .expect("cached flow repeat");
        assert!(outcomes.all_hits());
        assert_eq!(
            checkpoint::checkpoint_bitstream(&second.config).digest(),
            expected.bitstream
        );
        assert_eq!(pretty_json_digest(&second.config), expected.pretty);
    }
}

/// The fabric-scale examples' digests, per style in [`Style::ALL`] order
/// (seed 1, default options): the PLB configs bind produces are pinned
/// here, not only the route statistics.
#[test]
fn fabric_scale_bitstream_digests_are_pinned_per_style() {
    const PINNED: [(&str, &str, [Pins; 3]); 2] = [
        (
            "wide32",
            WIDE32,
            [
                Pins {
                    place: 0x494a_3834_af48_927c,
                    route: 0x28b1_0a89_efc5_0a23,
                    bitstream: 0x57b1_cfe1_bc22_46f8,
                    pretty: 0xecdb_c6c9_5522_e7ae,
                },
                Pins {
                    place: 0x5eb9_fda1_0e31_ba72,
                    route: 0x707d_4e66_79b3_282a,
                    bitstream: 0x930d_cd1a_5a1e_87af,
                    pretty: 0x9d76_90ff_6227_67fb,
                },
                Pins {
                    place: 0xe39d_263e_5db9_1183,
                    route: 0x85aa_cb9d_e495_25c0,
                    bitstream: 0x4913_fd65_c601_e81c,
                    pretty: 0x9804_e804_251d_bd5c,
                },
            ],
        ),
        (
            "fir4",
            FIR4,
            [
                Pins {
                    place: 0x77e1_1589_ddc6_fa4e,
                    route: 0x9b76_aca3_6012_63e7,
                    bitstream: 0xa896_babc_adaa_fa87,
                    pretty: 0x725e_3b7b_a17a_02cf,
                },
                Pins {
                    place: 0x9bab_bbd0_8dd8_ad3c,
                    route: 0x976d_3935_d70b_621f,
                    bitstream: 0xf001_2235_af9c_4888,
                    pretty: 0xea0b_9380_04f4_b094,
                },
                Pins {
                    place: 0xd44b_da06_93e8_b14f,
                    route: 0x54ea_c060_b7a7_570a,
                    bitstream: 0xb4b4_ce58_0719_78d2,
                    pretty: 0x7b48_eb19_5e61_332a,
                },
            ],
        ),
    ];
    for (name, src, pins) in PINNED {
        for (style, expected) in Style::ALL.into_iter().zip(pins) {
            assert_pins(
                &format!("{name} {style}"),
                compile_pins(src, style),
                expected,
            );
        }
    }
}

/// A stored artifact cut short at any byte decodes to an error, never
/// to a panic or a wrong value, and the flow treats the entry as a
/// miss: it recomputes the stage and stores the same bytes again.
#[test]
fn truncated_artifacts_decode_to_errors_and_miss() {
    let src = "pipeline cut { input a[2]; output y[1]; stage s { y = parity(a); } }";
    let nl = compile_msa(src, Style::Qdi).expect("elaborates");
    let opts = FlowOptions::default();
    let store = MemStore::new();
    let (cold, _) = compile_cached(&nl, &opts, &store, 1).expect("cold flow");
    for stage in Stage::ALL {
        let json = stored_artifact(&store, stage);
        assert!(json.is_ascii(), "every prefix is a valid &str");
        let decodes = |text: &str| match stage {
            Stage::Pack => PackArtifact::from_json(text).is_ok(),
            Stage::Place => PlaceArtifact::from_json(text).is_ok(),
            Stage::Route => RouteArtifact::from_json(text).is_ok(),
            Stage::Bitgen => BitstreamArtifact::from_json(text).is_ok(),
        };
        assert!(decodes(&json));
        for end in 0..json.len() {
            assert!(!decodes(&json[..end]), "{stage:?} decoded from {end} bytes");
        }

        let key = store
            .keys()
            .into_iter()
            .find(|k| k.contains(&format!(":{}:", stage.name())))
            .expect("stage stored");
        store.put(&key, json[..json.len() / 2].to_string());
        let (again, outcomes) = compile_cached(&nl, &opts, &store, 1).expect("flow recovers");
        for (name, outcome) in outcomes.stages() {
            let expected = if name == stage.name() { "miss" } else { "hit" };
            assert_eq!(outcome.name(), expected, "{name} after cutting {stage:?}");
        }
        assert_eq!(store.get(&key).as_deref(), Some(json.as_str()));
        assert_eq!(
            pretty_json_digest(&again.config),
            pretty_json_digest(&cold.config)
        );
    }
}

/// The pack artifact digest of every committed example, per style in
/// [`Style::ALL`] order, on the paper's architecture: the packer's
/// exact PLB assignment, tie rule included.
#[test]
fn example_pack_digests_are_pinned_per_style() {
    const PINNED: [(&str, &str, [u64; 3]); 11] = [
        (
            "adder4",
            ADDER4,
            [
                0x17f9_43a2_78b4_6074,
                0x6b56_964d_ff2e_675b,
                0x0016_b0e8_71ea_fba3,
            ],
        ),
        (
            "adder4_mod",
            include_str!("../examples/msa/adder4_mod.msa"),
            [
                0x17f9_43a2_78b4_6074,
                0x6b56_964d_ff2e_675b,
                0x0016_b0e8_71ea_fba3,
            ],
        ),
        (
            "fifo2",
            include_str!("../examples/msa/fifo2.msa"),
            [
                0xeaec_ead3_1fa4_f606,
                0x37fd_dd3f_1562_a9d8,
                0xb2f7_c8c0_686a_60a9,
            ],
        ),
        (
            "fifo2_mod",
            include_str!("../examples/msa/fifo2_mod.msa"),
            [
                0xeaec_ead3_1fa4_f606,
                0x37fd_dd3f_1562_a9d8,
                0xb2f7_c8c0_686a_60a9,
            ],
        ),
        (
            "parity8",
            include_str!("../examples/msa/parity8.msa"),
            [
                0x76b5_69bd_2e7b_c2be,
                0xc3ee_d20f_fcac_1c89,
                0x6316_3443_951d_e48e,
            ],
        ),
        (
            "muxtree4",
            include_str!("../examples/msa/muxtree4.msa"),
            [
                0x8d9f_e2e4_0f4f_7c73,
                0x2230_2d6b_0916_e0bb,
                0x044b_17ad_db51_78ef,
            ],
        ),
        (
            "adder16",
            include_str!("../examples/msa/adder16.msa"),
            [
                0xfd9d_49bb_27d1_19a4,
                0x7e82_8b89_2aa3_1c58,
                0x1af4_9b7b_6861_da24,
            ],
        ),
        (
            "wide32",
            WIDE32,
            [
                0x32c5_12ff_9799_c7a5,
                0xb8c5_c091_75e1_9864,
                0x261e_8964_c154_849f,
            ],
        ),
        (
            "fir4",
            FIR4,
            [
                0xae0f_1ae3_60ec_a5f4,
                0x59d3_6783_5fa9_7b3f,
                0xa16b_daa0_a793_85f6,
            ],
        ),
        (
            "fifomesh",
            include_str!("../examples/msa/fifomesh.msa"),
            [
                0x50d9_784d_4d77_0c68,
                0x6030_e018_28ee_292b,
                0x8359_1ba0_b185_f7c0,
            ],
        ),
        (
            "adder64",
            include_str!("../examples/msa/adder64.msa"),
            [
                0x694f_c91d_4755_f784,
                0xd9d9_2c87_975a_d4c4,
                0x19e8_e215_1516_0d9b,
            ],
        ),
    ];
    let arch = FlowOptions::default().arch;
    for (name, src, digests) in PINNED {
        for (style, expected) in Style::ALL.into_iter().zip(digests) {
            let nl = compile_msa(src, style).expect("elaborates");
            let mapped = map(&nl, &arch).expect("maps");
            let packed = pack(&mapped, &arch).expect("packs");
            let digest = checkpoint::checkpoint_pack(&packed).digest();
            assert_eq!(
                digest, expected,
                "{name} {style}: pack artifact digest drifted (got {digest:#018x})"
            );
        }
    }
}
