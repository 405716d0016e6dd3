//! Property tests for the `.msa` grammar.
//!
//! 1. **Round-trip (flat)**: a randomly generated flat program (no
//!    modules, params, loops or `#` holes), printed, re-parsed and
//!    expanded, yields the identical tree — the printer and parser are
//!    exact inverses over the whole syntactic domain (including
//!    semantically meaningless programs; widths are `check`'s job), and
//!    flat sources pass through `expand` unchanged.
//! 2. **Round-trip (hierarchical)**: the same property for the
//!    hierarchical tree — modules, params, generate-loops, instantiation
//!    and `#`-interpolated names survive print → parse unchanged.
//! 3. **Total front-end**: `parse` → `expand` → `analyze` never panics,
//!    on arbitrary bytes and on random mutations of valid flat *and*
//!    hierarchical programs — every failure is a spanned diagnostic.
//! 4. **Real programs**: every `examples/msa` source prints to text that
//!    re-parses to the same tree and prints the same text again.
//!
//! Trees are compared with spans erased ([`erased`]); generated trees
//! carry the zero span [`S`]. Comparing printed text alone would not be
//! enough, because printing is not injective: an instantiation of a
//! module named `add` prints exactly like an `add` operation binding.

use msaf_lang::ast::{self, PortDir};
use msaf_lang::hast::{
    CBinOp, CExpr, HExpr, HPipeline, HPort, HStage, HStmt, IName, Module, ParamDecl, Program,
    StageItem,
};
use msaf_lang::{analyze, expand, parse, OpKind, Span};
use proptest::prelude::*;

/// The span of every generated node.
const S: Span = Span { start: 0, end: 0 };

const NAMES: [&str; 10] = ["a", "b", "c", "x", "y", "z", "t", "u", "res", "op"];
const CONSTS: [&str; 4] = ["W", "N", "k", "j"];
const OPS: [OpKind; 8] = [
    OpKind::And,
    OpKind::Or,
    OpKind::Xor,
    OpKind::Not,
    OpKind::Mux,
    OpKind::Add,
    OpKind::Parity,
    OpKind::Cat,
];

/// The derived `Debug` text with every `Span { start: …, end: … }`
/// blanked: it prints every other field, so two trees with equal
/// erasures differ at most in their spans.
fn erased(prog: &Program) -> String {
    let text = format!("{prog:?}");
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find("Span {") {
        out.push_str(&rest[..at]);
        out.push_str("Span");
        let close = rest[at..].find('}').expect("a span's braces close");
        rest = &rest[at + close + 1..];
    }
    out.push_str(rest);
    out
}

/// A flat pipeline as a program with no modules, params, loops or `#`
/// holes; widths and slice bounds become integer literals.
fn from_flat(p: &ast::Pipeline) -> Program {
    fn expr(e: &ast::Expr) -> HExpr {
        match e {
            ast::Expr::Ref { name, .. } => HExpr::Ref {
                name: plain(name.clone()),
            },
            ast::Expr::Slice { name, lo, hi, .. } => HExpr::Slice {
                name: plain(name.clone()),
                lo: int(*lo as i64),
                hi: int(*hi as i64),
                span: S,
            },
            ast::Expr::Op { op, args, .. } => HExpr::Op {
                op: *op,
                args: args.iter().map(expr).collect(),
                span: S,
            },
        }
    }
    let stmt = |st: &ast::Stmt| match st {
        ast::Stmt::Let { name, expr: e, .. } => HStmt::Let {
            name: plain(name.clone()),
            expr: expr(e),
        },
        ast::Stmt::Assign {
            target, expr: e, ..
        } => HStmt::Assign {
            target: target.clone(),
            target_span: S,
            expr: expr(e),
        },
    };
    Program {
        modules: Vec::new(),
        pipeline: HPipeline {
            name: p.name.clone(),
            name_span: S,
            params: Vec::new(),
            ports: p
                .ports
                .iter()
                .map(|port| HPort {
                    name: port.name.clone(),
                    dir: port.dir,
                    width: int(port.width as i64),
                    span: S,
                })
                .collect(),
            items: p
                .stages
                .iter()
                .map(|s| {
                    StageItem::Stage(HStage {
                        name: s.name.clone(),
                        name_span: S,
                        stmts: s.stmts.iter().map(stmt).collect(),
                    })
                })
                .collect(),
        },
    }
}

fn gen_name(rng: &mut TestRng) -> String {
    NAMES[rng.below(NAMES.len() as u64) as usize].to_string()
}

fn gen_const(rng: &mut TestRng) -> String {
    CONSTS[rng.below(CONSTS.len() as u64) as usize].to_string()
}

fn gen_dir(rng: &mut TestRng) -> PortDir {
    if rng.below(2) == 0 {
        PortDir::Input
    } else {
        PortDir::Output
    }
}

fn plain(base: String) -> IName {
    IName {
        base,
        holes: Vec::new(),
        span: S,
    }
}

fn int(value: i64) -> CExpr {
    CExpr::Int { value, span: S }
}

/// An operation of random kind and legal arity over `arg` expressions.
fn gen_op(rng: &mut TestRng, arg: impl Fn(&mut TestRng) -> HExpr) -> HExpr {
    let op = OPS[rng.below(OPS.len() as u64) as usize];
    let (min, _) = op.arity();
    let n = match op {
        OpKind::Cat => min + rng.below(3) as usize,
        _ => min,
    };
    let args = (0..n).map(|_| arg(rng)).collect();
    HExpr::Op { op, args, span: S }
}

fn gen_expr(rng: &mut TestRng, depth: u32) -> HExpr {
    let choices = if depth == 0 { 2 } else { 5 };
    match rng.below(choices) {
        0 => HExpr::Ref {
            name: plain(gen_name(rng)),
        },
        1 => {
            let lo = rng.below(8) as i64;
            let len = 1 + rng.below(8) as i64;
            HExpr::Slice {
                name: plain(gen_name(rng)),
                lo: int(lo),
                hi: int(lo + len),
                span: S,
            }
        }
        _ => gen_op(rng, |rng| gen_expr(rng, depth - 1)),
    }
}

fn gen_pipeline(seed: u64) -> Program {
    let mut rng = TestRng::new(seed);
    let ports = (0..rng.below(4))
        .map(|i| HPort {
            name: format!("p{i}"),
            dir: gen_dir(&mut rng),
            width: int(1 + rng.below(31) as i64),
            span: S,
        })
        .collect();
    let items = (0..1 + rng.below(3))
        .map(|k| {
            StageItem::Stage(HStage {
                name: format!("s{k}"),
                name_span: S,
                stmts: (0..rng.below(4))
                    .map(|i| {
                        let expr = gen_expr(&mut rng, 3);
                        if rng.below(2) == 0 {
                            HStmt::Let {
                                name: plain(format!("v{k}_{i}")),
                                expr,
                            }
                        } else {
                            HStmt::Assign {
                                target: gen_name(&mut rng),
                                target_span: S,
                                expr,
                            }
                        }
                    })
                    .collect(),
            })
        })
        .collect();
    Program {
        modules: Vec::new(),
        pipeline: HPipeline {
            name: format!("gen{}", seed % 1000),
            name_span: S,
            params: Vec::new(),
            ports,
            items,
        },
    }
}

// ---- hierarchical generators ------------------------------------------

fn gen_cexpr(rng: &mut TestRng, depth: u32) -> CExpr {
    let choices = if depth == 0 { 2 } else { 3 };
    match rng.below(choices) {
        0 => int(rng.below(100) as i64),
        1 => CExpr::Var {
            name: gen_const(rng),
            span: S,
        },
        _ => {
            let op = match rng.below(3) {
                0 => CBinOp::Add,
                1 => CBinOp::Sub,
                _ => CBinOp::Mul,
            };
            CExpr::Bin {
                op,
                lhs: Box::new(gen_cexpr(rng, depth - 1)),
                rhs: Box::new(gen_cexpr(rng, depth - 1)),
                span: S,
            }
        }
    }
}

fn gen_iname(rng: &mut TestRng) -> IName {
    IName {
        base: gen_name(rng),
        holes: (0..rng.below(3)).map(|_| gen_cexpr(rng, 1)).collect(),
        span: S,
    }
}

fn gen_hexpr(rng: &mut TestRng, depth: u32) -> HExpr {
    let choices = if depth == 0 { 2 } else { 4 };
    match rng.below(choices) {
        0 => HExpr::Ref {
            name: gen_iname(rng),
        },
        1 => HExpr::Slice {
            name: gen_iname(rng),
            lo: gen_cexpr(rng, 1),
            hi: gen_cexpr(rng, 1),
            span: S,
        },
        _ => gen_op(rng, |rng| gen_hexpr(rng, depth - 1)),
    }
}

fn gen_hstmt(rng: &mut TestRng, depth: u32) -> HStmt {
    let choices = if depth == 0 { 3 } else { 4 };
    match rng.below(choices) {
        0 => HStmt::Let {
            name: gen_iname(rng),
            expr: gen_hexpr(rng, 2),
        },
        1 => HStmt::Inst {
            targets: (0..1 + rng.below(2)).map(|_| gen_iname(rng)).collect(),
            module: format!("m{}", rng.below(4)),
            module_span: S,
            params: (0..rng.below(3)).map(|_| gen_cexpr(rng, 1)).collect(),
            args: (0..rng.below(3)).map(|_| gen_hexpr(rng, 1)).collect(),
            span: S,
        },
        2 => HStmt::Assign {
            target: gen_name(rng),
            target_span: S,
            expr: gen_hexpr(rng, 2),
        },
        _ => HStmt::For {
            var: gen_const(rng),
            var_span: S,
            lo: gen_cexpr(rng, 1),
            hi: gen_cexpr(rng, 1),
            body: (0..rng.below(3))
                .map(|_| gen_hstmt(rng, depth - 1))
                .collect(),
        },
    }
}

fn gen_item(rng: &mut TestRng, k: u64, depth: u32) -> StageItem {
    if depth > 0 && rng.below(3) == 0 {
        StageItem::For {
            var: gen_const(rng),
            var_span: S,
            lo: gen_cexpr(rng, 1),
            hi: gen_cexpr(rng, 1),
            body: (0..rng.below(3))
                .map(|i| gen_item(rng, k * 10 + i, depth - 1))
                .collect(),
        }
    } else {
        StageItem::Stage(HStage {
            name: format!("s{k}"),
            name_span: S,
            stmts: (0..rng.below(4)).map(|_| gen_hstmt(rng, 2)).collect(),
        })
    }
}

fn gen_port(rng: &mut TestRng, name: String) -> HPort {
    HPort {
        name,
        dir: gen_dir(rng),
        width: gen_cexpr(rng, 1),
        span: S,
    }
}

fn gen_program(seed: u64) -> Program {
    let mut rng = TestRng::new(seed);
    let modules = (0..rng.below(3))
        .map(|i| Module {
            name: format!("m{i}"),
            name_span: S,
            params: (0..rng.below(3)).map(|j| (format!("W{j}"), S)).collect(),
            ports: (0..rng.below(4))
                .map(|j| gen_port(&mut rng, format!("q{j}")))
                .collect(),
            body: (0..rng.below(3)).map(|_| gen_hstmt(&mut rng, 1)).collect(),
        })
        .collect();
    let params = (0..rng.below(3))
        .map(|j| ParamDecl {
            name: CONSTS[j as usize].to_string(),
            name_span: S,
            value: gen_cexpr(&mut rng, 2),
        })
        .collect();
    let ports = (0..rng.below(4))
        .map(|i| gen_port(&mut rng, format!("p{i}")))
        .collect();
    let items = (0..1 + rng.below(3))
        .map(|k| gen_item(&mut rng, k, 2))
        .collect();
    Program {
        modules,
        pipeline: HPipeline {
            name: format!("gen{}", seed % 1000),
            name_span: S,
            params,
            ports,
            items,
        },
    }
}

const EXAMPLES: [(&str, &str); 11] = [
    ("adder4", include_str!("../../../examples/msa/adder4.msa")),
    (
        "adder4_mod",
        include_str!("../../../examples/msa/adder4_mod.msa"),
    ),
    ("adder16", include_str!("../../../examples/msa/adder16.msa")),
    ("adder64", include_str!("../../../examples/msa/adder64.msa")),
    ("fifo2", include_str!("../../../examples/msa/fifo2.msa")),
    (
        "fifo2_mod",
        include_str!("../../../examples/msa/fifo2_mod.msa"),
    ),
    (
        "fifomesh",
        include_str!("../../../examples/msa/fifomesh.msa"),
    ),
    ("fir4", include_str!("../../../examples/msa/fir4.msa")),
    (
        "muxtree4",
        include_str!("../../../examples/msa/muxtree4.msa"),
    ),
    ("parity8", include_str!("../../../examples/msa/parity8.msa")),
    ("wide32", include_str!("../../../examples/msa/wide32.msa")),
];

/// `fifo2_mod.msa` as the printer writes it.
const FIFO2_MOD_PRINTED: &str = "\
module buf(W)(input d[W]; output q[W]) {
  q = d;
}
pipeline fifo2 {
  input inp[4];
  output outp[4];
  stage head {
    let x = buf<4>(inp);
  }
  stage tail {
    outp = x;
  }
}
";

#[test]
fn examples_print_as_canonical_source_of_the_same_tree() {
    for (name, src) in EXAMPLES {
        let prog = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = prog.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{name}: {e}\n{printed}"));
        assert_eq!(
            erased(&reparsed),
            erased(&prog),
            "{name} printed:\n{printed}"
        );
        assert_eq!(reparsed.to_string(), printed, "{name}");
        if name == "fifo2_mod" {
            assert_eq!(printed, FIFO2_MOD_PRINTED);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ir_pretty_print_parse_round_trips(seed in any::<u64>()) {
        let ir = gen_pipeline(seed);
        let printed = ir.to_string();
        let reparsed = parse(&printed);
        prop_assert!(
            reparsed.is_ok(),
            "printed tree failed to parse: {:?}\n{printed}",
            reparsed.err()
        );
        // Flat sources pass through expansion unchanged.
        let flat = expand(&reparsed.unwrap());
        prop_assert!(flat.is_ok(), "flat source failed to expand: {:?}\n{printed}", flat.err());
        let back = from_flat(&flat.unwrap());
        prop_assert_eq!(
            erased(&back), erased(&ir),
            "round-trip changed the tree; printed form:\n{}", printed
        );
    }

    #[test]
    fn hir_pretty_print_parse_round_trips(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let printed = prog.to_string();
        let reparsed = parse(&printed);
        prop_assert!(
            reparsed.is_ok(),
            "printed hierarchical tree failed to parse: {:?}\n{printed}",
            reparsed.err()
        );
        prop_assert_eq!(
            erased(&reparsed.unwrap()), erased(&prog),
            "round-trip changed the hierarchical tree; printed form:\n{}", printed
        );
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..300)) {
        let text = String::from_utf8_lossy(&bytes);
        // Either outcome is fine — the property is "no panic", and on
        // success expansion and checking must be total too.
        if let Ok(prog) = parse(&text) {
            if let Ok(flat) = expand(&prog) {
                let _ = analyze(&flat);
            }
        }
    }

    #[test]
    fn parser_never_panics_on_mutated_programs(
        (cut, splice, junk) in (0usize..200, 0usize..200, collection::vec(any::<u8>(), 0..12))
    ) {
        const VALID: &str = "pipeline adder4 { input op[9]; output res[5];
            stage sum { res = add(op[0..4], op[4..8], op[8]); } }";
        let bytes = VALID.as_bytes();
        let cut = cut.min(bytes.len());
        let splice = splice.min(bytes.len());
        let (lo, hi) = (cut.min(splice), cut.max(splice));
        let mut mutated = Vec::new();
        mutated.extend_from_slice(&bytes[..lo]);
        mutated.extend_from_slice(&junk);
        mutated.extend_from_slice(&bytes[hi..]);
        let text = String::from_utf8_lossy(&mutated);
        if let Ok(prog) = parse(&text) {
            if let Ok(flat) = expand(&prog) {
                let _ = analyze(&flat);
            }
        }
    }

    #[test]
    fn front_end_never_panics_on_mutated_hierarchical_programs(
        (cut, splice, junk) in (0usize..400, 0usize..400, collection::vec(any::<u8>(), 0..12))
    ) {
        const VALID: &str = "\
module vadd(W)(input x[W]; input y[W]; input ci[1]; output r[W + 1]) {
  r = add(x, y, ci);
}
pipeline gen { param N = 4;
  input a[2 * N]; output s[5];
  stage sum {
    let c#0 = a[0];
    for k = 0..N { let c#(k + 1) = c#k; }
    let r = vadd<N>(a[0..N], a[N..2 * N], c#N);
    s = r;
  }
}";
        let bytes = VALID.as_bytes();
        let cut = cut.min(bytes.len());
        let splice = splice.min(bytes.len());
        let (lo, hi) = (cut.min(splice), cut.max(splice));
        let mut mutated = Vec::new();
        mutated.extend_from_slice(&bytes[..lo]);
        mutated.extend_from_slice(&junk);
        mutated.extend_from_slice(&bytes[hi..]);
        let text = String::from_utf8_lossy(&mutated);
        if let Ok(prog) = parse(&text) {
            if let Ok(flat) = expand(&prog) {
                let _ = analyze(&flat);
            }
        }
    }
}
