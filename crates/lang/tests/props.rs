//! Property tests for the `.msa` grammar.
//!
//! 1. **Round-trip (flat)**: a randomly generated flat program (no
//!    modules, params, loops or `#` holes), pretty-printed, re-parsed
//!    and expanded, yields the identical IR — the printer and parser
//!    are exact inverses over the whole syntactic domain (including
//!    semantically meaningless programs; widths are `check`'s job), and
//!    flat sources pass through `expand` unchanged.
//! 2. **Round-trip (hierarchical)**: the same property for the
//!    hierarchical IR — modules, params, generate-loops, instantiation
//!    and `#`-interpolated names survive print → parse unchanged.
//! 3. **Total front-end**: `parse` → `expand` → `analyze` never panics,
//!    on arbitrary bytes and on random mutations of valid flat *and*
//!    hierarchical programs — every failure is a spanned diagnostic.

use msaf_lang::ast::PortDir;
use msaf_lang::{analyze, expand, hir, parse, OpKind};
use proptest::prelude::*;

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

fn gen_name(rng: &mut TestRng) -> String {
    NAMES[rng.below(NAMES.len() as u64) as usize].to_string()
}

fn plain(base: String) -> hir::IName {
    hir::IName {
        base,
        holes: Vec::new(),
    }
}

fn gen_expr(rng: &mut TestRng, depth: u32) -> hir::Expr {
    let choices = if depth == 0 { 2 } else { 5 };
    match rng.below(choices) {
        0 => hir::Expr::Ref(plain(gen_name(rng))),
        1 => {
            let lo = rng.below(8) as i64;
            let len = 1 + rng.below(8) as i64;
            hir::Expr::Slice(
                plain(gen_name(rng)),
                hir::CExpr::Int(lo),
                hir::CExpr::Int(lo + len),
            )
        }
        _ => {
            let op = OPS[rng.below(OPS.len() as u64) as usize];
            let (min, _) = op.arity();
            let n = match op {
                OpKind::Cat => min + rng.below(3) as usize,
                _ => min,
            };
            let args = (0..n).map(|_| gen_expr(rng, depth - 1)).collect();
            hir::Expr::Op(op, args)
        }
    }
}

fn gen_pipeline(seed: u64) -> hir::Program {
    let mut rng = TestRng::new(seed);
    let ports = (0..rng.below(4))
        .map(|i| hir::Port {
            name: format!("p{i}"),
            dir: if rng.below(2) == 0 {
                PortDir::Input
            } else {
                PortDir::Output
            },
            width: hir::CExpr::Int(1 + rng.below(31) as i64),
        })
        .collect();
    let items = (0..1 + rng.below(3))
        .map(|k| {
            hir::StageItem::Stage(hir::Stage {
                name: format!("s{k}"),
                stmts: (0..rng.below(4))
                    .map(|i| {
                        let expr = gen_expr(&mut rng, 3);
                        if rng.below(2) == 0 {
                            hir::Stmt::Let(plain(format!("v{k}_{i}")), expr)
                        } else {
                            hir::Stmt::Assign(gen_name(&mut rng), expr)
                        }
                    })
                    .collect(),
            })
        })
        .collect();
    hir::Program {
        modules: Vec::new(),
        pipeline: hir::Pipeline {
            name: format!("gen{}", seed % 1000),
            params: Vec::new(),
            ports,
            items,
        },
    }
}

// ---- hierarchical generators ------------------------------------------

fn gen_cexpr(rng: &mut TestRng, depth: u32) -> hir::CExpr {
    let choices = if depth == 0 { 2 } else { 3 };
    match rng.below(choices) {
        0 => hir::CExpr::Int(rng.below(100) as i64),
        1 => hir::CExpr::Var(CONSTS[rng.below(CONSTS.len() as u64) as usize].to_string()),
        _ => {
            let op = match rng.below(3) {
                0 => hir::CBinOp::Add,
                1 => hir::CBinOp::Sub,
                _ => hir::CBinOp::Mul,
            };
            hir::CExpr::Bin(
                op,
                Box::new(gen_cexpr(rng, depth - 1)),
                Box::new(gen_cexpr(rng, depth - 1)),
            )
        }
    }
}

fn gen_iname(rng: &mut TestRng) -> hir::IName {
    hir::IName {
        base: gen_name(rng),
        holes: (0..rng.below(3)).map(|_| gen_cexpr(rng, 1)).collect(),
    }
}

fn gen_hexpr(rng: &mut TestRng, depth: u32) -> hir::Expr {
    let choices = if depth == 0 { 2 } else { 4 };
    match rng.below(choices) {
        0 => hir::Expr::Ref(gen_iname(rng)),
        1 => hir::Expr::Slice(gen_iname(rng), gen_cexpr(rng, 1), gen_cexpr(rng, 1)),
        _ => {
            let op = OPS[rng.below(OPS.len() as u64) as usize];
            let (min, _) = op.arity();
            let n = match op {
                OpKind::Cat => min + rng.below(3) as usize,
                _ => min,
            };
            let args = (0..n).map(|_| gen_hexpr(rng, depth - 1)).collect();
            hir::Expr::Op(op, args)
        }
    }
}

fn gen_hstmt(rng: &mut TestRng, depth: u32) -> hir::Stmt {
    let choices = if depth == 0 { 3 } else { 4 };
    match rng.below(choices) {
        0 => hir::Stmt::Let(gen_iname(rng), gen_hexpr(rng, 2)),
        1 => hir::Stmt::Inst {
            targets: (0..1 + rng.below(2)).map(|_| gen_iname(rng)).collect(),
            module: format!("m{}", rng.below(4)),
            params: (0..rng.below(3)).map(|_| gen_cexpr(rng, 1)).collect(),
            args: (0..rng.below(3)).map(|_| gen_hexpr(rng, 1)).collect(),
        },
        2 => hir::Stmt::Assign(gen_name(rng), gen_hexpr(rng, 2)),
        _ => hir::Stmt::For {
            var: CONSTS[rng.below(CONSTS.len() as u64) as usize].to_string(),
            lo: gen_cexpr(rng, 1),
            hi: gen_cexpr(rng, 1),
            body: (0..rng.below(3))
                .map(|_| gen_hstmt(rng, depth - 1))
                .collect(),
        },
    }
}

fn gen_item(rng: &mut TestRng, k: u64, depth: u32) -> hir::StageItem {
    if depth > 0 && rng.below(3) == 0 {
        hir::StageItem::For {
            var: CONSTS[rng.below(CONSTS.len() as u64) as usize].to_string(),
            lo: gen_cexpr(rng, 1),
            hi: gen_cexpr(rng, 1),
            body: (0..rng.below(3))
                .map(|i| gen_item(rng, k * 10 + i, depth - 1))
                .collect(),
        }
    } else {
        hir::StageItem::Stage(hir::Stage {
            name: format!("s{k}"),
            stmts: (0..rng.below(4)).map(|_| gen_hstmt(rng, 2)).collect(),
        })
    }
}

fn gen_program(seed: u64) -> hir::Program {
    let mut rng = TestRng::new(seed);
    let modules = (0..rng.below(3))
        .map(|i| hir::Module {
            name: format!("m{i}"),
            params: (0..rng.below(3)).map(|j| format!("W{j}")).collect(),
            ports: (0..rng.below(4))
                .map(|j| hir::Port {
                    name: format!("q{j}"),
                    dir: if rng.below(2) == 0 {
                        PortDir::Input
                    } else {
                        PortDir::Output
                    },
                    width: gen_cexpr(&mut rng, 1),
                })
                .collect(),
            body: (0..rng.below(3)).map(|_| gen_hstmt(&mut rng, 1)).collect(),
        })
        .collect();
    let params = (0..rng.below(3))
        .map(|j| hir::ParamDecl {
            name: CONSTS[j as usize].to_string(),
            value: gen_cexpr(&mut rng, 2),
        })
        .collect();
    let ports = (0..rng.below(4))
        .map(|i| hir::Port {
            name: format!("p{i}"),
            dir: if rng.below(2) == 0 {
                PortDir::Input
            } else {
                PortDir::Output
            },
            width: gen_cexpr(&mut rng, 1),
        })
        .collect();
    let items = (0..1 + rng.below(3))
        .map(|k| gen_item(&mut rng, k, 2))
        .collect();
    hir::Program {
        modules,
        pipeline: hir::Pipeline {
            name: format!("gen{}", seed % 1000),
            params,
            ports,
            items,
        },
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
            "printed IR failed to parse: {:?}\n{printed}",
            reparsed.err()
        );
        // Flat sources pass through expansion unchanged.
        let flat = expand(&reparsed.unwrap());
        prop_assert!(flat.is_ok(), "flat source failed to expand: {:?}\n{printed}", flat.err());
        let back = hir::Program::from(&flat.unwrap());
        prop_assert_eq!(&back, &ir, "round-trip changed the IR; printed form:\n{}", printed);
    }

    #[test]
    fn hir_pretty_print_parse_round_trips(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let printed = prog.to_string();
        let reparsed = parse(&printed);
        prop_assert!(
            reparsed.is_ok(),
            "printed hierarchical IR failed to parse: {:?}\n{printed}",
            reparsed.err()
        );
        let back = hir::Program::from(&reparsed.unwrap());
        prop_assert_eq!(
            &back, &prog,
            "round-trip changed the hierarchical IR; printed form:\n{}", printed
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
