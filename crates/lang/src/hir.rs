//! The span-free *hierarchical* IR with its canonical pretty-printer.
//!
//! [`crate::hast`] nodes carry source spans for diagnostics; this module
//! is the same shape with the spans erased, giving canonical values with
//! structural equality and a printer whose output parses back to the
//! identical IR (`hir(parse(print(h))) == h` — pinned by the grammar
//! property tests). It is the only span-free IR: a flat
//! [`ast::Pipeline`] converts to a [`Program`] with no modules, params,
//! loops or `#` holes, whose printed form is the flat source.
//!
//! Canonical print rules: constant `Bin` expressions are fully
//! parenthesized, slices always print the explicit `[lo..hi]` form,
//! interpolation holes print as `#<int>`, `#<name>` or `#(<cexpr>)`,
//! and empty instantiation param lists omit the `<>`.

use crate::ast::{self, OpKind, PortDir};
use crate::hast;
pub use crate::hast::CBinOp;
use std::fmt;

/// A span-free compile-time constant expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CExpr {
    /// An integer literal.
    Int(i64),
    /// A param or loop-variable reference.
    Var(String),
    /// A binary operation (printed fully parenthesized).
    Bin(CBinOp, Box<CExpr>, Box<CExpr>),
}

/// A span-free interpolated name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IName {
    /// The literal head.
    pub base: String,
    /// Interpolation holes, in order.
    pub holes: Vec<CExpr>,
}

/// A span-free hierarchical expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A whole named value.
    Ref(IName),
    /// `name[lo..hi]`, half-open.
    Slice(IName, CExpr, CExpr),
    /// An operation over arguments.
    Op(OpKind, Vec<Expr>),
}

/// A span-free hierarchical statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `let name = expr;`
    Let(IName, Expr),
    /// `let t1, t2 = module<params>(args);`
    Inst {
        /// Binding targets, one per module output.
        targets: Vec<IName>,
        /// Instantiated module name.
        module: String,
        /// Param arguments (printed only when non-empty).
        params: Vec<CExpr>,
        /// Port arguments.
        args: Vec<Expr>,
    },
    /// `target = expr;`
    Assign(String, Expr),
    /// `for var = lo..hi { ... }` over statements.
    For {
        /// Loop variable.
        var: String,
        /// Lower bound (inclusive).
        lo: CExpr,
        /// Upper bound (exclusive).
        hi: CExpr,
        /// Repeated statements.
        body: Vec<Stmt>,
    },
}

/// A span-free port declaration with constant-expression width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Payload width.
    pub width: CExpr,
}

/// A span-free module definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Declared params.
    pub params: Vec<String>,
    /// Declared ports.
    pub ports: Vec<Port>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A span-free `param` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Param name.
    pub name: String,
    /// Defining constant expression.
    pub value: CExpr,
}

/// A span-free stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Stage name.
    pub name: String,
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A span-free stage item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageItem {
    /// A single stage.
    Stage(Stage),
    /// A generate-loop over stage items.
    For {
        /// Loop variable.
        var: String,
        /// Lower bound (inclusive).
        lo: CExpr,
        /// Upper bound (exclusive).
        hi: CExpr,
        /// Repeated items.
        body: Vec<StageItem>,
    },
}

/// A span-free hierarchical pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    /// Pipeline name.
    pub name: String,
    /// `param` declarations in order.
    pub params: Vec<ParamDecl>,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// Stage items first-to-last.
    pub items: Vec<StageItem>,
}

/// A span-free program: modules, then the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Module definitions in source order.
    pub modules: Vec<Module>,
    /// The pipeline.
    pub pipeline: Pipeline,
}

// ---- span erasure -----------------------------------------------------

impl From<&hast::CExpr> for CExpr {
    fn from(e: &hast::CExpr) -> Self {
        match e {
            hast::CExpr::Int { value, .. } => CExpr::Int(*value),
            hast::CExpr::Var { name, .. } => CExpr::Var(name.clone()),
            hast::CExpr::Bin { op, lhs, rhs, .. } => CExpr::Bin(
                *op,
                Box::new(CExpr::from(lhs.as_ref())),
                Box::new(CExpr::from(rhs.as_ref())),
            ),
        }
    }
}

impl From<&hast::IName> for IName {
    fn from(n: &hast::IName) -> Self {
        IName {
            base: n.base.clone(),
            holes: n.holes.iter().map(CExpr::from).collect(),
        }
    }
}

impl From<&hast::HExpr> for Expr {
    fn from(e: &hast::HExpr) -> Self {
        match e {
            hast::HExpr::Ref { name } => Expr::Ref(IName::from(name)),
            hast::HExpr::Slice { name, lo, hi, .. } => {
                Expr::Slice(IName::from(name), CExpr::from(lo), CExpr::from(hi))
            }
            hast::HExpr::Op { op, args, .. } => {
                Expr::Op(*op, args.iter().map(Expr::from).collect())
            }
        }
    }
}

impl From<&hast::HStmt> for Stmt {
    fn from(s: &hast::HStmt) -> Self {
        match s {
            hast::HStmt::Let { name, expr } => Stmt::Let(IName::from(name), Expr::from(expr)),
            hast::HStmt::Inst {
                targets,
                module,
                params,
                args,
                ..
            } => Stmt::Inst {
                targets: targets.iter().map(IName::from).collect(),
                module: module.clone(),
                params: params.iter().map(CExpr::from).collect(),
                args: args.iter().map(Expr::from).collect(),
            },
            hast::HStmt::Assign { target, expr, .. } => {
                Stmt::Assign(target.clone(), Expr::from(expr))
            }
            hast::HStmt::For {
                var, lo, hi, body, ..
            } => Stmt::For {
                var: var.clone(),
                lo: CExpr::from(lo),
                hi: CExpr::from(hi),
                body: body.iter().map(Stmt::from).collect(),
            },
        }
    }
}

impl From<&hast::HPort> for Port {
    fn from(p: &hast::HPort) -> Self {
        Port {
            name: p.name.clone(),
            dir: p.dir,
            width: CExpr::from(&p.width),
        }
    }
}

impl From<&hast::StageItem> for StageItem {
    fn from(item: &hast::StageItem) -> Self {
        match item {
            hast::StageItem::Stage(s) => StageItem::Stage(Stage {
                name: s.name.clone(),
                stmts: s.stmts.iter().map(Stmt::from).collect(),
            }),
            hast::StageItem::For {
                var, lo, hi, body, ..
            } => StageItem::For {
                var: var.clone(),
                lo: CExpr::from(lo),
                hi: CExpr::from(hi),
                body: body.iter().map(StageItem::from).collect(),
            },
        }
    }
}

impl From<&hast::Program> for Program {
    fn from(prog: &hast::Program) -> Self {
        Program {
            modules: prog
                .modules
                .iter()
                .map(|m| Module {
                    name: m.name.clone(),
                    params: m.params.iter().map(|(n, _)| n.clone()).collect(),
                    ports: m.ports.iter().map(Port::from).collect(),
                    body: m.body.iter().map(Stmt::from).collect(),
                })
                .collect(),
            pipeline: Pipeline {
                name: prog.pipeline.name.clone(),
                params: prog
                    .pipeline
                    .params
                    .iter()
                    .map(|p| ParamDecl {
                        name: p.name.clone(),
                        value: CExpr::from(&p.value),
                    })
                    .collect(),
                ports: prog.pipeline.ports.iter().map(Port::from).collect(),
                items: prog.pipeline.items.iter().map(StageItem::from).collect(),
            },
        }
    }
}

impl IName {
    fn plain(base: &str) -> Self {
        IName {
            base: base.to_string(),
            holes: Vec::new(),
        }
    }
}

impl CExpr {
    fn int(v: usize) -> Self {
        // Every width and bound `expand` produces came from an `i64`.
        CExpr::Int(i64::try_from(v).expect("flat widths and bounds fit in i64"))
    }
}

impl From<&ast::Expr> for Expr {
    fn from(e: &ast::Expr) -> Self {
        match e {
            ast::Expr::Ref { name, .. } => Expr::Ref(IName::plain(name)),
            ast::Expr::Slice { name, lo, hi, .. } => {
                Expr::Slice(IName::plain(name), CExpr::int(*lo), CExpr::int(*hi))
            }
            ast::Expr::Op { op, args, .. } => Expr::Op(*op, args.iter().map(Expr::from).collect()),
        }
    }
}

/// A flat pipeline as a program with no modules, params, loops or `#`
/// holes; widths and slice bounds become [`CExpr::Int`].
impl From<&ast::Pipeline> for Program {
    fn from(p: &ast::Pipeline) -> Self {
        let stmt = |st: &ast::Stmt| match st {
            ast::Stmt::Let { name, expr, .. } => Stmt::Let(IName::plain(name), Expr::from(expr)),
            ast::Stmt::Assign { target, expr, .. } => {
                Stmt::Assign(target.clone(), Expr::from(expr))
            }
        };
        Program {
            modules: Vec::new(),
            pipeline: Pipeline {
                name: p.name.clone(),
                params: Vec::new(),
                ports: p
                    .ports
                    .iter()
                    .map(|port| Port {
                        name: port.name.clone(),
                        dir: port.dir,
                        width: CExpr::int(port.width),
                    })
                    .collect(),
                items: p
                    .stages
                    .iter()
                    .map(|s| {
                        StageItem::Stage(Stage {
                            name: s.name.clone(),
                            stmts: s.stmts.iter().map(stmt).collect(),
                        })
                    })
                    .collect(),
            },
        }
    }
}

// ---- canonical printer ------------------------------------------------

impl fmt::Display for CExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CExpr::Int(v) => write!(f, "{v}"),
            CExpr::Var(n) => f.write_str(n),
            CExpr::Bin(op, lhs, rhs) => write!(f, "({lhs} {} {rhs})", op.symbol()),
        }
    }
}

impl fmt::Display for IName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.base)?;
        for h in &self.holes {
            match h {
                // `Bin` prints its own parentheses, which double as the
                // hole's `#(<cexpr>)` form.
                CExpr::Int(_) | CExpr::Bin(..) => write!(f, "#{h}")?,
                CExpr::Var(n) => write!(f, "#{n}")?,
            }
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Ref(n) => write!(f, "{n}"),
            Expr::Slice(n, lo, hi) => write!(f, "{n}[{lo}..{hi}]"),
            Expr::Op(op, args) => {
                write!(f, "{}(", op.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

fn write_port(f: &mut fmt::Formatter<'_>, p: &Port) -> fmt::Result {
    let kw = match p.dir {
        PortDir::Input => "input",
        PortDir::Output => "output",
    };
    write!(f, "{kw} {}[{}]", p.name, p.width)
}

fn write_stmt(f: &mut fmt::Formatter<'_>, s: &Stmt, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match s {
        Stmt::Let(name, e) => writeln!(f, "{pad}let {name} = {e};"),
        Stmt::Inst {
            targets,
            module,
            params,
            args,
        } => {
            write!(f, "{pad}let ")?;
            for (i, t) in targets.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, " = {module}")?;
            if !params.is_empty() {
                f.write_str("<")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(">")?;
            }
            f.write_str("(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{a}")?;
            }
            writeln!(f, ");")
        }
        Stmt::Assign(target, e) => writeln!(f, "{pad}{target} = {e};"),
        Stmt::For { var, lo, hi, body } => {
            writeln!(f, "{pad}for {var} = {lo}..{hi} {{")?;
            for st in body {
                write_stmt(f, st, indent + 1)?;
            }
            writeln!(f, "{pad}}}")
        }
    }
}

fn write_item(f: &mut fmt::Formatter<'_>, item: &StageItem, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match item {
        StageItem::Stage(s) => {
            writeln!(f, "{pad}stage {} {{", s.name)?;
            for st in &s.stmts {
                write_stmt(f, st, indent + 1)?;
            }
            writeln!(f, "{pad}}}")
        }
        StageItem::For { var, lo, hi, body } => {
            writeln!(f, "{pad}for {var} = {lo}..{hi} {{")?;
            for it in body {
                write_item(f, it, indent + 1)?;
            }
            writeln!(f, "{pad}}}")
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.modules {
            write!(f, "module {}(", m.name)?;
            for (i, p) in m.params.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                f.write_str(p)?;
            }
            f.write_str(")(")?;
            for (i, p) in m.ports.iter().enumerate() {
                if i > 0 {
                    f.write_str("; ")?;
                }
                write_port(f, p)?;
            }
            writeln!(f, ") {{")?;
            for s in &m.body {
                write_stmt(f, s, 1)?;
            }
            writeln!(f, "}}")?;
        }
        writeln!(f, "pipeline {} {{", self.pipeline.name)?;
        for p in &self.pipeline.params {
            writeln!(f, "  param {} = {};", p.name, p.value)?;
        }
        for p in &self.pipeline.ports {
            f.write_str("  ")?;
            write_port(f, p)?;
            writeln!(f, ";")?;
        }
        for item in &self.pipeline.items {
            write_item(f, item, 1)?;
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn print_then_parse_is_identity() {
        let prog = Program {
            modules: vec![Module {
                name: "vadd".into(),
                params: vec!["W".into()],
                ports: vec![
                    Port {
                        name: "x".into(),
                        dir: PortDir::Input,
                        width: CExpr::Var("W".into()),
                    },
                    Port {
                        name: "r".into(),
                        dir: PortDir::Output,
                        width: CExpr::Bin(
                            CBinOp::Add,
                            Box::new(CExpr::Var("W".into())),
                            Box::new(CExpr::Int(1)),
                        ),
                    },
                ],
                body: vec![Stmt::Assign(
                    "r".into(),
                    Expr::Op(
                        OpKind::Cat,
                        vec![
                            Expr::Ref(IName {
                                base: "x".into(),
                                holes: vec![],
                            }),
                            Expr::Slice(
                                IName {
                                    base: "x".into(),
                                    holes: vec![],
                                },
                                CExpr::Int(0),
                                CExpr::Int(1),
                            ),
                        ],
                    ),
                )],
            }],
            pipeline: Pipeline {
                name: "p".into(),
                params: vec![ParamDecl {
                    name: "N".into(),
                    value: CExpr::Bin(
                        CBinOp::Mul,
                        Box::new(CExpr::Int(2)),
                        Box::new(CExpr::Int(2)),
                    ),
                }],
                ports: vec![
                    Port {
                        name: "a".into(),
                        dir: PortDir::Input,
                        width: CExpr::Var("N".into()),
                    },
                    Port {
                        name: "y".into(),
                        dir: PortDir::Output,
                        width: CExpr::Int(5),
                    },
                ],
                items: vec![
                    StageItem::For {
                        var: "k".into(),
                        lo: CExpr::Int(0),
                        hi: CExpr::Int(2),
                        body: vec![StageItem::Stage(Stage {
                            name: "hop".into(),
                            stmts: vec![Stmt::Let(
                                IName {
                                    base: "a".into(),
                                    holes: vec![],
                                },
                                Expr::Ref(IName {
                                    base: "a".into(),
                                    holes: vec![],
                                }),
                            )],
                        })],
                    },
                    StageItem::Stage(Stage {
                        name: "sum".into(),
                        stmts: vec![
                            Stmt::For {
                                var: "k".into(),
                                lo: CExpr::Int(0),
                                hi: CExpr::Var("N".into()),
                                body: vec![Stmt::Let(
                                    IName {
                                        base: "c".into(),
                                        holes: vec![CExpr::Bin(
                                            CBinOp::Add,
                                            Box::new(CExpr::Var("k".into())),
                                            Box::new(CExpr::Int(1)),
                                        )],
                                    },
                                    Expr::Ref(IName {
                                        base: "c".into(),
                                        holes: vec![CExpr::Var("k".into())],
                                    }),
                                )],
                            },
                            Stmt::Inst {
                                targets: vec![IName {
                                    base: "y0".into(),
                                    holes: vec![],
                                }],
                                module: "vadd".into(),
                                params: vec![CExpr::Int(4)],
                                args: vec![Expr::Ref(IName {
                                    base: "a".into(),
                                    holes: vec![],
                                })],
                            },
                            Stmt::Assign(
                                "y".into(),
                                Expr::Ref(IName {
                                    base: "y0".into(),
                                    holes: vec![],
                                }),
                            ),
                        ],
                    }),
                ],
            },
        };
        let printed = prog.to_string();
        let reparsed = Program::from(&parse(&printed).unwrap());
        assert_eq!(reparsed, prog, "printed form:\n{printed}");
    }
}
