//! Spanned *hierarchical* abstract syntax tree produced by the parser.
//!
//! This is the surface form of the language: `module` definitions with
//! integer params, `param` constants, `for`-generate loops (over stages
//! and over statements), module instantiation, and `#`-interpolated
//! names. [`crate::expand()`] flattens a [`Program`] into the plain
//! [`crate::ast::Pipeline`] the checker and elaborator consume — flat
//! sources pass through unchanged (same names, same spans).
//!
//! [`Program`]'s `Display` is the canonical printer, for flat and
//! hierarchical sources alike. It ignores spans, and its text parses
//! back to the same tree up to spans (pinned by the grammar property
//! tests). Canonical print rules: constant `Bin`
//! expressions are fully parenthesized, slices always print the explicit
//! `[lo..hi]` form, interpolation holes print as `#<int>`, `#<name>` or
//! `#(<cexpr>)`, and empty instantiation param lists omit the `<>`.

use crate::ast::{OpKind, PortDir};
use crate::diag::Span;
use std::fmt;

/// A binary operator in a compile-time constant expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
}

impl CBinOp {
    /// The surface symbol.
    #[must_use]
    pub fn symbol(&self) -> &'static str {
        match self {
            CBinOp::Add => "+",
            CBinOp::Sub => "-",
            CBinOp::Mul => "*",
        }
    }
}

/// A compile-time constant expression over integers, params and loop
/// variables. Evaluated (in `i64`, overflow-checked) by the expander.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CExpr {
    /// An integer literal.
    Int {
        /// The value.
        value: i64,
        /// Source location.
        span: Span,
    },
    /// A param or loop-variable reference.
    Var {
        /// The referenced constant name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// A binary operation.
    Bin {
        /// The operator.
        op: CBinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
        /// Source location.
        span: Span,
    },
}

impl CExpr {
    /// The source span of the expression.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            CExpr::Int { span, .. } | CExpr::Var { span, .. } | CExpr::Bin { span, .. } => *span,
        }
    }
}

/// A possibly-interpolated signal name: `base` followed by zero or more
/// `#`-holes (`c#k`, `c#(k+1)`, `c#0`). Each hole evaluates to a
/// non-negative integer whose decimal digits are appended to the name at
/// flatten time — `c#3` and the literal spelling `c3` are the same name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IName {
    /// The literal head of the name.
    pub base: String,
    /// The interpolation holes, in order.
    pub holes: Vec<CExpr>,
    /// Source location of the whole name.
    pub span: Span,
}

/// An expression over named values (hierarchical form: names may be
/// interpolated and slice bounds are constant expressions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HExpr {
    /// A whole named value.
    Ref {
        /// The referenced name.
        name: IName,
    },
    /// A bit slice `name[lo..hi]` (half-open) or single bit `name[i]`
    /// (sugar for `[i..i+1]`, normalised at parse time).
    Slice {
        /// The sliced name.
        name: IName,
        /// First bit (inclusive).
        lo: CExpr,
        /// Last bit (exclusive).
        hi: CExpr,
        /// Source location.
        span: Span,
    },
    /// An operation applied to argument expressions.
    Op {
        /// Which operation.
        op: OpKind,
        /// The arguments, in source order.
        args: Vec<HExpr>,
        /// Source location.
        span: Span,
    },
}

impl HExpr {
    /// The source span of the expression.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            HExpr::Ref { name } => name.span,
            HExpr::Slice { span, .. } | HExpr::Op { span, .. } => *span,
        }
    }
}

/// One statement inside a stage or a module body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HStmt {
    /// `let name = expr;`
    Let {
        /// The bound name.
        name: IName,
        /// The defining expression.
        expr: HExpr,
    },
    /// `let t1, t2 = M<p, ...>(a, ...);` — module instantiation. The
    /// only statement form with multiple binding targets; targets bind
    /// the module's output ports in declaration order.
    Inst {
        /// The binding targets, one per module output port.
        targets: Vec<IName>,
        /// The instantiated module's name.
        module: String,
        /// Span of the module name.
        module_span: Span,
        /// Param arguments (evaluated in the caller's constant scope).
        params: Vec<CExpr>,
        /// Port arguments, one per module input port.
        args: Vec<HExpr>,
        /// Span of the whole instantiation expression.
        span: Span,
    },
    /// `port = expr;` — drives an output port (of the pipeline, or of
    /// the enclosing module).
    Assign {
        /// The output port name.
        target: String,
        /// Span of the target name.
        target_span: Span,
        /// The driven expression.
        expr: HExpr,
    },
    /// `for k = lo..hi { ... }` over statements.
    For {
        /// The loop variable.
        var: String,
        /// Span of the loop variable.
        var_span: Span,
        /// Lower bound (inclusive).
        lo: CExpr,
        /// Upper bound (exclusive).
        hi: CExpr,
        /// The repeated statements.
        body: Vec<HStmt>,
    },
}

/// A declared port with a constant-expression width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HPort {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Payload width (a constant expression over the enclosing params).
    pub width: CExpr,
    /// Span of the declaration.
    pub span: Span,
}

/// A `module name(params)(ports) { body }` definition: a reusable,
/// parameterized combinational macro. Modules have no stages; their
/// bodies are spliced into the instantiating stage by the expander.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Span of the module name.
    pub name_span: Span,
    /// Declared params, in order.
    pub params: Vec<(String, Span)>,
    /// Declared ports (any number of inputs and outputs).
    pub ports: Vec<HPort>,
    /// Body statements.
    pub body: Vec<HStmt>,
}

/// `param name = cexpr;` — a pipeline-level named constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Param name.
    pub name: String,
    /// Span of the param name.
    pub name_span: Span,
    /// The defining constant expression (may reference earlier params).
    pub value: CExpr,
}

/// One hierarchical pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HStage {
    /// Stage name (loop-generated copies get `_<index>` suffixes).
    pub name: String,
    /// Span of the stage name.
    pub name_span: Span,
    /// Statements in source order.
    pub stmts: Vec<HStmt>,
}

/// A stage-level item: a stage, or a generate-loop over stage items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageItem {
    /// A single stage.
    Stage(HStage),
    /// `for k = lo..hi { <stage items> }` — each iteration emits all
    /// contained stages with `_<k>` appended to their names.
    For {
        /// The loop variable.
        var: String,
        /// Span of the loop variable.
        var_span: Span,
        /// Lower bound (inclusive).
        lo: CExpr,
        /// Upper bound (exclusive).
        hi: CExpr,
        /// The repeated items.
        body: Vec<StageItem>,
    },
}

/// The hierarchical pipeline: params, then ports, then stage items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HPipeline {
    /// Pipeline (and netlist) name.
    pub name: String,
    /// Span of the pipeline name.
    pub name_span: Span,
    /// `param` declarations, in order.
    pub params: Vec<ParamDecl>,
    /// Declared ports, in source order.
    pub ports: Vec<HPort>,
    /// Stage items, first-to-last.
    pub items: Vec<StageItem>,
}

/// A complete parsed `.msa` source: module definitions followed by the
/// single pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Module definitions, in source order.
    pub modules: Vec<Module>,
    /// The pipeline.
    pub pipeline: HPipeline,
}

// ---- canonical printer ------------------------------------------------

fn write_sep<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T], sep: &str) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for CExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CExpr::Int { value, .. } => write!(f, "{value}"),
            CExpr::Var { name, .. } => f.write_str(name),
            CExpr::Bin { op, lhs, rhs, .. } => write!(f, "({lhs} {} {rhs})", op.symbol()),
        }
    }
}

impl fmt::Display for IName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.base)?;
        for h in &self.holes {
            // `Bin` prints its own parentheses, which double as the
            // hole's `#(<cexpr>)` form.
            write!(f, "#{h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for HExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HExpr::Ref { name } => write!(f, "{name}"),
            HExpr::Slice { name, lo, hi, .. } => write!(f, "{name}[{lo}..{hi}]"),
            HExpr::Op { op, args, .. } => {
                write!(f, "{}(", op.name())?;
                write_sep(f, args, ", ")?;
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for HPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kw = match self.dir {
            PortDir::Input => "input",
            PortDir::Output => "output",
        };
        write!(f, "{kw} {}[{}]", self.name, self.width)
    }
}

fn write_stmt(f: &mut fmt::Formatter<'_>, s: &HStmt, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match s {
        HStmt::Let { name, expr } => writeln!(f, "{pad}let {name} = {expr};"),
        HStmt::Inst {
            targets,
            module,
            params,
            args,
            ..
        } => {
            write!(f, "{pad}let ")?;
            write_sep(f, targets, ", ")?;
            write!(f, " = {module}")?;
            if !params.is_empty() {
                f.write_str("<")?;
                write_sep(f, params, ", ")?;
                f.write_str(">")?;
            }
            f.write_str("(")?;
            write_sep(f, args, ", ")?;
            writeln!(f, ");")
        }
        HStmt::Assign { target, expr, .. } => writeln!(f, "{pad}{target} = {expr};"),
        HStmt::For {
            var, lo, hi, body, ..
        } => {
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
        StageItem::For {
            var, lo, hi, body, ..
        } => {
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
            for (i, (p, _)) in m.params.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                f.write_str(p)?;
            }
            f.write_str(")(")?;
            write_sep(f, &m.ports, "; ")?;
            writeln!(f, ") {{")?;
            for s in &m.body {
                write_stmt(f, s, 1)?;
            }
            writeln!(f, "}}")?;
        }
        let p = &self.pipeline;
        writeln!(f, "pipeline {} {{", p.name)?;
        for d in &p.params {
            writeln!(f, "  param {} = {};", d.name, d.value)?;
        }
        for port in &p.ports {
            writeln!(f, "  {port};")?;
        }
        for item in &p.items {
            write_item(f, item, 1)?;
        }
        writeln!(f, "}}")
    }
}
