//! Spanned abstract syntax tree produced by the parser.
//!
//! Every node keeps the [`Span`] of the source text it came from so the
//! semantic checks in [`crate::check`] can report precise locations.
//! [`crate::expand()`] produces it from the hierarchical
//! [`crate::hast::Program`], whose `Display` is the canonical printer.

use crate::diag::Span;

/// The fixed set of operations a stage's logic may use. Each one maps to
/// a construction the `msaf-cells` crate already provides in every style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Bitwise AND of two equal-width values.
    And,
    /// Bitwise OR of two equal-width values.
    Or,
    /// Bitwise XOR of two equal-width values.
    Xor,
    /// Bitwise complement of one value.
    Not,
    /// `mux(sel, a, b)`: selects `b` when the 1-bit `sel` is 1, else `a`.
    Mux,
    /// `add(a, b, cin)`: ripple-carry sum; result is one bit wider than
    /// `a`/`b` (the carry lands in the top bit).
    Add,
    /// `parity(x)`: XOR-reduction of all bits to a single bit.
    Parity,
    /// `cat(a, b, ...)`: concatenation, first argument in the low bits.
    Cat,
}

impl OpKind {
    /// The surface name of the operation.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Not => "not",
            OpKind::Mux => "mux",
            OpKind::Add => "add",
            OpKind::Parity => "parity",
            OpKind::Cat => "cat",
        }
    }

    /// Resolves a surface name to an operation.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "and" => OpKind::And,
            "or" => OpKind::Or,
            "xor" => OpKind::Xor,
            "not" => OpKind::Not,
            "mux" => OpKind::Mux,
            "add" => OpKind::Add,
            "parity" => OpKind::Parity,
            "cat" => OpKind::Cat,
            _ => return None,
        })
    }

    /// Legal argument counts: `(min, max)` with `max == usize::MAX` for
    /// variadic operations.
    #[must_use]
    pub fn arity(&self) -> (usize, usize) {
        match self {
            OpKind::And | OpKind::Or | OpKind::Xor => (2, 2),
            OpKind::Not | OpKind::Parity => (1, 1),
            OpKind::Mux | OpKind::Add => (3, 3),
            OpKind::Cat => (2, usize::MAX),
        }
    }
}

/// An expression over named values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A whole named value (an input port in stage 0, a previous-stage
    /// binding later, or an earlier binding of the same stage).
    Ref {
        /// The referenced name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// A bit slice `name[lo..hi]` (half-open) or single bit `name[i]`.
    Slice {
        /// The sliced name.
        name: String,
        /// First bit (inclusive).
        lo: usize,
        /// Last bit (exclusive).
        hi: usize,
        /// Source location.
        span: Span,
    },
    /// An operation applied to argument expressions.
    Op {
        /// Which operation.
        op: OpKind,
        /// The arguments, in source order.
        args: Vec<Expr>,
        /// Source location.
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Expr::Ref { span, .. } | Expr::Slice { span, .. } | Expr::Op { span, .. } => *span,
        }
    }
}

/// One statement inside a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `let name = expr;` — defines a stage-local value. Bindings are the
    /// values that cross to the next stage (and get buffered there in the
    /// pipelined styles).
    Let {
        /// The bound name.
        name: String,
        /// Span of the name.
        name_span: Span,
        /// The defining expression.
        expr: Expr,
    },
    /// `port = expr;` — drives an output port. Only legal in the final
    /// stage.
    Assign {
        /// The output port name.
        target: String,
        /// Span of the target name.
        target_span: Span,
        /// The driven expression.
        expr: Expr,
    },
}

/// Direction of a port declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// `input name[w];` — a handshake channel the environment produces on.
    Input,
    /// `output name[w];` — a handshake channel the environment consumes.
    Output,
}

/// A declared channel port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name (also the [`msaf_netlist::Channel`] name).
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Payload width in bits.
    pub width: usize,
    /// Span of the declaration.
    pub span: Span,
}

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Stage name.
    pub name: String,
    /// Span of the stage name.
    pub name_span: Span,
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// A parsed `.msa` pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    /// Pipeline (and netlist) name.
    pub name: String,
    /// Span of the pipeline name.
    pub name_span: Span,
    /// Declared ports, in source order.
    pub ports: Vec<Port>,
    /// Stages, first-to-last.
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// The declared input ports, in order.
    pub fn inputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// The declared output ports, in order.
    pub fn outputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Output)
    }
}
