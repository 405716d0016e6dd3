//! # msaf-lang
//!
//! A pipeline description language front-end for the MSAF reproduction
//! of *"FPGA architecture for multi-style asynchronous logic"* (DATE
//! 2005): small textual `.msa` programs describe handshake channels and
//! pipeline stages with logic expressions, and the elaborator lowers one
//! source file into **any of the three supported asynchronous styles**
//! — QDI dual-rail DIMS, WCHB-buffered QDI pipelines, and bundled-data
//! micropipelines — by reusing the `msaf-cells` circuit constructions.
//! Style becomes a one-token compile knob; workloads become data instead
//! of Rust generator code.
//!
//! The language is hierarchical: `module` definitions with integer
//! params, `param` constants, `for`-generate loops, and `#`-interpolated
//! names all elaborate into a flat pipeline *before* semantic checking
//! ("flatten before check"), so a ten-line source can describe a
//! 64-bit adder or a thousand-net FIFO mesh.
//!
//! The pipeline:
//!
//! 1. [`parser::parse`] — lexer + recursive-descent parser with byte-span
//!    diagnostics ([`diag::Diag::render`] reports line/column positions)
//!    producing the hierarchical AST in [`hast`], whose `Display` prints
//!    canonical source;
//! 2. [`expand::expand`] — hierarchy expansion: unrolls generate loops,
//!    evaluates constant expressions, and splices module instances into
//!    a flat [`ast::Pipeline`] with deterministic instance-qualified
//!    names (flat sources pass through unchanged);
//! 3. [`check::analyze`] — width checking, use-before-def/acyclicity, and
//!    dangling-channel detection;
//! 4. [`elab::elaborate`] — lowering into a [`msaf_netlist::Netlist`] in
//!    a chosen [`Style`], ready for `msaf_sim::token_run` and the
//!    `msaf_cad` flow.
//!
//! [`compile_msa`] runs all four steps. The `msafc` binary wraps the
//! whole chain up to the compiled fabric report.
//!
//! ## Example
//!
//! ```
//! use msaf_lang::{compile_msa, Style};
//!
//! let src = "
//!     pipeline maj { input a[3]; output y[1];
//!       stage vote {
//!         y = or(and(a[0], a[1]), and(a[2], xor(a[0], a[1])));
//!       }
//!     }";
//! for style in Style::ALL {
//!     let nl = compile_msa(src, style)?;
//!     assert!(nl.validate().is_ok());
//! }
//! # Ok::<(), msaf_lang::LangError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod diag;
pub mod elab;
pub mod expand;
pub mod hast;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::OpKind;
pub use check::{analyze, Analysis};
pub use diag::{Diag, Span};
pub use elab::{elaborate, Style};
pub use expand::expand;
pub use parser::parse;

use msaf_netlist::Netlist;

/// Everything that can go wrong between source text and netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// Lexing or parsing failed.
    Parse(Diag),
    /// Hierarchy expansion failed (unknown module, instantiation cycle,
    /// bad constant expression, exhausted elaboration budget, ...).
    Expand(Vec<Diag>),
    /// The flattened pipeline violates a semantic rule.
    Check(Vec<Diag>),
}

impl LangError {
    /// Renders every diagnostic against the source, with line/column
    /// positions and caret underlines.
    #[must_use]
    pub fn render(&self, src: &str) -> String {
        match self {
            LangError::Parse(d) => d.render(src),
            LangError::Expand(ds) | LangError::Check(ds) => ds
                .iter()
                .map(|d| d.render(src))
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }

    /// The diagnostics, regardless of phase.
    #[must_use]
    pub fn diags(&self) -> Vec<Diag> {
        match self {
            LangError::Parse(d) => vec![d.clone()],
            LangError::Expand(ds) | LangError::Check(ds) => ds.clone(),
        }
    }
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LangError::Parse(d) => write!(f, "{d}"),
            LangError::Expand(ds) | LangError::Check(ds) => {
                for (i, d) in ds.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LangError {}

/// Parses, checks and elaborates `.msa` source into a netlist in the
/// given style.
///
/// # Errors
///
/// Returns a [`LangError`] carrying span diagnostics; render them with
/// [`LangError::render`].
pub fn compile_msa(src: &str, style: Style) -> Result<Netlist, LangError> {
    let prog = parser::parse(src).map_err(LangError::Parse)?;
    let flat = expand::expand(&prog).map_err(LangError::Expand)?;
    let analysis = check::analyze(&flat).map_err(LangError::Check)?;
    Ok(elab::elaborate(&flat, &analysis, style))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_msa_end_to_end() {
        let src = "pipeline t { input a[2]; output y[1];
            stage s { y = parity(a); } }";
        for style in Style::ALL {
            let nl = compile_msa(src, style).expect("compiles");
            assert_eq!(nl.name(), format!("t_{}", style.name()));
            assert!(nl.validate().is_ok());
        }
    }

    #[test]
    fn parse_error_renders_with_position() {
        let src = "pipeline t {\n  input a[2]\n  output y[1];\n  stage s { y = parity(a); } }";
        let err = compile_msa(src, Style::Qdi).unwrap_err();
        let rendered = err.render(src);
        // The missing ';' is reported where 'output' was found: line 3.
        assert!(rendered.contains("at 3:3"), "{rendered}");
    }

    #[test]
    fn check_errors_are_collected() {
        let src = "pipeline t { input a[2]; input b[3]; output y[9];
            stage s { y = cat(a, a, a, a) ; } }";
        let err = compile_msa(src, Style::Qdi).unwrap_err();
        // Dangling 'b' AND width mismatch (8 vs 9) reported together.
        assert!(err.diags().len() >= 2, "{err}");
    }
}
