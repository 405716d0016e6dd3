//! Typed request envelopes, validated before dispatch.
//!
//! Every compile request is a JSON envelope checked *structurally*
//! against the schema below before any work is scheduled — unknown
//! kinds, unknown fields, missing fields and wrong types are all
//! rejected with a message naming the offending member, and the worker
//! pool never sees a malformed request:
//!
//! ```json
//! {
//!   "kind": "compile",          // required, the only kind served
//!   "source": "<.msa text>",    // required
//!   "style": "qdi",             // required: qdi | wchb | bundled
//!   "seed": 1,                  // optional placement seed
//!   "timing_fac": 0.0,          // optional, 0.0 ..= 1.0
//!   "channel_width": 16         // optional pinned width, 1 ..= 96
//! }
//! ```

use msaf_lang::Style;
use msaf_trace::json::{parse, JsonValue};

/// A validated compile request.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// `.msa` source text.
    pub source: String,
    /// Elaboration style.
    pub style: Style,
    /// Placement seed (default 1, matching `FlowOptions`).
    pub seed: u64,
    /// Timing-driven routing strength (default 0.0 = untimed).
    pub timing_fac: f64,
    /// Pinned channel width (default: adaptive widening).
    pub channel_width: Option<usize>,
}

/// The widest channel an envelope may pin: the paper template's 12
/// tracks doubled by each of the flow's three widenings, so the widest
/// channel the flow itself ever routes. The routing-resource graph
/// grows linearly with the width, so an unbounded value would let one
/// request exhaust the server's memory.
const MAX_CHANNEL_WIDTH: usize = 96;

/// The schema's field names — anything else in the envelope is a
/// structural rejection, so typos fail loudly instead of silently
/// compiling with defaults.
const KNOWN_FIELDS: [&str; 6] = [
    "kind",
    "source",
    "style",
    "seed",
    "timing_fac",
    "channel_width",
];

fn non_negative_integer(v: &JsonValue, field: &str) -> Result<u64, String> {
    let n = v
        .as_num()
        .ok_or_else(|| format!("field '{field}' must be a number"))?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        Err(format!("field '{field}' must be a non-negative integer"))
    } else {
        Ok(n as u64)
    }
}

/// Parses and validates a compile envelope.
///
/// # Errors
///
/// A human-readable message naming exactly what is structurally wrong:
/// non-JSON body, non-object root, unknown `kind`, unknown field,
/// missing required field, or type/range violation.
pub fn parse_compile(body: &str) -> Result<CompileRequest, String> {
    let value = parse(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let JsonValue::Obj(fields) = &value else {
        return Err("envelope must be a JSON object".into());
    };

    for name in fields.keys() {
        if !KNOWN_FIELDS.contains(&name.as_str()) {
            return Err(format!("unknown field '{name}' in envelope"));
        }
    }

    match value.get("kind").and_then(JsonValue::as_str) {
        Some("compile") => {}
        Some(other) => return Err(format!("unknown kind '{other}' (expected 'compile')")),
        None => return Err("field 'kind' is required and must be a string".into()),
    }

    let source = value
        .get("source")
        .and_then(JsonValue::as_str)
        .ok_or("field 'source' is required and must be a string")?
        .to_string();

    let style_name = value
        .get("style")
        .and_then(JsonValue::as_str)
        .ok_or("field 'style' is required and must be a string")?;
    let style = Style::from_name(style_name).ok_or_else(|| {
        format!("unknown style '{style_name}' (expected one of: qdi, wchb, bundled)")
    })?;

    let seed = match value.get("seed") {
        Some(v) => non_negative_integer(v, "seed")?,
        None => 1,
    };

    let timing_fac = match value.get("timing_fac") {
        Some(v) => {
            let n = v.as_num().ok_or("field 'timing_fac' must be a number")?;
            if !(0.0..=1.0).contains(&n) {
                return Err("field 'timing_fac' must be within 0.0 ..= 1.0".into());
            }
            n
        }
        None => 0.0,
    };

    let channel_width = match value.get("channel_width") {
        Some(v) => {
            let n = non_negative_integer(v, "channel_width")?;
            if n == 0 {
                return Err("field 'channel_width' must be positive".into());
            }
            if n > MAX_CHANNEL_WIDTH as u64 {
                return Err(format!(
                    "field 'channel_width' must be at most {MAX_CHANNEL_WIDTH}"
                ));
            }
            #[allow(clippy::cast_possible_truncation)]
            Some(n as usize)
        }
        None => None,
    };

    Ok(CompileRequest {
        source,
        style,
        seed,
        timing_fac,
        channel_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_minimal_and_full_envelopes() {
        let req =
            parse_compile(r#"{"kind":"compile","source":"pipeline t {}","style":"qdi"}"#).unwrap();
        assert_eq!(req.style, Style::Qdi);
        assert_eq!(req.seed, 1);
        assert_eq!(req.timing_fac, 0.0);
        assert_eq!(req.channel_width, None);

        let req = parse_compile(
            r#"{"kind":"compile","source":"x","style":"bundled",
               "seed":7,"timing_fac":0.5,"channel_width":16}"#,
        )
        .unwrap();
        assert_eq!(req.style, Style::Bundled);
        assert_eq!(req.seed, 7);
        assert_eq!(req.timing_fac, 0.5);
        assert_eq!(req.channel_width, Some(16));
    }

    #[test]
    fn rejects_structurally_with_named_reasons() {
        for (body, needle) in [
            ("not json", "not valid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"source":"x","style":"qdi"}"#, "'kind' is required"),
            (
                r#"{"kind":"decompile","source":"x","style":"qdi"}"#,
                "unknown kind 'decompile'",
            ),
            (
                r#"{"kind":"compile","style":"qdi"}"#,
                "'source' is required",
            ),
            (
                r#"{"kind":"compile","source":"x","style":"sync"}"#,
                "unknown style 'sync'",
            ),
            (
                r#"{"kind":"compile","source":"x","style":"qdi","sede":3}"#,
                "unknown field 'sede'",
            ),
            (
                r#"{"kind":"compile","source":"x","style":"qdi","seed":-1}"#,
                "'seed' must be a non-negative integer",
            ),
            (
                r#"{"kind":"compile","source":"x","style":"qdi","seed":1.5}"#,
                "'seed' must be a non-negative integer",
            ),
            (
                r#"{"kind":"compile","source":"x","style":"qdi","timing_fac":2.0}"#,
                "'timing_fac' must be within",
            ),
            (
                r#"{"kind":"compile","source":"x","style":"qdi","channel_width":0}"#,
                "'channel_width' must be positive",
            ),
            (
                r#"{"kind":"compile","source":"x","style":"qdi","channel_width":97}"#,
                "'channel_width' must be at most 96",
            ),
        ] {
            let err = parse_compile(body).unwrap_err();
            assert!(
                err.contains(needle),
                "body {body:?}: error {err:?} should mention {needle:?}"
            );
        }
    }
}
