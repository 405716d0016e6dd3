//! The per-layer ledger: turns the spans and counters the traced run
//! recorded into per-operation self times and work counts.
//!
//! Every operation is one span whose name starts with `op.` (for
//! example `op.compile` or `op.hit`). Inside it, the benchmark wraps
//! each call into a layer's public function in a span named after the
//! layer, and records the layer's work as counter samples. A span's
//! self time is its duration minus the time its child spans cover; the
//! operation span's own self time is the part no layer span covers.

use crate::stats::median;
use msaf_trace::{Phase, TraceEvent, Value};
use std::collections::BTreeMap;

/// Span-name prefix that marks an operation.
pub const OP_PREFIX: &str = "op.";

/// One operation's ledger.
#[derive(Debug, Clone, Default)]
pub struct OpLedger {
    /// The operation span's name (`op.compile`, `op.hit`, ...).
    pub kind: &'static str,
    /// Wall time of the whole operation, µs.
    pub total_us: f64,
    /// Self time per span name, µs.
    pub self_us: BTreeMap<&'static str, f64>,
    /// Sum of counter samples per counter name.
    pub counts: BTreeMap<&'static str, u64>,
}

struct Open {
    name: &'static str,
    start: u64,
    child_us: u64,
}

/// Splits recorded events into per-operation ledgers, in the order the
/// operations ended. Spans outside any operation (set-up) are ignored.
#[must_use]
pub fn operations(events: &[TraceEvent]) -> Vec<OpLedger> {
    let mut by_tid: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events {
        by_tid.entry(ev.tid).or_default().push(ev);
    }
    let mut done: Vec<(u64, OpLedger)> = Vec::new();
    for lane in by_tid.values() {
        let mut stack: Vec<Open> = Vec::new();
        let mut current: Option<OpLedger> = None;
        for ev in lane {
            match ev.phase {
                Phase::Begin => {
                    if ev.name.starts_with(OP_PREFIX) {
                        current = Some(OpLedger {
                            kind: ev.name,
                            ..OpLedger::default()
                        });
                    }
                    stack.push(Open {
                        name: ev.name,
                        start: ev.ts_us,
                        child_us: 0,
                    });
                }
                Phase::End => {
                    let Some(open) = stack.pop() else { continue };
                    let dur = ev.ts_us.saturating_sub(open.start);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_us += dur;
                    }
                    if let Some(op) = current.as_mut() {
                        *op.self_us.entry(open.name).or_default() +=
                            dur.saturating_sub(open.child_us) as f64;
                    }
                    if open.name.starts_with(OP_PREFIX) {
                        if let Some(mut op) = current.take() {
                            op.total_us = dur as f64;
                            done.push((ev.ts_us, op));
                        }
                    }
                }
                Phase::Counter => {
                    if let (Some(op), Some((_, Value::U64(v)))) =
                        (current.as_mut(), ev.args.first())
                    {
                        *op.counts.entry(ev.name).or_default() += v;
                    }
                }
                Phase::Instant => {}
            }
        }
    }
    done.sort_by_key(|(end, _)| *end);
    done.into_iter().map(|(_, op)| op).collect()
}

/// Median over `ops` of one layer's self time per operation, ms.
#[must_use]
pub fn self_ms(ops: &[&OpLedger], span: &str) -> f64 {
    let v: Vec<f64> = ops
        .iter()
        .map(|op| op.self_us.get(span).copied().unwrap_or(0.0) / 1e3)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Median over `ops` of one counter's per-operation sum.
#[must_use]
pub fn count(ops: &[&OpLedger], counter: &str) -> f64 {
    let v: Vec<f64> = ops
        .iter()
        .map(|op| op.counts.get(counter).copied().unwrap_or(0) as f64)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Renders the ledger of one operation kind: layer, median self ms,
/// share of the median operation, and the layer's work counts.
#[must_use]
pub fn table(ops: &[&OpLedger], title: &str, layers: &[(&'static str, &[&'static str])]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total = median(&ops.iter().map(|op| op.total_us / 1e3).collect::<Vec<_>>());
    let _ = writeln!(
        out,
        "ledger {title}: {} ops, median {total:.1} ms per op",
        ops.len()
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>11} {:>7}  work",
        "layer", "self ms", "share"
    );
    let mut spans: Vec<&'static str> = ops
        .iter()
        .flat_map(|op| op.self_us.keys().copied())
        .collect();
    spans.sort_unstable();
    spans.dedup();
    let mut rows: Vec<(f64, String)> = spans
        .into_iter()
        .map(|span| {
            let ms = self_ms(ops, span);
            let work = layers
                .iter()
                .find(|(s, _)| *s == span)
                .map(|(_, counters)| {
                    counters
                        .iter()
                        .map(|c| format!("{c}={}", count(ops, c)))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .unwrap_or_default();
            let label = if span.starts_with(OP_PREFIX) {
                "(benchmark, unattributed)"
            } else {
                span
            };
            (
                ms,
                format!(
                    "  {label:<24} {ms:>11.3} {:>6.1}%  {work}",
                    100.0 * ms / total
                ),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, row) in rows {
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaf_trace::Tracer;

    #[test]
    fn self_time_excludes_children_and_counters_sum_per_op() {
        let (tracer, rec) = Tracer::recorder();
        for _ in 0..2 {
            let _op = tracer.span("op.test");
            {
                let _outer = tracer.span("outer");
                let _inner = tracer.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            tracer.counter("work", 3);
            tracer.counter("work", 4);
        }
        let ops = operations(&rec.events());
        assert_eq!(ops.len(), 2);
        for op in &ops {
            assert_eq!(op.kind, "op.test");
            assert_eq!(op.counts["work"], 7);
            assert!(op.self_us["inner"] >= 2000.0);
            assert!(op.self_us["outer"] < op.self_us["inner"]);
            let sum: f64 = op.self_us.values().sum();
            assert!(
                (sum - op.total_us).abs() < 1e-9,
                "self times partition the op"
            );
        }
    }
}
