//! # msaf-trace
//!
//! A flight recorder for the CAD flow and the simulator: span
//! enter/exit with monotonic timestamps, named `u64` counters and
//! structured key=value events, fanned out to a pluggable [`TraceSink`].
//!
//! The design constraint is the workspace's determinism contract:
//! **instrumentation must never feed back into results**. A [`Tracer`]
//! is therefore write-only from the instrumented code's point of view —
//! timestamps flow *out* to a sink, never back into any decision — and
//! the default tracer is a true no-op: [`Tracer::default`] holds no
//! sink, reads no clock, allocates nothing, so every `trace` call in a
//! hot path costs one branch on an `Option`. Goldens, `BENCH_*.json`
//! snapshots and thread-count invariance are untouched whether a sink
//! is installed or not; the only thing a sink can change is what gets
//! written *about* the run.
//!
//! Two sinks ship with the crate:
//!
//! * the no-op default (no sink at all);
//! * [`Recorder`] — an in-memory buffer, the substrate for the
//!   Chrome-trace export and for tests that assert over emitted events.
//!
//! [`chrome::render`] turns a recorded buffer into Chrome trace-event
//! JSON that Perfetto (<https://ui.perfetto.dev>) loads directly; the
//! `trace_check` binary and [`chrome::validate`] check such a file for
//! well-formedness (balanced B/E pairs, per-thread monotone
//! timestamps).
//!
//! ## Example
//!
//! ```
//! use msaf_trace::Tracer;
//!
//! let (tracer, recorder) = Tracer::recorder();
//! {
//!     let _outer = tracer.span("compile");
//!     tracer.counter("nets", 42);
//!     tracer.event("iteration", || vec![("overuse", 3u64.into())]);
//! }
//! let events = recorder.events();
//! assert_eq!(events.len(), 4); // B, counter, instant, E
//! let json = recorder.to_chrome_json();
//! msaf_trace::chrome::validate(&json).expect("well-formed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One argument value on a trace event. Counters are `u64` by contract;
/// event arguments may carry any of these.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter-style value.
    U64(u64),
    /// Signed value.
    I64(i64),
    /// Floating-point value (temperatures, acceptance rates, costs).
    F64(f64),
    /// Free-form text (reasons, names).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// The Chrome trace-event phase of one [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span enter (`"B"`).
    Begin,
    /// Span exit (`"E"`).
    End,
    /// Instant event (`"i"`).
    Instant,
    /// Counter sample (`"C"`).
    Counter,
}

/// One recorded event. Names and argument keys are `&'static str` by
/// design: every instrumentation site names its events statically, so
/// the disabled path never allocates and the enabled path allocates
/// only for argument *values*.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span name, counter name, ...).
    pub name: &'static str,
    /// Span begin/end, instant, or counter.
    pub phase: Phase,
    /// Microseconds since the owning [`Tracer`]'s epoch (monotonic:
    /// taken from [`Instant`], so per-thread sequences never decrease).
    pub ts_us: u64,
    /// Small dense thread id (assigned per OS thread on first use).
    pub tid: u64,
    /// Key=value arguments; for counters, one `("value", U64)` entry.
    pub args: Vec<(&'static str, Value)>,
}

/// Where recorded events go. Implementations must be thread-safe: the
/// router emits span events from scoped worker threads concurrently
/// with the coordinator.
pub trait TraceSink: Send + Sync {
    /// Records one event. Must not panic: sinks run inside the CAD
    /// flow's hot paths and a telemetry failure must never abort a
    /// compile.
    fn record(&self, ev: TraceEvent);
}

struct Inner {
    epoch: Instant,
    sink: Arc<dyn TraceSink>,
}

/// A cheap, cloneable handle to a sink (or to nothing at all — the
/// default). All instrumentation goes through these methods; when no
/// sink is installed every one of them is a single `Option` test.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Dense thread ids: Chrome traces key lanes by `tid`, and
/// [`std::thread::ThreadId`] has no stable integer form, so each OS
/// thread takes the next counter value on its first trace emission.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    /// A tracer feeding `sink`, with its timestamp epoch set to now.
    #[must_use]
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                sink,
            })),
        }
    }

    /// A tracer backed by a fresh in-memory [`Recorder`], returned
    /// alongside it so the caller can drain events afterwards.
    #[must_use]
    pub fn recorder() -> (Self, Arc<Recorder>) {
        let rec = Arc::new(Recorder::default());
        (Self::with_sink(rec.clone()), rec)
    }

    /// Whether a sink is installed. Instrumentation sites may use this
    /// to skip argument preparation; the emission methods already do.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn emit(inner: &Inner, name: &'static str, phase: Phase, args: Vec<(&'static str, Value)>) {
        inner.sink.record(TraceEvent {
            name,
            phase,
            ts_us: u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
            tid: current_tid(),
            args,
        });
    }

    /// Opens a span: emits `Begin` now and `End` when the guard drops.
    /// Disabled tracers return an inert guard without reading the clock.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_args(name, Vec::new)
    }

    /// Like [`Tracer::span`], with arguments on the `Begin` event. The
    /// closure only runs when a sink is installed, so argument
    /// construction is free on the disabled path.
    pub fn span_args(
        &self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) -> SpanGuard<'_> {
        if let Some(inner) = self.inner.as_deref() {
            Self::emit(inner, name, Phase::Begin, args());
            SpanGuard {
                inner: Some(inner),
                name,
            }
        } else {
            SpanGuard { inner: None, name }
        }
    }

    /// Emits an instant event with lazily-built arguments.
    pub fn event(&self, name: &'static str, args: impl FnOnce() -> Vec<(&'static str, Value)>) {
        if let Some(inner) = self.inner.as_deref() {
            Self::emit(inner, name, Phase::Instant, args());
        }
    }

    /// Emits a counter sample (a named `u64`, one point on a Perfetto
    /// counter track).
    pub fn counter(&self, name: &'static str, value: u64) {
        if let Some(inner) = self.inner.as_deref() {
            Self::emit(
                inner,
                name,
                Phase::Counter,
                vec![("value", Value::U64(value))],
            );
        }
    }
}

/// RAII span: emits the matching `End` event on drop (on whichever
/// thread drops it — spans must begin and end on the same thread, which
/// lexical guards guarantee).
#[must_use = "dropping the guard closes the span"]
pub struct SpanGuard<'a> {
    inner: Option<&'a Inner>,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner {
            Tracer::emit(inner, self.name, Phase::End, Vec::new());
        }
    }
}

/// In-memory sink: an append-only buffer behind a mutex. Worker threads
/// contend only for the push, and only when tracing is on.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    /// A copy of everything recorded so far, in arrival order (threads
    /// interleave by whenever their pushes won the lock; per-thread
    /// subsequences are timestamp-ordered).
    ///
    /// # Panics
    ///
    /// Panics if a previous recording panicked mid-push (poisoned lock).
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("recorder lock").clone()
    }

    /// Number of events recorded so far.
    ///
    /// # Panics
    ///
    /// Panics on a poisoned lock (see [`Recorder::events`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder lock").len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the recorded buffer as Chrome trace-event JSON (see
    /// [`chrome::render`]).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        chrome::render(&self.events())
    }
}

impl TraceSink for Recorder {
    fn record(&self, ev: TraceEvent) {
        if let Ok(mut events) = self.events.lock() {
            events.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_inert() {
        let t = Tracer::default();
        assert!(!t.enabled());
        let mut ran = false;
        t.event("never", || {
            ran = true;
            vec![]
        });
        {
            let _g = t.span("never");
            t.counter("never", 1);
        }
        assert!(!ran, "disabled tracer must not build arguments");
    }

    #[test]
    fn recorder_captures_span_pairs_in_order() {
        let (t, rec) = Tracer::recorder();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span_args("inner", || vec![("k", 7u64.into())]);
            }
            t.counter("c", 3);
        }
        let evs = rec.events();
        let shape: Vec<(&str, Phase)> = evs.iter().map(|e| (e.name, e.phase)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", Phase::Begin),
                ("inner", Phase::Begin),
                ("inner", Phase::End),
                ("c", Phase::Counter),
                ("outer", Phase::End),
            ]
        );
        assert_eq!(evs[1].args, vec![("k", Value::U64(7))]);
        assert_eq!(evs[3].args, vec![("value", Value::U64(3))]);
        // Monotone timestamps on the single emitting thread.
        for w in evs.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }
        // All on one thread here.
        assert!(evs.iter().all(|e| e.tid == evs[0].tid));
    }

    #[test]
    fn worker_threads_get_distinct_tids() {
        let (t, rec) = Tracer::recorder();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let t = t.clone();
                s.spawn(move || {
                    let _g = t.span("worker");
                });
            }
        });
        let tids: std::collections::BTreeSet<u64> = rec.events().iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "two workers, two tids");
        // Per-thread sequences stay monotone.
        let evs = rec.events();
        for &tid in &tids {
            let ts: Vec<u64> = evs
                .iter()
                .filter(|e| e.tid == tid)
                .map(|e| e.ts_us)
                .collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn tracer_debug_shows_enablement() {
        assert_eq!(
            format!("{:?}", Tracer::default()),
            "Tracer { enabled: false }"
        );
    }
}
