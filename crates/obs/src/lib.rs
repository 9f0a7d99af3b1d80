//! Observability for Tioga-2: spans, counters, latency histograms, and
//! perf-artifact exporters.
//!
//! Tioga-2's core claim is *interactive* performance of the demand-driven
//! memoizing dataflow engine (paper §2); this crate is how the workspace
//! measures it.  The design splits into:
//!
//! * [`Recorder`] — the dyn-safe instrumentation trait threaded through
//!   the engine, session, renderer, and viewer as `Arc<dyn Recorder>`.
//! * [`NoopRecorder`] — the default.  Every method is an empty body and
//!   [`Recorder::is_enabled`] returns `false`, so instrumented hot paths
//!   skip timestamping and string formatting entirely; the residual cost
//!   is one virtual call per site (budget: <2% wall time, enforced by
//!   the `obs_overhead` bench in `tioga2-bench`).
//! * [`InMemoryRecorder`] — a `parking_lot`-guarded collector holding a
//!   bounded ring-buffer event journal (nested spans + counter marks),
//!   monotonic counters, per-node cache hit/miss tallies, and
//!   log₂-bucketed latency histograms with p50/p95/p99 readouts.
//! * [`export`] — three artifact formats: Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`), a plaintext summary
//!   table, and Prometheus-style text exposition.
//!
//! Instrumented code records a span like so:
//!
//! ```
//! use tioga2_obs::{InMemoryRecorder, Recorder};
//! use std::sync::Arc;
//!
//! let rec: Arc<dyn Recorder> = Arc::new(InMemoryRecorder::new());
//! let span = rec.span_begin("fire:Restrict", "node 3");
//! // ... do the work ...
//! rec.span_end(span, &[("rows_in", 100), ("rows_out", 42)]);
//! rec.add("engine.box_evals", 1);
//! assert!(rec.summary_table().unwrap().contains("engine.box_evals"));
//! ```

pub mod export;
pub mod fleet;
pub mod hist;
pub mod journal;
pub mod manifest;
pub mod memory;
pub mod slow;
pub mod tree;

pub use fleet::FleetRecorder;
pub use hist::Histogram;
pub use journal::{
    CanvasView, EventLog, MagnifierView, SessionEvent, SessionSnapshot, TravelView, ViewState,
};
pub use manifest::{DirLock, FleetManifest};
pub use memory::{CompletedSpan, Event, InMemoryRecorder};
pub use slow::{SlowEntry, SlowLog};
pub use tree::{CacheStatus, DemandTrace, OpNode};

use std::sync::Arc;

/// Opaque handle returned by [`Recorder::span_begin`].  `SpanId(0)` is
/// the noop/invalid id; real recorders start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// The instrumentation sink.  Implementations must be cheap when
/// disabled: callers guard any formatting work behind [`is_enabled`],
/// but the methods themselves are also expected to early-out.
///
/// [`is_enabled`]: Recorder::is_enabled
pub trait Recorder: Send + Sync {
    /// Whether this recorder actually stores anything.  Hot paths use
    /// this to skip building `detail` strings and field slices.
    fn is_enabled(&self) -> bool;

    /// Open a nested span.  `detail` is free-form context (node name,
    /// canvas name, …) carried into the trace.
    fn span_begin(&self, name: &str, detail: &str) -> SpanId;

    /// Close a span.  The recorder stamps the duration, appends the
    /// `fields` (e.g. `rows_in`/`rows_out`) to the journal entry, and
    /// feeds the duration into the histogram keyed by the span name.
    fn span_end(&self, id: SpanId, fields: &[(&'static str, i64)]);

    /// Bump a monotonic counter and journal a counter mark.
    fn add(&self, counter: &str, delta: u64);

    /// Feed a latency histogram directly (for durations measured
    /// outside a span).
    fn observe_ns(&self, name: &str, nanos: u64);

    /// Record a memo-cache probe against a per-node tally.
    fn cache_access(&self, node: &str, hit: bool);

    /// Forget everything recorded so far (noop for noop).
    fn reset(&self) {}

    /// Current value of a counter, if this recorder keeps any.
    fn counter(&self, _name: &str) -> Option<u64> {
        None
    }

    /// Every counter as `(name, value)`, sorted by name; empty when the
    /// recorder keeps none.  [`counter`](Recorder::counter) can only
    /// answer point lookups — the `sys.counters` relation needs to
    /// enumerate through `Arc<dyn Recorder>` without downcasting.
    fn counters_snapshot(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Every latency histogram, sorted by name; empty when the recorder
    /// keeps none.  Feeds the `sys.histograms` relation.
    fn histograms_snapshot(&self) -> Vec<(String, Histogram)> {
        Vec::new()
    }

    /// Chrome trace-event JSON of the journal, if this recorder keeps
    /// one.  Exposed on the trait so callers holding `Arc<dyn Recorder>`
    /// (the REPL) can export without downcasting.
    fn chrome_trace_json(&self) -> Option<String> {
        None
    }

    /// Plaintext summary table (counters, cache hit rates, quantiles).
    fn summary_table(&self) -> Option<String> {
        None
    }

    /// Prometheus-style text exposition.
    fn prometheus_text(&self) -> Option<String> {
        None
    }
}

/// The zero-overhead default recorder.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span_begin(&self, _name: &str, _detail: &str) -> SpanId {
        SpanId::NONE
    }

    #[inline(always)]
    fn span_end(&self, _id: SpanId, _fields: &[(&'static str, i64)]) {}

    #[inline(always)]
    fn add(&self, _counter: &str, _delta: u64) {}

    #[inline(always)]
    fn observe_ns(&self, _name: &str, _nanos: u64) {}

    #[inline(always)]
    fn cache_access(&self, _node: &str, _hit: bool) {}
}

/// A shared handle to the default (disabled) recorder.
pub fn noop() -> Arc<dyn Recorder> {
    Arc::new(NoopRecorder)
}

/// A static borrow of the disabled recorder — for call sites that take
/// `&dyn Recorder` and must not allocate.
pub fn noop_ref() -> &'static dyn Recorder {
    static NOOP: NoopRecorder = NoopRecorder;
    &NOOP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let rec = noop();
        assert!(!rec.is_enabled());
        let id = rec.span_begin("x", "y");
        assert!(id.is_none());
        rec.span_end(id, &[("f", 1)]);
        rec.add("c", 5);
        rec.observe_ns("h", 10);
        rec.cache_access("n", true);
        assert!(rec.counter("c").is_none());
        assert!(rec.counters_snapshot().is_empty());
        assert!(rec.histograms_snapshot().is_empty());
        assert!(rec.chrome_trace_json().is_none());
        assert!(rec.summary_table().is_none());
        assert!(rec.prometheus_text().is_none());
    }
}
