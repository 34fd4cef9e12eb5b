//! Structured tracing and metrics for the simulator stack.
//!
//! The execution layers (`isp-exec`'s engine, `isp-sim`'s launch pipeline)
//! report what they are doing to a [`Probe`] sink: host-side wall-clock
//! **spans** (compile, plan, decode, trace-record, launch), **instant**
//! events (cache hits/misses, replay deopts), **counters** and
//! **histograms**, and per-launch simulated-time [`SimTimeline`]s
//! reconstructed from the scheduler's dispatch model (one lane per SM, one
//! slice per block, keyed by region class).
//!
//! Instrumentation must cost nothing when nobody is listening: the golden
//! instruction counts and perfbench's host times are taken with the probe
//! disabled. Two mechanisms guarantee that:
//!
//! - [`ProbeHandle`] caches the sink's `enabled()` answer at construction,
//!   so every hot-path check is a plain bool field read — no virtual call,
//!   no atomic;
//! - the per-SM timeline is *derived after the fact* from the scheduler's
//!   dispatch decisions rather than sampled during execution, so the
//!   per-block simulation loop carries no timestamps at all.
//!
//! [`RecordingProbe`] is the in-memory sink behind the `timeline` binary:
//! it buffers everything and exports a Chrome trace-event document (loadable
//! in Perfetto / `chrome://tracing`, see [`chrome`]) plus a stable-ordered
//! metrics summary (see [`metrics`]).

pub mod chrome;
pub mod metrics;
pub mod timeline;

pub use chrome::{chrome_trace_groups, TraceGroup};
pub use metrics::{Histogram, Metrics, MetricsRegistry, HISTOGRAM_GAMMA, SNAPSHOT_QUANTILES};
pub use timeline::{BlockSlice, DeoptInstant, SimTimeline};

use isp_json::Json;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Category tag for a host-side event (becomes the Chrome trace `cat`
/// field). Static so hot call sites never format strings.
pub type Category = &'static str;

/// A sink for execution events. All methods default to no-ops so a sink
/// only overrides what it cares about; [`NoProbe`] overrides nothing.
///
/// Span timing protocol: call [`Probe::begin`] before the work (it returns
/// `None` when disabled, making the span free) and hand the returned
/// `Instant` back to [`Probe::end_span`] after. [`ProbeHandle::span`] wraps
/// that pairing so call sites stay one-liners.
pub trait Probe: Send + Sync {
    /// Whether this sink wants events at all. Consulted once per
    /// [`ProbeHandle`] construction, then cached.
    fn enabled(&self) -> bool {
        false
    }

    /// Start a wall-clock span. `None` means "don't bother timing".
    fn begin(&self) -> Option<Instant> {
        None
    }

    /// Finish a wall-clock span started by [`Probe::begin`].
    fn end_span(&self, _name: &str, _cat: Category, _detail: Option<String>, _started: Instant) {}

    /// A point-in-time event (cache hit, deopt, ...).
    fn instant(&self, _name: &str, _cat: Category, _detail: Option<String>) {}

    /// Add `n` to the counter `key`.
    fn count(&self, _key: &str, _n: u64) {}

    /// Record one observation of `value` into the histogram `key`.
    fn observe(&self, _key: &str, _value: f64) {}

    /// Set the gauge `key` to its latest value.
    fn gauge(&self, _key: &str, _value: f64) {}

    /// A finished launch's simulated-time timeline.
    fn timeline(&self, _timeline: SimTimeline) {}
}

/// The default sink: reports itself disabled and drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// A cheap, cloneable handle to a [`Probe`] that the execution layers embed.
///
/// The `enabled` flag is captured from the sink when the handle is built, so
/// `is_enabled()` — the only thing hot paths ever ask — is a field read that
/// the optimiser can hoist and branch-predict. All event methods check it
/// first and forward to the sink only when it is set.
#[derive(Clone)]
pub struct ProbeHandle {
    inner: Arc<dyn Probe>,
    enabled: bool,
}

impl ProbeHandle {
    /// Wrap a sink, caching its `enabled()` answer.
    pub fn new(probe: Arc<dyn Probe>) -> Self {
        let enabled = probe.enabled();
        ProbeHandle {
            inner: probe,
            enabled,
        }
    }

    /// The disabled handle (a [`NoProbe`]).
    pub fn none() -> Self {
        ProbeHandle {
            inner: Arc::new(NoProbe),
            enabled: false,
        }
    }

    /// Whether events will be recorded. A plain field read.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing a span; `None` when disabled.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            self.inner.begin()
        } else {
            None
        }
    }

    /// Finish a span started by [`ProbeHandle::begin`]. `detail` is only
    /// evaluated when the span was actually started, so call sites may
    /// format freely inside the closure.
    #[inline]
    pub fn span(
        &self,
        name: &str,
        cat: Category,
        started: Option<Instant>,
        detail: impl FnOnce() -> Option<String>,
    ) {
        if let Some(started) = started {
            self.inner.end_span(name, cat, detail(), started);
        }
    }

    /// Record an instant event (no-op when disabled).
    #[inline]
    pub fn instant(&self, name: &str, cat: Category, detail: Option<String>) {
        if self.enabled {
            self.inner.instant(name, cat, detail);
        }
    }

    /// Add `n` to a counter (no-op when disabled).
    #[inline]
    pub fn count(&self, key: &str, n: u64) {
        if self.enabled {
            self.inner.count(key, n);
        }
    }

    /// Record a histogram observation (no-op when disabled).
    #[inline]
    pub fn observe(&self, key: &str, value: f64) {
        if self.enabled {
            self.inner.observe(key, value);
        }
    }

    /// Set a gauge to its latest value (no-op when disabled).
    #[inline]
    pub fn gauge(&self, key: &str, value: f64) {
        if self.enabled {
            self.inner.gauge(key, value);
        }
    }

    /// Deliver a launch timeline (no-op when disabled).
    #[inline]
    pub fn timeline(&self, timeline: SimTimeline) {
        if self.enabled {
            self.inner.timeline(timeline);
        }
    }
}

impl Default for ProbeHandle {
    fn default() -> Self {
        ProbeHandle::none()
    }
}

impl fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeHandle")
            .field("enabled", &self.enabled)
            .finish()
    }
}

/// How a recorded host-side event occupies time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEventKind {
    /// A duration span (`ph: "B"`/`"E"` pair in the Chrome trace).
    Span,
    /// A point event (`ph: "i"`).
    Instant,
}

/// One host-side event captured by [`RecordingProbe`]. Timestamps are
/// microseconds since the probe's construction, per OS thread (`tid` is a
/// small dense id interned from the recording thread's `ThreadId`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostEvent {
    /// Span or instant.
    pub kind: HostEventKind,
    /// Event name (Chrome trace slice title).
    pub name: String,
    /// Category tag.
    pub cat: Category,
    /// Free-form detail rendered into the trace `args`.
    pub detail: Option<String>,
    /// Dense per-probe thread id of the recording thread.
    pub tid: u32,
    /// Start microseconds since the probe epoch.
    pub start_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
}

#[derive(Default)]
struct Recorded {
    host: Vec<HostEvent>,
    timelines: Vec<SimTimeline>,
    metrics: Metrics,
    threads: HashMap<ThreadId, u32>,
}

impl Recorded {
    fn tid(&mut self) -> u32 {
        let next = self.threads.len() as u32;
        *self
            .threads
            .entry(std::thread::current().id())
            .or_insert(next)
    }
}

/// An in-memory [`Probe`] that records everything it is sent and exports it
/// as a Chrome trace-event document plus a metrics summary.
///
/// Spans additionally feed `span_us.<name>` histograms and
/// `span.<name>.count` counters, and each delivered timeline is folded into
/// `sim.*` counters (blocks by outcome, deopts by reason) — so the metrics
/// registry aggregates across every launch of a session without the
/// simulator doing any bookkeeping of its own.
pub struct RecordingProbe {
    epoch: Instant,
    state: Mutex<Recorded>,
}

impl RecordingProbe {
    /// A fresh, empty recording sink. Its epoch (host timestamp zero) is
    /// the moment of construction.
    pub fn new() -> Self {
        RecordingProbe {
            epoch: Instant::now(),
            state: Mutex::new(Recorded::default()),
        }
    }

    /// Convenience: a new sink plus a [`ProbeHandle`] wired to it.
    pub fn new_handle() -> (Arc<RecordingProbe>, ProbeHandle) {
        let probe = Arc::new(RecordingProbe::new());
        let handle = ProbeHandle::new(Arc::clone(&probe) as Arc<dyn Probe>);
        (probe, handle)
    }

    fn micros_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Every host-side event recorded so far.
    pub fn host_events(&self) -> Vec<HostEvent> {
        self.state.lock().unwrap().host.clone()
    }

    /// Every launch timeline recorded so far, in delivery order.
    pub fn timelines(&self) -> Vec<SimTimeline> {
        self.state.lock().unwrap().timelines.clone()
    }

    /// A snapshot of the aggregated metrics registry.
    pub fn metrics(&self) -> Metrics {
        self.state.lock().unwrap().metrics.clone()
    }

    /// Render everything recorded so far as a Chrome trace-event document.
    /// `class_name` maps a block-class id to the slice title used for the
    /// simulated-time lanes (for ISP kernels: the region name, which is what
    /// Perfetto colors slices by).
    pub fn chrome_trace(&self, class_name: &dyn Fn(u32) -> String) -> Json {
        let state = self.state.lock().unwrap();
        chrome::chrome_trace(&state.host, &state.timelines, class_name)
    }

    /// Render the metrics registry as JSON (keys in stable sorted order).
    pub fn metrics_json(&self) -> Json {
        self.state.lock().unwrap().metrics.to_json()
    }

    /// Snapshot everything recorded so far as one named group of a
    /// multi-probe export (see [`chrome_trace_groups`]). Host timestamps
    /// stay relative to this probe's own epoch.
    pub fn trace_group(&self, name: impl Into<String>) -> TraceGroup {
        let state = self.state.lock().unwrap();
        TraceGroup {
            name: name.into(),
            host: state.host.clone(),
            timelines: state.timelines.clone(),
        }
    }
}

impl Default for RecordingProbe {
    fn default() -> Self {
        RecordingProbe::new()
    }
}

impl Probe for RecordingProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn begin(&self) -> Option<Instant> {
        Some(Instant::now())
    }

    fn end_span(&self, name: &str, cat: Category, detail: Option<String>, started: Instant) {
        let start_us = self.micros_since_epoch(started);
        let end_us = self.micros_since_epoch(Instant::now());
        let dur_us = end_us.saturating_sub(start_us);
        let mut state = self.state.lock().unwrap();
        let tid = state.tid();
        state.host.push(HostEvent {
            kind: HostEventKind::Span,
            name: name.to_string(),
            cat,
            detail,
            tid,
            start_us,
            dur_us,
        });
        state
            .metrics
            .observe(&format!("span_us.{name}"), dur_us as f64);
        state.metrics.count(&format!("span.{name}.count"), 1);
    }

    fn instant(&self, name: &str, cat: Category, detail: Option<String>) {
        let ts = self.micros_since_epoch(Instant::now());
        let mut state = self.state.lock().unwrap();
        let tid = state.tid();
        state.host.push(HostEvent {
            kind: HostEventKind::Instant,
            name: name.to_string(),
            cat,
            detail,
            tid,
            start_us: ts,
            dur_us: 0,
        });
    }

    fn count(&self, key: &str, n: u64) {
        self.state.lock().unwrap().metrics.count(key, n);
    }

    fn observe(&self, key: &str, value: f64) {
        self.state.lock().unwrap().metrics.observe(key, value);
    }

    fn gauge(&self, key: &str, value: f64) {
        self.state.lock().unwrap().metrics.set_gauge(key, value);
    }

    fn timeline(&self, timeline: SimTimeline) {
        let mut state = self.state.lock().unwrap();
        state.metrics.count("sim.launches", 1);
        state
            .metrics
            .observe("sim.launch_cycles", timeline.cycles as f64);
        for s in &timeline.slices {
            state.metrics.count(&format!("sim.blocks.{}", s.outcome), 1);
            state
                .metrics
                .observe("sim.block_cycles", (s.end - s.start) as f64);
        }
        for d in &timeline.deopts {
            state.metrics.count(&format!("sim.deopt.{}", d.reason), 1);
        }
        state.timelines.push(timeline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_reports_disabled_and_skips_spans() {
        let h = ProbeHandle::none();
        assert!(!h.is_enabled());
        assert!(h.begin().is_none());
        // The detail closure must never run when the span was not started.
        h.span("x", "test", None, || {
            panic!("detail evaluated while disabled")
        });
        h.count("k", 1);
        h.observe("k", 1.0);
    }

    #[test]
    fn recording_probe_captures_spans_and_metrics() {
        let (rec, h) = RecordingProbe::new_handle();
        assert!(h.is_enabled());
        let t0 = h.begin();
        assert!(t0.is_some());
        h.span("compile", "engine", t0, || Some("gaussian".to_string()));
        h.instant("kernel-cache-miss", "engine", None);
        h.count("engine.kernel_misses", 1);
        h.count("engine.kernel_misses", 2);

        let events = rec.host_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, HostEventKind::Span);
        assert_eq!(events[0].name, "compile");
        assert_eq!(events[0].detail.as_deref(), Some("gaussian"));
        assert_eq!(events[1].kind, HostEventKind::Instant);

        let m = rec.metrics();
        assert_eq!(m.counter("engine.kernel_misses"), 3);
        assert_eq!(m.counter("span.compile.count"), 1);
    }

    #[test]
    fn timeline_delivery_feeds_aggregate_counters() {
        let (rec, h) = RecordingProbe::new_handle();
        h.timeline(SimTimeline {
            name: "k".to_string(),
            num_sms: 2,
            launch_overhead: 10,
            cycles: 110,
            slices: vec![
                BlockSlice {
                    sm: 0,
                    start: 0,
                    end: 100,
                    class: 4,
                    block: (0, 0),
                    outcome: "recorded",
                },
                BlockSlice {
                    sm: 1,
                    start: 0,
                    end: 60,
                    class: 4,
                    block: (1, 0),
                    outcome: "deopted",
                },
            ],
            deopts: vec![DeoptInstant {
                sm: 1,
                at: 60,
                class: 4,
                reason: "branch",
            }],
        });
        let m = rec.metrics();
        assert_eq!(m.counter("sim.launches"), 1);
        assert_eq!(m.counter("sim.blocks.recorded"), 1);
        assert_eq!(m.counter("sim.blocks.deopted"), 1);
        assert_eq!(m.counter("sim.deopt.branch"), 1);
        assert_eq!(rec.timelines().len(), 1);
    }
}
