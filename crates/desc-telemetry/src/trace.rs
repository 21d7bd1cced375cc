//! Structured event tracing: fixed-capacity per-thread ring buffers of
//! wall-clock spans, merged and time-sorted at drain.
//!
//! A [`span`] is cheap to open (one enabled check; an `Instant::now`
//! only when telemetry is on) and records itself when the guard drops.
//! Each thread appends into its own ring buffer — no cross-thread
//! contention on the hot path — and [`drain_spans`] merges every
//! thread's buffer into one time-ordered list.
//!
//! # Timeline model
//!
//! Every span carries enough identity to be placed on an execution
//! timeline (and exported as a Chrome trace, see [`crate::chrome`]):
//!
//! * a **monotonic process timebase** — `start_us` is microseconds
//!   since the process's trace epoch (first telemetry use), taken from
//!   one shared `Instant`, so spans from different threads are
//!   directly comparable;
//! * a **worker identity** — a small stable ordinal per recording
//!   thread ([`current_worker`]), with a human-readable name (the OS
//!   thread name when set, e.g. `desc-exec-0`) in [`worker_names`];
//! * a **context label** — the process-wide scope set by
//!   [`set_context`] (the experiment name during a `repro` run), so a
//!   `cell` or `partition` span recorded on a pool worker still says
//!   which figure it belonged to.
//!
//! # Overflow is visible
//!
//! When a ring overflows, the oldest span is dropped and the
//! process-wide [`spans_dropped`] count incremented; run reports
//! surface that count in `meta.spans_dropped`, so a truncated timeline
//! is visible in the artifact rather than silent. The per-thread
//! capacity defaults to [`DEFAULT_RING_CAPACITY`] and can be raised
//! with the `DESC_TRACE_RING` environment variable (read once, at the
//! first recorded span).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity. Sweeps record one span per cell
/// plus one per bank partition and executor region, so this covers the
/// quick scale comfortably; full-scale `repro all` timelines may need
/// `DESC_TRACE_RING` raised (overflow shows up in `spans_dropped`).
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// Parses a `DESC_TRACE_RING`-style override: a positive integer wins,
/// anything else falls back to [`DEFAULT_RING_CAPACITY`].
#[must_use]
pub fn ring_capacity_from(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_RING_CAPACITY)
}

/// The per-thread ring capacity in effect (env read once).
fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| ring_capacity_from(std::env::var("DESC_TRACE_RING").ok().as_deref()))
}

static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Spans dropped to ring overflow since process start. Reported as
/// `meta.spans_dropped` in `desc-run-report/v2` so truncated timelines
/// are visible; raise `DESC_TRACE_RING` to avoid drops.
#[must_use]
pub fn spans_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// One completed span: a named, labelled interval of wall-clock time
/// attributed to the worker thread that recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Static category, e.g. `"experiment"`, `"cell"`, `"partition"`,
    /// or `"region"`.
    pub name: &'static str,
    /// Instance label, e.g. an experiment name, a `scheme/app` cell
    /// label, or a bank partition index.
    pub label: String,
    /// Process-wide context active when the span was opened (the
    /// experiment name during a `repro` run); empty when none was set.
    pub ctx: String,
    /// Stable ordinal of the recording thread (see [`worker_names`]);
    /// the Chrome-trace lane this span lands in.
    pub worker: u32,
    /// Microseconds since the process's trace epoch (first telemetry
    /// use) at which the span started.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
}

#[derive(Debug, Default)]
struct Ring {
    spans: VecDeque<Span>,
}

impl Ring {
    fn push(&mut self, span: Span) {
        if self.spans.len() == ring_capacity() {
            self.spans.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        self.spans.push_back(span);
    }
}

/// Per-thread registration: the ring plus the thread's stable worker
/// ordinal and name, registered globally on first span.
struct Registered {
    rings: Vec<Arc<Mutex<Ring>>>,
    names: Vec<String>,
}

fn registered() -> &'static Mutex<Registered> {
    static REG: OnceLock<Mutex<Registered>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registered { rings: Vec::new(), names: Vec::new() }))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed on the monotonic process timebase (the same
/// epoch every span's `start_us` is measured from).
#[must_use]
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

thread_local! {
    static THREAD_RING: (u32, Arc<Mutex<Ring>>) = {
        let ring = Arc::new(Mutex::new(Ring::default()));
        let mut reg = registered().lock().expect("span ring list poisoned");
        let worker = reg.rings.len() as u32;
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{worker}"), str::to_owned);
        reg.rings.push(Arc::clone(&ring));
        reg.names.push(name);
        (worker, ring)
    };
}

/// The calling thread's stable worker ordinal, registering the thread
/// on first use. Ordinals index into [`worker_names`] and are the
/// `tid` lanes of the Chrome trace export.
#[must_use]
pub fn current_worker() -> u32 {
    THREAD_RING.with(|(worker, _)| *worker)
}

/// Names of every registered worker thread, indexed by worker ordinal.
/// A thread registers (with its OS thread name, or `thread-<ordinal>`
/// when unnamed) the first time it records a span or calls
/// [`current_worker`].
#[must_use]
pub fn worker_names() -> Vec<String> {
    registered().lock().expect("span ring list poisoned").names.clone()
}

fn context_cell() -> &'static Mutex<Arc<str>> {
    static CTX: OnceLock<Mutex<Arc<str>>> = OnceLock::new();
    CTX.get_or_init(|| Mutex::new(Arc::from("")))
}

/// Sets the process-wide span context (e.g. the experiment currently
/// running). Every span opened afterwards — on any thread — records
/// this label in its `ctx` field until the context changes, which is
/// what attributes pool-worker spans to the sweep that submitted them.
/// Experiments run serially, so a single process-wide label suffices.
pub fn set_context(label: &str) {
    *context_cell().lock().expect("span context poisoned") = Arc::from(label);
}

/// The current process-wide span context (empty when unset).
#[must_use]
pub fn context() -> Arc<str> {
    Arc::clone(&context_cell().lock().expect("span context poisoned"))
}

/// Opens a span; it records itself into the current thread's ring
/// buffer when the returned guard drops. Inert (no clock read, no
/// allocation retained) when telemetry is disabled.
#[must_use]
pub fn span(name: &'static str, label: impl Into<String>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { inner: None };
    }
    // Touch the epoch before `start` so start_us can never underflow.
    let _ = epoch();
    SpanGuard { inner: Some((name, label.into(), context(), Instant::now())) }
}

/// RAII guard returned by [`span`]; measures until dropped.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(&'static str, String, Arc<str>, Instant)>,
}

impl SpanGuard {
    /// True when this guard is actually recording (telemetry was
    /// enabled at open time).
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, label, ctx, start)) = self.inner.take() {
            THREAD_RING.with(|(worker, ring)| {
                let span = Span {
                    name,
                    label,
                    ctx: ctx.as_ref().to_owned(),
                    worker: *worker,
                    start_us: start.duration_since(epoch()).as_micros() as u64,
                    duration_us: start.elapsed().as_micros() as u64,
                };
                ring.lock().expect("thread span ring poisoned").push(span);
            });
        }
    }
}

/// Drains every thread's ring buffer into one list sorted by start
/// time (ties broken by name, label, then worker, so ordering is
/// stable).
#[must_use]
pub fn drain_spans() -> Vec<Span> {
    let mut all = Vec::new();
    for ring in registered().lock().expect("span ring list poisoned").rings.iter() {
        let mut ring = ring.lock().expect("span ring poisoned");
        all.extend(ring.spans.drain(..));
    }
    all.sort_by(|a, b| {
        a.start_us
            .cmp(&b.start_us)
            .then_with(|| a.name.cmp(b.name))
            .then_with(|| a.label.cmp(&b.label))
            .then_with(|| a.worker.cmp(&b.worker))
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_drain() {
        crate::set_enabled(true);
        set_context("test-ctx");
        {
            let _outer = span("test", "outer");
            let _inner = span("test", "inner");
        }
        set_context("");
        let spans = drain_spans();
        crate::set_enabled(false);
        let mine: Vec<&Span> = spans.iter().filter(|s| s.name == "test").collect();
        let labels: Vec<&str> = mine.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"outer") && labels.contains(&"inner"));
        // Both recorded on this thread, with the context at open time.
        let me = current_worker();
        assert!(mine.iter().all(|s| s.worker == me && s.ctx == "test-ctx"));
        assert!((me as usize) < worker_names().len());
        // Drained: a second drain returns nothing for this name.
        assert!(drain_spans().iter().all(|s| s.name != "test"));
    }

    #[test]
    fn disabled_spans_are_inert() {
        crate::set_enabled(false);
        let g = span("test-disabled", "x");
        assert!(!g.is_recording());
        drop(g);
        assert!(drain_spans().iter().all(|s| s.name != "test-disabled"));
    }

    #[test]
    fn ring_capacity_override_parses() {
        assert_eq!(ring_capacity_from(None), DEFAULT_RING_CAPACITY);
        assert_eq!(ring_capacity_from(Some("nope")), DEFAULT_RING_CAPACITY);
        assert_eq!(ring_capacity_from(Some("0")), DEFAULT_RING_CAPACITY);
        assert_eq!(ring_capacity_from(Some("  512 ")), 512);
    }
}
