//! Request-scoped tracing for the serve path.
//!
//! Every request admitted to the scheduler (and every in-process
//! [`crate::ServeEngine::execute`] / `execute_model` call) can carry a
//! [`TraceHandle`]: a per-request span sink that stages along the serve
//! path append timestamped spans to — admission, queue wait, batch
//! formation, artifact/cache lookup, tape dispatch, epilogue, reply —
//! and the compile path mirrors with inspect / tune / lower /
//! tape-compile spans plus retune-queue wait and hot-swap.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled tracing costs nothing measurable on the tape hot
//!    path.** [`TraceCollector::begin`] is a single `Relaxed` atomic
//!    load and a branch when tracing is off; every downstream hook is
//!    behind `if let Some(handle)`. The bench smoke
//!    (`unit-bench/benches/tape_throughput.rs`) pins this at ≤ 3%
//!    overhead versus a build with no tracing calls at all.
//! 2. **Lock-light when enabled.** A live trace owns one uncontended
//!    `Mutex<Vec<Span>>` (only the threads serving *that* request touch
//!    it, one push at a time); the collector itself is a fixed ring of
//!    256 slots addressed by a single `fetch_add` — no global lock on
//!    the record path, and slot publication uses `try_lock` so a reader
//!    holding a slot can never block a finishing request (the trace is
//!    counted in `trace_dropped` instead).
//! 3. **Bounded memory.** The ring holds at most
//!    [`TRACE_RING_CAPACITY`] traces; overwriting an occupied slot
//!    counts the evicted trace as dropped. The [`TRACE_EXEMPLARS`]
//!    slowest traces are additionally retained outside the ring so a
//!    slow-request post-mortem survives a flood of fast requests.
//!
//! Exported formats are hand-rolled and dependency-free like `net.rs`:
//! a plain-text per-trace timeline (`GET /v1/trace/<id>`) and Chrome
//! `trace_event` JSON (`GET /v1/traces?export=chrome`) loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::lock_recovering;

/// Ring capacity: the collector retains at most this many recent traces.
pub const TRACE_RING_CAPACITY: usize = 256;

/// How many slowest-request exemplars survive ring eviction.
pub const TRACE_EXEMPLARS: usize = 8;

/// Environment variable that enables tracing at collector construction
/// (`1` or `true`); [`TraceCollector::set_enabled`] flips it at runtime.
pub const TRACE_ENV: &str = "UNIT_SERVE_TRACE";

static NEXT_LANE: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Stable per-thread lane id, used as the Chrome `tid` so each
    /// worker thread renders as its own track. `std::thread::ThreadId`
    /// has no stable integer accessor, so we mint our own.
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

fn current_lane() -> u32 {
    LANE.with(|l| *l)
}

/// One timestamped stage of a request, relative to the collector epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name from the span taxonomy (`admission`, `queue`,
    /// `tape_dispatch`, ...). Static so recording never allocates for
    /// the name.
    pub name: &'static str,
    /// Free-form detail (op name, cache verdict, profile counters).
    pub detail: String,
    /// Start, microseconds since the collector epoch.
    pub start_us: u64,
    /// End, microseconds since the collector epoch (`>= start_us`).
    pub end_us: u64,
    /// Recording thread's lane (Chrome `tid`).
    pub lane: u32,
}

/// A completed or in-flight request timeline.
#[derive(Debug)]
pub struct Trace {
    /// Collector-unique id, assigned at [`TraceCollector::begin`].
    pub id: u64,
    /// What was traced, e.g. `execute model=m target=t`.
    pub label: String,
    /// Trace start, microseconds since the collector epoch.
    pub start_us: u64,
    /// Trace end (set by [`TraceCollector::finish`]); 0 while in flight.
    end_us: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// Trace end in epoch-microseconds, or `None` while in flight.
    #[must_use]
    pub fn end_us(&self) -> Option<u64> {
        match self.end_us.load(Ordering::Acquire) {
            0 => None,
            us => Some(us),
        }
    }

    /// Wall time from begin to finish, microseconds (0 while in flight).
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.end_us().map_or(0, |e| e.saturating_sub(self.start_us))
    }

    /// Snapshot of the recorded spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        lock_recovering(&self.spans).clone()
    }
}

/// Cloneable per-request handle; stages record spans through it.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    trace: Arc<Trace>,
    epoch: Instant,
}

impl TraceHandle {
    /// The trace id (what `/v1/trace/<id>` takes).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.trace.id
    }

    /// Microseconds since the collector epoch — the span clock.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Record a completed span with explicit bounds.
    pub fn record(
        &self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        detail: impl Into<String>,
    ) {
        let span = Span {
            name,
            detail: detail.into(),
            start_us,
            end_us: end_us.max(start_us),
            lane: current_lane(),
        };
        lock_recovering(&self.trace.spans).push(span);
    }

    /// Record a span that took `dur_us` and ends now (for stages timed
    /// elsewhere, e.g. compile stage timings replayed out of
    /// `StageTimings`).
    pub fn record_ending_now(&self, name: &'static str, dur_us: u64, detail: impl Into<String>) {
        let end = self.now_us();
        self.record(name, end.saturating_sub(dur_us), end, detail);
    }

    /// Start a span now; call [`ActiveSpan::finish`] to record it.
    #[must_use]
    pub fn start(&self, name: &'static str) -> ActiveSpan {
        ActiveSpan {
            handle: self.clone(),
            name,
            start_us: self.now_us(),
        }
    }
}

/// An open span returned by [`TraceHandle::start`].
#[derive(Debug)]
pub struct ActiveSpan {
    handle: TraceHandle,
    name: &'static str,
    start_us: u64,
}

impl ActiveSpan {
    /// Close the span now and record it with `detail`.
    pub fn finish(self, detail: impl Into<String>) {
        let end = self.handle.now_us();
        self.handle.record(self.name, self.start_us, end, detail);
    }
}

/// The process-wide trace sink: id allocation, the bounded ring, and
/// slow-request exemplars.
#[derive(Debug)]
pub struct TraceCollector {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    head: AtomicU64,
    ring: Vec<Mutex<Option<Arc<Trace>>>>,
    exemplars: Mutex<Vec<Arc<Trace>>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A collector whose enabled state comes from [`TRACE_ENV`].
    #[must_use]
    pub fn new() -> TraceCollector {
        let env_on = std::env::var(TRACE_ENV)
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        TraceCollector {
            enabled: AtomicBool::new(env_on),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            head: AtomicU64::new(0),
            ring: (0..TRACE_RING_CAPACITY).map(|_| Mutex::new(None)).collect(),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    /// Is tracing on? One `Relaxed` load — this is the entire cost of
    /// the disabled hot path.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn tracing on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Begin a trace, or `None` when tracing is disabled.
    #[must_use]
    pub fn begin(&self, label: impl Into<String>) -> Option<TraceHandle> {
        if !self.enabled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let epoch = self.epoch;
        let start_us = u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let trace = Arc::new(Trace {
            id,
            label: label.into(),
            start_us,
            end_us: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        });
        Some(TraceHandle { trace, epoch })
    }

    /// Finish a trace: stamp its end time and publish it into the ring
    /// (and the slow-request exemplar set when it qualifies). Returns
    /// whether the publication dropped a trace (an eviction or a skipped
    /// busy slot): every finished trace is either retained in the ring
    /// or reported dropped here, and exemplar retention is additive. The
    /// serving engine counts both outcomes in its `traces_recorded` and
    /// `trace_dropped` metrics.
    pub fn finish(&self, handle: &TraceHandle) -> bool {
        let end = handle.now_us().max(1);
        handle.trace.end_us.store(end, Ordering::Release);
        self.retain_exemplar(&handle.trace);
        let slot = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.ring.len();
        match self.ring[slot].try_lock() {
            Ok(mut s) => {
                // On overflow the evicted trace is gone (unless an
                // exemplar kept it).
                s.replace(Arc::clone(&handle.trace)).is_some()
            }
            // A reader holds the slot; never block a finishing request.
            Err(_) => true,
        }
    }

    fn retain_exemplar(&self, trace: &Arc<Trace>) {
        let dur = trace.duration_us();
        let mut ex = lock_recovering(&self.exemplars);
        if ex.len() < TRACE_EXEMPLARS {
            ex.push(Arc::clone(trace));
            return;
        }
        if let Some((idx, min)) = ex
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.duration_us())
            .map(|(i, t)| (i, t.duration_us()))
        {
            if dur > min {
                ex[idx] = Arc::clone(trace);
            }
        }
    }

    /// Look a trace up by id (ring first, then exemplars).
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<Trace>> {
        for slot in &self.ring {
            if let Ok(s) = slot.try_lock() {
                if let Some(t) = s.as_ref() {
                    if t.id == id {
                        return Some(Arc::clone(t));
                    }
                }
            }
        }
        lock_recovering(&self.exemplars)
            .iter()
            .find(|t| t.id == id)
            .map(Arc::clone)
    }

    /// Snapshot every retained trace (ring ∪ exemplars, deduplicated by
    /// id, ascending id order).
    #[must_use]
    pub fn traces(&self) -> Vec<Arc<Trace>> {
        let mut out: Vec<Arc<Trace>> = Vec::new();
        for slot in &self.ring {
            if let Ok(s) = slot.try_lock() {
                if let Some(t) = s.as_ref() {
                    out.push(Arc::clone(t));
                }
            }
        }
        out.extend(lock_recovering(&self.exemplars).iter().map(Arc::clone));
        out.sort_by_key(|t| t.id);
        out.dedup_by_key(|t| t.id);
        out
    }

    /// Plain-text timeline for one trace (`GET /v1/trace/<id>`).
    #[must_use]
    pub fn render_timeline(trace: &Trace) -> String {
        let mut out = format!(
            "trace {}\nlabel {}\nstart_us {}\nduration_us {}\n",
            trace.id,
            trace.label,
            trace.start_us,
            trace.duration_us()
        );
        let mut spans = trace.spans();
        spans.sort_by_key(|s| (s.start_us, s.end_us));
        for s in &spans {
            out.push_str(&format!(
                "span {} start_us={} dur_us={} lane={} {}\n",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.lane,
                s.detail
            ));
        }
        out
    }

    /// Chrome `trace_event` JSON for every retained trace
    /// (`GET /v1/traces?export=chrome`). Hand-rolled; loads in
    /// `chrome://tracing` / Perfetto. Each trace renders as one `pid`
    /// so per-request fan-out across worker lanes (`tid`) is visible.
    #[must_use]
    pub fn export_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for trace in self.traces() {
            for s in trace.spans() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":{},\"cat\":\"serve\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"trace\":{},\"detail\":{}}}}}",
                    json_string(s.name),
                    s.start_us,
                    s.end_us - s.start_us,
                    trace.id,
                    s.lane,
                    trace.id,
                    json_string(&s.detail)
                ));
            }
        }
        out.push_str("]}");
        out
    }
}

/// Escape `s` as a JSON string literal (quotes included).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_begins_nothing() {
        let c = TraceCollector::new();
        c.set_enabled(false);
        assert!(c.begin("x").is_none());
        assert!(c.traces().is_empty());
    }

    #[test]
    fn spans_round_trip_through_ring_and_lookup() {
        let c = TraceCollector::new();
        c.set_enabled(true);
        let h = c.begin("execute model=m target=t").expect("enabled");
        let span = h.start("admission");
        span.finish("queued");
        h.record("queue", h.now_us(), h.now_us() + 5, "");
        c.finish(&h);
        let t = c.get(h.id()).expect("retained");
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "admission");
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        assert!(t.duration_us() > 0 || t.end_us().is_some());
        let text = TraceCollector::render_timeline(&t);
        assert!(text.contains("label execute model=m target=t"));
        assert!(text.contains("span admission"));
    }

    #[test]
    fn ring_overflow_counts_drops_and_stays_bounded() {
        let c = TraceCollector::new();
        c.set_enabled(true);
        let n = TRACE_RING_CAPACITY as u64 + 40;
        let finished: Vec<bool> = (0..n)
            .map(|i| c.finish(&c.begin(format!("r{i}")).expect("enabled")))
            .collect();
        assert_eq!(finished.len() as u64, n);
        assert_eq!(finished.iter().filter(|&&dropped| dropped).count(), 40);
        let retained = c.traces();
        assert!(retained.len() <= TRACE_RING_CAPACITY + TRACE_EXEMPLARS);
    }

    #[test]
    fn slow_exemplars_survive_ring_eviction() {
        let c = TraceCollector::new();
        c.set_enabled(true);
        let slow = c.begin("slow").expect("enabled");
        let start = slow.now_us();
        slow.record("tape_dispatch", start, start + 50_000, "slow op");
        std::thread::sleep(std::time::Duration::from_millis(2));
        c.finish(&slow);
        for i in 0..TRACE_RING_CAPACITY as u64 + 8 {
            let h = c.begin(format!("fast{i}")).expect("enabled");
            c.finish(&h);
        }
        // The slow trace was evicted from the ring but the exemplar set
        // keeps it addressable.
        let t = c.get(slow.id()).expect("exemplar retained");
        assert_eq!(t.label, "slow");
    }

    #[test]
    fn chrome_export_shape_and_escaping() {
        let c = TraceCollector::new();
        c.set_enabled(true);
        let h = c.begin("label \"quoted\"\n").expect("enabled");
        h.record("dispatch", 1, 4, "detail with \"quotes\" and \\slash\\");
        c.finish(&h);
        let json = c.export_chrome();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\\\slash\\\\"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
    }
}
