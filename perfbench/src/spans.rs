//! Spans of the traced run: the benchmark's stopwatch spans around the
//! public calls it makes, with the engine's own request traces nested
//! under them, on one clock. Self times, the per-layer table and the
//! span file come from here.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use unit_serve::trace::{json_string, Trace};
use unit_serve::TraceCollector;

use crate::stats::self_time;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds on the benchmark's span clock.
#[must_use]
pub fn now_us() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The shift from `tracer`'s span clock onto [`now_us`]. Each engine's
/// collector counts from its own construction; the shift is sampled
/// around one read of its clock (through a trace that is never
/// finished, so it never reaches the ring).
#[must_use]
pub fn clock_offset(tracer: &TraceCollector) -> i64 {
    let was = tracer.enabled();
    tracer.set_enabled(true);
    let handle = tracer
        .begin("perfbench clock")
        .expect("tracing was just enabled");
    tracer.set_enabled(was);
    let before = now_us();
    let theirs = handle.now_us();
    let after = now_us();
    ((before + after) / 2) as i64 - theirs as i64
}

fn shift(us: u64, offset: i64) -> u64 {
    u64::try_from(us as i64 + offset).unwrap_or(0)
}

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: String,
    /// Start on the span clock (µs).
    pub start_us: u64,
    /// End on the span clock (µs).
    pub end_us: u64,
    /// Free-form detail.
    pub detail: String,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// The spans of one traced run.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Record a span; returns its id.
    pub fn push(
        &mut self,
        parent: Option<usize>,
        name: &str,
        (start_us, end_us): (u64, u64),
        detail: impl Into<String>,
    ) -> usize {
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start_us,
            end_us: end_us.max(start_us),
            detail: detail.into(),
        });
        self.spans.len() - 1
    }

    /// Import an engine trace under `parent` as a span named `name`
    /// covering the whole trace, its spans nested by interval
    /// containment (the engine records no parent links). `offset` maps
    /// the engine's clock onto the span clock ([`clock_offset`]).
    /// Returns the trace's span id.
    pub fn import(
        &mut self,
        parent: Option<usize>,
        name: &str,
        trace: &Trace,
        offset: i64,
    ) -> usize {
        let start = shift(trace.start_us, offset);
        let end = shift(trace.end_us().unwrap_or(trace.start_us), offset);
        let root = self.push(parent, name, (start, end), trace.label.clone());
        let mut spans = trace.spans();
        spans.sort_by_key(|s| (s.start_us, Reverse(s.end_us)));
        let mut open = vec![(root, start, end)];
        for s in spans {
            let (s_start, s_end) = (shift(s.start_us, offset), shift(s.end_us, offset));
            while open.len() > 1 {
                let &(_, lo, hi) = open.last().expect("root stays open");
                if lo <= s_start && s_end <= hi {
                    break;
                }
                open.pop();
            }
            let at = open.last().expect("root stays open").0;
            let id = self.push(Some(at), s.name, (s_start, s_end), s.detail);
            open.push((id, s_start, s_end));
        }
        root
    }

    /// Every span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of every span.
    #[must_use]
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let kids = self.children();
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let covered: Vec<(u64, u64)> = kids[i]
                    .iter()
                    .map(|&k| (self.spans[k].start_us, self.spans[k].end_us))
                    .collect();
                self_time((s.start_us, s.end_us), &covered)
            })
            .collect()
    }

    /// Per-layer table: span name → (count, total self time µs).
    #[must_use]
    pub fn layer_table(&self) -> BTreeMap<String, (u64, u64)> {
        let mut table: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(self.self_times()) {
            let row = table.entry(s.name.clone()).or_default();
            row.0 += 1;
            row.1 += self_us;
        }
        table
    }

    /// Write every span as Chrome `trace_event` JSON (loads in Perfetto),
    /// each event carrying its parent id and self time.
    ///
    /// # Errors
    ///
    /// On write failure.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let self_times = self.self_times();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (s, self_us)) in self.spans.iter().zip(self_times).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{root},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"self_us\":{self_us},\"detail\":{}}}}}",
                json_string(&s.name),
                s.start_us,
                s.dur_us(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_string(&s.detail)
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The value of `key=<value>` in a span detail.
#[must_use]
pub fn detail_field<'a>(detail: &'a str, key: &str) -> Option<&'a str> {
    detail
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_direct_children_only() {
        let mut log = SpanLog::default();
        let root = log.push(None, "request", (0, 100), "");
        let server = log.push(Some(root), "server", (10, 90), "");
        log.push(Some(server), "tape_dispatch", (20, 60), "");
        log.push(Some(server), "epilogue", (60, 70), "");
        assert_eq!(log.self_times(), vec![20, 30, 40, 10]);
        let table = log.layer_table();
        assert_eq!(table["server"], (1, 30));
        // Self times partition the root: they sum to its duration.
        let total: u64 = log.self_times().iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn detail_fields_parse() {
        let d = "func=block1_q requests=1 ops_retired=12 intrin_dispatches=4";
        assert_eq!(detail_field(d, "func"), Some("block1_q"));
        assert_eq!(detail_field(d, "ops_retired"), Some("12"));
        assert_eq!(detail_field(d, "missing"), None);
    }
}
