//! Serving metrics: counters, gauges and a fixed-bucket latency
//! histogram with a **stable text rendering** so tests (and scrapers) can
//! assert on the exact output.
//!
//! Every counter and gauge is one row of the `metric_table!` invocation
//! below: doc, `Metric` variant, getter, rendered name and Prometheus
//! kind. Storage, getters and the Prometheus exposition come from that
//! table; the v6 text rendering walks `TEXT_ROWS`, which places the
//! table metrics among the derived lines in the pinned v6 order.
//!
//! Everything is lock-free atomics — the scheduler's worker threads
//! record into one shared registry without contending on a mutex — with
//! one exception: the **hot-pair table** (per-`(model, target)` request
//! counts, the re-tune worker's priority signal) is a small sorted map
//! behind its own mutex, touched once per request. The histogram trades
//! precision for determinism: latencies are counted into fixed bucket
//! bounds and quantiles report the *upper bound* of the bucket
//! containing the requested rank, so p50/p95/p99 are exact functions of
//! the recorded counts (no interpolation, no sampling).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use unit_core::tuner::TuneTier;

use crate::lock_recovering;

/// Histogram bucket upper bounds in microseconds (the last bucket is an
/// unbounded overflow). Spanning 1 us .. 1 s covers everything from a
/// cache-hit GEMM on a warm engine to a cold whole-model compile.
pub const LATENCY_BUCKETS_US: [u64; 19] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000,
];

/// Maximum `(model, target)` pairs the hot-pair table tracks. Past the
/// cap the coldest entry (fewest requests, ties by key) is evicted, so
/// adversarial model-id churn cannot grow the table without bound.
pub const HOT_PAIR_CAPACITY: usize = 256;

/// Expands the metric table: each row is `/// doc` then
/// `Variant getter "rendered_name" counter|gauge;`.
macro_rules! metric_table {
    ($($(#[$doc:meta])+ $variant:ident $getter:ident $name:literal $kind:ident;)+) => {
        /// One counter or gauge of [`ServeMetrics`]: the index of its
        /// atomic slot. Declaration order is Prometheus order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Metric {
            $($(#[$doc])+ $variant,)+
        }

        impl Metric {
            /// Every metric, in declaration order.
            pub(crate) const ALL: &'static [Metric] = &[$(Metric::$variant),+];

            /// The rendered name (`unit_serve_`-prefixed in Prometheus).
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)+
                }
            }

            /// The Prometheus type: `counter` or `gauge`.
            pub(crate) fn kind(self) -> &'static str {
                match self {
                    $(Metric::$variant => stringify!($kind),)+
                }
            }
        }

        impl ServeMetrics {
            $(
                $(#[$doc])+
                #[must_use]
                pub fn $getter(&self) -> u64 {
                    self.get(Metric::$variant)
                }
            )+
        }
    };
}

metric_table! {
    /// Requests admitted to the queue (rolled-back submissions excluded).
    Submitted submitted "requests_submitted" counter;
    /// Requests rejected at admission (queue full, unknown target,
    /// shutdown).
    Rejected rejected "requests_rejected" counter;
    /// Completed requests (successful only).
    Completed completed "requests_completed" counter;
    /// Failed requests.
    Failed failed "requests_failed" counter;
    /// Batches handed to a worker.
    Batches batches "batches_executed" counter;
    /// Requests handed to workers, summed over batches.
    BatchedRequests batched_requests "batched_requests" counter;
    /// Compiles the artifact store had a replayable entry for.
    ArtifactHits artifact_hits "artifact_hits" counter;
    /// Compiles the artifact store had no entry for (cold compiles).
    ArtifactMisses artifact_misses "artifact_misses" counter;
    /// Compiles the in-memory executable-kernel cache served.
    KernelHits kernel_hits "kernel_cache_hits" counter;
    /// Compiles the in-memory executable-kernel cache missed.
    KernelMisses kernel_misses "kernel_cache_misses" counter;
    /// Tuner searches triggered by cold compiles.
    TunerSearches tuner_searches "tuner_searches" counter;
    /// Kernels lowered to instruction tapes (tape-cache misses).
    TapeCompiles tape_compiles "tape_compiles" counter;
    /// Tape executions. With batch fusion this is *less* than the
    /// request count: a fused batch of N requests is one dispatch.
    TapeDispatches tape_dispatches "tape_dispatches" counter;
    /// Requests served through fused (multi-request) tape dispatches.
    TapeFusedRequests tape_fused_requests "tape_fused_requests" counter;
    /// Tape instructions retired across all dispatches.
    TapeOpsRetired tape_ops_retired "tape_ops_retired" counter;
    /// Run-time residue-guard checks across all dispatches.
    TapeGuardChecks tape_guard_checks "tape_guard_checks" counter;
    /// Tensorized-intrinsic dispatches across all tape runs.
    TapeIntrinDispatches tape_intrin_dispatches "tape_intrin_dispatches" counter;
    /// Kernels built with a fused epilogue chain.
    EpilogueFusedKernels epilogue_fused_kernels "epilogue_fused_kernels" counter;
    /// Epilogue ops executing inside kernel dispatches (summed over
    /// fused kernels) instead of as per-op interpreter passes.
    EpilogueOpsEliminated epilogue_ops_eliminated "epilogue_ops_eliminated" counter;
    /// Dispatcher batch-window wake-ups. Flat on an idle scheduler: the
    /// dispatcher blocks on `recv` rather than spinning.
    DispatcherWakes dispatcher_wakes "dispatcher_wakes" counter;
    /// Tuning decisions appended to the shared journal. Counts
    /// decisions, not writes: each engine call appends its decisions in
    /// one batch.
    JournalAppends journal_appends "journal_appends" counter;
    /// Journal records tailed from other replicas and applied here.
    JournalTailedRecords journal_tailed_records "journal_tailed_records" counter;
    /// Journal compactions this replica triggered.
    JournalCompactions journal_compactions "journal_compactions" counter;
    /// Tuning decisions a failed journal append could not persist
    /// (serving continued without them). Counts decisions, not writes.
    JournalErrors journal_errors "journal_errors" counter;
    /// HTTP requests accepted and parsed by the front-end.
    HttpRequests http_requests "http_requests" counter;
    /// HTTP responses with a non-2xx status.
    HttpErrors http_errors "http_errors" counter;
    /// Background re-tune jobs enqueued.
    RetuneQueued retune_queued "retune_queued" counter;
    /// Background re-tune jobs that ran to completion.
    RetuneCompleted retune_completed "retune_completed" counter;
    /// Completed re-tunes that hot-swapped a cold-tier kernel.
    RetuneSwaps retune_swaps "retune_swaps" counter;
    /// Request traces finished.
    TracesRecorded traces_recorded "traces_recorded" counter;
    /// Request traces dropped on trace-ring overflow.
    TraceDropped trace_dropped "trace_dropped" counter;
    /// Hot-pair entries evicted by the [`HOT_PAIR_CAPACITY`] bound.
    HotPairsEvicted hot_pairs_evicted "hot_pairs_evicted" counter;
    /// Current queue depth (admitted, not yet completed).
    QueueDepth queue_depth "queue_depth" gauge;
    /// Highest queue depth seen.
    QueueDepthPeak queue_depth_peak "queue_depth_peak" gauge;
}

/// One entry of the v6 text layout.
enum Row {
    /// A table metric: `<name> <value>`.
    Plain(Metric),
    /// `<name> <value>` for a value derived from the registry.
    Derived(&'static str, fn(&ServeMetrics) -> String),
    /// `<prefix>_p50_us`, `<prefix>_p95_us` and `<prefix>_p99_us`.
    Quantiles(&'static str, fn(&ServeMetrics) -> &LatencyHistogram),
    /// `<prefix>_compiles`, `<prefix>_p50_us` and `<prefix>_p95_us` of
    /// one tier's cold-start histogram.
    ColdStart(&'static str, TuneTier),
}

/// The pinned v6 text layout. Its order is not table order, and
/// `batched_requests` shows only through `batch_size_mean`.
const TEXT_ROWS: &[Row] = &[
    Row::Plain(Metric::Submitted),
    Row::Plain(Metric::Rejected),
    Row::Plain(Metric::Completed),
    Row::Plain(Metric::Failed),
    Row::Plain(Metric::Batches),
    Row::Derived("batch_size_mean", |m| {
        let batches = m.batches();
        let mean = if batches == 0 {
            0.0
        } else {
            m.batched_requests() as f64 / batches as f64
        };
        format!("{mean:.2}")
    }),
    Row::Plain(Metric::QueueDepth),
    Row::Plain(Metric::QueueDepthPeak),
    Row::Quantiles("latency", ServeMetrics::latency),
    Row::Quantiles("queue_wait", ServeMetrics::queue_wait),
    Row::Quantiles("service", ServeMetrics::service),
    Row::Plain(Metric::ArtifactHits),
    Row::Plain(Metric::ArtifactMisses),
    Row::Derived("artifact_hit_rate", |m| {
        format!("{:.3}", m.artifact_hit_rate())
    }),
    Row::Plain(Metric::KernelHits),
    Row::Plain(Metric::KernelMisses),
    Row::Derived("kernel_cache_hit_rate", |m| {
        format!("{:.3}", m.kernel_hit_rate())
    }),
    Row::Plain(Metric::TunerSearches),
    Row::Plain(Metric::TapeCompiles),
    Row::Plain(Metric::TapeDispatches),
    Row::Plain(Metric::TapeFusedRequests),
    Row::Plain(Metric::TapeOpsRetired),
    Row::Plain(Metric::TapeGuardChecks),
    Row::Plain(Metric::TapeIntrinDispatches),
    Row::Plain(Metric::EpilogueFusedKernels),
    Row::Plain(Metric::EpilogueOpsEliminated),
    Row::Plain(Metric::DispatcherWakes),
    Row::Plain(Metric::JournalAppends),
    Row::Plain(Metric::JournalTailedRecords),
    Row::Plain(Metric::JournalCompactions),
    Row::Plain(Metric::JournalErrors),
    Row::Plain(Metric::HttpRequests),
    Row::Plain(Metric::HttpErrors),
    Row::Plain(Metric::RetuneQueued),
    Row::Plain(Metric::RetuneCompleted),
    Row::Plain(Metric::RetuneSwaps),
    Row::ColdStart("cold_start_cold_tier", TuneTier::Cold),
    Row::ColdStart("cold_start_full_tier", TuneTier::Full),
    Row::Derived("hot_pairs_tracked", |m| m.hot_pairs_tracked().to_string()),
    Row::Plain(Metric::HotPairsEvicted),
    Row::Plain(Metric::TracesRecorded),
    Row::Plain(Metric::TraceDropped),
];

/// The serving metrics registry. One instance per engine; shared with
/// the scheduler and its workers via `Arc`.
#[derive(Debug)]
pub struct ServeMetrics {
    values: [AtomicU64; Metric::ALL.len()],
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    service: LatencyHistogram,
    /// Indexed by [`TuneTier`] (`Cold` then `Full`).
    cold_start: [LatencyHistogram; 2],
    hot_pairs: Mutex<BTreeMap<(String, String), u64>>,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LatencyHistogram::default(),
            queue_wait: LatencyHistogram::default(),
            service: LatencyHistogram::default(),
            cold_start: Default::default(),
            hot_pairs: Mutex::default(),
        }
    }
}

/// Fixed-bucket latency histogram (see [`LATENCY_BUCKETS_US`]).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// Count one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values, microseconds (Prometheus `_sum`).
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// The quantile `p` (in `[0, 1]`) as the upper bound of the bucket
    /// holding that rank, or `None` when nothing was recorded. Overflow
    /// observations report `None`-like saturation as `u64::MAX`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// [`LatencyHistogram::quantile`] as the text rendering shows it:
    /// `none` when empty, `>` the last bound when saturated.
    fn quantile_text(&self, p: f64) -> String {
        match self.quantile(p) {
            None => "none".to_string(),
            Some(u64::MAX) => format!(">{}", LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1]),
            Some(v) => v.to_string(),
        }
    }

    /// Append this histogram's Prometheus lines under `unit_serve_<name>`.
    fn write_prometheus(&self, out: &mut String, name: &str) {
        out.push_str(&format!("# TYPE unit_serve_{name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "unit_serve_{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.buckets[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "unit_serve_{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!("unit_serve_{name}_sum {}\n", self.sum_us()));
        out.push_str(&format!("unit_serve_{name}_count {cumulative}\n"));
    }
}

impl ServeMetrics {
    /// A zeroed registry.
    #[must_use]
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    fn slot(&self, metric: Metric) -> &AtomicU64 {
        &self.values[metric as usize]
    }

    /// The current value of `metric`.
    pub(crate) fn get(&self, metric: Metric) -> u64 {
        self.slot(metric).load(Ordering::Relaxed)
    }

    /// Add `n` to `metric`.
    pub(crate) fn add(&self, metric: Metric, n: u64) {
        self.slot(metric).fetch_add(n, Ordering::Relaxed);
    }

    /// A request was admitted to the queue.
    pub fn record_submit(&self) {
        self.add(Metric::Submitted, 1);
        let depth = self
            .slot(Metric::QueueDepth)
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        self.slot(Metric::QueueDepthPeak)
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Roll back a [`ServeMetrics::record_submit`] whose enqueue failed
    /// (queue full on `try_submit`, or shutdown): the request counts as
    /// rejected instead of submitted.
    pub fn record_unsubmit(&self) {
        self.slot(Metric::Submitted).fetch_sub(1, Ordering::Relaxed);
        self.slot(Metric::QueueDepth)
            .fetch_sub(1, Ordering::Relaxed);
        self.add(Metric::Rejected, 1);
    }

    /// A batch of `size` requests was handed to a worker.
    pub fn record_batch(&self, size: usize) {
        self.add(Metric::Batches, 1);
        self.add(Metric::BatchedRequests, size as u64);
    }

    /// A request finished (successfully or not) after `queue_wait` in
    /// the queue and `service` executing. End-to-end latency (the
    /// historical histogram) is their sum; the split histograms let a
    /// p99 regression be attributed to queueing vs. execution.
    pub fn record_completion(&self, queue_wait: Duration, service: Duration, ok: bool) {
        self.slot(Metric::QueueDepth)
            .fetch_sub(1, Ordering::Relaxed);
        if ok {
            self.add(Metric::Completed, 1);
        } else {
            self.add(Metric::Failed, 1);
        }
        let wait_us = u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX);
        let service_us = u64::try_from(service.as_micros()).unwrap_or(u64::MAX);
        self.latency.record(wait_us.saturating_add(service_us));
        self.queue_wait.record(wait_us);
        self.service.record(service_us);
    }

    /// One tape execution served `requests` requests (`1` for an
    /// unfused dispatch, more when a worker fused a same-shape GEMM
    /// batch into a single batched-GEMM tape run).
    pub fn record_tape_dispatch(&self, requests: usize) {
        self.add(Metric::TapeDispatches, 1);
        if requests > 1 {
            self.add(Metric::TapeFusedRequests, requests as u64);
        }
    }

    /// A kernel carrying a fused epilogue chain of `ops` ops was built
    /// for the engine: its bias/ReLU/residual/requantize/softmax/
    /// layernorm steps execute inside the kernel dispatch instead of as
    /// per-op interpreter passes.
    pub fn record_epilogue_fusion(&self, ops: usize) {
        self.add(Metric::EpilogueFusedKernels, 1);
        self.add(Metric::EpilogueOpsEliminated, ops as u64);
    }

    /// A cold compile finished after `latency` at `tier`. Feeds the
    /// tier-split cold-start histograms — the observable for "cold-tier
    /// first responses are cheaper than full-tune first responses".
    pub fn record_cold_start(&self, tier: TuneTier, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.cold_start(tier).record(us);
    }

    /// One request arrived for `(model, target)` — bumps the hot-pair
    /// table the re-tune worker uses to prioritise upgrades. The table
    /// is bounded at [`HOT_PAIR_CAPACITY`]: past the cap the coldest
    /// entry (fewest requests, ties broken by key order) is evicted, so
    /// per-request adversarial model ids cannot grow it without bound.
    pub fn record_request_pair(&self, model: &str, target: &str) {
        let mut pairs = lock_recovering(&self.hot_pairs);
        *pairs
            .entry((model.to_string(), target.to_string()))
            .or_insert(0) += 1;
        if pairs.len() > HOT_PAIR_CAPACITY {
            let coldest = pairs
                .iter()
                .min_by_key(|(key, &count)| (count, (*key).clone()))
                .map(|(key, _)| key.clone());
            if let Some(key) = coldest {
                pairs.remove(&key);
                self.add(Metric::HotPairsEvicted, 1);
            }
        }
    }

    /// One tape execution retired `ops` instructions, evaluated `guards`
    /// residue-guard conditions and ran `intrins` tensorized dispatches
    /// (deltas from `unit_interp::tape::TapeProfile`).
    pub fn record_tape_profile(&self, ops: u64, guards: u64, intrins: u64) {
        self.add(Metric::TapeOpsRetired, ops);
        self.add(Metric::TapeGuardChecks, guards);
        self.add(Metric::TapeIntrinDispatches, intrins);
    }

    /// A request trace finished; `dropped` when publishing it overflowed
    /// the trace ring (see `trace::TraceCollector::finish`).
    pub fn record_trace(&self, dropped: bool) {
        self.add(Metric::TracesRecorded, 1);
        if dropped {
            self.add(Metric::TraceDropped, 1);
        }
    }

    /// Artifact-store hit rate over all compile lookups (0 when none).
    #[must_use]
    pub fn artifact_hit_rate(&self) -> f64 {
        rate(self.artifact_hits(), self.artifact_misses())
    }

    /// Executable-kernel cache hit rate (0 when no lookups).
    #[must_use]
    pub fn kernel_hit_rate(&self) -> f64 {
        rate(self.kernel_hits(), self.kernel_misses())
    }

    /// Requests recorded against `(model, target)` in the hot-pair table.
    #[must_use]
    pub fn hot_pair_requests(&self, model: &str, target: &str) -> u64 {
        lock_recovering(&self.hot_pairs)
            .get(&(model.to_string(), target.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// The end-to-end (queue + service) latency histogram.
    #[must_use]
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// The queue-wait latency histogram (admission to batch receipt).
    #[must_use]
    pub fn queue_wait(&self) -> &LatencyHistogram {
        &self.queue_wait
    }

    /// The service-time histogram (batch receipt to reply).
    #[must_use]
    pub fn service(&self) -> &LatencyHistogram {
        &self.service
    }

    /// Currently tracked hot-pair entries (bounded by
    /// [`HOT_PAIR_CAPACITY`]).
    #[must_use]
    pub fn hot_pairs_tracked(&self) -> usize {
        lock_recovering(&self.hot_pairs).len()
    }

    /// The cold-start (first compile) latency histogram for `tier`.
    #[must_use]
    pub fn cold_start(&self, tier: TuneTier) -> &LatencyHistogram {
        &self.cold_start[tier as usize]
    }

    /// Successful requests per second over `elapsed` wall clock.
    #[must_use]
    pub fn throughput_rps(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }

    /// The stable text rendering: one `key value` pair per line, fixed
    /// key set and order, fixed number formatting. Tests assert on this
    /// exact shape, so treat any change as a format break.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("# unit-serve metrics v6\n");
        let mut line = |key: &str, value: String| out.push_str(&format!("{key} {value}\n"));
        for row in TEXT_ROWS {
            match *row {
                Row::Plain(metric) => line(metric.name(), self.get(metric).to_string()),
                Row::Derived(name, value) => line(name, value(self)),
                Row::Quantiles(prefix, hist) => {
                    for (p, q) in [(50, 0.50), (95, 0.95), (99, 0.99)] {
                        line(&format!("{prefix}_p{p}_us"), hist(self).quantile_text(q));
                    }
                }
                Row::ColdStart(prefix, tier) => {
                    let hist = self.cold_start(tier);
                    line(&format!("{prefix}_compiles"), hist.count().to_string());
                    for (p, q) in [(50, 0.50), (95, 0.95)] {
                        line(&format!("{prefix}_p{p}_us"), hist.quantile_text(q));
                    }
                }
            }
        }
        out
    }

    /// Prometheus text exposition (`GET /metrics?format=prometheus`):
    /// the same registry as [`ServeMetrics::render`] in the standard
    /// `# TYPE` / `_bucket{le=...}` / `_sum` / `_count` shape, all
    /// metric names under the `unit_serve_` namespace. Like `render`,
    /// the output is deterministic for a given set of recorded values.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut line = |name: &str, kind: &str, v: u64| {
            out.push_str(&format!(
                "# TYPE unit_serve_{name} {kind}\nunit_serve_{name} {v}\n"
            ));
        };
        for &metric in Metric::ALL {
            line(metric.name(), metric.kind(), self.get(metric));
        }
        let tracked = self.hot_pairs_tracked() as u64;
        line("hot_pairs_tracked", "gauge", tracked);
        for (name, hist) in [
            ("request_latency_us", &self.latency),
            ("queue_wait_us", &self.queue_wait),
            ("service_us", &self.service),
            ("cold_start_cold_tier_us", self.cold_start(TuneTier::Cold)),
            ("cold_start_full_tier_us", self.cold_start(TuneTier::Full)),
        ] {
            hist.write_prometheus(&mut out, name);
        }
        out
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 90 fast (<= 100us), 9 medium (<= 1000us), 1 slow (<= 10ms).
        for _ in 0..90 {
            h.record(73);
        }
        for _ in 0..9 {
            h.record(800);
        }
        h.record(9_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), Some(100));
        assert_eq!(h.quantile(0.90), Some(100));
        assert_eq!(h.quantile(0.95), Some(1_000));
        assert_eq!(h.quantile(0.99), Some(1_000));
        assert_eq!(h.quantile(1.0), Some(10_000));
    }

    #[test]
    fn overflow_bucket_saturates() {
        let h = LatencyHistogram::default();
        h.record(5_000_000);
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_has_no_quantile_at_any_p() {
        let h = LatencyHistogram::default();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), None, "p={p}");
        }
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn all_samples_in_the_overflow_bucket() {
        let h = LatencyHistogram::default();
        let top = LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1];
        for _ in 0..100 {
            h.record(top + 1);
        }
        // Every quantile saturates to u64::MAX — including the extremes.
        for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), Some(u64::MAX), "p={p}");
        }
        // The saturation renders as `>bound`, not a fake number.
        let m = ServeMetrics::new();
        m.record_submit();
        m.record_completion(Duration::ZERO, Duration::from_secs(5), true);
        assert!(m.render().contains(&format!("latency_p50_us >{top}\n")));
    }

    #[test]
    fn p0_and_p1_hit_the_exact_bounds() {
        let h = LatencyHistogram::default();
        h.record(1); // first bucket (bound 1)
        h.record(600_000); // second-to-last bucket (bound 1_000_000)
                           // p=0.0: rank clamps to 1, the *first* recorded observation —
                           // never a phantom rank-0 below every sample.
        assert_eq!(h.quantile(0.0), Some(1));
        // p=1.0: rank = total, the last observation's bucket bound.
        assert_eq!(h.quantile(1.0), Some(1_000_000));
        // Both are exact bucket upper bounds, monotone in p.
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
        // A single-sample histogram answers the same bound for every p.
        let single = LatencyHistogram::default();
        single.record(42);
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(single.quantile(p), Some(50), "p={p}");
        }
    }

    #[test]
    fn render_is_stable_and_deterministic() {
        let m = ServeMetrics::new();
        m.record_submit();
        m.record_submit();
        m.record_batch(2);
        m.add(Metric::KernelMisses, 1);
        m.add(Metric::ArtifactMisses, 1);
        m.add(Metric::TunerSearches, 1);
        m.record_completion(Duration::from_micros(10), Duration::from_micros(30), true);
        m.add(Metric::KernelHits, 1);
        m.record_completion(Duration::from_micros(40), Duration::from_micros(50), true);
        m.add(Metric::TapeCompiles, 1);
        m.record_tape_dispatch(1);
        m.record_tape_dispatch(2);
        m.record_tape_profile(120, 4, 6);
        m.record_tape_profile(30, 2, 2);
        m.record_trace(false);
        m.record_trace(true);
        m.record_epilogue_fusion(3);
        m.record_epilogue_fusion(2);
        m.add(Metric::DispatcherWakes, 1);
        m.add(Metric::JournalAppends, 1);
        m.add(Metric::JournalTailedRecords, 3);
        m.add(Metric::JournalCompactions, 1);
        m.add(Metric::HttpRequests, 1);
        m.add(Metric::HttpRequests, 1);
        m.add(Metric::HttpErrors, 1);
        m.add(Metric::RetuneQueued, 1);
        m.add(Metric::RetuneQueued, 1);
        m.add(Metric::RetuneCompleted, 1);
        m.add(Metric::RetuneSwaps, 1);
        m.record_cold_start(TuneTier::Cold, Duration::from_micros(40));
        m.record_cold_start(TuneTier::Full, Duration::from_micros(900));
        m.record_request_pair("convnet", "cpu");
        m.record_request_pair("convnet", "cpu");
        m.record_request_pair("attention", "cpu");
        let expected = "\
# unit-serve metrics v6
requests_submitted 2
requests_rejected 0
requests_completed 2
requests_failed 0
batches_executed 1
batch_size_mean 2.00
queue_depth 0
queue_depth_peak 2
latency_p50_us 50
latency_p95_us 100
latency_p99_us 100
queue_wait_p50_us 10
queue_wait_p95_us 50
queue_wait_p99_us 50
service_p50_us 50
service_p95_us 50
service_p99_us 50
artifact_hits 0
artifact_misses 1
artifact_hit_rate 0.000
kernel_cache_hits 1
kernel_cache_misses 1
kernel_cache_hit_rate 0.500
tuner_searches 1
tape_compiles 1
tape_dispatches 2
tape_fused_requests 2
tape_ops_retired 150
tape_guard_checks 6
tape_intrin_dispatches 8
epilogue_fused_kernels 2
epilogue_ops_eliminated 5
dispatcher_wakes 1
journal_appends 1
journal_tailed_records 3
journal_compactions 1
journal_errors 0
http_requests 2
http_errors 1
retune_queued 2
retune_completed 1
retune_swaps 1
cold_start_cold_tier_compiles 1
cold_start_cold_tier_p50_us 50
cold_start_cold_tier_p95_us 50
cold_start_full_tier_compiles 1
cold_start_full_tier_p50_us 1000
cold_start_full_tier_p95_us 1000
hot_pairs_tracked 2
hot_pairs_evicted 0
traces_recorded 2
trace_dropped 1
";
        assert_eq!(m.render(), expected);
        assert_eq!(m.render(), expected, "rendering twice is identical");
    }

    #[test]
    fn hot_pair_table_counts_per_model_target() {
        let m = ServeMetrics::new();
        assert_eq!(m.hot_pair_requests("convnet", "cpu"), 0);
        m.record_request_pair("convnet", "cpu");
        m.record_request_pair("convnet", "cpu");
        m.record_request_pair("convnet", "gpu:0");
        assert_eq!(m.hot_pair_requests("convnet", "cpu"), 2);
        assert_eq!(m.hot_pair_requests("convnet", "gpu:0"), 1);
        assert_eq!(m.hot_pair_requests("attention", "cpu"), 0);
    }

    #[test]
    fn hot_pair_table_is_bounded_with_coldest_eviction() {
        let m = ServeMetrics::new();
        // A genuinely hot pair, then an adversarial flood of unique ids.
        for _ in 0..50 {
            m.record_request_pair("hot-model", "cpu");
        }
        for i in 0..(HOT_PAIR_CAPACITY + 40) {
            m.record_request_pair(&format!("adversarial-{i:04}"), "cpu");
        }
        assert!(
            m.hot_pairs_tracked() <= HOT_PAIR_CAPACITY,
            "table stays bounded: {} > {}",
            m.hot_pairs_tracked(),
            HOT_PAIR_CAPACITY
        );
        assert!(
            m.hot_pairs_evicted() >= 40,
            "flood must evict: {}",
            m.hot_pairs_evicted()
        );
        // Evict-coldest: the hot pair survives the flood of count-1 ids.
        assert_eq!(m.hot_pair_requests("hot-model", "cpu"), 50);
        let render = m.render();
        assert!(render.contains(&format!("hot_pairs_evicted {}\n", m.hot_pairs_evicted())));
    }

    #[test]
    fn queue_wait_and_service_histograms_split_the_latency() {
        let m = ServeMetrics::new();
        m.record_submit();
        m.record_completion(Duration::from_micros(400), Duration::from_micros(20), true);
        assert_eq!(m.queue_wait().count(), 1);
        assert_eq!(m.service().count(), 1);
        assert_eq!(m.queue_wait().quantile(0.5), Some(500));
        assert_eq!(m.service().quantile(0.5), Some(25));
        // End-to-end stays the sum of the parts.
        assert_eq!(m.latency().quantile(0.5), Some(500));
        assert_eq!(m.latency().sum_us(), 420);
    }

    #[test]
    fn prometheus_exposition_is_golden() {
        let m = ServeMetrics::new();
        m.record_submit();
        m.record_completion(Duration::from_micros(10), Duration::from_micros(30), true);
        let text = m.render_prometheus();
        let expected = "\
# TYPE unit_serve_requests_submitted counter
unit_serve_requests_submitted 1
# TYPE unit_serve_requests_rejected counter
unit_serve_requests_rejected 0
# TYPE unit_serve_requests_completed counter
unit_serve_requests_completed 1
# TYPE unit_serve_requests_failed counter
unit_serve_requests_failed 0
# TYPE unit_serve_batches_executed counter
unit_serve_batches_executed 0
# TYPE unit_serve_batched_requests counter
unit_serve_batched_requests 0
# TYPE unit_serve_artifact_hits counter
unit_serve_artifact_hits 0
# TYPE unit_serve_artifact_misses counter
unit_serve_artifact_misses 0
# TYPE unit_serve_kernel_cache_hits counter
unit_serve_kernel_cache_hits 0
# TYPE unit_serve_kernel_cache_misses counter
unit_serve_kernel_cache_misses 0
# TYPE unit_serve_tuner_searches counter
unit_serve_tuner_searches 0
# TYPE unit_serve_tape_compiles counter
unit_serve_tape_compiles 0
# TYPE unit_serve_tape_dispatches counter
unit_serve_tape_dispatches 0
# TYPE unit_serve_tape_fused_requests counter
unit_serve_tape_fused_requests 0
# TYPE unit_serve_tape_ops_retired counter
unit_serve_tape_ops_retired 0
# TYPE unit_serve_tape_guard_checks counter
unit_serve_tape_guard_checks 0
# TYPE unit_serve_tape_intrin_dispatches counter
unit_serve_tape_intrin_dispatches 0
# TYPE unit_serve_epilogue_fused_kernels counter
unit_serve_epilogue_fused_kernels 0
# TYPE unit_serve_epilogue_ops_eliminated counter
unit_serve_epilogue_ops_eliminated 0
# TYPE unit_serve_dispatcher_wakes counter
unit_serve_dispatcher_wakes 0
# TYPE unit_serve_journal_appends counter
unit_serve_journal_appends 0
# TYPE unit_serve_journal_tailed_records counter
unit_serve_journal_tailed_records 0
# TYPE unit_serve_journal_compactions counter
unit_serve_journal_compactions 0
# TYPE unit_serve_journal_errors counter
unit_serve_journal_errors 0
# TYPE unit_serve_http_requests counter
unit_serve_http_requests 0
# TYPE unit_serve_http_errors counter
unit_serve_http_errors 0
# TYPE unit_serve_retune_queued counter
unit_serve_retune_queued 0
# TYPE unit_serve_retune_completed counter
unit_serve_retune_completed 0
# TYPE unit_serve_retune_swaps counter
unit_serve_retune_swaps 0
# TYPE unit_serve_traces_recorded counter
unit_serve_traces_recorded 0
# TYPE unit_serve_trace_dropped counter
unit_serve_trace_dropped 0
# TYPE unit_serve_hot_pairs_evicted counter
unit_serve_hot_pairs_evicted 0
# TYPE unit_serve_queue_depth gauge
unit_serve_queue_depth 0
# TYPE unit_serve_queue_depth_peak gauge
unit_serve_queue_depth_peak 1
# TYPE unit_serve_hot_pairs_tracked gauge
unit_serve_hot_pairs_tracked 0
# TYPE unit_serve_request_latency_us histogram
unit_serve_request_latency_us_bucket{le=\"1\"} 0
unit_serve_request_latency_us_bucket{le=\"2\"} 0
unit_serve_request_latency_us_bucket{le=\"5\"} 0
unit_serve_request_latency_us_bucket{le=\"10\"} 0
unit_serve_request_latency_us_bucket{le=\"25\"} 0
unit_serve_request_latency_us_bucket{le=\"50\"} 1
unit_serve_request_latency_us_bucket{le=\"100\"} 1
unit_serve_request_latency_us_bucket{le=\"250\"} 1
unit_serve_request_latency_us_bucket{le=\"500\"} 1
unit_serve_request_latency_us_bucket{le=\"1000\"} 1
unit_serve_request_latency_us_bucket{le=\"2500\"} 1
unit_serve_request_latency_us_bucket{le=\"5000\"} 1
unit_serve_request_latency_us_bucket{le=\"10000\"} 1
unit_serve_request_latency_us_bucket{le=\"25000\"} 1
unit_serve_request_latency_us_bucket{le=\"50000\"} 1
unit_serve_request_latency_us_bucket{le=\"100000\"} 1
unit_serve_request_latency_us_bucket{le=\"250000\"} 1
unit_serve_request_latency_us_bucket{le=\"500000\"} 1
unit_serve_request_latency_us_bucket{le=\"1000000\"} 1
unit_serve_request_latency_us_bucket{le=\"+Inf\"} 1
unit_serve_request_latency_us_sum 40
unit_serve_request_latency_us_count 1
# TYPE unit_serve_queue_wait_us histogram
unit_serve_queue_wait_us_bucket{le=\"1\"} 0
unit_serve_queue_wait_us_bucket{le=\"2\"} 0
unit_serve_queue_wait_us_bucket{le=\"5\"} 0
unit_serve_queue_wait_us_bucket{le=\"10\"} 1
unit_serve_queue_wait_us_bucket{le=\"25\"} 1
unit_serve_queue_wait_us_bucket{le=\"50\"} 1
unit_serve_queue_wait_us_bucket{le=\"100\"} 1
unit_serve_queue_wait_us_bucket{le=\"250\"} 1
unit_serve_queue_wait_us_bucket{le=\"500\"} 1
unit_serve_queue_wait_us_bucket{le=\"1000\"} 1
unit_serve_queue_wait_us_bucket{le=\"2500\"} 1
unit_serve_queue_wait_us_bucket{le=\"5000\"} 1
unit_serve_queue_wait_us_bucket{le=\"10000\"} 1
unit_serve_queue_wait_us_bucket{le=\"25000\"} 1
unit_serve_queue_wait_us_bucket{le=\"50000\"} 1
unit_serve_queue_wait_us_bucket{le=\"100000\"} 1
unit_serve_queue_wait_us_bucket{le=\"250000\"} 1
unit_serve_queue_wait_us_bucket{le=\"500000\"} 1
unit_serve_queue_wait_us_bucket{le=\"1000000\"} 1
unit_serve_queue_wait_us_bucket{le=\"+Inf\"} 1
unit_serve_queue_wait_us_sum 10
unit_serve_queue_wait_us_count 1
# TYPE unit_serve_service_us histogram
unit_serve_service_us_bucket{le=\"1\"} 0
unit_serve_service_us_bucket{le=\"2\"} 0
unit_serve_service_us_bucket{le=\"5\"} 0
unit_serve_service_us_bucket{le=\"10\"} 0
unit_serve_service_us_bucket{le=\"25\"} 0
unit_serve_service_us_bucket{le=\"50\"} 1
unit_serve_service_us_bucket{le=\"100\"} 1
unit_serve_service_us_bucket{le=\"250\"} 1
unit_serve_service_us_bucket{le=\"500\"} 1
unit_serve_service_us_bucket{le=\"1000\"} 1
unit_serve_service_us_bucket{le=\"2500\"} 1
unit_serve_service_us_bucket{le=\"5000\"} 1
unit_serve_service_us_bucket{le=\"10000\"} 1
unit_serve_service_us_bucket{le=\"25000\"} 1
unit_serve_service_us_bucket{le=\"50000\"} 1
unit_serve_service_us_bucket{le=\"100000\"} 1
unit_serve_service_us_bucket{le=\"250000\"} 1
unit_serve_service_us_bucket{le=\"500000\"} 1
unit_serve_service_us_bucket{le=\"1000000\"} 1
unit_serve_service_us_bucket{le=\"+Inf\"} 1
unit_serve_service_us_sum 30
unit_serve_service_us_count 1
# TYPE unit_serve_cold_start_cold_tier_us histogram
unit_serve_cold_start_cold_tier_us_bucket{le=\"1\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"2\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"5\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"10\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"25\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"50\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"100\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"250\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"500\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"1000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"2500\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"5000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"10000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"25000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"50000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"100000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"250000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"500000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"1000000\"} 0
unit_serve_cold_start_cold_tier_us_bucket{le=\"+Inf\"} 0
unit_serve_cold_start_cold_tier_us_sum 0
unit_serve_cold_start_cold_tier_us_count 0
# TYPE unit_serve_cold_start_full_tier_us histogram
unit_serve_cold_start_full_tier_us_bucket{le=\"1\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"2\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"5\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"10\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"25\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"50\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"100\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"250\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"500\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"1000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"2500\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"5000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"10000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"25000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"50000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"100000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"250000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"500000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"1000000\"} 0
unit_serve_cold_start_full_tier_us_bucket{le=\"+Inf\"} 0
unit_serve_cold_start_full_tier_us_sum 0
unit_serve_cold_start_full_tier_us_count 0
";
        assert_eq!(text, expected);
        assert_eq!(text, m.render_prometheus(), "exposition is deterministic");
    }

    #[test]
    fn cold_start_histograms_are_split_by_tier() {
        let m = ServeMetrics::new();
        m.record_cold_start(TuneTier::Cold, Duration::from_micros(3));
        m.record_cold_start(TuneTier::Cold, Duration::from_micros(4));
        m.record_cold_start(TuneTier::Full, Duration::from_micros(700));
        assert_eq!(m.cold_start(TuneTier::Cold).count(), 2);
        assert_eq!(m.cold_start(TuneTier::Full).count(), 1);
        assert_eq!(m.cold_start(TuneTier::Cold).quantile(0.5), Some(5));
        assert_eq!(m.cold_start(TuneTier::Full).quantile(0.5), Some(1_000));
    }

    #[test]
    fn throughput_is_completed_over_elapsed() {
        let m = ServeMetrics::new();
        for _ in 0..10 {
            m.record_submit();
            m.record_completion(Duration::from_micros(4), Duration::from_micros(6), true);
        }
        let rps = m.throughput_rps(Duration::from_secs(2));
        assert!((rps - 5.0).abs() < 1e-9);
        assert_eq!(m.throughput_rps(Duration::ZERO), 0.0);
    }

    #[test]
    fn table_getters_and_both_renderings_agree() {
        type Getter = fn(&ServeMetrics) -> u64;
        let getters: [(Metric, Getter); 34] = [
            (Metric::Submitted, ServeMetrics::submitted),
            (Metric::Rejected, ServeMetrics::rejected),
            (Metric::Completed, ServeMetrics::completed),
            (Metric::Failed, ServeMetrics::failed),
            (Metric::Batches, ServeMetrics::batches),
            (Metric::BatchedRequests, ServeMetrics::batched_requests),
            (Metric::ArtifactHits, ServeMetrics::artifact_hits),
            (Metric::ArtifactMisses, ServeMetrics::artifact_misses),
            (Metric::KernelHits, ServeMetrics::kernel_hits),
            (Metric::KernelMisses, ServeMetrics::kernel_misses),
            (Metric::TunerSearches, ServeMetrics::tuner_searches),
            (Metric::TapeCompiles, ServeMetrics::tape_compiles),
            (Metric::TapeDispatches, ServeMetrics::tape_dispatches),
            (Metric::TapeFusedRequests, ServeMetrics::tape_fused_requests),
            (Metric::TapeOpsRetired, ServeMetrics::tape_ops_retired),
            (Metric::TapeGuardChecks, ServeMetrics::tape_guard_checks),
            (
                Metric::TapeIntrinDispatches,
                ServeMetrics::tape_intrin_dispatches,
            ),
            (
                Metric::EpilogueFusedKernels,
                ServeMetrics::epilogue_fused_kernels,
            ),
            (
                Metric::EpilogueOpsEliminated,
                ServeMetrics::epilogue_ops_eliminated,
            ),
            (Metric::DispatcherWakes, ServeMetrics::dispatcher_wakes),
            (Metric::JournalAppends, ServeMetrics::journal_appends),
            (
                Metric::JournalTailedRecords,
                ServeMetrics::journal_tailed_records,
            ),
            (
                Metric::JournalCompactions,
                ServeMetrics::journal_compactions,
            ),
            (Metric::JournalErrors, ServeMetrics::journal_errors),
            (Metric::HttpRequests, ServeMetrics::http_requests),
            (Metric::HttpErrors, ServeMetrics::http_errors),
            (Metric::RetuneQueued, ServeMetrics::retune_queued),
            (Metric::RetuneCompleted, ServeMetrics::retune_completed),
            (Metric::RetuneSwaps, ServeMetrics::retune_swaps),
            (Metric::TracesRecorded, ServeMetrics::traces_recorded),
            (Metric::TraceDropped, ServeMetrics::trace_dropped),
            (Metric::HotPairsEvicted, ServeMetrics::hot_pairs_evicted),
            (Metric::QueueDepth, ServeMetrics::queue_depth),
            (Metric::QueueDepthPeak, ServeMetrics::queue_depth_peak),
        ];
        assert_eq!(
            getters.map(|(metric, _)| metric).as_slice(),
            Metric::ALL,
            "one getter per table row, in table order"
        );
        // Distinct values: a getter or rendering that reads another
        // row's slot shows a different number.
        let m = ServeMetrics::new();
        for (i, &metric) in Metric::ALL.iter().enumerate() {
            m.add(metric, 1_000 + i as u64);
        }
        let prometheus = m.render_prometheus();
        let text = m.render();
        let values = |rendering: &str, key: String| -> Vec<String> {
            rendering
                .lines()
                .filter_map(|l| l.strip_prefix(&key))
                .map(str::to_string)
                .collect()
        };
        for (metric, getter) in getters {
            let (name, value) = (metric.name(), getter(&m).to_string());
            let type_line = format!("# TYPE unit_serve_{name} {}", metric.kind());
            assert_eq!(
                prometheus.lines().filter(|l| *l == type_line).count(),
                1,
                "{type_line}"
            );
            let once = std::slice::from_ref(&value);
            assert_eq!(
                values(&prometheus, format!("unit_serve_{name} ")),
                once,
                "{name}"
            );
            // The text shows `batched_requests` only through
            // `batch_size_mean`.
            let in_text = if metric == Metric::BatchedRequests {
                &[]
            } else {
                once
            };
            assert_eq!(values(&text, format!("{name} ")), in_text, "{name}");
        }
    }
}
