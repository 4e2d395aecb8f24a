//! `unit-serve` — the inference-serving runtime on top of the UNIT
//! compiler stack.
//!
//! The compiler layers (PRs 1–4) end at "compile a model and report its
//! latency"; this crate is the runtime that **serves** those compiled
//! models:
//!
//! * [`artifact`] — the persistent compiled-artifact store: per
//!   `(model, target)`, every kernel's tuning decision (workload,
//!   config, search-free replay config, latency, note) in a hand-rolled,
//!   versioned, line-oriented text format with typed rejection of
//!   corrupt/truncated/version-bumped files and torn-tail crash
//!   recovery ([`ArtifactStore::load_recovering`]). A warm start
//!   replays the store and performs **zero** tuner searches.
//! * [`engine`] — one state per served target: a (sharded) latency
//!   cache and an executable cache whose slots each hold a kernel, the
//!   tier that compiled it and its instruction tape, so a hot swap is a
//!   single insert. Artifact-aware compilation, whole-model reports
//!   (bit-identical to the graph compiler), and one dispatch path that
//!   runs a kernel for one request or a fused batched GEMM — through
//!   the compiled tape by default ([`engine::ExecMode`]; the tree-walk
//!   interpreter stays behind it as the differential oracle — both
//!   bit-identical to `run_reference`).
//! * [`scheduler`] — bounded admission, dynamic `(model, target)`
//!   batching, one worker thread per target; order-independent but
//!   result-deterministic. Workers fuse same-shape GEMM runs within a
//!   batch into single batched-GEMM tape executions.
//! * [`journal`] — the fleet-shared, file-locked, append-only artifact
//!   journal: N replicas on one host append tuning decisions under an
//!   advisory lock and tail each other's appends, so a replica
//!   warm-starts search-free off decisions another replica just made.
//!   Atomic compaction with retired-target GC, a max-size policy, and
//!   the v3 format, migrating v1 and v2 journals on open.
//! * [`net`] — the hand-rolled HTTP/1.1 front-end over std
//!   `TcpListener`: `POST /v1/execute` bridges onto the scheduler's
//!   bounded queue (queue-full → 429, per-request failure → 500, body
//!   and header limits, read/write timeouts), `GET /metrics` serves the
//!   stable metrics rendering.
//! * [`retune`] — tiered cold starts: a tiered engine serves a novel
//!   workload immediately from a cheap search-capped compile
//!   (`TuneTier::Cold`), then a bounded, hottest-first background queue
//!   re-runs the tuner at the full tier and **hot-swaps** the upgraded
//!   kernel in (artifact entry and exec-cache slot together, under the
//!   engine's swap lock) without a serving stall — and journals the
//!   upgrade so peer replicas swap too. Outputs are bit-identical
//!   across tiers; only latency changes.
//! * [`metrics`] — one table declares every counter and gauge (name,
//!   kind, doc) once; their storage, getters, the stable v6 text
//!   rendering and the Prometheus exposition all come from it. Beside
//!   the table: derived hit rates, a per-`(model, target)` hot-pair
//!   table and fixed-bucket latency histograms (request latency plus
//!   tier-split cold-start latency).
//! * [`trace`] — request-scoped tracing: every request gets a trace id
//!   at admission; stages append timestamped spans (admission → queue →
//!   batch → cache lookup → tape dispatch → epilogue → reply; compile
//!   path: inspect → tune → lower → tape-compile, retune-queue wait,
//!   hot-swap) into a bounded ring with slow-request exemplar
//!   retention. `GET /v1/trace/<id>` renders one timeline;
//!   `GET /v1/traces?export=chrome` emits Chrome `trace_event` JSON.
//!   Disabled (the default) it costs one relaxed atomic load per
//!   request.
//! * [`model`] — whole-model serving: the target-agnostic compact
//!   activation representation, deterministic implicit model
//!   parameters, layout scatter/gather adapters, and the unfused
//!   reference epilogue. [`ServeEngine::execute_model`] serves an
//!   entire quantized transformer forward pass as **one artifact**: one
//!   cache entry and one compiled tape per fused step, with bias /
//!   residual-add / ReLU / requantize / softmax / layernorm executing
//!   inside the kernel dispatch (zero reference-interpreter passes on
//!   the serve path).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use unit_core::pipeline::TuningConfig;
//! use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
//! use unit_graph::OpSpec;
//! use unit_serve::{Scheduler, SchedulerConfig, ServeEngine, ServeRequest};
//!
//! let tuning = TuningConfig {
//!     cpu: CpuTuneMode::ParallelUnroll,
//!     gpu: GpuTuneMode::Generic,
//! };
//! let engine = Arc::new(ServeEngine::new(tuning));
//! let scheduler = Scheduler::start(Arc::clone(&engine), SchedulerConfig::default());
//! let (_, response) = scheduler
//!     .submit(ServeRequest {
//!         model: "demo".to_string(),
//!         target: "x86-avx512-vnni".to_string(),
//!         op: OpSpec::gemm(16, 16, 16),
//!         seed: 42,
//!     })
//!     .unwrap();
//! let out = response.recv().unwrap();
//! assert!(out.result.is_ok());
//! scheduler.shutdown();
//! ```

pub mod artifact;
pub mod engine;
pub mod journal;
pub mod metrics;
pub mod model;
pub mod net;
pub mod retune;
pub mod scheduler;
pub mod trace;

pub use artifact::{
    ArtifactEntry, ArtifactError, ArtifactStore, TailRecovery, ARTIFACT_FORMAT_VERSION,
};
pub use engine::{reference_report, ExecMode, ExecOutcome, ModelOutcome, ServeEngine, ServeError};
pub use journal::{Journal, JournalConfig, JournalRecord, JOURNAL_FORMAT_VERSION};
pub use metrics::{LatencyHistogram, ServeMetrics, HOT_PAIR_CAPACITY, LATENCY_BUCKETS_US};
pub use model::{model_graph, Compact};
pub use net::{parse_graph_body, GraphRequest, HttpServer, HttpServerConfig};
pub use retune::{RetuneJob, RetuneWorker, RETUNE_QUEUE_CAPACITY};
pub use scheduler::{Scheduler, SchedulerConfig, ServeRequest, ServeResponse, SubmitError};
pub use trace::{
    Span, TraceCollector, TraceHandle, TRACE_ENV, TRACE_EXEMPLARS, TRACE_RING_CAPACITY,
};
pub use unit_core::tuner::TuneTier;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a mutex, recovering the data if a panicking holder poisoned it.
/// Every mutex locked through this guards plain data whose invariants
/// hold between operations (artifact store, journal handle and tail
/// cursor, re-tune queue, hot-pair table, span lists), so a panic that
/// interrupted some *other* thread's critical section leaves nothing
/// half-updated worth rejecting: take the data and keep serving.
/// Without this, one panicking client thread turned every later
/// `lock().unwrap()` into a panic — a single poisoned request wedged the
/// whole engine.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
