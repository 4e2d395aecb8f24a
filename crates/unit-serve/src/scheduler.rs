//! The batching scheduler: bounded admission, dynamic `(model, target)`
//! batching, and a per-target worker pool.
//!
//! ```text
//!  clients ──try_submit/submit──▶ [bounded admission queue]
//!                                        │ dispatcher thread
//!                                        ▼
//!                      group pending by (model, target), chunk ≤ max_batch
//!                                        │
//!              ┌─────────────────────────┼─────────────────────────┐
//!              ▼                         ▼                         ▼
//!      worker[x86-avx512-vnni]   worker[arm-neon-dot]      worker[nvidia-…]
//!              │                         │                         │
//!              └────────── per-request reply channels ─────────────┘
//! ```
//!
//! * **Bounded admission**: the queue is a `std::sync::mpsc::sync_channel`
//!   of fixed capacity. [`Scheduler::submit`] blocks (backpressure),
//!   [`Scheduler::try_submit`] rejects with [`SubmitError::QueueFull`].
//! * **Dynamic batching**: the dispatcher drains whatever is queued *right
//!   now* and groups it by `(model, target)` in arrival order, splitting
//!   groups into batches of at most `max_batch`. Under light load batches
//!   degenerate to size 1 (no artificial latency); under burst load
//!   same-kernel requests ride one batch and hit the executable cache.
//! * **Sharded per target**: one worker thread per served target, each
//!   draining its own channel and touching only its target's caches.
//! * **Order-independent, result-deterministic**: responses arrive in
//!   whatever order workers finish, but every response's payload is a pure
//!   function of the request (`op`, `target`, `seed`, engine tuning) —
//!   batched, re-batched and serial runs produce bit-identical outputs
//!   (asserted by the soak suite).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use unit_core::tuner::TuneTier;
use unit_graph::OpSpec;
use unit_isa::TypedBuf;

use crate::engine::{ExecOutcome, ServeEngine};
use crate::metrics::Metric;
use crate::trace::TraceHandle;

/// One inference request: execute `op` on `target`, with input buffers
/// deterministically seeded by `seed`. `model` namespaces artifact-store
/// lookups (and is how whole models share replayed tuning decisions).
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Model id (artifact namespace).
    pub model: String,
    /// Target descriptor id.
    pub target: String,
    /// The workload to execute.
    pub op: OpSpec,
    /// Deterministic input seed.
    pub seed: u64,
}

/// A completed request.
#[derive(Debug)]
pub struct ServeResponse {
    /// The id handed back by `submit`.
    pub id: u64,
    /// Output buffer (Ok) or a rendered error (Err).
    pub result: Result<TypedBuf, String>,
    /// Modeled kernel latency in microseconds (0 on error).
    pub micros: f64,
    /// Provider note for the executed kernel.
    pub note: String,
    /// How many requests shared this request's batch.
    pub batch_size: usize,
    /// Which tuning tier compiled the kernel that served this request
    /// (`None` on error). `Cold` means a cheap search-capped kernel
    /// answered and a background re-tune is (or was) pending.
    pub tier: Option<TuneTier>,
    /// The request's trace id when tracing was enabled at admission
    /// (`GET /v1/trace/<id>` renders the timeline); `None` otherwise.
    pub trace_id: Option<u64>,
}

/// Admission-time rejections.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (only from `try_submit`).
    QueueFull,
    /// The engine does not serve the request's target.
    UnknownTarget(String),
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue is full"),
            SubmitError::UnknownTarget(id) => write!(f, "unknown target id `{id}`"),
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Scheduler tunables.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Bounded admission queue capacity.
    pub queue_capacity: usize,
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            queue_capacity: 64,
            max_batch: 8,
        }
    }
}

struct Envelope {
    id: u64,
    req: ServeRequest,
    reply: Sender<ServeResponse>,
    enqueued: Instant,
    /// The request's trace, begun at admission (None when tracing is
    /// off — the common case costs one relaxed load per request).
    trace: Option<TraceHandle>,
}

struct Batch {
    model: String,
    items: Vec<Envelope>,
}

/// The running scheduler. Dropping it shuts the pipeline down cleanly:
/// the admission queue closes, the dispatcher drains what was admitted,
/// workers finish their batches, and every thread is joined.
pub struct Scheduler {
    engine: Arc<ServeEngine>,
    tx: Option<SyncSender<Envelope>>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    config: SchedulerConfig,
}

impl Scheduler {
    /// Start the dispatcher and one worker per target served by
    /// `engine`.
    ///
    /// # Panics
    ///
    /// Panics when `queue_capacity` or `max_batch` is zero.
    #[must_use]
    pub fn start(engine: Arc<ServeEngine>, config: SchedulerConfig) -> Scheduler {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.max_batch > 0, "max batch must be positive");
        let (tx, rx) = sync_channel::<Envelope>(config.queue_capacity);

        let mut batch_txs: BTreeMap<String, Sender<Batch>> = BTreeMap::new();
        let mut workers = Vec::new();
        for target in engine.target_ids() {
            let (btx, brx) = std::sync::mpsc::channel::<Batch>();
            batch_txs.insert(target.clone(), btx);
            let engine = Arc::clone(&engine);
            workers.push(std::thread::spawn(move || {
                worker_loop(&engine, &target, &brx)
            }));
        }
        let drain_window = config.queue_capacity;
        let max_batch = config.max_batch;
        let metrics = Arc::clone(engine.metrics());
        let dispatcher = std::thread::spawn(move || {
            dispatch_loop(&rx, &batch_txs, max_batch, drain_window, &metrics);
        });

        Scheduler {
            engine,
            tx: Some(tx),
            dispatcher: Some(dispatcher),
            workers,
            next_id: AtomicU64::new(0),
            config,
        }
    }

    /// The engine behind this scheduler.
    #[must_use]
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// The scheduler's configuration.
    #[must_use]
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// Submit with backpressure: blocks while the admission queue is
    /// full. Returns the response channel and the assigned request id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownTarget`] before enqueueing,
    /// [`SubmitError::ShuttingDown`] when the pipeline is stopping.
    pub fn submit(&self, req: ServeRequest) -> Result<(u64, Receiver<ServeResponse>), SubmitError> {
        let (envelope, id, rx) = self.admit(&req)?;
        // Count the submission *before* sending: a worker can complete
        // the request (decrementing the queue-depth gauge) the instant
        // it is enqueued.
        self.engine.metrics().record_submit();
        match self
            .tx
            .as_ref()
            .ok_or(SubmitError::ShuttingDown)?
            .send(envelope)
        {
            Ok(()) => Ok((id, rx)),
            Err(_) => {
                self.engine.metrics().record_unsubmit();
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Submit without blocking: a full queue rejects immediately with
    /// [`SubmitError::QueueFull`] (recorded in the metrics).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`], [`SubmitError::UnknownTarget`] or
    /// [`SubmitError::ShuttingDown`].
    pub fn try_submit(
        &self,
        req: ServeRequest,
    ) -> Result<(u64, Receiver<ServeResponse>), SubmitError> {
        let (envelope, id, rx) = self.admit(&req)?;
        self.engine.metrics().record_submit();
        match self
            .tx
            .as_ref()
            .ok_or(SubmitError::ShuttingDown)?
            .try_send(envelope)
        {
            Ok(()) => Ok((id, rx)),
            Err(TrySendError::Full(_)) => {
                self.engine.metrics().record_unsubmit();
                Err(SubmitError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.engine.metrics().record_unsubmit();
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    fn admit(
        &self,
        req: &ServeRequest,
    ) -> Result<(Envelope, u64, Receiver<ServeResponse>), SubmitError> {
        if !self.engine.serves(&req.target) {
            self.engine.metrics().add(Metric::Rejected, 1);
            return Err(SubmitError::UnknownTarget(req.target.clone()));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = self.engine.tracer().begin(format!(
            "serve model={} target={} op={}",
            req.model,
            req.target,
            req.op.encode()
        ));
        if let Some(t) = trace.as_ref() {
            let span = t.start("admission");
            span.finish(format!("id={id}"));
        }
        let (reply, rx) = std::sync::mpsc::channel();
        Ok((
            Envelope {
                id,
                req: req.clone(),
                reply,
                enqueued: Instant::now(),
                trace,
            },
            id,
            rx,
        ))
    }

    /// Stop accepting requests, drain everything admitted, and join all
    /// threads. (`Drop` does the same; this form makes shutdown explicit.)
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        drop(self.tx.take());
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Dispatcher: drain what is queued, group by `(model, target)` in
/// arrival order, chunk to `max_batch`, and hand each batch to its
/// target's worker.
///
/// Busy-spin audit: the `try_recv` drain below runs only *after* a
/// blocking `recv` returned an element, and exits the inner loop on the
/// first `Err` (empty queue) — it never spins waiting for more. An idle
/// dispatcher is parked inside `recv`, burning no CPU; the
/// `dispatcher_wakes` counter (one bump per window) is the observable
/// proxy `idle_scheduler_does_not_spin` asserts on.
fn dispatch_loop(
    rx: &Receiver<Envelope>,
    batch_txs: &BTreeMap<String, Sender<Batch>>,
    max_batch: usize,
    drain_window: usize,
    metrics: &Arc<crate::metrics::ServeMetrics>,
) {
    while let Ok(first) = rx.recv() {
        metrics.add(Metric::DispatcherWakes, 1);
        let mut pending = vec![first];
        while pending.len() < drain_window {
            match rx.try_recv() {
                Ok(env) => pending.push(env),
                Err(_) => break,
            }
        }
        for ((model, target), mut items) in group_by_flow(pending) {
            while !items.is_empty() {
                let take = items.len().min(max_batch);
                let batch: Vec<Envelope> = items.drain(..take).collect();
                // The worker outliving its channel is a shutdown race;
                // dropping the batch there is fine because shutdown only
                // happens after the admission queue is closed and drained.
                let _ = batch_txs[&target].send(Batch {
                    model: model.clone(),
                    items: batch,
                });
            }
        }
    }
    // rx closed: admission is over; dropping batch_txs ends the workers.
}

/// Group a drained window by `(model, target)`, preserving arrival order
/// both within each group and across groups (first arrival of a flow
/// fixes its group's position). The index map makes this O(window) —
/// the previous linear re-scan per envelope was O(window²), which the
/// soak's 64-deep drain window paid on every dispatch.
fn group_by_flow(pending: Vec<Envelope>) -> Vec<((String, String), Vec<Envelope>)> {
    let mut groups: Vec<((String, String), Vec<Envelope>)> = Vec::new();
    let mut index: HashMap<(String, String), usize> = HashMap::new();
    for env in pending {
        let key = (env.req.model.clone(), env.req.target.clone());
        match index.get(&key) {
            Some(&at) => groups[at].1.push(env),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![env]));
            }
        }
    }
    groups
}

/// Worker: execute every batch for one target. Same-shape GEMM requests
/// within a batch fuse into **one** batched-GEMM tape execution
/// ([`ServeEngine::execute_gemm_batch`]); everything else executes per
/// item. A panic while compiling or executing is contained to the
/// offending request(s) (a serving runtime must not let one poisoned
/// kernel take down the whole target's worker — and with it every
/// in-flight reply channel): a panicking fused run falls back to
/// per-item execution, re-containing the panic to one request.
fn worker_loop(engine: &Arc<ServeEngine>, target: &str, brx: &Receiver<Batch>) {
    while let Ok(batch) = brx.recv() {
        let Batch { model, items } = batch;
        let size = items.len();
        engine.metrics().record_batch(size);
        // Queue wait ends here: the batch reached its worker. Every
        // traced envelope gets its queue span back-dated from admission.
        let exec_start = Instant::now();
        for env in &items {
            if let Some(t) = env.trace.as_ref() {
                let wait = u64::try_from(env.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
                t.record_ending_now("queue", wait, format!("batch_size={size}"));
            }
        }
        // Partition the batch into same-op groups, preserving arrival
        // order (batches share (model, target) by construction).
        let mut groups: Vec<Vec<Envelope>> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for env in items {
            let key = env.req.op.encode();
            match index.get(&key) {
                Some(&at) => groups[at].push(env),
                None => {
                    index.insert(key, groups.len());
                    groups.push(vec![env]);
                }
            }
        }
        let formed_us = u64::try_from(exec_start.elapsed().as_micros()).unwrap_or(0);
        for group in &groups {
            for env in group {
                if let Some(t) = env.trace.as_ref() {
                    t.record_ending_now(
                        "batch",
                        formed_us,
                        format!("batch_size={size} op_groups={}", groups.len()),
                    );
                }
            }
        }
        for group in groups {
            let op = group[0].req.op;
            if group.len() > 1 && matches!(op, OpSpec::Gemm { .. }) {
                let seeds: Vec<u64> = group.iter().map(|e| e.req.seed).collect();
                let traces: Vec<Option<TraceHandle>> =
                    group.iter().map(|e| e.trace.clone()).collect();
                let fused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.execute_gemm_batch_traced(&model, target, op, &seeds, &traces)
                }));
                match fused {
                    Ok(Ok(outcomes)) => {
                        for (env, out) in group.into_iter().zip(outcomes) {
                            respond(engine, env, Ok(out), size, exec_start);
                        }
                        continue;
                    }
                    Ok(Err(e)) => {
                        // Engine errors are deterministic in (op, target):
                        // every request of the group fails identically.
                        let msg = e.to_string();
                        for env in group {
                            respond(engine, env, Err(msg.clone()), size, exec_start);
                        }
                        continue;
                    }
                    // Panicked: fall through to per-item execution, which
                    // contains the panic to the request that caused it.
                    Err(_) => {}
                }
            }
            for env in group {
                execute_one(engine, &model, target, env, size, exec_start);
            }
        }
    }
}

/// Execute one request with panic containment and send its response.
fn execute_one(
    engine: &Arc<ServeEngine>,
    model: &str,
    target: &str,
    env: Envelope,
    size: usize,
    exec_start: Instant,
) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.execute_traced(model, target, env.req.op, env.req.seed, env.trace.as_ref())
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        Err(crate::engine::ServeError::Panicked(format!(
            "kernel execution panicked: {msg}"
        )))
    });
    respond(
        engine,
        env,
        outcome.map_err(|e| e.to_string()),
        size,
        exec_start,
    );
}

/// Record completion metrics (queue wait split from service time),
/// close out the request's trace, and send the response. The client may
/// have dropped its receiver; that is not an error for the pipeline.
fn respond(
    engine: &Arc<ServeEngine>,
    env: Envelope,
    outcome: Result<ExecOutcome, String>,
    size: usize,
    exec_start: Instant,
) {
    let ok = outcome.is_ok();
    engine.metrics().record_completion(
        exec_start.duration_since(env.enqueued),
        exec_start.elapsed(),
        ok,
    );
    let trace_id = env.trace.as_ref().map(|t| {
        let span = t.start("reply");
        span.finish(format!("ok={ok} batch_size={size}"));
        // Finish before the reply send: a client that reads its
        // response and immediately GETs the trace must find it complete.
        engine.finish_trace(t);
        t.id()
    });
    let response = match outcome {
        Ok(out) => ServeResponse {
            id: env.id,
            result: Ok(out.output),
            micros: out.micros,
            note: out.note,
            batch_size: size,
            tier: Some(out.tier),
            trace_id,
        },
        Err(e) => ServeResponse {
            id: env.id,
            result: Err(e),
            micros: 0.0,
            note: String::new(),
            batch_size: size,
            tier: None,
            trace_id,
        },
    };
    let _ = env.reply.send(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::pipeline::TuningConfig;
    use unit_core::tuner::{CpuTuneMode, GpuTuneMode};

    fn fast_tuning() -> TuningConfig {
        TuningConfig {
            cpu: CpuTuneMode::ParallelUnroll,
            gpu: GpuTuneMode::Generic,
        }
    }

    #[test]
    fn unknown_target_is_rejected_at_admission() {
        let engine = Arc::new(ServeEngine::new(fast_tuning()));
        let sched = Scheduler::start(Arc::clone(&engine), SchedulerConfig::default());
        let err = sched
            .submit(ServeRequest {
                model: "m".to_string(),
                target: "no-such-target".to_string(),
                op: OpSpec::gemm(8, 8, 8),
                seed: 0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::UnknownTarget("no-such-target".to_string())
        );
        assert_eq!(engine.metrics().rejected(), 1);
    }

    #[test]
    fn single_request_round_trips() {
        let engine = Arc::new(ServeEngine::new(fast_tuning()));
        let sched = Scheduler::start(Arc::clone(&engine), SchedulerConfig::default());
        let (id, rx) = sched
            .submit(ServeRequest {
                model: "m".to_string(),
                target: "x86-avx512-vnni".to_string(),
                op: OpSpec::gemm(16, 16, 16),
                seed: 3,
            })
            .unwrap();
        let resp = rx.recv().expect("response arrives");
        assert_eq!(resp.id, id);
        assert!(resp.result.is_ok(), "{:?}", resp.result);
        assert!(resp.batch_size >= 1);
        sched.shutdown();
        assert_eq!(engine.metrics().completed(), 1);
        assert_eq!(engine.metrics().queue_depth(), 0);
    }

    #[test]
    fn grouping_preserves_arrival_order_within_and_across_groups() {
        // Regression: the old linear-scan grouping was O(window²); the
        // index-map replacement must keep the exact same observable
        // order — first arrival of a flow fixes its group position, and
        // envelopes stay in arrival order inside each group.
        let mk = |id: u64, model: &str, target: &str| {
            let (reply, _rx) = std::sync::mpsc::channel();
            Envelope {
                id,
                req: ServeRequest {
                    model: model.to_string(),
                    target: target.to_string(),
                    op: OpSpec::gemm(8, 8, 8),
                    seed: 0,
                },
                reply,
                enqueued: Instant::now(),
                trace: None,
            }
        };
        let pending = vec![
            mk(0, "a", "t1"),
            mk(1, "b", "t1"),
            mk(2, "a", "t1"),
            mk(3, "c", "t2"),
            mk(4, "b", "t1"),
            mk(5, "a", "t2"),
            mk(6, "a", "t1"),
        ];
        let groups = group_by_flow(pending);
        let shape: Vec<((String, String), Vec<u64>)> = groups
            .into_iter()
            .map(|(k, items)| (k, items.iter().map(|e| e.id).collect()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (("a".into(), "t1".into()), vec![0, 2, 6]),
                (("b".into(), "t1".into()), vec![1, 4]),
                (("c".into(), "t2".into()), vec![3]),
                (("a".into(), "t2".into()), vec![5]),
            ]
        );
    }

    #[test]
    fn same_shape_gemm_batches_fuse_into_fewer_tape_dispatches() {
        // Deterministically forcing a multi-request batch through the
        // scheduler is racy (the dispatcher drains as fast as it can),
        // so plug the single per-target worker with an expensive cold
        // conv compile while a burst of same-shape GEMMs piles up, and
        // retry a few times if the race still loses.
        for attempt in 0..10 {
            let engine = Arc::new(ServeEngine::new(fast_tuning()));
            let sched = Scheduler::start(
                Arc::clone(&engine),
                SchedulerConfig {
                    queue_capacity: 64,
                    max_batch: 8,
                },
            );
            let mut rxs = Vec::new();
            let (_, plug) = sched
                .submit(ServeRequest {
                    model: "m".to_string(),
                    target: "x86-avx512-vnni".to_string(),
                    op: OpSpec::conv2d(8, 6, 8, 3, 1, 1),
                    seed: 0,
                })
                .unwrap();
            for seed in 0..8 {
                let (_, rx) = sched
                    .submit(ServeRequest {
                        model: "m".to_string(),
                        target: "x86-avx512-vnni".to_string(),
                        op: OpSpec::gemm(16, 16, 16),
                        seed,
                    })
                    .unwrap();
                rxs.push(rx);
            }
            assert!(plug.recv().expect("plug completes").result.is_ok());
            for rx in rxs {
                assert!(rx.recv().expect("gemm completes").result.is_ok());
            }
            sched.shutdown();
            if engine.metrics().tape_fused_requests() > 0 {
                // Fused dispatches serve multiple requests each: fewer
                // tape executions than requests.
                assert!(engine.metrics().tape_dispatches() < engine.metrics().completed());
                return;
            }
            assert!(attempt < 9, "no batch ever fused across 10 attempts");
        }
    }

    #[test]
    fn idle_scheduler_does_not_spin() {
        // The no-busy-spin proxy: every pass through the dispatcher's
        // outer loop bumps `dispatcher_wakes` exactly once. If the
        // drain loop ever spun on an empty queue, an idle scheduler
        // would rack up wakes with no requests; parked in `recv`, it
        // must record none at all while idle — and exactly one wake for
        // a single request (the burst may split across 1..=N windows,
        // but never exceed the request count).
        let engine = Arc::new(ServeEngine::new(fast_tuning()));
        let sched = Scheduler::start(Arc::clone(&engine), SchedulerConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(120));
        assert_eq!(
            engine.metrics().dispatcher_wakes(),
            0,
            "an idle dispatcher must stay parked in recv"
        );
        let (_, rx) = sched
            .submit(ServeRequest {
                model: "m".to_string(),
                target: "x86-avx512-vnni".to_string(),
                op: OpSpec::gemm(8, 8, 8),
                seed: 1,
            })
            .unwrap();
        assert!(rx.recv().unwrap().result.is_ok());
        std::thread::sleep(std::time::Duration::from_millis(120));
        assert_eq!(
            engine.metrics().dispatcher_wakes(),
            1,
            "one request is one wake; going back to idle adds none"
        );
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let engine = Arc::new(ServeEngine::new(fast_tuning()));
        let sched = Scheduler::start(Arc::clone(&engine), SchedulerConfig::default());
        let mut rxs = Vec::new();
        for seed in 0..16 {
            let (_, rx) = sched
                .submit(ServeRequest {
                    model: "m".to_string(),
                    target: "arm-neon-dot".to_string(),
                    op: OpSpec::gemm(8, 16, 32),
                    seed,
                })
                .unwrap();
            rxs.push(rx);
        }
        sched.shutdown();
        for rx in rxs {
            let resp = rx.recv().expect("drained before shutdown completed");
            assert!(resp.result.is_ok());
        }
    }
}
