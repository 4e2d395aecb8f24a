//! The serving engine: per-target compiled-kernel caches, the artifact
//! replay path, and request execution through `unit-interp`.
//!
//! The engine keeps one state per served target (so traffic for one
//! target never contends on another's locks), holding three sharded
//! caches:
//!
//! * a *latency* cache (`unit_graph::compile::KernelCache`) shared with
//!   the graph compiler for whole-model reports,
//! * an *executable* cache mapping the same [`KernelCacheKey`]s to one
//!   kernel slot each: the [`CompiledOp`] requests execute, the tier
//!   that compiled it and its instruction tape, and
//! * a *fused-batch* cache of the same slots for N same-shape GEMMs
//!   served as one batched GEMM.
//!
//! Compilation consults the [`ArtifactStore`] first: a hit **replays**
//! the persisted search-free config (`CpuTuneMode::Fixed` at the
//! searched winner / `GpuTuneMode::Generic`), rebuilding the identical
//! kernel with zero tuner searches; a miss compiles cold under the
//! engine's tuning config and records the decision back into the store,
//! so `export_artifacts` always reflects everything the engine learned.
//!
//! # Tiered cold starts
//!
//! With [`ServeEngine::with_tiered_cold_start`], a cold miss compiles at
//! the capped **cold tier** (`TuningConfig::at_tier(TuneTier::Cold)` —
//! a 2-candidate CPU search / the generic GPU schedule) so the first
//! response returns quickly, then a [`crate::retune`] job re-runs the
//! tuner at the full tier in the background and **hot-swaps** the
//! upgraded kernel in: the artifact entry and the exec-cache slot
//! (kernel, tier and tape) are replaced together under the engine's swap
//! lock, and the upgrade is journaled so peer replicas swap too. Outputs
//! are bit-identical across tiers (schedules never change results); only
//! latency and the reported tier/note change.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use unit_core::pipeline::{StageTimings, Target, TuningConfig};
use unit_core::tuner::TuneTier;
use unit_graph::compile::{compile_model_with_artifacts, e2e_latency, KernelCache, UnitProvider};
use unit_graph::{
    build_plan, CacheWorkload, CompiledOp, E2eReport, Graph, KernelCacheKey, OpSpec, PlanSource,
    ShardedCache,
};
use unit_interp::{alloc_buffers, random_fill, run, Tape};
use unit_isa::{registry, TypedBuf};
use unit_tir::EpiGeom;

use crate::artifact::{ArtifactEntry, ArtifactError, ArtifactStore};
use crate::journal::{Journal, JournalRecord};
use crate::lock_recovering;
use crate::metrics::{Metric, ServeMetrics};
use crate::model::{self, Compact};
use crate::retune::{RetuneJob, RetuneQueue};
use crate::trace::{TraceCollector, TraceHandle};

/// Errors surfaced by the engine (and through scheduler responses).
#[derive(Debug)]
pub enum ServeError {
    /// The request names a target id the engine does not serve.
    UnknownTarget(String),
    /// The model id cannot be used as an artifact namespace (it contains
    /// `|` or a newline, which the store's line format reserves).
    InvalidModelId(String),
    /// The interpreter failed executing the compiled kernel.
    Exec(unit_interp::ExecError),
    /// Whole-model serving failed at the plan level: an unknown model
    /// name, a graph the plan builder cannot lower, or a step whose
    /// operand shapes do not adapt.
    Plan(String),
    /// Compilation or execution panicked; the scheduler contains the
    /// panic to the offending request instead of losing the worker.
    Panicked(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTarget(id) => write!(f, "unknown target id `{id}`"),
            ServeError::InvalidModelId(id) => {
                write!(f, "model id {id:?} may not contain `|` or newlines")
            }
            ServeError::Exec(e) => write!(f, "execution failed: {e:?}"),
            ServeError::Plan(msg) => write!(f, "model plan failed: {msg}"),
            ServeError::Panicked(msg) => write!(f, "{msg}"),
        }
    }
}

/// Whether an id is usable as an artifact-store namespace (the store's
/// line format reserves `|` and newlines, and its parser rejects empty
/// ids; `ArtifactStore::record` would panic on them — the engine rejects
/// such ids *before* touching the store, so a hostile request can
/// neither poison the artifacts mutex nor make the exported file
/// unloadable).
fn valid_artifact_id(id: &str) -> bool {
    !id.is_empty() && !id.contains('|') && !id.contains('\n')
}

impl std::error::Error for ServeError {}

/// Which executor serves requests.
///
/// The compiled instruction tape ([`unit_interp::Tape`]) is the default:
/// each kernel is lowered once, on its first dispatch, and replayed from
/// its cache slot. The statement-tree interpreter remains available as
/// the *differential oracle* ([`ServeEngine::with_exec_mode`]), and both
/// executors are bit-identical by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Compiled instruction tape (the serving fast path).
    #[default]
    Tape,
    /// Statement-tree interpreter (the differential oracle).
    Interp,
}

/// One executed request's result.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The kernel's output buffer (bit-exact, comparable against
    /// `unit_interp::run_reference`).
    pub output: TypedBuf,
    /// Modeled kernel latency in microseconds.
    pub micros: f64,
    /// Provider note (chosen schedule / fallback reason).
    pub note: String,
    /// Whether a tensorized instruction was applied.
    pub tensorized: bool,
    /// Which tuning tier compiled the kernel that served this request
    /// (`Cold` until the background re-tune hot-swaps the full-tier
    /// kernel in; always `Full` on non-tiered engines).
    pub tier: TuneTier,
}

/// One whole-model execution's result
/// ([`ServeEngine::execute_model`]).
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// The model's final activation (the plan output step's logical
    /// tensor), bit-exact and target-comparable across executors and
    /// serving modes.
    pub output: Compact,
    /// Summed modeled kernel latency across the plan's steps, in
    /// microseconds.
    pub micros: f64,
    /// How many kernel dispatches served the forward pass.
    pub steps: usize,
    /// How many epilogue ops executed inside kernel dispatches
    /// (0 when served unfused).
    pub fused_epilogue_ops: usize,
}

/// One cache slot: a compiled kernel, the tier that compiled it and its
/// instruction tape, behind one `Arc` so a hot swap replaces all three
/// with a single insert.
struct Kernel {
    op: CompiledOp,
    /// Kept beside — not inside — `CompiledOp`: the tier is a serving
    /// concept the graph-compiler layer has no business knowing.
    tier: TuneTier,
    /// Lowered on the kernel's first tape dispatch, or by a hot swap
    /// before it takes the swap lock.
    tape: OnceLock<Tape>,
}

impl Kernel {
    fn new(op: CompiledOp, tier: TuneTier) -> Arc<Kernel> {
        Arc::new(Kernel {
            op,
            tier,
            tape: OnceLock::new(),
        })
    }

    /// A hot swap's replacement, its tape lowered before the swap so no
    /// request compiles it. A tape that fails to lower here is retried,
    /// and its error returned, on the first dispatch.
    fn for_swap(op: CompiledOp, tier: TuneTier) -> Arc<Kernel> {
        let kernel = Kernel::new(op, tier);
        let _ = kernel.lower_tape();
        kernel
    }

    /// The artifact entry recording this kernel for an engine tuned at
    /// `tuning`.
    fn entry(&self, tuning: TuningConfig) -> ArtifactEntry {
        ArtifactEntry {
            workload: self.op.workload,
            tuning,
            replay: self.op.replay,
            micros: self.op.micros,
            note: self.op.note.clone(),
            tier: self.tier,
        }
    }

    /// One request's outcome, served by this kernel.
    fn outcome(&self, output: TypedBuf) -> ExecOutcome {
        ExecOutcome {
            output,
            micros: self.op.micros,
            note: self.op.note.clone(),
            tensorized: self.op.tensorized,
            tier: self.tier,
        }
    }

    /// Lower the tape and install it unless another thread installed one
    /// first; returns whether this call installed it.
    fn lower_tape(&self) -> Result<bool, ServeError> {
        let tape = Tape::compile(&self.op.func).map_err(ServeError::Exec)?;
        Ok(self.tape.set(tape).is_ok())
    }

    /// The kernel's tape, lowered on first use under a `tape_compile`
    /// span on `trace`.
    fn tape(
        &self,
        metrics: &ServeMetrics,
        trace: Option<&TraceHandle>,
    ) -> Result<&Tape, ServeError> {
        if let Some(tape) = self.tape.get() {
            return Ok(tape);
        }
        let span = trace.map(|t| t.start("tape_compile"));
        if self.lower_tape()? {
            metrics.add(Metric::TapeCompiles, 1);
        }
        let tape = self.tape.get().expect("lower_tape installs a tape");
        if let Some(span) = span {
            let stats = tape.stats();
            span.finish(format!(
                "func={} ops={} intrin_sites={} elided_guards={} epilogue_ops={} \
                 parallel_loops={}",
                self.op.func.name,
                stats.ops,
                stats.intrin_sites,
                stats.elided_guards,
                stats.epilogue_ops,
                stats.parallel_loops
            ));
        }
        Ok(tape)
    }
}

/// Everything the engine keeps for one served target.
struct TargetState {
    target: Target,
    latency: Arc<KernelCache>,
    /// Served kernels, keyed like `latency`.
    exec: ShardedCache<KernelCacheKey, Arc<Kernel>>,
    /// Batch-fused kernels (e.g. N same-shape GEMMs as one batched
    /// GEMM), compiled search-free from a served kernel's replay config.
    /// Kept out of `exec` and the artifacts: fused shapes are an
    /// execution detail, never a served workload.
    fused: ShardedCache<KernelCacheKey, Arc<Kernel>>,
}

/// The serving engine. Thread-safe: `&self` methods may be called from
/// any number of scheduler workers concurrently.
pub struct ServeEngine {
    tuning: TuningConfig,
    /// `tuning` capped to the cold tier (`at_tier(TuneTier::Cold)`);
    /// what tiered cold misses compile under.
    cold_tuning: TuningConfig,
    /// Whether cold misses serve at the cold tier + background re-tune.
    tiered: bool,
    exec_mode: ExecMode,
    targets: BTreeMap<String, TargetState>,
    artifacts: Mutex<ArtifactStore>,
    /// The fleet-shared artifact journal, when attached: each call's
    /// decisions are appended, as one `JournalBatch`, for other
    /// replicas to tail, and [`ServeEngine::sync_journal`] imports
    /// theirs.
    journal: Mutex<Option<Arc<Journal>>>,
    /// The hot-swap lock. Held across every sequence that must observe
    /// a kernel slot and its artifact entry **coherently**: the hit
    /// path's read-tier-record, a re-tune's read-compare-swap, and a
    /// tailed peer upgrade. Never held across tuner searches or journal
    /// I/O.
    swap: Mutex<()>,
    /// Pending background re-tune jobs (tiered engines only).
    retunes: RetuneQueue,
    metrics: Arc<ServeMetrics>,
    /// Request-scoped tracing (disabled by default: one relaxed load
    /// per entry point; every span hook is behind `Option`).
    tracer: TraceCollector,
}

impl ServeEngine {
    /// An engine serving **every registered target** (built-ins plus
    /// runtime registrations) under one tuning config.
    #[must_use]
    pub fn new(tuning: TuningConfig) -> ServeEngine {
        let ids: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
        let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        ServeEngine::for_targets(tuning, &id_refs).expect("registry targets resolve")
    }

    /// An engine serving a subset of registered targets.
    ///
    /// # Errors
    ///
    /// The first id that is not in the target registry.
    pub fn for_targets(tuning: TuningConfig, ids: &[&str]) -> Result<ServeEngine, ServeError> {
        let mut targets = BTreeMap::new();
        for id in ids {
            let target =
                Target::by_id(id).ok_or_else(|| ServeError::UnknownTarget((*id).to_string()))?;
            let state = TargetState {
                target,
                latency: Arc::default(),
                exec: ShardedCache::default(),
                fused: ShardedCache::default(),
            };
            targets.insert((*id).to_string(), state);
        }
        Ok(ServeEngine {
            tuning,
            cold_tuning: tuning.at_tier(TuneTier::Cold),
            tiered: false,
            exec_mode: ExecMode::default(),
            targets,
            artifacts: Mutex::new(ArtifactStore::new()),
            journal: Mutex::new(None),
            swap: Mutex::new(()),
            retunes: RetuneQueue::default(),
            metrics: Arc::new(ServeMetrics::new()),
            tracer: TraceCollector::new(),
        })
    }

    /// Enable request tracing from construction (equivalent to setting
    /// `UNIT_SERVE_TRACE=1`, or `engine.tracer().set_enabled(true)` at
    /// runtime).
    #[must_use]
    pub fn with_tracing(self) -> ServeEngine {
        self.tracer.set_enabled(true);
        self
    }

    /// The engine's trace collector (shared with the scheduler and the
    /// HTTP front-end).
    #[must_use]
    pub fn tracer(&self) -> &TraceCollector {
        &self.tracer
    }

    /// Finish `handle` into the trace ring and account it in metrics.
    pub(crate) fn finish_trace(&self, handle: &TraceHandle) {
        let dropped = self.tracer.finish(handle);
        self.metrics.record_trace(dropped);
    }

    /// Run `f` on a trace of the engine's own (when tracing is on) and
    /// finish it. In-process callers are traced this way; the scheduler
    /// and the HTTP front-end pass each request's handle instead.
    fn with_own_trace<R>(&self, label: String, f: impl FnOnce(Option<&TraceHandle>) -> R) -> R {
        let own = self.tracer.begin(label);
        let result = f(own.as_ref());
        if let Some(handle) = own {
            self.finish_trace(&handle);
        }
        result
    }

    /// Serve cold misses at the capped cold tier and re-tune in the
    /// background: the first response for a novel workload compiles a
    /// cheap 2-candidate kernel, a [`RetuneJob`] is queued, and a later
    /// [`ServeEngine::run_pending_retunes`] (or a
    /// [`crate::retune::RetuneWorker`]) hot-swaps the full-tier kernel
    /// in without a serving stall. Off by default — non-tiered engines
    /// behave exactly as before this knob existed.
    #[must_use]
    pub fn with_tiered_cold_start(mut self) -> ServeEngine {
        self.tiered = true;
        self
    }

    /// Serve through `mode` instead of the default compiled tape
    /// ([`ExecMode::Interp`] is the differential oracle).
    #[must_use]
    pub fn with_exec_mode(mut self, mode: ExecMode) -> ServeEngine {
        self.exec_mode = mode;
        self
    }

    /// The active execution path.
    #[must_use]
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// The engine's metrics registry (shared with the scheduler).
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The tuning config cold compiles run under.
    #[must_use]
    pub fn tuning(&self) -> TuningConfig {
        self.tuning
    }

    /// Whether tiered cold-start serving is enabled.
    #[must_use]
    pub fn tiered(&self) -> bool {
        self.tiered
    }

    /// The tuning config tiered cold misses compile under (the full
    /// config capped by [`TuningConfig::at_tier`]).
    #[must_use]
    pub fn cold_tuning(&self) -> TuningConfig {
        self.cold_tuning
    }

    /// Served target ids, in canonical order.
    #[must_use]
    pub fn target_ids(&self) -> Vec<String> {
        self.targets.keys().cloned().collect()
    }

    /// Whether the engine serves `target`.
    #[must_use]
    pub fn serves(&self, target: &str) -> bool {
        self.targets.contains_key(target)
    }

    /// Reject a request for a target the engine does not serve, or whose
    /// model id cannot name an artifact namespace.
    fn admit(&self, model: &str, target_id: &str) -> Result<(), ServeError> {
        if !self.serves(target_id) {
            return Err(ServeError::UnknownTarget(target_id.to_string()));
        }
        if !valid_artifact_id(model) {
            return Err(ServeError::InvalidModelId(model.to_string()));
        }
        Ok(())
    }

    /// Import a persisted artifact store: merge its entries and restore
    /// every `(model, target)` block this engine serves into the
    /// per-target latency caches. Returns the number of restored cache
    /// entries.
    pub fn import_artifacts(&self, store: ArtifactStore) -> usize {
        let mut restored = 0;
        for (model, target) in store.model_targets() {
            if let Some(state) = self.targets.get(&target) {
                restored += store.restore_latency_cache(&model, &target, &state.latency);
            }
        }
        lock_recovering(&self.artifacts).merge(store);
        restored
    }

    /// Export a snapshot of everything the engine has learned (loaded
    /// artifacts plus every cold compile since), ready to
    /// [`ArtifactStore::save`].
    #[must_use]
    pub fn export_artifacts(&self) -> ArtifactStore {
        lock_recovering(&self.artifacts).clone()
    }

    /// Attach a fleet-shared [`Journal`]: import its current snapshot
    /// (exactly like [`ServeEngine::import_artifacts`] — a replica
    /// attaching to a journal other replicas already populated
    /// warm-starts search-free), then keep it attached so every decision
    /// this engine makes is appended for the rest of the fleet, and
    /// [`ServeEngine::sync_journal`] can tail theirs.
    /// Returns the number of restored latency-cache entries.
    ///
    /// Durability: each engine call ([`ServeEngine::compile_model`],
    /// [`ServeEngine::execute`], [`ServeEngine::execute_model`],
    /// [`ServeEngine::execute_gemm_batch`], one background re-tune)
    /// appends its decisions as one batch, with one write and one
    /// `fsync`, so a decision is durable before the call that made it
    /// returns. A crash mid-call loses only that call's decisions, which
    /// the next compile searches again; a batch torn by a crash keeps
    /// every record whose line is complete. A failed append costs
    /// durability, not availability: the call still succeeds and
    /// `journal_errors` counts the decisions it could not persist.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] when the journal cannot be read.
    pub fn attach_journal(&self, journal: Arc<Journal>) -> Result<usize, ArtifactError> {
        let store = journal.snapshot()?;
        let restored = self.import_artifacts(store);
        *lock_recovering(&self.journal) = Some(journal);
        Ok(restored)
    }

    /// Tail the attached journal: import every record other replicas
    /// appended since the last snapshot/sync. `put` records absorb into
    /// the artifact store (higher tier wins; a peer's stale cold record
    /// never downgrades a local full-tier entry) and restore the latency
    /// cache; a `put` that **upgrades the tier of a kernel this engine
    /// is actively serving** — a peer's re-tune — is hot-swapped into
    /// the exec cache search-free, exactly like a local re-tune.
    /// `retire` records drop the target's entries from the store.
    /// Returns the number of records applied (0 when no journal is
    /// attached).
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] when the journal cannot be read.
    pub fn sync_journal(&self) -> Result<usize, ArtifactError> {
        let Some(journal) = lock_recovering(&self.journal).clone() else {
            return Ok(0);
        };
        let records = journal.poll()?;
        let applied = records.len();
        for record in records {
            match record {
                JournalRecord::Put {
                    model,
                    target,
                    entry,
                } => self.apply_peer_put(&model, &target, *entry),
                JournalRecord::Retire { target } => {
                    lock_recovering(&self.artifacts).retire_target(&target);
                }
            }
        }
        self.metrics
            .add(Metric::JournalTailedRecords, applied as u64);
        Ok(applied)
    }

    /// Apply one tailed `put` record. When it upgrades a kernel this
    /// engine serves from its exec cache, rebuild the full-tier kernel
    /// from the record's **replay config** (search-free — the peer
    /// already paid the search) and swap it in under the swap lock.
    fn apply_peer_put(&self, model: &str, target: &str, entry: ArtifactEntry) {
        let key = KernelCacheKey::new(entry.workload, target, entry.tuning);
        let state = self.targets.get(target);
        // The rebuild runs outside the swap lock: search-free is not
        // free, and the serving hit path must not stall behind it.
        let rebuilt = state
            .filter(|s| s.exec.get(&key).is_some_and(|k| k.tier < entry.tier))
            .map(|s| Kernel::for_swap(self.replay(&s.target, &entry), entry.tier));
        let _swap = lock_recovering(&self.swap);
        if !lock_recovering(&self.artifacts).absorb(model, target, entry.clone()) {
            return;
        }
        let Some(state) = state else {
            return;
        };
        state
            .latency
            .insert(key.clone(), (entry.micros, entry.note.clone()));
        let Some(kernel) = rebuilt else {
            return;
        };
        // Re-check under the lock: a local re-tune may have swapped
        // first while we were rebuilding.
        if state.exec.get(&key).is_none_or(|k| k.tier >= entry.tier) {
            return;
        }
        state.exec.insert(key, kernel);
        self.metrics.add(Metric::RetuneSwaps, 1);
    }

    /// Compile a whole model for a target: every unique tensor workload
    /// plus the dense classifier go through the artifact-aware compile
    /// path, then the latency report is aggregated from the warm cache
    /// (bit-identical to `unit_graph::compile::compile_graph`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTarget`] when the engine does not serve
    /// `target_id`.
    pub fn compile_model(&self, graph: &Graph, target_id: &str) -> Result<E2eReport, ServeError> {
        self.admit(&graph.name, target_id)?;
        let state = &self.targets[target_id];
        let mut journal = JournalBatch::new(self);
        let mut workloads: Vec<CacheWorkload> = unit_graph::unique_workloads(&[graph])
            .into_iter()
            .map(CacheWorkload::Op)
            .collect();
        workloads.extend(
            graph
                .dense_workloads()
                .into_iter()
                .map(|(in_features, units)| CacheWorkload::Dense { in_features, units }),
        );
        for workload in workloads {
            // The report path only needs latencies: a workload already in
            // the latency cache (restored from artifacts, or compiled
            // earlier) is left alone — its *executable* kernel is built
            // lazily by the first request that needs it, via the
            // search-free replay path. This is what makes a warm model
            // compile invoke the tuner exactly zero times.
            let key = KernelCacheKey::new(workload, target_id, self.tuning);
            if state.latency.get(&key).is_some() {
                let recorded = lock_recovering(&self.artifacts)
                    .lookup(&graph.name, target_id, &workload, self.tuning)
                    .is_some();
                // Cached (another model compiled it first) but absent
                // from *this* model's artifact namespace: record it from
                // the executable cache if possible so the exported store
                // replays for this model too — otherwise fall through to
                // the full compile path.
                if recorded
                    || self
                        .record_cached(&graph.name, target_id, &key, &mut journal)
                        .is_some()
                {
                    continue;
                }
            }
            self.ensure_compiled(&graph.name, target_id, workload, None, &mut journal);
        }
        Ok(compile_model_with_artifacts(
            graph,
            state.target.clone(),
            self.tuning,
            &state.latency,
            1, // tuner workers: the engine compiles on one thread
        ))
    }

    /// Execute one request: compile (cache / artifact replay / cold),
    /// then interpret the kernel over buffers deterministically seeded
    /// with `seed`. The outcome is a pure function of
    /// `(op, target, tuning, seed)` — independent of batching, worker
    /// interleaving and warm/cold history (the soak suite asserts this
    /// against `run_reference`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTarget`] for unserved targets,
    /// [`ServeError::Exec`] when interpretation fails.
    pub fn execute(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seed: u64,
    ) -> Result<ExecOutcome, ServeError> {
        self.with_own_trace(
            format!("execute model={model} target={target_id}"),
            |trace| self.execute_traced(model, target_id, op, seed, trace),
        )
    }

    /// [`ServeEngine::execute`] with an explicit trace handle: spans for
    /// cache lookup, compile stages and the dispatch (with its execution
    /// profile) are recorded onto `trace` when present.
    pub(crate) fn execute_traced(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seed: u64,
        trace: Option<&TraceHandle>,
    ) -> Result<ExecOutcome, ServeError> {
        self.admit(model, target_id)?;
        self.metrics.record_request_pair(model, target_id);
        let mut journal = JournalBatch::new(self);
        let kernel =
            self.ensure_compiled(model, target_id, CacheWorkload::Op(op), trace, &mut journal);
        let mut bufs = alloc_buffers(&kernel.op.func);
        random_fill(&mut bufs, seed);
        self.dispatch(
            &kernel,
            &mut bufs,
            1,
            &kernel.op.func.name,
            trace.as_slice(),
        )?;
        Ok(kernel.outcome(bufs.swap_remove(kernel.op.output)))
    }

    /// Run `kernel` once over `bufs` in the engine's [`ExecMode`],
    /// serving `requests` stacked requests, with a `tape_dispatch` or
    /// `interp_dispatch` span on every one of `traces`. On the tape, the
    /// dispatch and its execution profile are accounted in metrics and
    /// the span carries the run-time counters, the compile-time
    /// `elided_guards` contrast and the threads a parallel region split
    /// across (`threads=1`: the dispatch ran serially).
    fn dispatch(
        &self,
        kernel: &Kernel,
        bufs: &mut [TypedBuf],
        requests: usize,
        label: &str,
        traces: &[&TraceHandle],
    ) -> Result<(), ServeError> {
        match self.exec_mode {
            ExecMode::Tape => {
                let tape = kernel.tape(&self.metrics, traces.first().copied())?;
                let spans: Vec<_> = traces.iter().map(|t| t.start("tape_dispatch")).collect();
                let mut scratch = tape.scratch();
                tape.run(bufs, &mut scratch).map_err(ServeError::Exec)?;
                let prof = scratch.profile();
                self.metrics.record_tape_dispatch(requests);
                self.metrics.record_tape_profile(
                    prof.ops_retired,
                    prof.guards_executed,
                    prof.intrin_dispatches,
                );
                for span in spans {
                    span.finish(format!(
                        "func={label} requests={requests} ops_retired={} guards_executed={} \
                         intrin_dispatches={} elided_guards={} threads={}",
                        prof.ops_retired,
                        prof.guards_executed,
                        prof.intrin_dispatches,
                        tape.stats().elided_guards,
                        scratch.threads()
                    ));
                }
            }
            ExecMode::Interp => {
                let spans: Vec<_> = traces.iter().map(|t| t.start("interp_dispatch")).collect();
                run(&kernel.op.func, bufs).map_err(ServeError::Exec)?;
                for span in spans {
                    span.finish(format!("func={label}"));
                }
            }
        }
        Ok(())
    }

    /// Execute a whole model graph as **one served artifact**: build its
    /// fused [`unit_graph::ModelPlan`], then run every step as a single
    /// kernel dispatch with the step's epilogue chain (bias, residual
    /// add, ReLU, requantize, softmax, layernorm) executing *inside* the
    /// compiled tape — zero reference-interpreter passes on the serve
    /// path. With `fused = false` the same plan runs unfused (plain GEMM
    /// kernels plus the compact-domain reference epilogue) as the
    /// differential baseline; both modes are bit-identical per target.
    ///
    /// Model parameters are implicit (deterministic in
    /// `(model, step, role)`; see [`crate::model`]); the request `seed`
    /// only picks the input tokens. The outcome is a pure function of
    /// `(graph, target, tuning, seed, fused)`.
    ///
    /// Fused and unfused kernels can never collide in any cache:
    /// fused steps are keyed as [`CacheWorkload::Fused`], whose encoding
    /// carries the epilogue chain.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTarget`] / [`ServeError::InvalidModelId`] as
    /// [`ServeEngine::execute`]; [`ServeError::Plan`] when the graph
    /// does not lower to a fused plan or a step's operands do not adapt;
    /// [`ServeError::Exec`] when kernel execution fails.
    pub fn execute_model(
        &self,
        graph: &Graph,
        target_id: &str,
        seed: u64,
        fused: bool,
    ) -> Result<ModelOutcome, ServeError> {
        let label = format!(
            "execute_model model={} target={target_id} fused={fused}",
            graph.name
        );
        self.with_own_trace(label, |trace| {
            self.execute_model_traced(graph, target_id, seed, fused, trace)
        })
    }

    /// [`ServeEngine::execute_model`] with an explicit trace handle: one
    /// dispatch span and one epilogue span per plan step, plus compile
    /// spans for any step compiled along the way.
    pub(crate) fn execute_model_traced(
        &self,
        graph: &Graph,
        target_id: &str,
        seed: u64,
        fused: bool,
        trace: Option<&TraceHandle>,
    ) -> Result<ModelOutcome, ServeError> {
        self.admit(&graph.name, target_id)?;
        let plan = build_plan(graph).map_err(ServeError::Plan)?;
        self.metrics.record_request_pair(&graph.name, target_id);
        let (rows, cols) = model::plan_input_dims(graph).map_err(ServeError::Plan)?;
        let tokens = model::input_tokens(seed, rows, cols);
        let mut journal = JournalBatch::new(self);
        let mut outputs: Vec<Compact> = Vec::with_capacity(plan.steps.len());
        let mut micros = 0.0;
        for step in &plan.steps {
            let OpSpec::Gemm { m, n, k, batch } = step.op else {
                return Err(ServeError::Plan(format!(
                    "step `{}` is not a GEMM; only GEMM plans serve",
                    step.name
                )));
            };
            let src = match step.data {
                PlanSource::Input => &tokens,
                PlanSource::Step(s) => &outputs[s],
            };
            let data = model::gather_data(src, batch, m, k).map_err(ServeError::Plan)?;
            let weight = match step.weight {
                None => model::implicit_weight(&graph.name, &step.name, batch, n, k),
                Some(src) => {
                    let src = match src {
                        PlanSource::Input => &tokens,
                        PlanSource::Step(s) => &outputs[s],
                    };
                    model::weight_from_activation(src, batch, n, k, step.weight_rows_are_n)
                        .map_err(ServeError::Plan)?
                }
            };
            let workload = if fused {
                CacheWorkload::Fused {
                    op: step.op,
                    epi: step.epi,
                }
            } else {
                CacheWorkload::Op(step.op)
            };
            let kernel =
                self.ensure_compiled(&graph.name, target_id, workload, trace, &mut journal);
            let func = &kernel.op.func;
            let mut bufs = alloc_buffers(func);
            model::scatter_operands(func, &data, &weight, &mut bufs).map_err(ServeError::Plan)?;
            let bias = model::implicit_bias(&graph.name, &step.name, n);
            let residuals =
                model::resolve_residuals(step, &tokens, &outputs).map_err(ServeError::Plan)?;
            if fused {
                model::fill_epilogue_operands(func, &bias, &residuals, &mut bufs)
                    .map_err(ServeError::Plan)?;
            }
            self.dispatch(&kernel, &mut bufs, 1, &step.name, trace.as_slice())?;
            let epi_span = trace.map(|t| t.start("epilogue"));
            let out_shape = &func.buffers[kernel.op.output].shape;
            let geom = EpiGeom::for_output(batch, m, n, out_shape).ok_or_else(|| {
                ServeError::Plan(format!(
                    "step `{}` output shape {out_shape:?} has no [{batch}, {m}, {n}] geometry",
                    step.name
                ))
            })?;
            let mut out = model::gather_output(&bufs[kernel.op.output], geom);
            if !fused {
                model::apply_epilogue_reference(&mut out, &step.epi, &bias, &residuals)
                    .map_err(ServeError::Plan)?;
            }
            if let Some(span) = epi_span {
                span.finish(format!(
                    "step={} fused={fused} epi_ops={}",
                    step.name,
                    step.epi.len()
                ));
            }
            micros += kernel.op.micros;
            outputs.push(out);
        }
        let output = outputs.swap_remove(plan.output);
        Ok(ModelOutcome {
            output,
            micros,
            steps: plan.steps.len(),
            fused_epilogue_ops: if fused { plan.fused_epilogue_ops() } else { 0 },
        })
    }

    /// Execute a run of same-shape GEMM requests (one model/target/op,
    /// per-request seeds) as **one fused batched-GEMM tape execution**:
    /// the N requests stack along the GEMM's existing batch axis (the
    /// outermost dimension of every GEMM tensor layout), the fused kernel
    /// is compiled *search-free* from the served kernel's replay config,
    /// and per-request outputs are sliced back out of the fused output's
    /// leading axis. Outcomes are bit-identical to N separate
    /// [`ServeEngine::execute`] calls — fusion is a dispatch-count
    /// optimization, never observable in the outputs.
    ///
    /// Falls back to per-request execution when fusion does not apply
    /// (single request, non-GEMM op, interpreter mode, or a fused
    /// lowering whose buffers are not exact leading-axis stacks).
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::execute`].
    pub fn execute_gemm_batch(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seeds: &[u64],
    ) -> Result<Vec<ExecOutcome>, ServeError> {
        self.execute_gemm_batch_traced(model, target_id, op, seeds, &[])
    }

    /// [`ServeEngine::execute_gemm_batch`] with one optional trace handle
    /// per request (`traces` may be shorter than `seeds`; missing entries
    /// trace nothing). A fused dispatch records a `tape_dispatch` span on
    /// every present trace — the requests genuinely share the execution.
    pub(crate) fn execute_gemm_batch_traced(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seeds: &[u64],
        traces: &[Option<TraceHandle>],
    ) -> Result<Vec<ExecOutcome>, ServeError> {
        // Only two or more GEMMs on the tape fuse; the interpreter oracle
        // executes item by item, exactly as unbatched.
        let fuses = self.exec_mode == ExecMode::Tape && seeds.len() > 1;
        let (true, OpSpec::Gemm { m, n, k, batch }) = (fuses, op) else {
            return self.execute_each(model, target_id, op, seeds, traces);
        };
        self.admit(model, target_id)?;
        let fused_spec = OpSpec::Gemm {
            m,
            n,
            k,
            batch: batch * seeds.len() as i64,
        };
        // Compile spans land on the first traced request in the run: the
        // compile happens once for the whole fused dispatch.
        let traced: Vec<&TraceHandle> = traces.iter().flatten().collect();
        let first = traced.first().copied();
        let mut journal = JournalBatch::new(self);
        let kernel =
            self.ensure_compiled(model, target_id, CacheWorkload::Op(op), first, &mut journal);
        let Some(fused) = self.fused_kernel(target_id, &kernel, fused_spec, seeds.len(), first)
        else {
            return self.execute_each(model, target_id, op, seeds, traces);
        };

        // Fill the fused buffers with each request's exact input stream:
        // `random_fill(_, seed)` is a pure function of the per-request
        // buffer shapes, and every fused buffer is the per-request buffer
        // stacked N times along its leading axis.
        let mut fused_bufs = alloc_buffers(&fused.op.func);
        for (j, &seed) in seeds.iter().enumerate() {
            let mut per_bufs = alloc_buffers(&kernel.op.func);
            random_fill(&mut per_bufs, seed);
            for (fb, pb) in fused_bufs.iter_mut().zip(&per_bufs) {
                let stride = pb.len();
                for i in 0..stride {
                    fb.set(j * stride + i, pb.get(i));
                }
            }
        }
        self.dispatch(
            &fused,
            &mut fused_bufs,
            seeds.len(),
            &fused.op.func.name,
            &traced,
        )?;
        for _ in seeds {
            self.metrics.record_request_pair(model, target_id);
        }

        let out = &fused_bufs[fused.op.output];
        let per_len = kernel.op.func.buffers[kernel.op.output].len();
        let mut outcomes = Vec::with_capacity(seeds.len());
        for j in 0..seeds.len() {
            let mut output = TypedBuf::zeros(out.dtype, per_len);
            for i in 0..per_len {
                output.set(i, out.get(j * per_len + i));
            }
            outcomes.push(kernel.outcome(output));
        }
        Ok(outcomes)
    }

    /// The fusion fallback: N independent executions, each on its own
    /// trace when the caller supplied one (otherwise [`Self::execute`]
    /// begins per-request traces itself, exactly as before fusion).
    fn execute_each(
        &self,
        model: &str,
        target_id: &str,
        op: OpSpec,
        seeds: &[u64],
        traces: &[Option<TraceHandle>],
    ) -> Result<Vec<ExecOutcome>, ServeError> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| match traces.get(i).and_then(Option::as_ref) {
                Some(trace) => self.execute_traced(model, target_id, op, seed, Some(trace)),
                None => self.execute(model, target_id, op, seed),
            })
            .collect()
    }

    /// Compile (or fetch) the fused-batch kernel for `spec`, then prove
    /// what fusion relies on: every fused buffer must be exactly the
    /// per-request buffer repeated `n` times along its leading axis, with
    /// matching dtypes and buffer/output indices, and the fused kernel
    /// must lower to a tape. Returns `None` (caller falls back to
    /// per-request execution) when either fails.
    fn fused_kernel(
        &self,
        target_id: &str,
        per: &Kernel,
        spec: OpSpec,
        n: usize,
        trace: Option<&TraceHandle>,
    ) -> Option<Arc<Kernel>> {
        let state = &self.targets[target_id];
        let key = KernelCacheKey::new(CacheWorkload::Op(spec), target_id, per.op.replay);
        // Search-free: replay the served kernel's persisted config on the
        // fused shape. No tuner search, no artifact entry — a warm engine
        // stays at zero searches through fusion.
        let fused = state.fused.get_or_insert_with(key.clone(), || {
            Kernel::new(
                self.compile(&state.target, per.op.replay, &key.spec),
                per.tier,
            )
        });
        let (fb, pb) = (&fused.op.func.buffers, &per.op.func.buffers);
        let stacks = fb.len() == pb.len()
            && fused.op.output == per.op.output
            && fb
                .iter()
                .zip(pb)
                .all(|(f, p)| f.dtype == p.dtype && f.len() == p.len() * n);
        (stacks && fused.tape(&self.metrics, trace).is_ok()).then_some(fused)
    }

    /// Compile `workload` for `target` at `config`.
    fn compile(
        &self,
        target: &Target,
        config: TuningConfig,
        workload: &CacheWorkload,
    ) -> CompiledOp {
        UnitProvider::new(target.clone(), config).compile_workload_full(workload)
    }

    /// Rebuild `entry`'s kernel search-free from its replay config. The
    /// persisted micros/note are authoritative (the replayed estimate
    /// would differ on GPU targets, where `Generic` re-profiles a
    /// different config).
    fn replay(&self, target: &Target, entry: &ArtifactEntry) -> CompiledOp {
        let mut op = self.compile(target, entry.replay, &entry.workload);
        op.micros = entry.micros;
        op.note = entry.note.clone();
        op.replay = entry.replay;
        op
    }

    /// The artifact-aware compile path. Returns the served kernel for
    /// `(workload, target, engine tuning)` from (in order): the
    /// per-target executable cache, artifact replay, or a cold compile —
    /// at the cold tier on tiered engines — which records its decision
    /// into the artifact store and `journal`. Spans: `cache_lookup` on
    /// every call, then `artifact_replay` or `cold_compile` plus
    /// back-dated per-stage spans (inspect → tune → lower) on misses.
    fn ensure_compiled(
        &self,
        model: &str,
        target_id: &str,
        workload: CacheWorkload,
        trace: Option<&TraceHandle>,
        journal: &mut JournalBatch<'_>,
    ) -> Arc<Kernel> {
        let state = &self.targets[target_id];
        let key = KernelCacheKey::new(workload, target_id, self.tuning);
        let lookup = trace.map(|t| t.start("cache_lookup"));
        if let Some(kernel) = self.record_cached(model, target_id, &key, journal) {
            if let Some(span) = lookup {
                span.finish(format!("kernel_cache=hit tier={:?}", kernel.tier));
            }
            self.metrics.add(Metric::KernelHits, 1);
            return kernel;
        }
        self.metrics.add(Metric::KernelMisses, 1);

        let entry = lock_recovering(&self.artifacts)
            .lookup(model, target_id, &workload, self.tuning)
            .cloned();
        if let Some(span) = lookup {
            span.finish(format!(
                "kernel_cache=miss artifact={}",
                if entry.is_some() { "hit" } else { "miss" }
            ));
        }
        let kernel = match entry {
            Some(entry) => {
                self.metrics.add(Metric::ArtifactHits, 1);
                let span = trace.map(|t| t.start("artifact_replay"));
                let op = self.replay(&state.target, &entry);
                if let Some(t) = trace {
                    record_stage_spans(t, op.stages, "path=artifact_replay");
                }
                if let Some(span) = span {
                    span.finish(format!("tier={:?} note={}", entry.tier, op.note));
                }
                // A replayed cold-tier decision serves cheaply but still
                // owes its full-tier upgrade (queued below).
                Kernel::new(op, entry.tier)
            }
            None => {
                self.metrics.add(Metric::ArtifactMisses, 1);
                let (effective, tier) = self.cold_compile_config();
                let span = trace.map(|t| t.start("cold_compile"));
                let started = Instant::now();
                let op = self.compile(&state.target, effective, &workload);
                if let Some(t) = trace {
                    record_stage_spans(t, op.stages, "path=cold_compile");
                }
                if let Some(span) = span {
                    span.finish(format!("tier={tier:?} note={}", op.note));
                }
                // A search only actually ran when the workload tensorized
                // (fallback kernels never reach the tuner), keeping this
                // metric aligned with the ground-truth counters in
                // `unit_core::tuner::stats`.
                if op.tensorized && effective.searches(&state.target.desc.style) {
                    self.metrics.add(Metric::TunerSearches, 1);
                }
                self.metrics.record_cold_start(tier, started.elapsed());
                let kernel = Kernel::new(op, tier);
                self.persist_entry(model, target_id, kernel.entry(self.tuning), journal);
                kernel
            }
        };
        if kernel.tier == TuneTier::Cold {
            self.enqueue_retune(model, target_id, workload);
        }
        // A fused kernel was (re)built for this engine: account its
        // in-dispatch epilogue ops — the per-op interpreter passes the
        // fusion eliminated from the serve path.
        if let CacheWorkload::Fused { epi, .. } = workload {
            if !epi.is_empty() {
                self.metrics.record_epilogue_fusion(epi.len());
            }
        }
        // Keep the latency cache coherent so whole-model reports agree
        // with what requests were served (first-insert-wins on races).
        state
            .latency
            .get_or_insert_with(key.clone(), || (kernel.op.micros, kernel.op.note.clone()));
        let _swap = lock_recovering(&self.swap);
        // Losing the insert race (possibly to a concurrent hot-swap)
        // serves the winner's slot, tier included.
        state.exec.get_or_insert_with(key, || kernel)
    }

    /// Record the exec-cached kernel under `key` into `model`'s artifact
    /// namespace and return it (`None` when nothing is cached). The
    /// executable cache is keyed per (workload, target), not per model —
    /// a second model sharing a workload with an earlier one rides the
    /// same kernel. Its *artifact* entry must still be recorded, or a
    /// warm start serving only this model would re-search.
    ///
    /// The swap lock covers the whole read-tier-record sequence. Without
    /// it, a background hot-swap landing between the exec-cache read and
    /// the artifact record let this thread write the stale cold-tier
    /// entry (with the cold replay config) into a namespace the swap had
    /// already upgraded — a lost update that resurrected the cheap kernel
    /// on the next warm start.
    fn record_cached(
        &self,
        model: &str,
        target_id: &str,
        key: &KernelCacheKey,
        journal: &mut JournalBatch<'_>,
    ) -> Option<Arc<Kernel>> {
        let kernel = {
            let _swap = lock_recovering(&self.swap);
            let kernel = self.targets[target_id].exec.get(key)?;
            self.persist_entry(model, target_id, kernel.entry(self.tuning), journal);
            kernel
        };
        if kernel.tier == TuneTier::Cold {
            self.enqueue_retune(model, target_id, key.spec);
        }
        Some(kernel)
    }

    /// The tuning config and tier a cold compile runs at. Tiered
    /// engines compile at the capped cold tier *only when it actually
    /// differs* from the full config — `at_tier` on an already-cheap
    /// config is the identity, and labelling those compiles `Cold`
    /// would queue re-tunes that cannot improve anything.
    fn cold_compile_config(&self) -> (TuningConfig, TuneTier) {
        if self.tiered && self.cold_tuning != self.tuning {
            (self.cold_tuning, TuneTier::Cold)
        } else {
            (self.tuning, TuneTier::Full)
        }
    }

    /// Absorb `entry` into the store (insert if absent, upgrade if
    /// strictly higher tier) and queue newly learned decisions on the
    /// calling engine call's `journal` batch.
    fn persist_entry(
        &self,
        model: &str,
        target_id: &str,
        entry: ArtifactEntry,
        journal: &mut JournalBatch<'_>,
    ) {
        if lock_recovering(&self.artifacts).absorb(model, target_id, entry.clone()) {
            journal.put(model, target_id, entry);
        }
    }

    /// Queue a background re-tune for `workload` (tiered engines only;
    /// deduplicated per `(target, workload)` and bounded).
    fn enqueue_retune(&self, model: &str, target_id: &str, workload: CacheWorkload) {
        if !self.tiered {
            return;
        }
        let job = RetuneJob {
            model: model.to_string(),
            target: target_id.to_string(),
            workload,
            enqueued: Instant::now(),
        };
        if self.retunes.push(job) {
            self.metrics.add(Metric::RetuneQueued, 1);
        }
    }

    /// Pending background re-tune jobs.
    #[must_use]
    pub fn pending_retunes(&self) -> usize {
        self.retunes.len()
    }

    /// Synchronously drain the re-tune queue, hottest `(model, target)`
    /// pair first. Returns the number of hot swaps performed (a job
    /// whose kernel was already full-tier completes without swapping).
    /// [`crate::retune::RetuneWorker`] calls this in a loop; tests and
    /// single-threaded demos call it directly for determinism.
    pub fn run_pending_retunes(&self) -> usize {
        let mut swaps = 0;
        while let Some(job) = self
            .retunes
            .pop_max_by(|j| self.metrics.hot_pair_requests(&j.model, &j.target))
        {
            if self.retune(&job) {
                swaps += 1;
            }
        }
        swaps
    }

    /// Park until re-tune work arrives or `timeout` elapses.
    pub(crate) fn wait_for_retune_work(&self, timeout: Duration) {
        self.retunes.wait_for_work(timeout);
    }

    /// Run one re-tune job on a trace of its own: the request that
    /// queued the job finished long ago, so its timeline cannot carry
    /// the background upgrade. Returns whether a swap happened.
    fn retune(&self, job: &RetuneJob) -> bool {
        let label = format!("retune target={} workload={:?}", job.target, job.workload);
        self.with_own_trace(label, |trace| {
            if let Some(t) = trace {
                let wait = u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
                t.record_ending_now("retune_queue_wait", wait, "");
            }
            self.retune_traced(job, trace)
        })
    }

    /// Re-run the tuner at the **full** tier (outside every lock — the
    /// search is the expensive part), then atomically swap the upgraded
    /// kernel in under the swap lock: artifact entries (every model
    /// namespace sharing the identity), the exec-cache slot and the
    /// latency entry move together, so no request can observe a
    /// full-tier artifact with a cold-tier kernel or vice versa.
    /// Journals the upgrade for peer replicas, in one batch per job.
    fn retune_traced(&self, job: &RetuneJob, trace: Option<&TraceHandle>) -> bool {
        let mut journal = JournalBatch::new(self);
        let Some(state) = self.targets.get(&job.target) else {
            self.metrics.add(Metric::RetuneCompleted, 1);
            return false;
        };
        let op = self.compile(&state.target, self.tuning, &job.workload);
        if let Some(t) = trace {
            record_stage_spans(t, op.stages, "path=retune_full_tier");
        }
        if op.tensorized && self.tuning.searches(&state.target.desc.style) {
            self.metrics.add(Metric::TunerSearches, 1);
        }
        let kernel = Kernel::for_swap(op, TuneTier::Full);
        let entry = kernel.entry(self.tuning);
        let key = KernelCacheKey::new(job.workload, &job.target, self.tuning);
        let swap_span = trace.map(|t| t.start("hot_swap"));
        let upgraded: Vec<String> = {
            let _swap = lock_recovering(&self.swap);
            let mut artifacts = lock_recovering(&self.artifacts);
            // Every model namespace holding this identity below full
            // tier upgrades together — the kernel is shared.
            let models: Vec<String> = artifacts
                .model_targets()
                .into_iter()
                .filter(|(m, t)| {
                    t == &job.target
                        && artifacts
                            .lookup(m, t, &job.workload, self.tuning)
                            .is_some_and(|e| e.tier < TuneTier::Full)
                })
                .map(|(m, _)| m)
                .collect();
            if !models.is_empty() {
                for model in &models {
                    artifacts.record(model, &job.target, entry.clone());
                    journal.put(model, &job.target, entry.clone());
                }
                drop(artifacts);
                state
                    .latency
                    .insert(key.clone(), (entry.micros, entry.note.clone()));
                state.exec.insert(key, kernel);
            }
            models
        };
        if let Some(span) = swap_span {
            span.finish(format!("upgraded_namespaces={}", upgraded.len()));
        }
        self.metrics.add(Metric::RetuneCompleted, 1);
        if upgraded.is_empty() {
            return false;
        }
        self.metrics.add(Metric::RetuneSwaps, 1);
        true
    }
}

/// One engine call's journal batch. Each decision the call makes is
/// absorbed into the artifact store at once, under the engine's locks;
/// its `put` record waits here, and dropping the batch appends them all
/// to the attached journal with one write and one `fsync`. Every public
/// call owns one, so a decision is durable before the call that made it
/// returns — by value, by `?` or by unwinding — and no journal I/O ever
/// runs under an engine lock.
struct JournalBatch<'e> {
    engine: &'e ServeEngine,
    records: Vec<JournalRecord>,
}

impl<'e> JournalBatch<'e> {
    fn new(engine: &'e ServeEngine) -> JournalBatch<'e> {
        JournalBatch {
            engine,
            records: Vec::new(),
        }
    }

    /// Queue a `put` record for a decision just absorbed into the store.
    fn put(&mut self, model: &str, target_id: &str, entry: ArtifactEntry) {
        self.records.push(JournalRecord::Put {
            model: model.to_string(),
            target: target_id.to_string(),
            entry: Box::new(entry),
        });
    }
}

impl Drop for JournalBatch<'_> {
    /// Append the batch to the attached journal, if any. Serving must
    /// survive journal I/O failures (a full disk costs durability, not
    /// availability): both counters count decisions, and the errors are
    /// visible in `/metrics`. Cannot panic: every record's ids passed
    /// `ArtifactStore::record`, which enforces `Journal::append`'s id
    /// contract.
    fn drop(&mut self) {
        if self.records.is_empty() {
            return;
        }
        let Some(journal) = lock_recovering(&self.engine.journal).clone() else {
            return;
        };
        let metrics = &self.engine.metrics;
        let decisions = self.records.len() as u64;
        match journal.append(&self.records) {
            Ok(compacted) => {
                metrics.add(Metric::JournalAppends, decisions);
                if compacted {
                    metrics.add(Metric::JournalCompactions, 1);
                }
            }
            Err(_) => metrics.add(Metric::JournalErrors, decisions),
        }
    }
}

/// Back-date compile-stage spans (inspect → tune → lower) onto `trace`
/// from the kernel's measured [`StageTimings`], anchored so the last
/// stage ends now — stages are measured inside the compile pipeline,
/// which knows nothing about tracing. `lower` is zero-width on CPU
/// kernels (lowering happens inside the tuner's measured candidates).
fn record_stage_spans(trace: &TraceHandle, stages: StageTimings, detail: &str) {
    let end = trace.now_us();
    let lower_start = end.saturating_sub(stages.lower_us);
    let tune_start = lower_start.saturating_sub(stages.tune_us);
    let inspect_start = tune_start.saturating_sub(stages.inspect_us);
    trace.record("inspect", inspect_start, tune_start, detail);
    trace.record("tune", tune_start, lower_start, detail);
    trace.record("lower", lower_start, end, detail);
}

impl fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeEngine")
            .field("targets", &self.target_ids())
            .field("artifact_entries", &lock_recovering(&self.artifacts).len())
            .finish_non_exhaustive()
    }
}

/// Reference report for tests: the plain serial graph compiler, which
/// the engine's artifact-aware reports must match bit-for-bit.
#[must_use]
pub fn reference_report(graph: &Graph, target: Target, tuning: TuningConfig) -> E2eReport {
    let provider = UnitProvider::new(target, tuning);
    e2e_latency(graph, &provider)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_interp::{alloc_op_buffers, run_reference};

    #[test]
    fn execute_matches_reference_and_hits_cache_on_repeat() {
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::gemm(16, 16, 32);
        let out1 = engine.execute("t", "x86-avx512-vnni", op, 7).unwrap();
        let out2 = engine.execute("t", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(out1.output, out2.output, "same seed, same bits");
        assert!(out1.tensorized);
        // Reference: lower through the same dispatch and run the DSL
        // semantics directly.
        let (ref_op, _) = unit_graph::layout::op_for_target(
            &op,
            &registry::target_by_id("x86-avx512-vnni").unwrap(),
        );
        let mut bufs = alloc_op_buffers(&ref_op);
        random_fill(&mut bufs, 7);
        run_reference(&ref_op, &mut bufs).unwrap();
        assert_eq!(out1.output, bufs[ref_op.output.0 as usize]);
        // Second call hit the executable cache.
        let rendered = engine.metrics().render();
        assert!(rendered.contains("kernel_cache_hits 1"), "{rendered}");
        assert!(rendered.contains("kernel_cache_misses 1"), "{rendered}");
    }

    #[test]
    fn unknown_target_is_a_typed_error() {
        let engine = ServeEngine::new(TuningConfig::default());
        let err = engine
            .execute("t", "riscv-vector", OpSpec::gemm(8, 8, 8), 1)
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownTarget(id) if id == "riscv-vector"));
    }

    #[test]
    fn invalid_model_ids_are_rejected_without_poisoning_the_engine() {
        // Regression: ids containing the artifact format's reserved
        // characters used to panic inside ArtifactStore::record *while
        // holding the artifacts mutex*, poisoning it and failing every
        // later cold compile and export.
        let engine = ServeEngine::new(TuningConfig::default());
        for bad in ["a|b", "a\nb", ""] {
            let err = engine
                .execute(bad, "x86-avx512-vnni", OpSpec::gemm(8, 8, 8), 1)
                .unwrap_err();
            assert!(matches!(err, ServeError::InvalidModelId(_)), "{bad:?}");
        }
        let mut graph = unit_graph::models::transformer_tiny();
        graph.name = "bad|name".to_string();
        assert!(matches!(
            engine.compile_model(&graph, "x86-avx512-vnni"),
            Err(ServeError::InvalidModelId(_))
        ));
        // The engine is still fully functional afterwards, and the
        // exported store round-trips (an empty id would have rendered a
        // file the parser rejects wholesale).
        assert!(engine
            .execute("good", "x86-avx512-vnni", OpSpec::gemm(8, 8, 8), 1)
            .is_ok());
        let store = engine.export_artifacts();
        assert!(!store.is_empty());
        crate::ArtifactStore::decode(&store.encode()).expect("exported store stays loadable");
    }

    #[test]
    fn poisoned_artifacts_mutex_does_not_wedge_the_engine() {
        // Regression: every `artifacts.lock().unwrap()` used to panic
        // forever once any thread panicked while holding the mutex — one
        // poisoned client request turned the whole engine read-only.
        // `lock_recovering` takes the data back instead.
        let engine = Arc::new(ServeEngine::new(TuningConfig::default()));
        let op = OpSpec::gemm(16, 16, 32);
        engine.execute("before", "x86-avx512-vnni", op, 1).unwrap();

        // Poison both engine mutexes the way a panicking request thread
        // would: panic while holding the guard.
        for _ in 0..2 {
            let poisoner = Arc::clone(&engine);
            let result = std::thread::spawn(move || {
                let _swap = poisoner.swap.lock().unwrap();
                let _artifacts = poisoner.artifacts.lock().unwrap();
                let _journal = poisoner.journal.lock().unwrap();
                panic!("simulated client panic while holding engine locks");
            })
            .join();
            assert!(result.is_err(), "the poisoning thread must panic");
        }
        assert!(engine.artifacts.lock().is_err(), "mutex really is poisoned");

        // Subsequent requests — cache hits, cold compiles, whole-model
        // compiles and exports — all still succeed.
        let hit = engine.execute("before", "x86-avx512-vnni", op, 1).unwrap();
        assert!(!hit.output.is_empty());
        engine
            .execute("after", "arm-neon-dot", OpSpec::gemm(8, 8, 8), 2)
            .unwrap();
        engine
            .compile_model(&unit_graph::models::transformer_tiny(), "x86-avx512-vnni")
            .unwrap();
        let store = engine.export_artifacts();
        assert!(store
            .lookup(
                "after",
                "arm-neon-dot",
                &CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
                engine.tuning()
            )
            .is_some());
        assert_eq!(engine.sync_journal().unwrap(), 0, "no journal attached");
    }

    #[test]
    fn shared_workloads_are_recorded_under_every_requesting_model() {
        // Regression: the executable cache is keyed per (workload,
        // target) — without explicit recording, the second model's
        // cache-hit path skipped the artifact store entirely, so a warm
        // start serving only that model would re-search.
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::gemm(16, 16, 32);
        let workload = CacheWorkload::Op(op);
        engine.execute("model-a", "x86-avx512-vnni", op, 1).unwrap();
        engine.execute("model-b", "x86-avx512-vnni", op, 2).unwrap();
        let store = engine.export_artifacts();
        for model in ["model-a", "model-b"] {
            let entry = store
                .lookup(model, "x86-avx512-vnni", &workload, engine.tuning())
                .unwrap_or_else(|| panic!("{model} must have an artifact entry"));
            assert!(entry.micros > 0.0);
        }
        // Both entries describe the identical kernel.
        let a = store.lookup("model-a", "x86-avx512-vnni", &workload, engine.tuning());
        let b = store.lookup("model-b", "x86-avx512-vnni", &workload, engine.tuning());
        assert_eq!(a, b);
    }

    #[test]
    fn compile_model_records_shared_workloads_under_each_model() {
        // Regression: the latency-cache-hit skip path in compile_model
        // used to bypass artifact recording entirely, so a second model
        // sharing workloads with the first was never persisted and
        // re-searched on warm start.
        use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
        let engine = ServeEngine::new(TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 2 },
            gpu: GpuTuneMode::Tuned,
        });
        let a = unit_graph::models::transformer_tiny();
        let mut b = unit_graph::models::transformer_tiny();
        b.name = "transformer-clone".to_string();
        engine.compile_model(&a, "x86-avx512-vnni").unwrap();
        engine.compile_model(&b, "x86-avx512-vnni").unwrap();
        let store = engine.export_artifacts();
        let a_entries = store.entries(&a.name, "x86-avx512-vnni");
        let b_entries = store.entries(&b.name, "x86-avx512-vnni");
        assert!(!a_entries.is_empty());
        assert_eq!(
            a_entries.len(),
            b_entries.len(),
            "the clone must be fully persisted under its own namespace"
        );
    }

    #[test]
    fn tape_is_the_default_path_and_matches_the_interpreter_oracle() {
        let tape_engine = ServeEngine::new(TuningConfig::default());
        assert_eq!(tape_engine.exec_mode(), ExecMode::Tape);
        let oracle = ServeEngine::new(TuningConfig::default()).with_exec_mode(ExecMode::Interp);
        let op = OpSpec::gemm(16, 16, 32);
        for seed in 0..3 {
            let t = tape_engine.execute("t", "arm-neon-dot", op, seed).unwrap();
            let i = oracle.execute("t", "arm-neon-dot", op, seed).unwrap();
            assert_eq!(
                t.output, i.output,
                "tape diverged from oracle at seed {seed}"
            );
        }
        // The tape was compiled once and dispatched per request; the
        // oracle engine never touched the tape counters.
        assert_eq!(tape_engine.metrics().tape_compiles(), 1);
        assert_eq!(tape_engine.metrics().tape_dispatches(), 3);
        assert_eq!(oracle.metrics().tape_dispatches(), 0);
    }

    #[test]
    fn fused_gemm_batch_is_one_dispatch_with_bit_identical_outputs() {
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::batched_gemm(2, 8, 16, 16);
        let seeds = [1u64, 2, 3, 4];
        let expected: Vec<TypedBuf> = seeds
            .iter()
            .map(|&s| {
                engine
                    .execute("m", "x86-avx512-vnni", op, s)
                    .unwrap()
                    .output
            })
            .collect();
        let before = engine.metrics().tape_dispatches();
        let fused = engine
            .execute_gemm_batch("m", "x86-avx512-vnni", op, &seeds)
            .unwrap();
        assert_eq!(fused.len(), seeds.len());
        for (j, (got, want)) in fused.iter().zip(&expected).enumerate() {
            assert_eq!(got.output, *want, "fused output {j} diverged");
        }
        // Four requests, ONE tape dispatch.
        assert_eq!(engine.metrics().tape_dispatches(), before + 1);
        assert_eq!(engine.metrics().tape_fused_requests(), seeds.len() as u64);
        // And no tuner search was spent on the fused shape.
        let searches = engine.metrics().tuner_searches();
        engine
            .execute_gemm_batch("m", "x86-avx512-vnni", op, &seeds)
            .unwrap();
        assert_eq!(engine.metrics().tuner_searches(), searches);
    }

    #[test]
    fn gemm_batch_falls_back_per_request_when_fusion_does_not_apply() {
        let engine = ServeEngine::new(TuningConfig::default());
        // Single request: no fusion.
        let one = engine
            .execute_gemm_batch("m", "arm-neon-dot", OpSpec::gemm(8, 16, 16), &[7])
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(engine.metrics().tape_fused_requests(), 0);
        // Conv: no batch axis to stack on.
        let conv = OpSpec::conv2d(4, 6, 8, 3, 1, 1);
        let outs = engine
            .execute_gemm_batch("m", "arm-neon-dot", conv, &[1, 2])
            .unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(engine.metrics().tape_fused_requests(), 0);
        // Interp mode: the oracle executes item-by-item.
        let oracle = ServeEngine::new(TuningConfig::default()).with_exec_mode(ExecMode::Interp);
        let op = OpSpec::gemm(8, 16, 16);
        let fused = oracle
            .execute_gemm_batch("m", "arm-neon-dot", op, &[1, 2])
            .unwrap();
        let singles: Vec<TypedBuf> = [1u64, 2]
            .iter()
            .map(|&s| oracle.execute("m", "arm-neon-dot", op, s).unwrap().output)
            .collect();
        assert_eq!(fused[0].output, singles[0]);
        assert_eq!(fused[1].output, singles[1]);
        assert_eq!(oracle.metrics().tape_dispatches(), 0);
    }

    #[test]
    fn tiered_engine_serves_cold_then_hot_swaps_to_full() {
        use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 16 },
            gpu: GpuTuneMode::Tuned,
        };
        let engine = ServeEngine::new(tuning).with_tiered_cold_start();
        let op = OpSpec::gemm(16, 16, 32);
        let workload = CacheWorkload::Op(op);

        // Cold start: answered immediately at the cheap tier, with the
        // cold decision persisted and the upgrade queued.
        let cold = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(cold.tier, TuneTier::Cold);
        assert_eq!(engine.pending_retunes(), 1);
        let store = engine.export_artifacts();
        assert_eq!(
            store
                .lookup("m", "x86-avx512-vnni", &workload, tuning)
                .unwrap()
                .tier,
            TuneTier::Cold
        );

        // Drain the queue: exactly one hot swap.
        assert_eq!(engine.run_pending_retunes(), 1);
        assert_eq!(engine.pending_retunes(), 0);

        // Post-swap: full tier, same bits, artifact upgraded — and
        // bit-identical to a non-tiered engine that paid the full
        // search up front.
        let hot = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(hot.tier, TuneTier::Full);
        assert_eq!(hot.output, cold.output, "tiers must not change bits");
        let store = engine.export_artifacts();
        assert_eq!(
            store
                .lookup("m", "x86-avx512-vnni", &workload, tuning)
                .unwrap()
                .tier,
            TuneTier::Full
        );
        let reference = ServeEngine::new(tuning)
            .execute("m", "x86-avx512-vnni", op, 7)
            .unwrap();
        assert_eq!(reference.tier, TuneTier::Full);
        assert_eq!(hot.output, reference.output);

        let m = engine.metrics();
        assert_eq!(m.retune_queued(), 1);
        assert_eq!(m.retune_completed(), 1);
        assert_eq!(m.retune_swaps(), 1);
    }

    #[test]
    fn non_tiered_engine_stays_full_tier_and_never_queues() {
        let engine = ServeEngine::new(TuningConfig::default());
        let out = engine
            .execute("m", "x86-avx512-vnni", OpSpec::gemm(8, 8, 8), 1)
            .unwrap();
        assert_eq!(out.tier, TuneTier::Full);
        assert_eq!(engine.pending_retunes(), 0);
        assert_eq!(engine.run_pending_retunes(), 0);
        assert_eq!(engine.metrics().retune_queued(), 0);
        assert!(engine
            .export_artifacts()
            .entries("m", "x86-avx512-vnni")
            .iter()
            .all(|e| e.tier == TuneTier::Full));
    }

    #[test]
    fn hit_path_cannot_resurrect_a_swapped_out_cold_entry() {
        // Satellite regression: the hit path used to read the cached
        // kernel and record its artifact entry in two unlocked steps; a
        // hot swap landing between them re-recorded the stale cold
        // entry over the freshly upgraded one. The swap lock now covers
        // read-tier-record as one critical section, so a request thread
        // observes either (cold kernel, cold tier) or (full kernel,
        // full tier) — never a mix, and never a downgrade.
        use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 16 },
            gpu: GpuTuneMode::Tuned,
        };
        let engine = Arc::new(ServeEngine::new(tuning).with_tiered_cold_start());
        let op = OpSpec::gemm(16, 16, 32);
        let workload = CacheWorkload::Op(op);
        let cold = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(cold.tier, TuneTier::Cold);

        // One thread hammers the hit path while this thread swaps.
        let hammer = {
            let engine = Arc::clone(&engine);
            let expected = cold.output.clone();
            std::thread::spawn(move || {
                let mut tiers = Vec::new();
                for _ in 0..200 {
                    let out = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
                    assert_eq!(out.output, expected, "bits changed mid-swap");
                    tiers.push(out.tier);
                }
                tiers
            })
        };
        let mut swaps = engine.run_pending_retunes();
        let tiers = hammer.join().unwrap();
        swaps += engine.run_pending_retunes();
        assert!(swaps >= 1, "the cold kernel must have been swapped");

        // Within one request thread the observed tier is monotone: once
        // the swap is visible it cannot un-happen.
        let first_full = tiers.iter().position(|t| *t == TuneTier::Full);
        if let Some(i) = first_full {
            assert!(
                tiers[i..].iter().all(|t| *t == TuneTier::Full),
                "tier regressed after the swap: {tiers:?}"
            );
        }
        // And the artifact record ends full-tier: no stale cold entry
        // resurrected by a racing hit.
        let store = engine.export_artifacts();
        assert_eq!(
            store
                .lookup("m", "x86-avx512-vnni", &workload, tuning)
                .unwrap()
                .tier,
            TuneTier::Full
        );
        let after = engine.execute("m", "x86-avx512-vnni", op, 7).unwrap();
        assert_eq!(after.tier, TuneTier::Full);
        assert_eq!(after.output, cold.output);
    }

    #[test]
    fn dispatch_spans_and_tape_counters_agree_on_every_serve_path() {
        // Characterizes the three dispatch paths (one op, a fused
        // same-shape GEMM batch, a fused whole-model forward) in both
        // executors: the dispatch spans each trace carries, the keys of
        // every `tape_dispatch` span, and tape counters that move by
        // exactly what those spans report. A second case serves an op
        // whose CPU kernel has a parallel region on the one-op and batch
        // paths: the NEON 32³ GEMM compiles to `parallel (v10 < 32)` at
        // `max_pairs: 8`.
        use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 2 },
            gpu: GpuTuneMode::Tuned,
        };
        let parallel_tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 8 },
            gpu: GpuTuneMode::Tuned,
        };
        let cases = [
            (tuning, "x86-avx512-vnni", OpSpec::gemm(8, 16, 16), false),
            (
                parallel_tuning,
                "arm-neon-dot",
                OpSpec::gemm(32, 32, 32),
                true,
            ),
        ];
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let micro = crate::model_graph("transformer-micro").unwrap();
        let field = |detail: &str, key: &str| -> Option<u64> {
            let value = detail
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))?;
            Some(value.parse().unwrap_or(0))
        };
        let runs = [ExecMode::Tape, ExecMode::Interp]
            .into_iter()
            .flat_map(|mode| cases.map(|case| (mode, case)));
        for (mode, (tuning, target, op, parallel)) in runs {
            let engine = ServeEngine::new(tuning).with_exec_mode(mode).with_tracing();
            let counters = || {
                let m = engine.metrics();
                [
                    m.tape_dispatches(),
                    m.tape_fused_requests(),
                    m.tape_ops_retired(),
                    m.tape_intrin_dispatches(),
                ]
            };
            // Finish `traces`, count their dispatch spans, and compare the
            // counters' movement since `before` with the span fields.
            let check = |path: &str,
                         traces: &[Option<TraceHandle>],
                         before: [u64; 4],
                         dispatches: usize,
                         fused_requests: u64| {
                let mut details: Vec<Vec<String>> = Vec::new();
                let mut compiles: Vec<String> = Vec::new();
                for handle in traces.iter().flatten() {
                    engine.finish_trace(handle);
                    let spans = engine.tracer().get(handle.id()).unwrap().spans();
                    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
                    let expected = match mode {
                        ExecMode::Tape => (dispatches, 0),
                        ExecMode::Interp => (0, dispatches),
                    };
                    assert_eq!(
                        (count("tape_dispatch"), count("interp_dispatch")),
                        expected,
                        "{mode:?} {path}: dispatch spans per trace"
                    );
                    details.push(
                        spans
                            .iter()
                            .filter(|s| s.name == "tape_dispatch")
                            .map(|s| s.detail.clone())
                            .collect(),
                    );
                    compiles.extend(
                        spans
                            .iter()
                            .filter(|s| s.name == "tape_compile")
                            .map(|s| s.detail.clone()),
                    );
                }
                assert_eq!(details.len(), traces.len(), "{path}: every trace finished");
                assert!(
                    details.windows(2).all(|w| w[0] == w[1]),
                    "{mode:?} {path}: a shared dispatch reports alike on every trace"
                );
                for detail in &details[0] {
                    for key in ["func", "ops_retired", "intrin_dispatches"] {
                        assert!(field(detail, key).is_some(), "`{key}` missing: {detail}");
                    }
                }
                for detail in &details[0] {
                    assert!(field(detail, "threads") >= Some(1), "`threads`: {detail}");
                }
                if parallel && mode == ExecMode::Tape {
                    // The served kernel (and its batch fusion) must
                    // keep its region, so the case cannot go serial.
                    assert!(!compiles.is_empty(), "{path}: a traced tape compile");
                    for detail in &compiles {
                        let loops = field(detail, "parallel_loops");
                        assert!(loops > Some(0), "{path}: no parallel region: {detail}");
                    }
                    for detail in &details[0] {
                        let threads = field(detail, "threads").unwrap();
                        assert_eq!(threads > 1, cores > 1, "{path}: split: {detail}");
                    }
                }
                let sum =
                    |key: &str| -> u64 { details[0].iter().filter_map(|d| field(d, key)).sum() };
                let after = counters();
                let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
                let tape = mode == ExecMode::Tape;
                assert_eq!(
                    delta,
                    [
                        details[0].len() as u64,
                        if tape { fused_requests } else { 0 },
                        sum("ops_retired"),
                        sum("intrin_dispatches"),
                    ],
                    "{mode:?} {path}: tape counter deltas vs span fields"
                );
            };

            let traces = vec![engine.tracer().begin("op")];
            let before = counters();
            engine
                .execute_traced("m", target, op, 1, traces[0].as_ref())
                .unwrap();
            check("op", &traces, before, 1, 0);

            // Two traced requests plus one untraced, fused into one
            // dispatch on the tape.
            let traces = vec![
                engine.tracer().begin("batch"),
                engine.tracer().begin("batch"),
            ];
            let before = counters();
            let outs = engine
                .execute_gemm_batch_traced("m", target, op, &[1, 2, 3], &traces)
                .unwrap();
            assert_eq!(outs.len(), 3);
            check("batch", &traces, before, 1, 3);

            if parallel {
                continue;
            }
            let traces = vec![engine.tracer().begin("model")];
            let before = counters();
            let out = engine
                .execute_model_traced(&micro, target, 1, true, traces[0].as_ref())
                .unwrap();
            assert_eq!(out.steps, 8);
            check("model", &traces, before, 8, 0);
        }
    }

    /// A fresh journal in its own temp dir, attached to `engine`.
    fn attach_fresh_journal(engine: &ServeEngine, tag: &str) -> (std::path::PathBuf, Arc<Journal>) {
        let dir =
            std::env::temp_dir().join(format!("unit-engine-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = crate::journal::JournalConfig::at(dir.join("journal"));
        let journal = Arc::new(Journal::open(config).unwrap());
        engine.attach_journal(Arc::clone(&journal)).unwrap();
        (dir, journal)
    }

    #[test]
    fn journal_failures_cost_durability_not_availability() {
        let target = "x86-avx512-vnni";
        let graph = unit_graph::models::transformer_tiny();
        let engine = ServeEngine::new(TuningConfig::default());
        let (dir, _journal) = attach_fresh_journal(&engine, "gone");
        std::fs::remove_dir_all(&dir).unwrap();

        let report = engine.compile_model(&graph, target).unwrap();
        let reference = ServeEngine::new(TuningConfig::default())
            .compile_model(&graph, target)
            .unwrap();
        let bits = |r: &E2eReport| {
            let layers: Vec<_> = r
                .layers
                .iter()
                .map(|l| (l.name.clone(), l.micros.to_bits(), l.note.clone()))
                .collect();
            (
                r.model.clone(),
                r.provider.clone(),
                r.total_ms.to_bits(),
                layers,
            )
        };
        assert_eq!(bits(&report), bits(&reference));
        let decisions = engine.export_artifacts().entries(&graph.name, target).len() as u64;
        assert!(decisions > 1, "the compile made {decisions} decisions");
        assert_eq!(engine.metrics().journal_errors(), decisions);
        assert_eq!(engine.metrics().journal_appends(), 0);
    }

    #[test]
    fn a_cold_engine_call_is_one_journal_write() {
        let target = "x86-avx512-vnni";
        let engine = ServeEngine::new(TuningConfig::default());
        let (dir, journal) = attach_fresh_journal(&engine, "one-write");

        engine
            .compile_model(&unit_graph::models::transformer_tiny(), target)
            .unwrap();
        let compiled = engine.metrics().journal_appends();
        assert!(compiled > 1, "the compile made {compiled} decisions");
        assert_eq!(journal.writes(), 1, "one cold compile_model, one write");

        let micro = crate::model_graph("transformer-micro").unwrap();
        engine.execute_model(&micro, target, 1, true).unwrap();
        let executed = engine.metrics().journal_appends() - compiled;
        assert!(executed > 1, "the forward made {executed} decisions");
        assert_eq!(journal.writes(), 2, "one cold execute_model, one write");

        assert_eq!(
            journal.snapshot().unwrap().len() as u64,
            compiled + executed,
            "every decision reached the journal"
        );
        assert_eq!(engine.metrics().journal_errors(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_seeds_produce_different_outputs() {
        let engine = ServeEngine::new(TuningConfig::default());
        let op = OpSpec::gemm(16, 16, 32);
        let a = engine.execute("t", "arm-neon-dot", op, 1).unwrap();
        let b = engine.execute("t", "arm-neon-dot", op, 2).unwrap();
        assert_ne!(a.output, b.output);
    }
}
