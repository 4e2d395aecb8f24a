//! The graph compiler: per-layer kernel compilation and end-to-end latency
//! aggregation.
//!
//! [`ConvProvider`] abstracts "who executes the tensor workloads"
//! (convolutions, grouped convolutions and GEMMs, modeled uniformly as
//! [`OpSpec`]): UNIT itself ([`UnitProvider`]), or the simulated vendor
//! libraries in `unit-baselines`. Elementwise and pooling operators are
//! memory-bound and costed by data volume; fused operators cost nothing;
//! every launched kernel pays the provider's per-op framework overhead
//! (this is where the MXNet-vs-TVM gap of Figure 8 lives).
//!
//! Compilation itself can be parallel: [`compile_model_parallel`] and
//! [`compile_models_parallel`] deduplicate workloads and fan the unique
//! set out across worker threads into the provider's sharded kernel cache
//! (see [`crate::cache`]), producing reports bit-identical to the serial
//! path.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use unit_core::pipeline::{StageTimings, Target, Tensorizer, TuningConfig};
use unit_core::tuner::{parallel_map, CpuTuneMode, GpuTuneMode};
use unit_sim::estimate_cpu;
use unit_tir::{lower::lower, EpiGeom, LoopKind, Schedule, TirFunc};

use crate::cache::ShardedCache;
use crate::ir::{Graph, OpKind};
use crate::layout::{dense_for_target, op_for_target};
use crate::passes::fuse_elementwise;
use crate::workload::{ConvSpec, OpSpec};

/// Anything the kernel cache (and the serving runtime's artifact store)
/// can key a compiled result by: an operator-generic [`OpSpec`] workload,
/// or a dense (fully connected) layer, which lowers through
/// [`dense_for_target`] rather than [`op_for_target`] and therefore needs
/// its own identity. Covering dense here is what makes a warm start from
/// a persisted artifact store *completely* search-free — before this, the
/// dense classifier of every CNN re-tuned on each compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheWorkload {
    /// A tensor workload (conv, grouped conv, GEMM).
    Op(OpSpec),
    /// A dense layer `in_features -> units`.
    Dense {
        /// Flattened input features.
        in_features: i64,
        /// Output units.
        units: i64,
    },
    /// A tensor workload with a fused epilogue chain lowered into its
    /// tape (bias / relu / residual add / softmax / layernorm /
    /// requantize). A distinct variant, so a fused kernel can never
    /// collide with the bare core it wraps.
    Fused {
        /// The tensorized core.
        op: OpSpec,
        /// The epilogue chain fused after it.
        epi: unit_tir::EpilogueSpec,
    },
}

impl CacheWorkload {
    /// Stable text encoding for the artifact-store file format: defers to
    /// [`OpSpec::encode`] for tensor workloads, `dense:<in>:<units>` for
    /// dense layers, `fused:<epilogue>:<op>` for epilogue-fused kernels
    /// (the epilogue encoding is dot-separated, keeping the whole field
    /// colon-parseable). Change only with the store's format version.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            CacheWorkload::Op(spec) => spec.encode(),
            CacheWorkload::Dense { in_features, units } => format!("dense:{in_features}:{units}"),
            CacheWorkload::Fused { op, epi } => {
                format!("fused:{}:{}", epi.encode(), op.encode())
            }
        }
    }

    /// Parse the [`CacheWorkload::encode`] encoding.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed field.
    pub fn decode(s: &str) -> Result<CacheWorkload, String> {
        if let Some(rest) = s.strip_prefix("fused:") {
            let (epi, op) = rest
                .split_once(':')
                .ok_or_else(|| format!("workload `{s}`: fused needs epilogue:op"))?;
            let epi =
                unit_tir::EpilogueSpec::decode(epi).map_err(|e| format!("workload `{s}`: {e}"))?;
            let op = OpSpec::decode(op)?;
            return Ok(CacheWorkload::Fused { op, epi });
        }
        match s.strip_prefix("dense:") {
            Some(rest) => {
                let (a, b) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("workload `{s}`: dense needs in_features:units"))?;
                let in_features = a
                    .parse::<i64>()
                    .map_err(|e| format!("workload `{s}`: bad in_features: {e}"))?;
                let units = b
                    .parse::<i64>()
                    .map_err(|e| format!("workload `{s}`: bad units: {e}"))?;
                if in_features < 1 || units < 1 {
                    return Err(format!("workload `{s}`: dense dims must be positive"));
                }
                Ok(CacheWorkload::Dense { in_features, units })
            }
            None => OpSpec::decode(s).map(CacheWorkload::Op),
        }
    }
}

impl From<OpSpec> for CacheWorkload {
    fn from(spec: OpSpec) -> CacheWorkload {
        CacheWorkload::Op(spec)
    }
}

impl From<ConvSpec> for CacheWorkload {
    fn from(spec: ConvSpec) -> CacheWorkload {
        CacheWorkload::Op(OpSpec::from_conv(spec))
    }
}

/// The kernel-cache key: the workload, the target *id*, and the **full**
/// tuning configuration.
///
/// An earlier revision collapsed the config to a hand-rolled `u8`
/// "mode key" that mapped every `CpuTuneMode::Tuned { max_pairs }` (and
/// every `Fixed { .. }` pair) to the same value, so providers sharing a
/// cache with different search budgets poisoned each other's entries.
/// Deriving the key from the target id and the whole config makes those
/// collisions impossible — including for targets registered at runtime,
/// and for targets that happen to share a blocking convention;
/// `kernel_cache_keys_distinguish_search_budgets` and
/// `kernel_cache_keys_distinguish_targets` below are the regression
/// tests. (Two providers for the *same* target id but hand-customized
/// machine models would still collide — don't share a cache across
/// machine models.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelCacheKey {
    /// The workload (conv, grouped conv, GEMM or dense — the variant is
    /// part of the key, so a GEMM can never collide with a conv of the
    /// same MAC count, nor a dense layer with its equivalent GEMM).
    pub spec: CacheWorkload,
    /// Descriptor id of the target the kernel was compiled for.
    pub target: String,
    /// CPU tuning mode, including its search budget / fixed pair.
    pub cpu: CpuTuneMode,
    /// GPU tuning mode.
    pub gpu: GpuTuneMode,
}

impl KernelCacheKey {
    /// The key for a workload on a target under a tuning configuration.
    /// Accepts a bare `ConvSpec` / `OpSpec` too (normalized via
    /// [`OpSpec::from_conv`] / [`CacheWorkload::Op`]).
    #[must_use]
    pub fn new(
        spec: impl Into<CacheWorkload>,
        target: impl Into<String>,
        tuning: TuningConfig,
    ) -> KernelCacheKey {
        KernelCacheKey {
            spec: spec.into(),
            target: target.into(),
            cpu: tuning.cpu,
            gpu: tuning.gpu,
        }
    }
}

/// The shared kernel cache type: `(workload, target id, full config) ->
/// (latency, note)`.
pub type KernelCache = ShardedCache<KernelCacheKey, (f64, String)>;

/// Executes tensor workloads (convolutions, grouped convolutions, GEMMs)
/// and dense layers; costs everything else by volume.
///
/// The name is historical — the trait predates the operator-generic
/// [`OpSpec`] model. Vendor baselines only implement the conv and dense
/// hooks; the GEMM hook has a default that reuses their convolution cost
/// model, while [`UnitProvider`] compiles GEMMs through the real pipeline.
pub trait ConvProvider {
    /// Name shown in reports.
    fn name(&self) -> &str;

    /// Latency of one convolution in microseconds, plus a note.
    fn conv_micros(&self, spec: &ConvSpec) -> (f64, String);

    /// Latency of one (batched) GEMM in microseconds, plus a note.
    ///
    /// Default: model the GEMM as its equivalent 1x1 convolution (`m`
    /// spatial positions, `k` input / `n` output channels) through the
    /// provider's own convolution cost model, scaled to the exact MAC
    /// count and batch — vendor libraries dispatch both through the same
    /// inner-product kernels, so this keeps the baselines meaningful
    /// without per-library GEMM tables.
    fn gemm_micros(&self, m: i64, n: i64, k: i64, batch: i64) -> (f64, String) {
        let ihw = ((m as f64).sqrt().ceil() as i64).max(1);
        let spec = ConvSpec::new_2d(k, ihw, n, 1, 1, 0);
        let (us, note) = self.conv_micros(&spec);
        let scale = (batch * m) as f64 / (ihw * ihw) as f64;
        (us * scale, note)
    }

    /// Latency of any [`OpSpec`] workload: dispatches conv-family specs to
    /// [`ConvProvider::conv_micros`] and GEMMs to
    /// [`ConvProvider::gemm_micros`].
    fn op_micros(&self, spec: &OpSpec) -> (f64, String) {
        match spec {
            OpSpec::Conv(c) | OpSpec::GroupedConv { conv: c, .. } => self.conv_micros(c),
            OpSpec::Gemm { m, n, k, batch } => self.gemm_micros(*m, *n, *k, *batch),
        }
    }

    /// Latency of a dense layer in microseconds.
    fn dense_micros(&self, in_features: i64, units: i64) -> f64;

    /// Latency of a memory-bound operator moving `bytes` bytes.
    fn memory_op_micros(&self, bytes: f64) -> f64;

    /// Fixed per-launched-kernel framework overhead in microseconds.
    fn per_op_overhead_us(&self) -> f64;

    /// Whether the provider fuses `conv+bias+relu(+add)` chains.
    fn fuses_elementwise(&self) -> bool {
        true
    }
}

/// One layer's contribution to the end-to-end latency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerLatency {
    /// Node name.
    pub name: String,
    /// Latency in microseconds (framework overhead included).
    pub micros: f64,
    /// Provider note (chosen schedule, fallback reason, ...).
    pub note: String,
}

/// An end-to-end inference latency report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E2eReport {
    /// Model name.
    pub model: String,
    /// Provider name.
    pub provider: String,
    /// Per-layer latencies (launched kernels only).
    pub layers: Vec<LayerLatency>,
    /// Total latency in milliseconds.
    pub total_ms: f64,
}

impl E2eReport {
    /// Total latency in microseconds.
    #[must_use]
    pub fn total_us(&self) -> f64 {
        self.total_ms * 1e3
    }
}

/// Compute the end-to-end latency of a graph under a provider.
#[must_use]
pub fn e2e_latency(graph: &Graph, provider: &dyn ConvProvider) -> E2eReport {
    let graph = if provider.fuses_elementwise() {
        fuse_elementwise(graph)
    } else {
        graph.clone()
    };
    let shapes = graph.infer_shapes();
    let mut layers = Vec::new();
    let mut total_us = 0.0;
    for node in &graph.nodes {
        if node.fused_into_producer || matches!(node.op, OpKind::Input(_)) {
            continue;
        }
        let (us, note) = match &node.op {
            OpKind::Conv(spec) => {
                let (us, note) = provider.conv_micros(spec);
                (us, note)
            }
            OpKind::Gemm { m, n, k, batch } => provider.op_micros(&OpSpec::Gemm {
                m: *m,
                n: *n,
                k: *k,
                batch: *batch,
            }),
            OpKind::Dense { units } => {
                let in_features = shapes[node.inputs[0].0 as usize].elems();
                (provider.dense_micros(in_features, *units), String::new())
            }
            _ => {
                let in_bytes: i64 = node
                    .inputs
                    .iter()
                    .map(|i| shapes[i.0 as usize].bytes())
                    .sum();
                let out_bytes = shapes[node.id.0 as usize].bytes();
                (
                    provider.memory_op_micros((in_bytes + out_bytes) as f64),
                    String::new(),
                )
            }
        };
        let us = us + provider.per_op_overhead_us();
        total_us += us;
        layers.push(LayerLatency {
            name: node.name.clone(),
            micros: us,
            note,
        });
    }
    E2eReport {
        model: graph.name.clone(),
        provider: provider.name().to_string(),
        layers,
        total_ms: total_us / 1e3,
    }
}

/// Convenience: run a graph through the UNIT provider for a target.
#[must_use]
pub fn compile_graph(graph: &Graph, target: Target, tuning: TuningConfig) -> E2eReport {
    let provider = UnitProvider::new(target, tuning);
    e2e_latency(graph, &provider)
}

/// Deduplicated tensor workloads (convolutions *and* GEMMs) of a set of
/// graphs, in first-seen topological order (models repeat shapes heavily:
/// resnet-18 has 20 convs but only ~11 unique workloads, and a transformer
/// block reuses one projection GEMM shape four times, so deduplicating
/// before the fan-out is what keeps the parallel work list short).
#[must_use]
pub fn unique_workloads(graphs: &[&Graph]) -> Vec<OpSpec> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for g in graphs {
        for spec in g.op_workloads() {
            if seen.insert(spec) {
                out.push(spec);
            }
        }
    }
    out
}

/// Deduplicated convolution workloads only (the historical entry point;
/// the ablation figures are phrased in `ConvSpec`).
#[must_use]
pub fn unique_conv_workloads(graphs: &[&Graph]) -> Vec<ConvSpec> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for g in graphs {
        for spec in g.conv_workloads() {
            if seen.insert(spec) {
                out.push(spec);
            }
        }
    }
    out
}

/// Compile a model with its independent convolution layers fanned out
/// across `workers` threads (`0` = one per core).
///
/// Repeated workloads are deduplicated first, the unique set is compiled
/// concurrently into the provider's sharded cache, and the final latency
/// aggregation then runs serially against a fully warm cache. Because
/// per-kernel tuning is deterministic, the report is identical to
/// [`compile_graph`] at any worker count (the differential suite asserts
/// this).
#[must_use]
pub fn compile_model_parallel(
    graph: &Graph,
    target: Target,
    tuning: TuningConfig,
    workers: usize,
) -> E2eReport {
    let provider = UnitProvider::new(target, tuning);
    warm_kernel_cache(&provider, &[graph], workers);
    e2e_latency(graph, &provider)
}

/// Batch compilation: one shared provider (and sharded kernel cache)
/// across every model, with the union of unique workloads fanned out
/// across `workers` threads. Workloads shared *between* models (1x1
/// projections, stem convs, ...) are compiled once for the whole batch.
#[must_use]
pub fn compile_models_parallel(
    graphs: &[&Graph],
    target: Target,
    tuning: TuningConfig,
    workers: usize,
) -> Vec<E2eReport> {
    let provider = UnitProvider::new(target, tuning);
    warm_kernel_cache(&provider, graphs, workers);
    graphs.iter().map(|g| e2e_latency(g, &provider)).collect()
}

/// Compile a model against an externally owned (possibly pre-warmed)
/// kernel cache: the serving runtime's artifact import/export hook.
///
/// When `cache` was restored from a persisted artifact store
/// (`ShardedCache::restore`), every workload — convolutions, GEMMs *and*
/// the dense classifier — hits the cache and the tuner is never invoked;
/// the report is bit-identical to the cold [`compile_graph`] run that
/// produced the artifacts. Workloads missing from the cache (partial or
/// stale stores) are compiled normally, fanned out across `workers`
/// threads, and left in `cache` for the caller to re-export.
#[must_use]
pub fn compile_model_with_artifacts(
    graph: &Graph,
    target: Target,
    tuning: TuningConfig,
    cache: &Arc<KernelCache>,
    workers: usize,
) -> E2eReport {
    let provider = UnitProvider::new(target, tuning).with_shared_cache(Arc::clone(cache));
    warm_kernel_cache(&provider, &[graph], workers);
    e2e_latency(graph, &provider)
}

/// Fan the unique tensor workloads of `graphs` out across `workers`
/// threads, filling the provider's kernel cache.
fn warm_kernel_cache(provider: &UnitProvider, graphs: &[&Graph], workers: usize) {
    let specs = unique_workloads(graphs);
    let _ = parallel_map(&specs, workers, |_, spec| provider.op_micros(spec));
}

/// Lower an op with the conventional SIMD schedule compilers produce when
/// no tensorized instruction applies: parallel outer loop, the innermost
/// data-parallel loop vectorized *below* the reduction (keeping the
/// accumulator vector live across it), and the next loop unrolled to hide
/// the FMA latency. Shared by every CPU provider's fallback path.
#[must_use]
pub fn simd_fallback_func(op: &unit_dsl::ComputeOp) -> unit_tir::TirFunc {
    let mut s = Schedule::new(op);
    let dp: Vec<_> = s
        .leaves()
        .into_iter()
        .filter(|v| s.var(*v).class == unit_tir::IterClass::DataParallel)
        .collect();
    let reduce: Vec<_> = s
        .leaves()
        .into_iter()
        .filter(|v| s.var(*v).class == unit_tir::IterClass::Reduce)
        .collect();
    if let Some(first) = dp.first() {
        let _ = s.annotate(*first, LoopKind::Parallel);
    }
    if dp.len() > 2 {
        // Order: [parallel + serial dp..] [reduce..] [unrolled dp] [vector dp].
        let vec_leaf = dp[dp.len() - 1];
        let unroll_leaf = dp[dp.len() - 2];
        let mut order: Vec<unit_tir::VarId> = dp[..dp.len() - 2].to_vec();
        order.extend(reduce.iter().copied());
        order.push(unroll_leaf);
        order.push(vec_leaf);
        let _ = s.reorder(&order);
        let _ = s.annotate(unroll_leaf, LoopKind::Unrolled);
        let _ = s.annotate(vec_leaf, LoopKind::Vectorized);
    } else if dp.len() > 1 {
        let vec_leaf = dp[dp.len() - 1];
        let mut order: Vec<unit_tir::VarId> = dp[..dp.len() - 1].to_vec();
        order.extend(reduce.iter().copied());
        order.push(vec_leaf);
        let _ = s.reorder(&order);
        let _ = s.annotate(vec_leaf, LoopKind::Vectorized);
    }
    lower(&s, &op.name).expect("fallback lowering cannot fail")
}

/// The UNIT execution provider: every dense convolution goes through the
/// Inspector/Rewriter/Tuner pipeline; depthwise layers (rejected by the
/// Inspector) fall back to a parallel SIMD schedule.
pub struct UnitProvider {
    target: Target,
    tuning: TuningConfig,
    label: String,
    workers: usize,
    cache: Arc<KernelCache>,
}

impl UnitProvider {
    /// A provider with the given tuning effort.
    #[must_use]
    pub fn new(target: Target, tuning: TuningConfig) -> UnitProvider {
        UnitProvider {
            target,
            tuning,
            label: "UNIT".to_string(),
            workers: 1,
            cache: Arc::new(KernelCache::default()),
        }
    }

    /// Override the display label (used by ablation stages).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> UnitProvider {
        self.label = label.into();
        self
    }

    /// Evaluate tuning candidates with up to `n` threads per kernel
    /// (`0` = one per core). Deterministic — see
    /// [`Tensorizer::with_workers`].
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> UnitProvider {
        self.workers = n;
        self
    }

    /// Share a kernel cache with other providers (batch compilation).
    /// Keys carry the full tuning config, so providers with different
    /// budgets coexist without poisoning each other.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<KernelCache>) -> UnitProvider {
        self.cache = cache;
        self
    }

    /// The provider's kernel cache (shareable via
    /// [`UnitProvider::with_shared_cache`]).
    #[must_use]
    pub fn cache(&self) -> &Arc<KernelCache> {
        &self.cache
    }

    fn clock_ghz(&self) -> f64 {
        match (&self.target.cpu, &self.target.gpu) {
            (Some(c), _) => c.freq_ghz,
            (_, Some(g)) => g.freq_ghz,
            _ => 1.0,
        }
    }

    fn dram_gbps(&self) -> f64 {
        match (&self.target.cpu, &self.target.gpu) {
            (Some(c), _) => c.dram_gbps,
            (_, Some(g)) => g.dram_gbps,
            _ => 10.0,
        }
    }

    /// SIMD-fallback cost for operations the Inspector rejects
    /// (depthwise). The caller supplies the already-lowered fallback
    /// function — [`UnitProvider::compile_workload_full`] needs it for
    /// execution anyway, so it is lowered exactly once. `func` is only
    /// consulted for CPU targets (the GPU cost model works from the op
    /// directly).
    fn fallback_micros_with(
        &self,
        op: &unit_dsl::ComputeOp,
        func: Option<&TirFunc>,
    ) -> (f64, String) {
        match &self.target.cpu {
            Some(machine) => {
                let func = func.expect("CPU fallback estimation needs the lowered function");
                let est = estimate_cpu(func, machine);
                (
                    est.micros(machine.freq_ghz),
                    "SIMD fallback (no applicable instruction)".into(),
                )
            }
            None => {
                // GPU fallback: CUDA-core fp16 path, memory bound.
                let gpu = self.target.gpu.as_ref().expect("target has a machine");
                let macs = op.mac_count() as f64;
                let flops_cycles = macs / (f64::from(gpu.fp32_lanes_per_sm) * f64::from(gpu.sms));
                let bytes: f64 = op
                    .tensors
                    .iter()
                    .map(|t| (t.len() * t.dtype.bytes()) as f64)
                    .sum();
                let mem_cycles = bytes / gpu.bytes_per_cycle();
                let cycles =
                    flops_cycles.max(mem_cycles) + gpu.kernel_launch_us * gpu.freq_ghz * 1e3;
                (cycles / (gpu.freq_ghz * 1e3), "CUDA-core fallback".into())
            }
        }
    }

    /// Compile one workload through the full pipeline, bypassing the
    /// cache (the cache fill path). The lowering dispatch lives in
    /// [`op_for_target`] and is shared with the differential test
    /// matrix; depthwise workloads (rejected by the Inspector) go straight
    /// to the fallback.
    fn compile_op_uncached(&self, spec: &OpSpec) -> (f64, String) {
        let compiled = self.compile_workload_full(&CacheWorkload::Op(*spec));
        (compiled.micros, compiled.note)
    }

    /// Compile a workload through the full pipeline into an *executable*
    /// kernel, bypassing every cache: the serving runtime's compile hook.
    ///
    /// Unlike the latency-only provider paths, the returned [`CompiledOp`]
    /// keeps the lowered [`TirFunc`] (tensorized when an instruction
    /// applies, the shared SIMD fallback schedule otherwise — both
    /// interpretable by `unit-interp` and bit-identical to the reference
    /// executor) plus the *search-free replay config* that rebuilds the
    /// identical kernel, which is what the artifact store persists.
    #[must_use]
    pub fn compile_workload_full(&self, workload: &CacheWorkload) -> CompiledOp {
        let search_free = TuningConfig {
            cpu: CpuTuneMode::ParallelUnroll,
            gpu: GpuTuneMode::Generic,
        };
        match workload {
            CacheWorkload::Op(spec) => {
                let (op, hint) = op_for_target(spec, &self.target.desc);
                let compiled = if spec.is_depthwise() {
                    None
                } else {
                    Tensorizer::new(self.target.clone())
                        .with_tuning(self.tuning)
                        .with_workers(self.workers)
                        .compile_with_hint(&op, hint)
                        .ok()
                };
                match compiled {
                    Some(kernel) => {
                        let us = kernel.estimate.micros(self.clock_ghz());
                        let note = format!("{} [{}]", kernel.intrinsic.name, kernel.chosen);
                        CompiledOp {
                            workload: *workload,
                            output: op.output.0 as usize,
                            func: kernel.func,
                            micros: us,
                            note,
                            replay: kernel.replay,
                            tensorized: true,
                            stages: kernel.stages,
                        }
                    }
                    None => {
                        let func = simd_fallback_func(&op);
                        let (us, note) = self.fallback_micros_with(&op, Some(&func));
                        CompiledOp {
                            workload: *workload,
                            output: op.output.0 as usize,
                            func,
                            micros: us,
                            note,
                            replay: search_free,
                            tensorized: false,
                            stages: StageTimings::default(),
                        }
                    }
                }
            }
            CacheWorkload::Dense { in_features, units } => {
                let op = dense_for_target(*in_features, *units, &self.target.desc);
                let output = op.output.0 as usize;
                match Tensorizer::new(self.target.clone())
                    .with_tuning(self.tuning)
                    .with_workers(self.workers)
                    .compile(&op)
                {
                    // Dense notes stay empty: `e2e_latency` has always
                    // reported dense layers without a note, and the
                    // artifact round-trip must reproduce reports exactly.
                    Ok(kernel) => CompiledOp {
                        workload: *workload,
                        output,
                        micros: kernel.estimate.micros(self.clock_ghz()),
                        func: kernel.func,
                        note: String::new(),
                        replay: kernel.replay,
                        tensorized: true,
                        stages: kernel.stages,
                    },
                    Err(_) => {
                        let func = simd_fallback_func(&op);
                        let micros = if self.target.desc.is_gpu() {
                            10.0
                        } else {
                            self.fallback_micros_with(&op, Some(&func)).0
                        };
                        CompiledOp {
                            workload: *workload,
                            output,
                            func,
                            micros,
                            note: String::new(),
                            replay: search_free,
                            tensorized: false,
                            stages: StageTimings::default(),
                        }
                    }
                }
            }
            CacheWorkload::Fused { op, epi } => {
                // Compile the tensorized core, then lower the epilogue
                // region onto its output buffer. The workload identity
                // stays `Fused`, so the cache entry never collides with
                // the bare core.
                let mut compiled = self.compile_workload_full(&CacheWorkload::Op(*op));
                compiled.workload = *workload;
                if epi.is_empty() {
                    return compiled;
                }
                let out_shape = compiled.func.buffers[compiled.output].shape.clone();
                let geom = match *op {
                    OpSpec::Gemm { batch, m, n, .. } => {
                        EpiGeom::for_output(batch, m, n, &out_shape)
                    }
                    _ => None,
                };
                match geom {
                    Some(geom) => {
                        unit_tir::attach_epilogue(&mut compiled.func, epi, geom);
                        compiled.note = format!("{} +epi[{}]", compiled.note, epi.encode());
                    }
                    None => {
                        // No geometry contract for this layout: serve the
                        // bare core rather than corrupt padding cells.
                        compiled.note =
                            format!("{} [epilogue skipped: no geometry]", compiled.note);
                    }
                }
                compiled
            }
        }
    }
}

/// An executable compiled workload: what [`UnitProvider::compile_workload_full`]
/// returns and the serving runtime (`unit-serve`) executes through
/// `unit-interp` and persists (minus the function) in its artifact store.
#[derive(Debug, Clone)]
pub struct CompiledOp {
    /// The workload identity (cache/artifact key material).
    pub workload: CacheWorkload,
    /// The executable lowered function.
    pub func: TirFunc,
    /// Buffer index of the op's output within [`CompiledOp::func`]'s
    /// buffer list (allocation order of `unit_interp::alloc_buffers`).
    pub output: usize,
    /// Modeled latency in microseconds (framework overhead excluded).
    pub micros: f64,
    /// Provider note (chosen schedule or fallback reason; empty for
    /// dense layers, matching `e2e_latency` reports).
    pub note: String,
    /// Search-free tuning config that reproduces this kernel exactly.
    pub replay: TuningConfig,
    /// Whether a tensorized instruction applied (false = SIMD fallback).
    pub tensorized: bool,
    /// Per-stage compile wall time (zero for fallback paths, whose cost
    /// is not stage-structured). Observability only — never persisted.
    pub stages: StageTimings,
}

impl ConvProvider for UnitProvider {
    fn name(&self) -> &str {
        &self.label
    }

    fn conv_micros(&self, spec: &ConvSpec) -> (f64, String) {
        self.op_micros(&OpSpec::from_conv(*spec))
    }

    fn gemm_micros(&self, m: i64, n: i64, k: i64, batch: i64) -> (f64, String) {
        // Unlike the vendor default, UNIT compiles GEMMs through the real
        // Inspector/Rewriter/Tuner pipeline.
        self.op_micros(&OpSpec::batched_gemm(batch, m, n, k))
    }

    fn op_micros(&self, spec: &OpSpec) -> (f64, String) {
        let key = KernelCacheKey::new(*spec, self.target.desc.id.clone(), self.tuning);
        self.cache
            .get_or_insert_with(key, || self.compile_op_uncached(spec))
    }

    fn dense_micros(&self, in_features: i64, units: i64) -> f64 {
        // The lowering convention (row-tile GEMM vs. blocked dense) comes
        // from the descriptor's execution style, not from which target
        // this is. Dense results are cached (and artifact-persisted)
        // under their own `CacheWorkload::Dense` key, so a warm start
        // never re-tunes the classifier layer.
        let key = KernelCacheKey::new(
            CacheWorkload::Dense { in_features, units },
            self.target.desc.id.clone(),
            self.tuning,
        );
        self.cache
            .get_or_insert_with(key, || {
                let compiled =
                    self.compile_workload_full(&CacheWorkload::Dense { in_features, units });
                (compiled.micros, compiled.note)
            })
            .0
    }

    fn memory_op_micros(&self, bytes: f64) -> f64 {
        bytes / (self.dram_gbps() * 1e3)
    }

    fn per_op_overhead_us(&self) -> f64 {
        // TVM-style compiled graph runtime: a few microseconds per kernel.
        if self.target.gpu.is_some() {
            1.0 // launch latency is inside the kernel estimate
        } else {
            3.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{resnet, ResnetDepth};

    #[test]
    fn resnet18_compiles_end_to_end_on_x86() {
        let g = resnet(ResnetDepth::R18);
        let report = compile_graph(
            &g,
            Target::x86_avx512_vnni(),
            TuningConfig {
                cpu: CpuTuneMode::Tuned { max_pairs: 4 },
                gpu: GpuTuneMode::Tuned,
            },
        );
        assert!(
            report.total_ms > 0.1,
            "implausibly fast: {} ms",
            report.total_ms
        );
        assert!(
            report.total_ms < 50.0,
            "implausibly slow: {} ms",
            report.total_ms
        );
        // All 20 convs plus the dense layer appear.
        assert!(report.layers.len() > 20);
        // The hot layers are tensorized with VNNI.
        let tensorized = report
            .layers
            .iter()
            .filter(|l| l.note.contains("vpdpbusd"))
            .count();
        assert!(tensorized >= 20, "only {tensorized} layers tensorized");
    }

    #[test]
    fn kernel_cache_hits_repeated_shapes() {
        let g = resnet(ResnetDepth::R18);
        let provider = UnitProvider::new(
            Target::x86_avx512_vnni(),
            TuningConfig {
                cpu: CpuTuneMode::ParallelUnroll,
                gpu: GpuTuneMode::Generic,
            },
        );
        let r = e2e_latency(&g, &provider);
        // 20 convs but only ~11 unique shapes, plus the fc1000 dense
        // classifier (cached under its own CacheWorkload::Dense key since
        // the serving runtime landed): the cache must be much smaller
        // than the layer count.
        assert!(provider.cache().len() <= 13);
        assert_eq!(
            provider.cache().len(),
            unique_conv_workloads(&[&g]).len() + g.dense_workloads().len(),
            "every unique workload (convs + dense) is cached exactly once"
        );
        assert_eq!(g.dense_workloads().len(), 1, "resnet has one classifier");
        assert!(r.total_ms > 0.0);
    }

    #[test]
    fn kernel_cache_keys_distinguish_search_budgets() {
        // Regression: the old u8 mode_key mapped every Tuned { max_pairs }
        // (and every Fixed pair) to one value.
        let spec = ConvSpec::new_2d(64, 14, 64, 3, 1, 1);
        let gpu = GpuTuneMode::Tuned;
        let tuned = |max_pairs| {
            KernelCacheKey::new(
                spec,
                "x86-avx512-vnni",
                TuningConfig {
                    cpu: CpuTuneMode::Tuned { max_pairs },
                    gpu,
                },
            )
        };
        assert_ne!(tuned(1), tuned(16));
        let fixed = |par, unroll| {
            KernelCacheKey::new(
                spec,
                "x86-avx512-vnni",
                TuningConfig {
                    cpu: CpuTuneMode::Fixed { par, unroll },
                    gpu,
                },
            )
        };
        assert_ne!(fixed(500, 4), fixed(3000, 4));
        assert_ne!(fixed(3000, 4), fixed(3000, 8));
    }

    #[test]
    fn kernel_cache_keys_distinguish_gemm_from_conv_with_equal_macs() {
        // Regression (extends the PR-2 collision tests): a 1x1 conv over
        // 4x4 spatial positions with 16x16 channels and a 16x16x16 GEMM
        // both count 4096 MACs. The OpSpec variant is part of the key, so
        // they can never share a cache entry.
        let conv = OpSpec::conv2d(16, 4, 16, 1, 1, 0);
        let gemm = OpSpec::gemm(16, 16, 16);
        assert_eq!(conv.macs(), gemm.macs(), "the trap requires equal MACs");
        let tuning = TuningConfig::default();
        let key = |spec| KernelCacheKey::new(spec, "x86-avx512-vnni", tuning);
        assert_ne!(key(conv), key(gemm));
        // Batch is part of the GEMM identity too: a bmm with the same
        // total MACs is a different kernel.
        assert_ne!(
            key(OpSpec::batched_gemm(4, 16, 16, 4)),
            key(OpSpec::gemm(16, 16, 16))
        );
        // And grouped convs are distinct from the dense conv of the same
        // geometry (the groups live in the key explicitly).
        assert_ne!(
            key(OpSpec::grouped(16, 4, 16, 1, 1, 0, 4)),
            key(OpSpec::conv2d(16, 4, 16, 1, 1, 0))
        );
    }

    #[test]
    fn gemm_and_conv_kernels_coexist_in_one_cache() {
        // Behaviorally: one provider compiles both families; each gets its
        // own entry and its own tensorized kernel.
        let provider = UnitProvider::new(
            Target::x86_avx512_vnni(),
            TuningConfig {
                cpu: CpuTuneMode::ParallelUnroll,
                gpu: GpuTuneMode::Generic,
            },
        );
        let conv = ConvSpec::new_2d(16, 4, 16, 1, 1, 0);
        let (_, conv_note) = provider.conv_micros(&conv);
        let (_, gemm_note) = provider.gemm_micros(16, 16, 16, 1);
        assert_eq!(provider.cache().len(), 2, "one entry per workload kind");
        assert!(conv_note.contains("vpdpbusd"), "conv note: {conv_note}");
        assert!(gemm_note.contains("vpdpbusd"), "gemm note: {gemm_note}");
    }

    #[test]
    fn transformer_block_compiles_on_all_three_platforms() {
        use crate::models::{transformer_tiny, TRANSFORMER_TINY_UNIQUE_GEMMS};
        let g = transformer_tiny();
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 2 },
            gpu: GpuTuneMode::Tuned,
        };
        for (target, instr) in [
            (Target::x86_avx512_vnni(), "vpdpbusd"),
            (Target::arm_neon_dot(), "dot"),
            (Target::nvidia_tensor_core(), "wmma"),
        ] {
            let provider = UnitProvider::new(target.clone(), tuning);
            let report = e2e_latency(&g, &provider);
            assert!(report.total_ms > 0.0, "{}", provider.name());
            // Every GEMM node (8 per block) tensorizes on every platform.
            let tensorized = report
                .layers
                .iter()
                .filter(|l| l.note.contains(instr))
                .count();
            assert_eq!(
                tensorized, 8,
                "{}: {} layers tensorized with {instr}",
                target.desc.id, tensorized
            );
            // The cache holds exactly the unique GEMM workloads, all of
            // them Gemm-variant keys (cache-distinct from any conv).
            assert_eq!(provider.cache().len(), TRANSFORMER_TINY_UNIQUE_GEMMS);
        }
    }

    #[test]
    fn transformer_parallel_compilation_matches_serial() {
        use crate::models::transformer_tiny;
        let g = transformer_tiny();
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 2 },
            gpu: GpuTuneMode::Tuned,
        };
        let serial = compile_graph(&g, Target::x86_avx512_vnni(), tuning);
        let parallel = compile_model_parallel(&g, Target::x86_avx512_vnni(), tuning, 8);
        assert_eq!(serial.total_ms, parallel.total_ms);
        for (s, p) in serial.layers.iter().zip(&parallel.layers) {
            assert_eq!(s.micros, p.micros, "layer {} diverged", s.name);
            assert_eq!(s.note, p.note);
        }
    }

    #[test]
    fn kernel_cache_keys_distinguish_targets() {
        // Regression: the key must carry the target id, or cross-target
        // providers sharing a cache would serve each other's kernels.
        let spec = ConvSpec::new_2d(64, 14, 64, 3, 1, 1);
        let tuning = TuningConfig::default();
        let key = |target: &str| KernelCacheKey::new(spec, target, tuning);
        assert_ne!(key("x86-avx512-vnni"), key("arm-neon-dot"));
        assert_ne!(key("x86-avx512-vnni"), key("nvidia-tensor-core"));

        // Behaviorally: an x86 and an ARM provider sharing one cache must
        // each serve their own platform's kernel.
        let shared: Arc<KernelCache> = Arc::new(KernelCache::default());
        let x86 = UnitProvider::new(Target::x86_avx512_vnni(), tuning)
            .with_shared_cache(Arc::clone(&shared));
        let arm = UnitProvider::new(Target::arm_neon_dot(), tuning)
            .with_shared_cache(Arc::clone(&shared));
        let (_, x86_note) = x86.conv_micros(&spec);
        let (_, arm_note) = arm.conv_micros(&spec);
        assert_eq!(shared.len(), 2, "one entry per platform");
        assert!(x86_note.contains("vpdpbusd"), "x86 note: {x86_note}");
        assert!(arm_note.contains("dot"), "ARM note: {arm_note}");
    }

    // The identical-blocking twin of this regression — which must register
    // a runtime target — lives in `tests/target_cache_isolation.rs`, in
    // its own binary so the global registry mutation cannot leak here.

    #[test]
    fn shared_cache_providers_with_different_budgets_do_not_poison_each_other() {
        let spec = ConvSpec::new_2d(128, 16, 128, 3, 1, 1);
        let shared: Arc<KernelCache> = Arc::new(KernelCache::default());
        let target = Target::x86_avx512_vnni();
        let narrow = UnitProvider::new(
            target.clone(),
            TuningConfig {
                cpu: CpuTuneMode::Tuned { max_pairs: 1 },
                gpu: GpuTuneMode::Tuned,
            },
        )
        .with_shared_cache(Arc::clone(&shared));
        let wide = UnitProvider::new(
            target.clone(),
            TuningConfig {
                cpu: CpuTuneMode::Tuned { max_pairs: 16 },
                gpu: GpuTuneMode::Tuned,
            },
        )
        .with_shared_cache(Arc::clone(&shared));

        // Fill in narrow-first order, then compare against fresh providers.
        let narrow_us = narrow.conv_micros(&spec).0;
        let wide_us = wide.conv_micros(&spec).0;
        assert_eq!(shared.len(), 2, "two distinct keys for two budgets");
        let fresh_wide = UnitProvider::new(
            target.clone(),
            TuningConfig {
                cpu: CpuTuneMode::Tuned { max_pairs: 16 },
                gpu: GpuTuneMode::Tuned,
            },
        );
        assert_eq!(
            wide_us,
            fresh_wide.conv_micros(&spec).0,
            "wide provider must not inherit the narrow provider's kernel"
        );
        // The 16-pair search can only improve on the 1-pair search.
        assert!(wide_us <= narrow_us);
    }

    #[test]
    fn parallel_model_compilation_matches_serial_report() {
        let g = resnet(ResnetDepth::R18);
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 4 },
            gpu: GpuTuneMode::Tuned,
        };
        let serial = compile_graph(&g, Target::x86_avx512_vnni(), tuning);
        let parallel = compile_model_parallel(&g, Target::x86_avx512_vnni(), tuning, 8);
        assert_eq!(serial.total_ms, parallel.total_ms);
        assert_eq!(serial.layers.len(), parallel.layers.len());
        for (s, p) in serial.layers.iter().zip(&parallel.layers) {
            assert_eq!(s.micros, p.micros, "layer {} diverged", s.name);
            assert_eq!(s.note, p.note);
        }
    }

    #[test]
    fn batch_compilation_shares_kernels_across_models() {
        use crate::models::{mobilenet_v1, resnet, ResnetDepth};
        let r18 = resnet(ResnetDepth::R18);
        let mv1 = mobilenet_v1();
        let tuning = TuningConfig {
            cpu: CpuTuneMode::ParallelUnroll,
            gpu: GpuTuneMode::Generic,
        };
        let reports = compile_models_parallel(&[&r18, &mv1], Target::x86_avx512_vnni(), tuning, 4);
        assert_eq!(reports.len(), 2);
        for (report, g) in reports.iter().zip([&r18, &mv1]) {
            let solo = compile_graph(g, Target::x86_avx512_vnni(), tuning);
            assert_eq!(report.total_ms, solo.total_ms, "{} diverged", g.name);
        }
    }

    #[test]
    fn gpu_report_uses_wmma() {
        let g = resnet(ResnetDepth::R18);
        let report = compile_graph(
            &g,
            Target::nvidia_tensor_core(),
            TuningConfig {
                cpu: CpuTuneMode::ParallelUnroll,
                gpu: GpuTuneMode::Tuned,
            },
        );
        let wmma = report
            .layers
            .iter()
            .filter(|l| l.note.contains("wmma"))
            .count();
        assert!(wmma >= 20);
    }
}
