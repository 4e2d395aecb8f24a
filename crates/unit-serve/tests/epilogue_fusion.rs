//! Fused-epilogue serving differential suite (ISSUE 9 acceptance).
//!
//! The transformer-tiny quantized forward pass serves end-to-end as one
//! artifact: eight fused kernel dispatches with every epilogue op (bias,
//! residual add, ReLU, requantize, softmax, layernorm) executing inside
//! the tape dispatch. On **every registered target** the fused tape run
//! must be bit-identical to
//!
//! * the tree-walk interpreter oracle serving the same fused plan
//!   (`ExecMode::Interp`), and
//! * the unfused baseline (plain GEMM kernels + the compact-domain
//!   reference epilogue).
//!
//! A property test then fuzzes random epilogue chains — random subsets
//! of {bias, relu, add, layernorm, softmax} in random order — through
//! the fused compile path on every target, asserting tape vs tree-walk
//! bit-identity for each chain. Both executors apply the epilogue
//! through one routine, so a second property test checks the same
//! chains against an independent implementation: on serving-domain
//! operands, the fused tape's output must equal the plain kernel's
//! output after the compact reference epilogue.

use unit_core::pipeline::{Target, TuningConfig};
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::compile::UnitProvider;
use unit_graph::models::{transformer_micro, transformer_tiny};
use unit_graph::{CacheWorkload, Graph, OpSpec};
use unit_interp::{alloc_buffers, random_fill, run, Tape};
use unit_isa::registry;
use unit_serve::model::{self, Compact};
use unit_serve::{ExecMode, ServeEngine};
use unit_tir::{EpiGeom, EpiOp, EpilogueSpec, TirFunc};

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 2 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// The encoder under test plus its expected output dims. The full
/// transformer-tiny forward interprets ~1.6M MACs per pass through the
/// tree-walk oracle, which optimized builds serve in seconds but the
/// dev profile grinds at for minutes per target — so `cargo test -q`
/// runs a structurally identical reduced encoder (same 8 fused steps,
/// same epilogue chains, same 6-unique-kernel dedup; only the extents
/// shrink), and the full model runs under `cargo test --release`
/// (CI's release-tests job) and the `e2e_latency` bench.
fn serving_graph() -> (Graph, i64, i64) {
    if cfg!(debug_assertions) {
        (transformer_micro(), 8, 16)
    } else {
        (transformer_tiny(), 64, 128)
    }
}

fn target_ids() -> Vec<String> {
    let ids: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
    assert!(
        ids.len() >= 4,
        "expected the four built-in targets: {ids:?}"
    );
    ids
}

#[test]
fn transformer_serves_fused_bit_identical_to_oracle_on_every_target() {
    let (graph, rows, cols) = serving_graph();
    for id in target_ids() {
        let engine = ServeEngine::new(tuning());
        let oracle = ServeEngine::new(tuning()).with_exec_mode(ExecMode::Interp);
        assert_eq!(engine.exec_mode(), ExecMode::Tape, "tape is the default");

        let fused = engine
            .execute_model(&graph, &id, 42, true)
            .unwrap_or_else(|e| panic!("fused serve failed on {id}: {e}"));
        assert_eq!(fused.steps, 8, "{id}: one dispatch per fused step");
        assert_eq!(
            fused.fused_epilogue_ops, 17,
            "{id}: every epilogue op executed inside a kernel dispatch"
        );
        assert_eq!(
            (fused.output.batch, fused.output.rows, fused.output.cols),
            (1, rows, cols),
            "{id}: final activation is the token-shaped layernorm output"
        );
        // The whole forward pass is 8 tape dispatches — zero
        // reference-interpreter passes on the serve path.
        assert_eq!(engine.metrics().tape_dispatches(), 8, "{id}");

        // Differential 1: the tree-walk oracle serving the same fused
        // plan agrees bit-for-bit.
        let interp = oracle
            .execute_model(&graph, &id, 42, true)
            .unwrap_or_else(|e| panic!("oracle serve failed on {id}: {e}"));
        assert_eq!(
            fused.output, interp.output,
            "{id}: fused tape diverged from the tree-walk oracle"
        );
        assert_eq!(
            oracle.metrics().tape_dispatches(),
            0,
            "{id}: oracle never tapes"
        );

        // Differential 2: the unfused baseline (plain GEMMs + reference
        // epilogue between steps) agrees bit-for-bit.
        let unfused = engine
            .execute_model(&graph, &id, 42, false)
            .unwrap_or_else(|e| panic!("unfused serve failed on {id}: {e}"));
        assert_eq!(unfused.fused_epilogue_ops, 0);
        assert_eq!(
            fused.output, unfused.output,
            "{id}: fusion changed the served values"
        );

        // Determinism: same seed, same bits on replay. (The *final*
        // activation is not asserted seed-sensitive: two layernorms
        // normalizing bias-scale values crush token-scale variation to
        // ~1 quantum, so distinct seeds can legitimately collide bit-
        // for-bit. Seed sensitivity of the token stream itself is a
        // `model` unit test.)
        let again = engine.execute_model(&graph, &id, 42, true).unwrap();
        assert_eq!(fused.output, again.output, "{id}: replay diverged");
        // The three-way agreement must hold at any seed, not just one.
        let fused2 = engine.execute_model(&graph, &id, 43, true).unwrap();
        let interp2 = oracle.execute_model(&graph, &id, 43, true).unwrap();
        let unfused2 = engine.execute_model(&graph, &id, 43, false).unwrap();
        assert_eq!(fused2.output, interp2.output, "{id}: seed 43 vs oracle");
        assert_eq!(fused2.output, unfused2.output, "{id}: seed 43 vs unfused");
    }
}

#[test]
fn fused_serving_accounts_epilogue_fusion_metrics() {
    let (graph, _, _) = serving_graph();
    let engine = ServeEngine::new(tuning());
    let id = &target_ids()[0];
    engine.execute_model(&graph, id, 7, true).expect("serves");
    // The 8-step plan deduplicates to 6 unique fused cache entries
    // (q/k/v share one kernel, out/ffn2 share another) carrying 13
    // epilogue ops between them.
    assert_eq!(engine.metrics().epilogue_fused_kernels(), 6);
    assert_eq!(engine.metrics().epilogue_ops_eliminated(), 13);
    // A replay compiles nothing new: the counters stay put while the
    // dispatch count doubles.
    engine.execute_model(&graph, id, 8, true).expect("serves");
    assert_eq!(engine.metrics().epilogue_fused_kernels(), 6);
    assert_eq!(engine.metrics().epilogue_ops_eliminated(), 13);
    assert_eq!(engine.metrics().tape_dispatches(), 16);
    // Unfused serving shares nothing with the fused cache namespace and
    // records no fusion.
    engine.execute_model(&graph, id, 7, false).expect("serves");
    assert_eq!(engine.metrics().epilogue_fused_kernels(), 6);
}

/// splitmix64, the suite's only randomness (no external crates).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random epilogue chain: a subset of the fusible ops, in random
/// order, ended half the time by a saturating requantize (the shape the
/// plan builder emits).
fn random_chain(state: &mut u64) -> EpilogueSpec {
    let mut pool = vec![
        EpiOp::Bias,
        EpiOp::Relu,
        EpiOp::Add,
        EpiOp::LayerNorm,
        EpiOp::Softmax,
    ];
    let len = (next(state) % (pool.len() as u64 + 1)) as usize;
    let mut ops = Vec::with_capacity(len + 1);
    for _ in 0..len {
        let at = (next(state) as usize) % pool.len();
        ops.push(pool.swap_remove(at));
    }
    if next(state).is_multiple_of(2) {
        ops.push(EpiOp::Quant);
    }
    EpilogueSpec::new(&ops)
}

#[test]
fn random_epilogue_chains_are_tape_vs_interpreter_bit_identical() {
    let mut state = 0x5eed_u64;
    let op = OpSpec::batched_gemm(2, 8, 16, 12);
    for id in target_ids() {
        let target = Target::by_id(&id).expect("registered");
        let provider = UnitProvider::new(target, tuning());
        for round in 0..12 {
            let epi = random_chain(&mut state);
            let workload = CacheWorkload::Fused { op, epi };
            let compiled = provider.compile_workload_full(&workload);
            if !epi.is_empty() {
                assert!(
                    compiled.func.epilogue.is_some(),
                    "{id}: GEMM output geometry always admits an epilogue"
                );
            }
            let mut tape_bufs = alloc_buffers(&compiled.func);
            random_fill(&mut tape_bufs, 1000 + round);
            let mut interp_bufs = tape_bufs.clone();
            let tape = Tape::compile(&compiled.func).expect("tape compiles");
            tape.run_fresh(&mut tape_bufs).expect("tape runs");
            run(&compiled.func, &mut interp_bufs).expect("interp runs");
            assert_eq!(
                tape_bufs[compiled.output],
                interp_bufs[compiled.output],
                "{id}: chain `{}` diverged between tape and tree walk",
                epi.encode()
            );
        }
    }
}

/// Run `func`'s tape on a `[batch, m, k] x [batch, n, k]` GEMM's
/// operands, scattered the way `ServeEngine::execute_model` scatters
/// them, and gather the logical cells of output buffer `output`.
fn serve_gemm(
    func: &TirFunc,
    output: usize,
    data: &Compact,
    weight: &Compact,
    bias: &Compact,
    residual: &Compact,
) -> Compact {
    let mut bufs = alloc_buffers(func);
    model::scatter_operands(func, data, weight, &mut bufs).expect("operands scatter");
    model::fill_epilogue_operands(func, bias, &[residual], &mut bufs).expect("epilogue operands");
    let tape = Tape::compile(func).expect("tape compiles");
    tape.run_fresh(&mut bufs).expect("tape runs");
    let out_shape = &func.buffers[output].shape;
    let geom = EpiGeom::for_output(data.batch, data.rows, weight.rows, out_shape)
        .expect("GEMM output geometry");
    model::gather_output(&bufs[output], geom)
}

#[test]
fn random_epilogue_chains_match_the_compact_reference_on_serving_operands() {
    let mut state = 0x5eed_u64;
    let (batch, m, n, k) = (2, 8, 16, 12);
    let op = OpSpec::batched_gemm(batch, m, n, k);
    let weight = model::implicit_weight("random-chains", "gemm", batch, n, k);
    let bias = model::implicit_bias("random-chains", "gemm", n);
    for id in target_ids() {
        let target = Target::by_id(&id).expect("registered");
        let provider = UnitProvider::new(target, tuning());
        let plain = provider.compile_workload_full(&CacheWorkload::Op(op));
        for round in 0..12 {
            let epi = random_chain(&mut state);
            let fused = provider.compile_workload_full(&CacheWorkload::Fused { op, epi });
            // Tokens and residual in the token range, split per head.
            let tokens = model::input_tokens(round, m, batch * k);
            let data = model::gather_data(&tokens, batch, m, k).expect("head split");
            let residual = model::input_tokens(100 + round, m, batch * n);
            let residual = model::gather_data(&residual, batch, m, n).expect("head split");
            let got = serve_gemm(&fused.func, fused.output, &data, &weight, &bias, &residual);
            let mut want = serve_gemm(&plain.func, plain.output, &data, &weight, &bias, &residual);
            model::apply_epilogue_reference(&mut want, &epi, &bias, &[&residual])
                .expect("reference epilogue");
            assert_eq!(
                got,
                want,
                "{id}: chain `{}` diverged from the compact reference",
                epi.encode()
            );
        }
    }
}

#[test]
fn fused_and_unfused_kernels_never_collide_in_the_cache() {
    // Same GEMM, same target, same tuning — one fused, one not. The
    // encodings (and so every cache key derived from them) differ.
    let op = OpSpec::gemm(16, 16, 16);
    let epi = EpilogueSpec::new(&[EpiOp::Bias, EpiOp::Quant]);
    let fused = CacheWorkload::Fused { op, epi };
    let plain = CacheWorkload::Op(op);
    assert_ne!(fused.encode(), plain.encode());
    assert_eq!(CacheWorkload::decode(&fused.encode()), Ok(fused));
    // An empty chain still encodes distinctly from the unfused op.
    let empty = CacheWorkload::Fused {
        op,
        epi: EpilogueSpec::default(),
    };
    assert_ne!(empty.encode(), plain.encode());
}
