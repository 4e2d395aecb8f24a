//! Tape-executor throughput: the compiled instruction tape vs. the
//! statement-tree interpreter on the serving request path, plus the
//! batch-fusion dispatch contract.
//!
//! Run via `cargo bench -p unit-bench --bench tape_throughput`. Two
//! engines serve the identical request mix — transformer-tiny GEMMs and
//! resnet-style convolutions — one in `ExecMode::Tape` (the default),
//! one pinned to `ExecMode::Interp` (the oracle). Both are fully warmed
//! first so the timed loops measure pure request execution, not tuner
//! searches or tape compilation. The run asserts:
//!
//! * **throughput**: the tape path serves the mix at least as fast as
//!   the interpreter (best-of-3 timed passes per mode),
//! * **fusion**: a batch of same-shape batched-GEMM requests through
//!   [`ServeEngine::execute_gemm_batch`] costs exactly *one* tape
//!   dispatch — fewer dispatches than requests,
//! * **oracle agreement**: both modes produce bit-identical outputs,
//! * **tracing-off overhead**: the tape hot loop paying the serve
//!   engine's per-dispatch disabled-tracing check (one relaxed atomic
//!   load through [`TraceCollector::begin`] returning `None`) stays
//!   within 3% of the raw loop.
//!
//! `TAPE_THROUGHPUT_SMOKE=1` switches to a single short repetition count.

use std::hint::black_box;
use std::time::{Duration, Instant};

use unit_core::pipeline::{Target, Tensorizer, TuningConfig};
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::OpSpec;
use unit_interp::{alloc_buffers, random_fill, Tape, TapeScratch};
use unit_isa::{registry, TypedBuf};
use unit_serve::{ExecMode, ServeEngine, TraceCollector};

const TARGET: &str = "x86-avx512-vnni";

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 4 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// The request mix: transformer-tiny GEMM shapes plus resnet-style
/// convolutions, large enough that execution (not buffer setup)
/// dominates each request.
fn menu() -> Vec<(&'static str, OpSpec)> {
    vec![
        ("transformer-tiny", OpSpec::gemm(16, 16, 16)),
        ("transformer-tiny", OpSpec::gemm(32, 32, 32)),
        ("transformer-tiny", OpSpec::batched_gemm(2, 8, 16, 16)),
        ("resnet-18", OpSpec::conv2d(16, 10, 16, 3, 1, 1)),
        ("resnet-18", OpSpec::conv2d(8, 8, 32, 1, 1, 0)),
    ]
}

/// One timed pass: every menu item `reps` times with rotating seeds.
fn timed_pass(engine: &ServeEngine, reps: usize) -> Duration {
    let menu = menu();
    let t0 = Instant::now();
    for r in 0..reps {
        for (model, op) in &menu {
            engine
                .execute(model, TARGET, *op, (r % 7) as u64)
                .expect("request executes");
        }
    }
    t0.elapsed()
}

/// One pass of the tape hot loop. With `tracer`, each run additionally
/// pays exactly what the serve engine pays per dispatch when tracing is
/// disabled: one [`TraceCollector::begin`] call that reads the enabled
/// flag and returns `None` without allocating.
fn tape_pass(
    tape: &Tape,
    bufs: &mut [TypedBuf],
    scratch: &mut TapeScratch,
    runs: usize,
    tracer: Option<&TraceCollector>,
) -> Duration {
    let t0 = Instant::now();
    for _ in 0..runs {
        if let Some(tracer) = tracer {
            assert!(
                black_box(tracer).begin("tape_dispatch").is_none(),
                "tracing must stay disabled in the overhead measurement"
            );
        }
        tape.run(black_box(bufs), scratch).expect("tape executes");
    }
    t0.elapsed()
}

/// Tracing-off overhead on the tape hot path, in percent: best-of-5
/// interleaved passes of the raw loop vs. the loop with the disabled
/// check. Returns `(baseline_runs_per_sec, tracing_off_runs_per_sec,
/// overhead_pct)`.
fn tracing_off_overhead(runs: usize) -> (f64, f64, f64) {
    let desc = registry::target_by_id(TARGET).expect("registered target");
    // Small shape on purpose: short runs give many samples per pass, so
    // best-of-N converges and the 3% bound measures the check, not
    // scheduler drift across long passes.
    let (lowered, _) = unit_graph::layout::op_for_target(&OpSpec::gemm(8, 8, 8), &desc);
    let kernel = Tensorizer::new(Target::x86_avx512_vnni())
        .with_tuning(tuning())
        .compile(&lowered)
        .expect("kernel compiles");
    let tape = Tape::compile(&kernel.func).expect("tape compiles");
    let mut bufs = alloc_buffers(&kernel.func);
    random_fill(&mut bufs, 7);
    let mut scratch = tape.scratch();
    let tracer = TraceCollector::new();
    assert!(!tracer.enabled(), "collectors start disabled");

    // Warm caches, then interleave so drift hits both loops equally.
    tape_pass(&tape, &mut bufs, &mut scratch, runs / 10, None);
    let mut base_best = Duration::MAX;
    let mut off_best = Duration::MAX;
    for _ in 0..9 {
        base_best = base_best.min(tape_pass(&tape, &mut bufs, &mut scratch, runs, None));
        off_best = off_best.min(tape_pass(
            &tape,
            &mut bufs,
            &mut scratch,
            runs,
            Some(&tracer),
        ));
    }
    let base_rps = runs as f64 / base_best.as_secs_f64();
    let off_rps = runs as f64 / off_best.as_secs_f64();
    let overhead_pct = (off_best.as_secs_f64() / base_best.as_secs_f64() - 1.0) * 100.0;
    (base_rps, off_rps, overhead_pct)
}

fn main() {
    let smoke = std::env::var("TAPE_THROUGHPUT_SMOKE").is_ok();
    let reps: usize = if smoke { 30 } else { 200 };

    let tape_engine = ServeEngine::new(tuning());
    assert_eq!(tape_engine.exec_mode(), ExecMode::Tape, "tape is default");
    let interp_engine = ServeEngine::new(tuning()).with_exec_mode(ExecMode::Interp);

    // Warm both engines (tuner searches + tape compiles happen here)
    // and pin the oracle agreement: identical outputs per request.
    for (model, op) in menu() {
        let a = tape_engine.execute(model, TARGET, op, 42).expect("tape");
        let b = interp_engine
            .execute(model, TARGET, op, 42)
            .expect("interp");
        assert_eq!(a.output, b.output, "{model}: tape diverged from oracle");
    }

    // Best-of-3 interleaved passes per mode.
    let mut tape_best = Duration::MAX;
    let mut interp_best = Duration::MAX;
    for _ in 0..3 {
        tape_best = tape_best.min(timed_pass(&tape_engine, reps));
        interp_best = interp_best.min(timed_pass(&interp_engine, reps));
    }
    let requests = (reps * menu().len()) as f64;
    let tape_rps = requests / tape_best.as_secs_f64();
    let interp_rps = requests / interp_best.as_secs_f64();

    // Fusion contract: 8 same-shape batched-GEMM requests, one dispatch.
    let fusion_seeds: Vec<u64> = (0..8).collect();
    let dispatches_before = tape_engine.metrics().tape_dispatches();
    let outcomes = tape_engine
        .execute_gemm_batch(
            "transformer-tiny",
            TARGET,
            OpSpec::batched_gemm(2, 8, 16, 16),
            &fusion_seeds,
        )
        .expect("fused batch executes");
    assert_eq!(outcomes.len(), fusion_seeds.len());
    let fused_dispatches = tape_engine.metrics().tape_dispatches() - dispatches_before;
    assert!(
        (fused_dispatches as usize) < fusion_seeds.len(),
        "fusion must cost fewer tape dispatches ({fused_dispatches}) than requests ({})",
        fusion_seeds.len()
    );
    assert_eq!(fused_dispatches, 1, "same-shape batch fuses into one tape");

    // Tracing disabled must cost nothing measurable on the tape hot
    // path: the per-dispatch disabled check stays within 3% of the raw
    // loop (ISSUE acceptance bound).
    let tape_runs = if smoke { 2_000 } else { 10_000 };
    let (base_rps, off_rps, overhead_pct) = tracing_off_overhead(tape_runs);

    println!("tape_throughput: {} requests per mode", requests as usize);
    println!(
        "  tape   {:>8.2} ms   {:>9.0} req/s",
        tape_best.as_secs_f64() * 1e3,
        tape_rps
    );
    println!(
        "  interp {:>8.2} ms   {:>9.0} req/s   (tape {:.2}x)",
        interp_best.as_secs_f64() * 1e3,
        interp_rps,
        tape_rps / interp_rps
    );
    println!(
        "  tracing-off overhead: {overhead_pct:.2}% \
         (raw {base_rps:.0} runs/s, with disabled check {off_rps:.0} runs/s)"
    );
    println!("{}", tape_engine.metrics().render());

    assert!(
        overhead_pct <= 3.0,
        "tracing disabled must cost <= 3% on the tape hot path, measured {overhead_pct:.2}%"
    );
    assert!(
        tape_best <= interp_best,
        "the compiled tape must serve at least interpreter throughput: \
         tape {:.2} ms vs interp {:.2} ms",
        tape_best.as_secs_f64() * 1e3,
        interp_best.as_secs_f64() * 1e3
    );
    assert_eq!(interp_engine.metrics().tape_dispatches(), 0, "oracle mode");
}
