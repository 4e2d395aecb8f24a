//! Layer probes timed from outside, around single public calls: one
//! tensorized-instruction execution per target, and the cost model's
//! predicted kernel time against measured `Tape::run` time.

use std::hint::black_box;
use std::time::Instant;

use unit_core::pipeline::Target;
use unit_graph::compile::UnitProvider;
use unit_graph::{CacheWorkload, OpSpec};
use unit_interp::{alloc_buffers, random_fill, Tape};
use unit_isa::{registry, TypedBuf};

use crate::serving;
use crate::stats::{median, spearman};

/// Median nanoseconds of one `unit_isa::execute` of `intrinsic` on
/// zeroed registers; `None` when the target has no such instruction.
#[must_use]
pub fn isa_execute_ns(target: &str, intrinsic: &str) -> Option<f64> {
    let intrin = registry::for_target(target)
        .into_iter()
        .find(|i| i.name == intrinsic)?;
    let mut regs: Vec<TypedBuf> = intrin
        .semantics
        .tensors
        .iter()
        .map(|t| TypedBuf::zeros(t.dtype, t.len()))
        .collect();
    let mut batch = |calls: u32| {
        let t0 = Instant::now();
        for _ in 0..calls {
            unit_isa::execute(&intrin, black_box(&mut regs)).expect("emulation runs");
        }
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
    };
    // Size batches to about 5 ms: emulated instructions range from
    // tens of nanoseconds to milliseconds per call.
    let calls = (5e6 / batch(1)).clamp(1.0, 10_000.0) as u32;
    let batches: Vec<f64> = (0..7).map(|_| batch(calls)).collect();
    Some(median(&batches))
}

/// Kernels whose predicted and measured times are ranked against each
/// other: the op mix, the served plan's GEMM shapes and a few
/// convolutions, spanning two orders of magnitude of work.
fn ranked_kernels() -> Vec<OpSpec> {
    vec![
        OpSpec::gemm(8, 16, 16),
        OpSpec::gemm(8, 32, 16),
        OpSpec::gemm(8, 16, 32),
        OpSpec::batched_gemm(2, 8, 8, 8),
        OpSpec::batched_gemm(2, 8, 16, 16),
        OpSpec::gemm(16, 16, 16),
        OpSpec::gemm(32, 32, 32),
        OpSpec::conv2d(16, 8, 16, 1, 1, 0),
        OpSpec::conv2d(8, 8, 16, 3, 1, 1),
        OpSpec::conv2d(16, 8, 32, 3, 1, 1),
    ]
}

/// Spearman correlation between the cost model's `micros` and the
/// measured median `Tape::run` time, over [`ranked_kernels`] on
/// `target`.
#[must_use]
pub fn sim_spearman(target: &str) -> Option<f64> {
    let provider = UnitProvider::new(Target::by_id(target)?, serving::tuning());
    let (mut predicted, mut measured) = (Vec::new(), Vec::new());
    for op in ranked_kernels() {
        let kernel = provider.compile_workload_full(&CacheWorkload::Op(op));
        let tape = Tape::compile(&kernel.func).ok()?;
        let mut bufs = alloc_buffers(&kernel.func);
        random_fill(&mut bufs, 7);
        let mut scratch = tape.scratch();
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                tape.run(&mut bufs, &mut scratch).expect("tape runs");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        predicted.push(kernel.micros);
        measured.push(median(&runs));
    }
    spearman(&predicted, &measured)
}
