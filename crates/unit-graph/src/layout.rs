//! Blocked-layout `ComputeOp` builders: the bridge from graph level to the
//! tensor DSL.
//!
//! Following the paper's Section V-C, activations adopt a channel-blocked
//! `NCHW[c]c` layout and kernels a doubly-blocked `KCRS[k]k[c]c` layout,
//! where the channel block equals the instruction's reduction width and the
//! output-channel block equals its lane count. Channels are padded up to
//! the block sizes at graph level, so every tensorized loop tiles exactly
//! (no residue guards inside the hot nest).

use unit_core::tuner::ConvGpuHint;
use unit_dsl::{ComputeOp, DType, InitExpr, OpBuilder};
use unit_isa::TargetDesc;

use crate::workload::{ConvSpec, OpSpec};

/// Round `v` up to a multiple of `block`.
#[must_use]
pub fn round_up(v: i64, block: i64) -> i64 {
    (v + block - 1) / block * block
}

/// A quantized blocked 2D convolution:
/// `out[ko, x, y, ki] += i32(data[co, x*s + r, y*s + sy, ci]) * i32(w[ko, co, r, sy, ki, ci])`.
///
/// `lanes` is the instruction's output lane count (output-channel block)
/// and `rwidth` its reduction width (input-channel block). `data_dtype` and
/// `weight_dtype` select the platform's quantization convention
/// (u8 x i8 for VNNI, i8 x i8 for ARM `sdot`).
///
/// # Panics
///
/// Panics for depthwise specs; use [`depthwise_conv_op`].
#[must_use]
pub fn blocked_conv2d(
    spec: &ConvSpec,
    lanes: i64,
    rwidth: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    assert!(
        !spec.is_depthwise(),
        "use depthwise_conv_op for depthwise layers"
    );
    assert!(!spec.is_3d(), "use blocked_conv3d for 3D layers");
    let cb = round_up(spec.c, rwidth) / rwidth;
    let kb = round_up(spec.k, lanes) / lanes;
    let ih = spec.ihw + 2 * spec.pad;
    let iw = spec.ihw + 2 * spec.pad_w;
    let acc = data_dtype.accumulator();

    let mut b = OpBuilder::new(format!(
        "conv2d_c{}hw{}k{}r{}x{}s{}",
        spec.c, spec.ihw, spec.k, spec.r, spec.rw, spec.stride
    ));
    let data = b.tensor("data", &[cb, ih, iw, rwidth], data_dtype);
    let weight = b.tensor(
        "weight",
        &[kb, cb, spec.r, spec.rw, lanes, rwidth],
        weight_dtype,
    );
    let ko = b.axis("ko", kb);
    let x = b.axis("x", spec.oh());
    let y = b.axis("y", spec.ow());
    let ki = b.axis("ki", lanes);
    let co = b.reduce_axis("co", cb);
    let r = b.reduce_axis("r", spec.r);
    let s = b.reduce_axis("s", spec.rw);
    let ci = b.reduce_axis("ci", rwidth);
    let elem = b
        .load(
            data,
            vec![
                co.into(),
                (x * spec.stride + r),
                (y * spec.stride + s),
                ci.into(),
            ],
        )
        .cast(acc)
        * b.load(
            weight,
            vec![
                ko.into(),
                co.into(),
                r.into(),
                s.into(),
                ki.into(),
                ci.into(),
            ],
        )
        .cast(acc);
    b.compute(
        "out",
        acc,
        vec![ko.into(), x.into(), y.into(), ki.into()],
        InitExpr::Identity,
        elem,
    )
}

/// A quantized blocked 3D convolution (the Figure 13 extensibility study).
/// Identical structure to [`blocked_conv2d`] with a depth dimension — no
/// change to UNIT is needed, which is the point of the experiment.
#[must_use]
pub fn blocked_conv3d(
    spec: &ConvSpec,
    lanes: i64,
    rwidth: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    assert!(spec.is_3d(), "blocked_conv3d requires a 3D spec");
    let cb = round_up(spec.c, rwidth) / rwidth;
    let kb = round_up(spec.k, lanes) / lanes;
    let ih = spec.ihw + 2 * spec.pad;
    let idd = spec.id + 2 * spec.pad;
    let ohw = spec.ohw();
    let od = spec.od();
    let acc = data_dtype.accumulator();

    let mut b = OpBuilder::new(format!(
        "conv3d_c{}hw{}d{}k{}r{}",
        spec.c, spec.ihw, spec.id, spec.k, spec.r
    ));
    let data = b.tensor("data", &[cb, idd, ih, ih, rwidth], data_dtype);
    let weight = b.tensor(
        "weight",
        &[kb, cb, spec.r, spec.r, spec.r, lanes, rwidth],
        weight_dtype,
    );
    let ko = b.axis("ko", kb);
    let z = b.axis("z", od);
    let x = b.axis("x", ohw);
    let y = b.axis("y", ohw);
    let ki = b.axis("ki", lanes);
    let co = b.reduce_axis("co", cb);
    let rd = b.reduce_axis("rd", spec.r);
    let r = b.reduce_axis("r", spec.r);
    let s = b.reduce_axis("s", spec.r);
    let ci = b.reduce_axis("ci", rwidth);
    let elem = b
        .load(
            data,
            vec![
                co.into(),
                (z * spec.stride + rd),
                (x * spec.stride + r),
                (y * spec.stride + s),
                ci.into(),
            ],
        )
        .cast(acc)
        * b.load(
            weight,
            vec![
                ko.into(),
                co.into(),
                rd.into(),
                r.into(),
                s.into(),
                ki.into(),
                ci.into(),
            ],
        )
        .cast(acc);
    b.compute(
        "out",
        acc,
        vec![ko.into(), z.into(), x.into(), y.into(), ki.into()],
        InitExpr::Identity,
        elem,
    )
}

/// A quantized blocked dense (fully connected) layer.
#[must_use]
pub fn blocked_dense(
    in_features: i64,
    units: i64,
    lanes: i64,
    rwidth: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    let cb = round_up(in_features, rwidth) / rwidth;
    let ub = round_up(units, lanes) / lanes;
    let acc = data_dtype.accumulator();
    let mut b = OpBuilder::new(format!("dense_{in_features}x{units}"));
    let data = b.tensor("data", &[cb, rwidth], data_dtype);
    let weight = b.tensor("weight", &[ub, cb, lanes, rwidth], weight_dtype);
    let uo = b.axis("uo", ub);
    let ui = b.axis("ui", lanes);
    let co = b.reduce_axis("co", cb);
    let ci = b.reduce_axis("ci", rwidth);
    let elem = b.load(data, vec![co.into(), ci.into()]).cast(acc)
        * b.load(weight, vec![uo.into(), co.into(), ui.into(), ci.into()])
            .cast(acc);
    b.compute(
        "out",
        acc,
        vec![uo.into(), ui.into()],
        InitExpr::Identity,
        elem,
    )
}

/// A depthwise convolution: no reduction over channels, so *no* dot-product
/// instruction applies — the Inspector rejects it and the compiler falls
/// back to a SIMD schedule. This is why mobilenet speedups are the smallest
/// in Figure 8 (most of its time is depthwise + pointwise layers).
#[must_use]
pub fn depthwise_conv_op(spec: &ConvSpec, data_dtype: DType) -> ComputeOp {
    assert!(spec.is_depthwise(), "spec is not depthwise");
    let ih = spec.ihw + 2 * spec.pad;
    let ohw = spec.ohw();
    let acc = data_dtype.accumulator();
    let mut b = OpBuilder::new(format!("dwconv_c{}hw{}r{}", spec.c, spec.ihw, spec.r));
    let data = b.tensor("data", &[spec.c, ih, ih], data_dtype);
    let weight = b.tensor("weight", &[spec.c, spec.r, spec.r], data_dtype);
    let c = b.axis("c", spec.c);
    let x = b.axis("x", ohw);
    let y = b.axis("y", ohw);
    let r = b.reduce_axis("r", spec.r);
    let s = b.reduce_axis("s", spec.r);
    let elem = b
        .load(
            data,
            vec![c.into(), (x * spec.stride + r), (y * spec.stride + s)],
        )
        .cast(acc)
        * b.load(weight, vec![c.into(), r.into(), s.into()]).cast(acc);
    b.compute(
        "out",
        acc,
        vec![c.into(), x.into(), y.into()],
        InitExpr::Identity,
        elem,
    )
}

/// A convolution as implicit GEMM in a matrix-unit target's convention
/// (`tile`-padded rows/columns, `red`-padded reduction, `data_dtype` x
/// `weight_dtype` operands accumulating in `data_dtype.accumulator()`):
/// rows are the padded `OH*OW` image positions, columns the padded output
/// channels, and the reduction spans `C*R*S`.
#[must_use]
pub fn conv_gemm(
    spec: &ConvSpec,
    tile: i64,
    red_tile: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    let rows = round_up(spec.oh() * spec.ow(), tile);
    let cols = round_up(spec.k, tile);
    let red = round_up(spec.c * spec.r * spec.rw, red_tile);
    let acc = data_dtype.accumulator();
    let mut b = OpBuilder::new(format!(
        "conv_gemm_c{}hw{}k{}r{}s{}",
        spec.c, spec.ihw, spec.k, spec.r, spec.stride
    ));
    let a = b.tensor("im2col", &[rows, red], data_dtype);
    let w = b.tensor("weight", &[red, cols], weight_dtype);
    let i = b.axis("i", rows);
    let j = b.axis("j", cols);
    let k = b.reduce_axis("k", red);
    let elem = b.load(a, vec![i.into(), k.into()]).cast(acc)
        * b.load(w, vec![k.into(), j.into()]).cast(acc);
    b.compute(
        "out",
        acc,
        vec![i.into(), j.into()],
        InitExpr::Identity,
        elem,
    )
}

/// An fp16 convolution as implicit GEMM in the 16x16x16 WMMA convention
/// (the built-in Tensor Core path).
#[must_use]
pub fn conv_gemm_f16(spec: &ConvSpec) -> ComputeOp {
    conv_gemm(spec, 16, 16, DType::F16, DType::F16)
}

/// A quantized blocked *grouped* 2D convolution: `groups` independent
/// convolutions over `c/groups` input and `k/groups` output channels each,
/// with the group index as an outer data-parallel axis. The inner
/// reduction nest is identical to [`blocked_conv2d`]'s, so the same
/// dot-product instructions apply per group — no Inspector changes needed
/// (groups with very few channels per group simply pay more padding).
///
/// # Panics
///
/// Panics for depthwise specs (no channel reduction survives; use
/// [`depthwise_conv_op`]) and for 3D or non-divisible geometries.
#[must_use]
pub fn blocked_grouped_conv2d(
    spec: &ConvSpec,
    groups: i64,
    lanes: i64,
    rwidth: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    assert!(groups > 1, "use blocked_conv2d for dense layers");
    assert!(
        !(groups == spec.c && spec.k == spec.c),
        "use depthwise_conv_op for depthwise layers"
    );
    assert!(!spec.is_3d(), "grouped 3D convolutions are not modeled");
    assert_eq!(spec.c % groups, 0, "groups must divide input channels");
    assert_eq!(spec.k % groups, 0, "groups must divide output channels");
    let cg = spec.c / groups;
    let kg = spec.k / groups;
    let cb = round_up(cg, rwidth) / rwidth;
    let kb = round_up(kg, lanes) / lanes;
    let ih = spec.ihw + 2 * spec.pad;
    let iw = spec.ihw + 2 * spec.pad_w;
    let acc = data_dtype.accumulator();

    let mut b = OpBuilder::new(format!(
        "grouped_conv2d_g{}c{}hw{}k{}r{}s{}",
        groups, spec.c, spec.ihw, spec.k, spec.r, spec.stride
    ));
    let data = b.tensor("data", &[groups, cb, ih, iw, rwidth], data_dtype);
    let weight = b.tensor(
        "weight",
        &[groups, kb, cb, spec.r, spec.rw, lanes, rwidth],
        weight_dtype,
    );
    let g = b.axis("g", groups);
    let ko = b.axis("ko", kb);
    let x = b.axis("x", spec.oh());
    let y = b.axis("y", spec.ow());
    let ki = b.axis("ki", lanes);
    let co = b.reduce_axis("co", cb);
    let r = b.reduce_axis("r", spec.r);
    let s = b.reduce_axis("s", spec.rw);
    let ci = b.reduce_axis("ci", rwidth);
    let elem = b
        .load(
            data,
            vec![
                g.into(),
                co.into(),
                (x * spec.stride + r),
                (y * spec.stride + s),
                ci.into(),
            ],
        )
        .cast(acc)
        * b.load(
            weight,
            vec![
                g.into(),
                ko.into(),
                co.into(),
                r.into(),
                s.into(),
                ki.into(),
                ci.into(),
            ],
        )
        .cast(acc);
    b.compute(
        "out",
        acc,
        vec![g.into(), ko.into(), x.into(), y.into(), ki.into()],
        InitExpr::Identity,
        elem,
    )
}

/// A quantized blocked (batched) GEMM in the CPU dot-product convention:
/// `out[b, i, no, ni] += acc(data[b, i, co, ci]) * acc(weight[b, no, co, ni, ci])`.
/// Same `[lanes]`-output / `[rwidth]`-reduction blocking as
/// [`blocked_dense`], with the row (`m`) and batch dimensions as extra
/// outer data-parallel loops — the reduction nest the Inspector matches is
/// unchanged, which is the operator-agnosticism claim in practice.
#[allow(clippy::too_many_arguments)] // shape quad + blocking quad, like the conv builders
#[must_use]
pub fn blocked_gemm(
    m: i64,
    n: i64,
    k: i64,
    batch: i64,
    lanes: i64,
    rwidth: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    let cb = round_up(k, rwidth) / rwidth;
    let nb = round_up(n, lanes) / lanes;
    let acc = data_dtype.accumulator();
    let mut b = OpBuilder::new(format!("gemm_b{batch}m{m}n{n}k{k}"));
    let data = b.tensor("data", &[batch, m, cb, rwidth], data_dtype);
    let weight = b.tensor("weight", &[batch, nb, cb, lanes, rwidth], weight_dtype);
    let bb = b.axis("b", batch);
    let i = b.axis("i", m);
    let no = b.axis("no", nb);
    let ni = b.axis("ni", lanes);
    let co = b.reduce_axis("co", cb);
    let ci = b.reduce_axis("ci", rwidth);
    let elem = b
        .load(data, vec![bb.into(), i.into(), co.into(), ci.into()])
        .cast(acc)
        * b.load(
            weight,
            vec![bb.into(), no.into(), co.into(), ni.into(), ci.into()],
        )
        .cast(acc);
    b.compute(
        "out",
        acc,
        vec![bb.into(), i.into(), no.into(), ni.into()],
        InitExpr::Identity,
        elem,
    )
}

#[allow(clippy::too_many_arguments)] // shape quad + tile/dtype quad, like the conv builders
fn batched_gemm_gpu_named(
    name: String,
    batch: i64,
    m: i64,
    n: i64,
    k: i64,
    tile: i64,
    red_tile: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    let rows = round_up(m, tile);
    let cols = round_up(n, tile);
    let red = round_up(k, red_tile);
    let acc = data_dtype.accumulator();
    let mut b = OpBuilder::new(name);
    let a = b.tensor("a", &[batch, rows, red], data_dtype);
    let w = b.tensor("w", &[batch, red, cols], weight_dtype);
    let bb = b.axis("b", batch);
    let i = b.axis("i", rows);
    let j = b.axis("j", cols);
    let kk = b.reduce_axis("k", red);
    let elem = b.load(a, vec![bb.into(), i.into(), kk.into()]).cast(acc)
        * b.load(w, vec![bb.into(), kk.into(), j.into()]).cast(acc);
    b.compute(
        "out",
        acc,
        vec![bb.into(), i.into(), j.into()],
        InitExpr::Identity,
        elem,
    )
}

/// A (batched) GEMM padded to a matrix-unit target's tile — the GPU-style
/// lowering of [`OpSpec::Gemm`]. The batch dimension is an extra outer
/// data-parallel axis over the same tile nest.
#[allow(clippy::too_many_arguments)] // shape quad + tile/dtype quad, like the conv builders
#[must_use]
pub fn gemm_gpu(
    m: i64,
    n: i64,
    k: i64,
    batch: i64,
    tile: i64,
    red_tile: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    batched_gemm_gpu_named(
        format!("gemm_{data_dtype}_b{batch}m{m}n{n}k{k}"),
        batch,
        m,
        n,
        k,
        tile,
        red_tile,
        data_dtype,
        weight_dtype,
    )
}

/// An fp16 (batched) GEMM with dimensions padded to the `16x16x16` Tensor
/// Core tile (the built-in GPU lowering of [`OpSpec::Gemm`]).
#[must_use]
pub fn gemm_f16(m: i64, n: i64, k: i64, batch: i64) -> ComputeOp {
    gemm_gpu(m, n, k, batch, 16, 16, DType::F16, DType::F16)
}

/// A grouped convolution as batched implicit GEMM (the matrix-unit path):
/// one GEMM instance per group, rows the `OH*OW` image positions, columns
/// the per-group output channels, reduction over `(C/groups)*R*S`.
#[must_use]
#[allow(clippy::too_many_arguments)] // spec + groups + tile/dtype quad
pub fn grouped_conv_gemm(
    spec: &ConvSpec,
    groups: i64,
    tile: i64,
    red_tile: i64,
    data_dtype: DType,
    weight_dtype: DType,
) -> ComputeOp {
    assert_eq!(spec.c % groups, 0, "groups must divide input channels");
    assert_eq!(spec.k % groups, 0, "groups must divide output channels");
    batched_gemm_gpu_named(
        format!(
            "grouped_conv_gemm_g{}c{}hw{}k{}r{}",
            groups, spec.c, spec.ihw, spec.k, spec.r
        ),
        groups,
        spec.oh() * spec.ow(),
        spec.k / groups,
        (spec.c / groups) * spec.r * spec.rw,
        tile,
        red_tile,
        data_dtype,
        weight_dtype,
    )
}

/// A dense (fully connected) layer in a target's convention: one row-tile
/// GEMM for matrix-unit (GPU-style) targets, the `[lanes]/[rwidth]`
/// blocked form for CPU-style targets. Blocking and dtypes come from the
/// target descriptor.
#[must_use]
pub fn dense_for_target(in_features: i64, units: i64, target: &TargetDesc) -> ComputeOp {
    let (lanes, rwidth, ddt, wdt) = target.blocking();
    if target.is_gpu() {
        let acc = ddt.accumulator();
        let n = round_up(units, lanes);
        let k = round_up(in_features, rwidth);
        let mut b = OpBuilder::new(format!("dense_gemm_{in_features}x{units}"));
        let a = b.tensor("a", &[lanes, k], ddt);
        let wt = b.tensor("b", &[k, n], wdt);
        let i = b.axis("i", lanes);
        let j = b.axis("j", n);
        let kk = b.reduce_axis("k", k);
        let elem = b.load(a, vec![i.into(), kk.into()]).cast(acc)
            * b.load(wt, vec![kk.into(), j.into()]).cast(acc);
        b.compute(
            "out",
            acc,
            vec![i.into(), j.into()],
            InitExpr::Identity,
            elem,
        )
    } else {
        blocked_dense(in_features, units, lanes, rwidth, ddt, wdt)
    }
}

/// Lower an [`OpSpec`] to the target's blocked `ComputeOp`, plus the
/// convolution-structure hint the GPU tuner wants where one exists. All
/// blocking factors and operand dtypes come from the [`TargetDesc`], so a
/// target registered at runtime lowers through this with no code changes.
///
/// This is the operator dispatch the whole pipeline shares: the
/// `UnitProvider` compiles exactly what this returns, and the differential
/// matrix replays the same lowering against the reference interpreter.
/// Depthwise workloads return the scalar [`depthwise_conv_op`] — the
/// Inspector rejects them (no channel reduction), sending providers to the
/// SIMD/CUDA fallback.
#[must_use]
pub fn op_for_target(spec: &OpSpec, target: &TargetDesc) -> (ComputeOp, Option<ConvGpuHint>) {
    let (lanes, rwidth, ddt, wdt) = target.blocking();
    let gpu = target.is_gpu();
    match spec {
        OpSpec::Conv(c) if gpu => (
            conv_gemm(c, lanes, rwidth, ddt, wdt),
            Some(ConvGpuHint {
                oh: c.oh(),
                ow: c.ow(),
                channels: c.c,
            }),
        ),
        OpSpec::Conv(c) if c.is_3d() => (blocked_conv3d(c, lanes, rwidth, ddt, wdt), None),
        OpSpec::Conv(c) => (blocked_conv2d(c, lanes, rwidth, ddt, wdt), None),
        OpSpec::GroupedConv { conv, .. } if spec.is_depthwise() => {
            (depthwise_conv_op(conv, ddt), None)
        }
        OpSpec::GroupedConv { conv, groups } if gpu => (
            grouped_conv_gemm(conv, *groups, lanes, rwidth, ddt, wdt),
            None,
        ),
        OpSpec::GroupedConv { conv, groups } => (
            blocked_grouped_conv2d(conv, *groups, lanes, rwidth, ddt, wdt),
            None,
        ),
        OpSpec::Gemm { m, n, k, batch } if gpu => {
            (gemm_gpu(*m, *n, *k, *batch, lanes, rwidth, ddt, wdt), None)
        }
        OpSpec::Gemm { m, n, k, batch } => (
            blocked_gemm(*m, *n, *k, *batch, lanes, rwidth, ddt, wdt),
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::pipeline::{Target, Tensorizer};

    #[test]
    fn round_up_behaves() {
        assert_eq!(round_up(30, 16), 32);
        assert_eq!(round_up(32, 16), 32);
        assert_eq!(round_up(1, 4), 4);
    }

    #[test]
    fn blocked_conv_tensorizes_with_vnni() {
        let spec = ConvSpec::new_2d(128, 14, 128, 3, 1, 1);
        let op = blocked_conv2d(&spec, 16, 4, DType::U8, DType::I8);
        let t = Tensorizer::new(Target::x86_avx512_vnni());
        let (intrin, m) = t.inspect(&op).unwrap();
        assert_eq!(intrin.name, "llvm.x86.avx512.vpdpbusd.512");
        // ki -> lanes, ci -> reduction groups.
        let names: Vec<String> = m
            .mapping
            .iter()
            .map(|(a, _)| op.axis(*a).unwrap().name.clone())
            .collect();
        assert_eq!(names, vec!["ki", "ci"]);
    }

    #[test]
    fn blocked_conv3d_tensorizes_without_changes() {
        let spec = ConvSpec::new_3d(64, 14, 8, 64, 3, 1, 1);
        let op = blocked_conv3d(&spec, 16, 4, DType::U8, DType::I8);
        let t = Tensorizer::new(Target::x86_avx512_vnni());
        assert!(t.inspect(&op).is_ok());
    }

    #[test]
    fn depthwise_is_rejected_by_the_inspector() {
        let spec = ConvSpec::grouped_2d(64, 14, 64, 3, 1, 1, 64);
        let op = depthwise_conv_op(&spec, DType::U8);
        let t = Tensorizer::new(Target::x86_avx512_vnni());
        assert!(t.inspect(&op).is_err());
    }

    #[test]
    fn blocked_gemm_tensorizes_with_vnni() {
        let op = blocked_gemm(64, 128, 128, 1, 16, 4, DType::U8, DType::I8);
        let t = Tensorizer::new(Target::x86_avx512_vnni());
        let (intrin, m) = t.inspect(&op).unwrap();
        assert_eq!(intrin.name, "llvm.x86.avx512.vpdpbusd.512");
        // Same mapping shape as the blocked conv: ni -> lanes, ci -> groups.
        let names: Vec<String> = m
            .mapping
            .iter()
            .map(|(a, _)| op.axis(*a).unwrap().name.clone())
            .collect();
        assert_eq!(names, vec!["ni", "ci"]);
    }

    #[test]
    fn batched_gemm_tensorizes_on_every_platform() {
        // The batch axis is just one more outer data-parallel loop; no
        // Inspector special case exists for it (the operator-agnosticism
        // claim).
        let cpu = blocked_gemm(8, 16, 32, 4, 16, 4, DType::U8, DType::I8);
        assert!(Tensorizer::new(Target::x86_avx512_vnni())
            .inspect(&cpu)
            .is_ok());
        let arm = blocked_gemm(8, 16, 32, 4, 4, 4, DType::I8, DType::I8);
        assert!(Tensorizer::new(Target::arm_neon_dot())
            .inspect(&arm)
            .is_ok());
        let gpu = gemm_f16(48, 32, 64, 4);
        let (intrin, _) = Tensorizer::new(Target::nvidia_tensor_core())
            .inspect(&gpu)
            .unwrap();
        assert!(intrin.name.contains("m16n16k16"));
    }

    #[test]
    fn grouped_conv_tensorizes_per_group() {
        let spec = OpSpec::grouped(32, 8, 32, 3, 1, 1, 4);
        let conv = *spec.conv().unwrap();
        let op = blocked_grouped_conv2d(&conv, 4, 16, 4, DType::U8, DType::I8);
        let t = Tensorizer::new(Target::x86_avx512_vnni());
        assert!(t.inspect(&op).is_ok(), "grouped conv keeps the dot nest");
    }

    #[test]
    fn depth_multiplier_conv_lowers_grouped_and_matches_reference() {
        use unit_interp::{alloc_buffers, random_fill, run, run_reference};
        // groups == c with k == 2c: not depthwise, so it must take the
        // grouped blocked path (one padded input channel per group) and
        // compute all 2c output channels exactly.
        let spec = OpSpec::grouped(4, 5, 8, 3, 1, 1, 4);
        assert!(!spec.is_depthwise());
        let (op, hint) = op_for_target(&spec, &Target::x86_avx512_vnni().desc);
        assert!(op.name.starts_with("grouped_conv2d"), "got {}", op.name);
        assert!(hint.is_none());
        let k = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&op)
            .expect("depth-multiplier conv tensorizes via padding");
        let mut bufs = alloc_buffers(&k.func);
        random_fill(&mut bufs, 123);
        let mut reference = bufs.clone();
        run(&k.func, &mut bufs).unwrap();
        run_reference(&op, &mut reference).unwrap();
        assert_eq!(bufs[op.output.0 as usize], reference[op.output.0 as usize]);
    }

    #[test]
    fn op_for_target_dispatches_every_variant_on_every_registered_target() {
        let variants = [
            OpSpec::conv2d(8, 6, 16, 3, 1, 1),
            OpSpec::conv3d(4, 4, 3, 8, 3, 1, 1),
            OpSpec::grouped(8, 6, 8, 3, 1, 1, 2),
            OpSpec::depthwise(8, 6, 3, 1, 1),
            OpSpec::gemm(8, 16, 32),
            OpSpec::batched_gemm(2, 8, 16, 32),
        ];
        // Data-driven: every target in the registry (the four built-ins
        // here), not a hard-coded list.
        for target in unit_isa::registry::targets() {
            for spec in &variants {
                let (op, hint) = op_for_target(spec, &target);
                assert!(op.mac_count() > 0, "{} on {}", op.name, target.id);
                // Only the dense-conv GPU path needs the structure hint.
                assert_eq!(
                    hint.is_some(),
                    target.is_gpu() && matches!(spec, OpSpec::Conv(_)),
                    "{} on {}",
                    op.name,
                    target.id
                );
            }
        }
    }

    #[test]
    fn blocked_gemm_correctness_via_full_pipeline() {
        use unit_interp::{alloc_buffers, random_fill, run, run_reference};
        let op = blocked_gemm(4, 8, 12, 2, 16, 4, DType::U8, DType::I8);
        let k = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&op)
            .unwrap();
        let mut bufs = alloc_buffers(&k.func);
        random_fill(&mut bufs, 9);
        let mut reference = bufs.clone();
        run(&k.func, &mut bufs).unwrap();
        run_reference(&op, &mut reference).unwrap();
        assert_eq!(bufs[op.output.0 as usize], reference[op.output.0 as usize]);
    }

    #[test]
    fn gemm_view_tensorizes_with_wmma() {
        let spec = ConvSpec::new_2d(256, 14, 256, 3, 1, 1);
        let op = conv_gemm_f16(&spec);
        let t = Tensorizer::new(Target::nvidia_tensor_core());
        let (intrin, _) = t.inspect(&op).unwrap();
        assert!(intrin.name.contains("m16n16k16"));
    }

    #[test]
    fn blocked_dense_tensorizes() {
        let op = blocked_dense(2048, 1000, 16, 4, DType::U8, DType::I8);
        let t = Tensorizer::new(Target::x86_avx512_vnni());
        assert!(t.inspect(&op).is_ok());
        assert_eq!(op.output_decl().shape, vec![63, 16]); // 1008 padded units
    }

    #[test]
    fn blocked_conv_correctness_via_full_pipeline() {
        use unit_interp::{alloc_buffers, random_fill, run, run_reference};
        let spec = ConvSpec::new_2d(8, 6, 16, 3, 1, 1);
        let op = blocked_conv2d(&spec, 16, 4, DType::U8, DType::I8);
        let k = Tensorizer::new(Target::x86_avx512_vnni())
            .compile(&op)
            .unwrap();
        let mut bufs = alloc_buffers(&k.func);
        random_fill(&mut bufs, 2024);
        let mut reference = bufs.clone();
        run(&k.func, &mut bufs).unwrap();
        run_reference(&op, &mut reference).unwrap();
        assert_eq!(bufs[op.output.0 as usize], reference[op.output.0 as usize]);
    }
}
