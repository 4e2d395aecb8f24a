//! Whole-model serving support: deterministic model parameters, the
//! compact logical-tensor representation activations flow through
//! between fused steps, and the layout adapters that scatter/gather
//! those tensors into each target's blocked kernel buffers.
//!
//! [`crate::ServeEngine::execute_model`] walks a
//! [`unit_graph::ModelPlan`] step by step. Between steps, values live in
//! a [`Compact`] — a plain `[batch, rows, cols]` tensor of exact `i64`
//! cells, target-agnostic by construction. At each step the activation
//! is scattered into the kernel's lowered data layout (the CPU blocked
//! `[batch, m, k/rw, rw]` form or the GPU padded `[batch, rows, red]`
//! form; padding cells stay zero so padded reductions contribute
//! nothing), the kernel plus its fused epilogue runs as **one tape
//! dispatch**, and the logical output cells are gathered back out.
//!
//! Model parameters (weights, biases) are *implicit*: derived from a
//! deterministic hash of `(model, step, role)` — never from the request
//! seed — so every request against a model sees the same parameters,
//! every replica agrees bit-for-bit, and no weight files need to exist.
//! The request seed only picks the input tokens.
//!
//! Serving value domain: tokens are `0..=127`, weights `-63..=63`, and
//! every step's epilogue chain ends in a saturating op, so activations
//! stay within `-127..=127` and accumulators below `2^21` — exact in
//! `i32` and `f32` alike, which is what keeps the fixed-point epilogue
//! semantics bit-identical across all registered targets' dtypes.

use unit_dsl::DType;
use unit_graph::{PlanSource, PlanStep};
use unit_isa::{Scalar, TypedBuf};
use unit_tir::epilogue::{exp_q15, layernorm_cell, mean_sigma, requantize, softmax_prob, EpiGeom};
use unit_tir::{EpiOp, EpilogueSpec, TirFunc};

/// A logical `[batch, rows, cols]` tensor of exact `i64` cells — the
/// target-agnostic value representation activations use between fused
/// plan steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compact {
    /// Leading batch extent (attention heads for the per-head matmuls).
    pub batch: i64,
    /// Rows per batch.
    pub rows: i64,
    /// Columns per row.
    pub cols: i64,
    /// Row-major cell values, `batch * rows * cols` of them.
    pub vals: Vec<i64>,
}

impl Compact {
    /// A zeroed tensor.
    #[must_use]
    pub fn zeros(batch: i64, rows: i64, cols: i64) -> Compact {
        Compact {
            batch,
            rows,
            cols,
            vals: vec![0; (batch * rows * cols) as usize],
        }
    }

    /// Flat index of `(b, i, j)`.
    #[inline]
    #[must_use]
    pub fn idx(&self, b: i64, i: i64, j: i64) -> usize {
        ((b * self.rows + i) * self.cols + j) as usize
    }

    /// Read cell `(b, i, j)`.
    #[inline]
    #[must_use]
    pub fn get(&self, b: i64, i: i64, j: i64) -> i64 {
        self.vals[self.idx(b, i, j)]
    }

    /// Write cell `(b, i, j)`.
    #[inline]
    pub fn set(&mut self, b: i64, i: i64, j: i64, v: i64) {
        let at = self.idx(b, i, j);
        self.vals[at] = v;
    }
}

/// splitmix64: the deterministic value stream for tokens and implicit
/// parameters. Chosen over the interpreter's `StdRng` on purpose — the
/// parameter stream is part of the serving wire contract, and splitmix64
/// is trivially re-implementable by any client.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the given parts (with a separator byte between them):
/// the seed of a model's implicit parameters, a pure function of
/// `(model, step, role)`.
fn fnv1a(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Draw a value in `lo..=hi` from the stream.
fn draw(state: &mut u64, lo: i64, hi: i64) -> i64 {
    let span = (hi - lo + 1) as u64;
    lo + (splitmix64(state) % span) as i64
}

/// Resolve a serving model by name. The registry of graphs the `graph`
/// request key accepts; unknown names are a client error, not a panic.
#[must_use]
pub fn model_graph(name: &str) -> Option<unit_graph::Graph> {
    match name {
        "transformer-tiny" => Some(unit_graph::models::transformer_tiny()),
        "transformer-micro" => Some(unit_graph::models::transformer_micro()),
        _ => None,
    }
}

/// The model's input tokens for a request seed: a `[1, rows, cols]`
/// tensor of values in `0..=127` (the quantized-token domain, in range
/// for every registered target's data dtype — u8, i8 and f16 alike).
#[must_use]
pub fn input_tokens(seed: u64, rows: i64, cols: i64) -> Compact {
    let mut state = seed ^ 0x746f_6b65_6e73; // domain-separate from parameters
    let mut t = Compact::zeros(1, rows, cols);
    for v in &mut t.vals {
        *v = draw(&mut state, 0, 127);
    }
    t
}

/// The implicit weight of a plan step: `W[b][j][k]` in `-63..=63`,
/// seeded from `(model, step)` — identical for every request and
/// every replica.
#[must_use]
pub fn implicit_weight(model: &str, step: &str, batch: i64, n: i64, k: i64) -> Compact {
    let mut state = fnv1a(&[model, step, "weight"]);
    let mut w = Compact::zeros(batch, n, k);
    for v in &mut w.vals {
        *v = draw(&mut state, -63, 63);
    }
    w
}

/// The implicit bias vector of a plan step: `[1, 1, cols]` in
/// `-8192..=8192` (accumulator scale), seeded from `(model, step)`.
#[must_use]
pub fn implicit_bias(model: &str, step: &str, cols: i64) -> Compact {
    let mut state = fnv1a(&[model, step, "bias"]);
    let mut b = Compact::zeros(1, 1, cols);
    for v in &mut b.vals {
        *v = draw(&mut state, -8192, 8192);
    }
    b
}

/// Adapt a producer's logical tensor to the `[batch, m, k]` activation a
/// GEMM consumes. Three shapes occur in the transformer family:
///
/// * identity — dims already match;
/// * head split — `[1, m, batch*k]` viewed per head as `[batch, m, k]`
///   (Q/K/V projections feeding the per-head attention matmuls);
/// * head merge — `[batch, m, k/batch]` concatenated back to
///   `[1, m, k]` (per-head attention output feeding the output
///   projection).
///
/// # Errors
///
/// A description of the shape mismatch when no adapter applies.
pub fn gather_data(src: &Compact, batch: i64, m: i64, k: i64) -> Result<Compact, String> {
    if (src.batch, src.rows, src.cols) == (batch, m, k) {
        return Ok(src.clone());
    }
    if src.batch == 1 && src.rows == m && src.cols == batch * k && batch > 1 {
        // Head split.
        let mut out = Compact::zeros(batch, m, k);
        for b in 0..batch {
            for i in 0..m {
                for kk in 0..k {
                    out.set(b, i, kk, src.get(0, i, b * k + kk));
                }
            }
        }
        return Ok(out);
    }
    if batch == 1 && src.rows == m && src.batch > 1 && src.batch * src.cols == k {
        // Head merge.
        let per = src.cols;
        let mut out = Compact::zeros(1, m, k);
        for i in 0..m {
            for j in 0..k {
                out.set(0, i, j, src.get(j / per, i, j % per));
            }
        }
        return Ok(out);
    }
    Err(format!(
        "activation of shape [{}, {}, {}] does not adapt to [{batch}, {m}, {k}]",
        src.batch, src.rows, src.cols
    ))
}

/// View a producer's activation as a GEMM weight `W[b][j][k]`
/// (`[batch, n, k]`). `rows_are_n` carries the orientation the plan
/// builder proved: the producer's rows enumerate this GEMM's output
/// columns (`QK^T` scores — `W[b][j][k] = src[0][j][b*k + k']`) or its
/// reduction axis (scores-times-V — `W[b][j][k] = src[0][k][b*n + j]`).
///
/// # Errors
///
/// A description of the shape mismatch.
pub fn weight_from_activation(
    src: &Compact,
    batch: i64,
    n: i64,
    k: i64,
    rows_are_n: bool,
) -> Result<Compact, String> {
    let want = if rows_are_n {
        (1, n, batch * k)
    } else {
        (1, k, batch * n)
    };
    if (src.batch, src.rows, src.cols) != want {
        return Err(format!(
            "weight producer of shape [{}, {}, {}] does not view as [{batch}, {n}, {k}] \
             (rows_are_n = {rows_are_n})",
            src.batch, src.rows, src.cols
        ));
    }
    let mut w = Compact::zeros(batch, n, k);
    for b in 0..batch {
        for j in 0..n {
            for kk in 0..k {
                let v = if rows_are_n {
                    src.get(0, j, b * k + kk)
                } else {
                    src.get(0, kk, b * n + j)
                };
                w.set(b, j, kk, v);
            }
        }
    }
    Ok(w)
}

/// Encode one logical value into a kernel buffer cell, clamped to the
/// dtype's representable range. The serving convention is
/// unsigned-asymmetric on u8 targets: negative activations saturate to
/// the zero point. Deterministic, so both executors and both serving
/// modes see identical operands.
fn store(buf: &mut TypedBuf, at: usize, v: i64) {
    let s = match buf.dtype {
        DType::I8 => Scalar::Int(v.clamp(-128, 127)),
        DType::U8 => Scalar::Int(v.clamp(0, 255)),
        DType::I16 => Scalar::Int(v.clamp(-32768, 32767)),
        DType::U16 => Scalar::Int(v.clamp(0, 65535)),
        DType::I32 | DType::I64 => Scalar::Int(v),
        DType::F16 | DType::F32 => Scalar::Float(v as f64),
    };
    buf.set(at, s);
}

/// Scatter the activation and weight compacts into the kernel's first
/// two buffers, following the lowered layout (recognized by rank, the
/// same discrimination [`EpiGeom::for_output`] uses):
///
/// * CPU blocked: data `[batch, m, k/rw, rw]`, weight
///   `[batch, n/lanes, k/rw, lanes, rw]`;
/// * GPU padded: data `[batch, rows_pad, red]`, weight
///   `[batch, red, cols_pad]`.
///
/// Padding cells are left at their zeroed allocation, so padded
/// reduction lanes contribute nothing.
///
/// # Errors
///
/// A description of an unrecognized buffer layout.
pub fn scatter_operands(
    func: &TirFunc,
    data: &Compact,
    weight: &Compact,
    bufs: &mut [TypedBuf],
) -> Result<(), String> {
    let (batch, m, k) = (data.batch, data.rows, data.cols);
    let n = weight.rows;
    let dshape = func.buffers[0].shape.clone();
    let wshape = func.buffers[1].shape.clone();
    match dshape.as_slice() {
        [b, mm, cb, rw] if *b == batch && *mm == m && cb * rw >= k => {
            for bb in 0..batch {
                for i in 0..m {
                    for kk in 0..k {
                        let at = (((bb * m + i) * cb + kk / rw) * rw + kk % rw) as usize;
                        store(&mut bufs[0], at, data.get(bb, i, kk));
                    }
                }
            }
        }
        [b, rp, red] if *b == batch && *rp >= m && *red >= k => {
            for bb in 0..batch {
                for i in 0..m {
                    for kk in 0..k {
                        let at = ((bb * rp + i) * red + kk) as usize;
                        store(&mut bufs[0], at, data.get(bb, i, kk));
                    }
                }
            }
        }
        other => {
            return Err(format!(
                "data buffer shape {other:?} fits neither layout for [{batch}, {m}, {k}]"
            ))
        }
    }
    match wshape.as_slice() {
        [b, nb, cb, lanes, rw] if *b == batch && nb * lanes >= n && cb * rw >= k => {
            for bb in 0..batch {
                for j in 0..n {
                    for kk in 0..k {
                        let at = ((((bb * nb + j / lanes) * cb + kk / rw) * lanes + j % lanes) * rw
                            + kk % rw) as usize;
                        store(&mut bufs[1], at, weight.get(bb, j, kk));
                    }
                }
            }
        }
        [b, red, cp] if *b == batch && *red >= k && *cp >= n => {
            for bb in 0..batch {
                for j in 0..n {
                    for kk in 0..k {
                        let at = ((bb * red + kk) * cp + j) as usize;
                        store(&mut bufs[1], at, weight.get(bb, j, kk));
                    }
                }
            }
        }
        other => {
            return Err(format!(
                "weight buffer shape {other:?} fits neither layout for [{batch}, {n}, {k}]"
            ))
        }
    }
    Ok(())
}

/// Fill a fused kernel's epilogue operand buffers (bias vectors and
/// residual tensors, in chain order) from their compacts.
///
/// # Errors
///
/// A description of an operand/geometry mismatch.
pub fn fill_epilogue_operands(
    func: &TirFunc,
    bias: &Compact,
    residuals: &[&Compact],
    bufs: &mut [TypedBuf],
) -> Result<(), String> {
    let Some(epi) = &func.epilogue else {
        return Ok(());
    };
    let g = epi.geom;
    let mut next_residual = 0;
    for instr in &epi.instrs {
        let Some(id) = instr.operand else { continue };
        let ix = id.0 as usize;
        match instr.op {
            EpiOp::Bias => {
                if bias.cols != g.cols {
                    return Err(format!(
                        "bias of {} columns feeding a {}-column epilogue",
                        bias.cols, g.cols
                    ));
                }
                for j in 0..g.cols {
                    store(&mut bufs[ix], j as usize, bias.get(0, 0, j));
                }
            }
            EpiOp::Add => {
                let r = residuals.get(next_residual).ok_or_else(|| {
                    format!("epilogue needs residual #{next_residual} but none was wired")
                })?;
                next_residual += 1;
                if (r.batch, r.rows, r.cols) != (g.batch, g.rows, g.cols) {
                    return Err(format!(
                        "residual of shape [{}, {}, {}] feeding a [{}, {}, {}] epilogue",
                        r.batch, r.rows, r.cols, g.batch, g.rows, g.cols
                    ));
                }
                for (at, &v) in r.vals.iter().enumerate() {
                    store(&mut bufs[ix], at, v);
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Gather a kernel's logical output cells back into a [`Compact`],
/// leaving layout padding behind.
#[must_use]
pub fn gather_output(buf: &TypedBuf, geom: EpiGeom) -> Compact {
    let mut out = Compact::zeros(geom.batch, geom.rows, geom.cols);
    for b in 0..geom.batch {
        for i in 0..geom.rows {
            for j in 0..geom.cols {
                let v = unit_interp::cell_to_i64(buf.get(geom.flat(b, i, j)));
                out.set(b, i, j, v);
            }
        }
    }
    out
}

/// Apply an epilogue chain to a gathered output, reference style — the
/// **unfused** serving baseline, and the independent check of
/// `unit_interp::run_epilogue`, which both kernel executors share. Same
/// fixed-point helpers, same op order and row-reduction structure, so
/// the unfused result is bit-identical to the fused tape's (compacts
/// hold exact `i64`; the buffer round-trips the fused path performs are
/// exact in the serving value domain).
///
/// # Errors
///
/// A description of an operand/geometry mismatch.
pub fn apply_epilogue_reference(
    out: &mut Compact,
    epi: &EpilogueSpec,
    bias: &Compact,
    residuals: &[&Compact],
) -> Result<(), String> {
    let mut next_residual = 0;
    for op in epi.iter() {
        match op {
            EpiOp::Bias | EpiOp::Add | EpiOp::Relu | EpiOp::Quant => {
                let residual = if op == EpiOp::Add {
                    let r = residuals.get(next_residual).ok_or_else(|| {
                        format!("epilogue needs residual #{next_residual} but none was wired")
                    })?;
                    next_residual += 1;
                    if (r.batch, r.rows, r.cols) != (out.batch, out.rows, out.cols) {
                        return Err("residual shape mismatch".to_string());
                    }
                    Some(*r)
                } else {
                    if op == EpiOp::Bias && bias.cols != out.cols {
                        return Err(format!(
                            "bias of {} columns feeding {} output columns",
                            bias.cols, out.cols
                        ));
                    }
                    None
                };
                for b in 0..out.batch {
                    for i in 0..out.rows {
                        for j in 0..out.cols {
                            let x = out.get(b, i, j);
                            let x = match op {
                                EpiOp::Bias => x + bias.get(0, 0, j),
                                EpiOp::Add => x + residual.expect("checked above").get(b, i, j),
                                EpiOp::Relu => x.max(0),
                                EpiOp::Quant => requantize(x),
                                _ => unreachable!(),
                            };
                            out.set(b, i, j, x);
                        }
                    }
                }
            }
            EpiOp::Softmax => {
                let mut row = vec![0i64; out.cols as usize];
                for b in 0..out.batch {
                    for i in 0..out.rows {
                        for j in 0..out.cols {
                            row[j as usize] = out.get(b, i, j);
                        }
                        let max = row.iter().copied().max().unwrap_or(0);
                        for v in &mut row {
                            *v = exp_q15(max - *v);
                        }
                        let sum: i64 = row.iter().sum();
                        for (j, &e) in row.iter().enumerate() {
                            out.set(b, i, j as i64, softmax_prob(e, sum));
                        }
                    }
                }
            }
            EpiOp::LayerNorm => {
                let mut row = vec![0i64; out.cols as usize];
                for b in 0..out.batch {
                    for i in 0..out.rows {
                        for j in 0..out.cols {
                            row[j as usize] = out.get(b, i, j);
                        }
                        let (mean, sigma) = mean_sigma(&row);
                        for (j, &x) in row.iter().enumerate() {
                            out.set(b, i, j as i64, layernorm_cell(x, mean, sigma));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Resolve a plan step's residual compacts from the executed-step
/// outputs (in chain order).
///
/// # Errors
///
/// When a residual references a step that has not executed yet.
pub fn resolve_residuals<'a>(
    step: &PlanStep,
    tokens: &'a Compact,
    outputs: &'a [Compact],
) -> Result<Vec<&'a Compact>, String> {
    step.residuals
        .iter()
        .map(|src| match *src {
            PlanSource::Input => Ok(tokens),
            PlanSource::Step(s) => outputs
                .get(s)
                .ok_or_else(|| format!("residual references step {s} before it executed")),
        })
        .collect()
}

/// The `[1, rows, cols]` token geometry of a plan's graph input.
///
/// # Errors
///
/// When the graph has no 2D input node.
pub fn plan_input_dims(graph: &unit_graph::Graph) -> Result<(i64, i64), String> {
    graph
        .nodes
        .iter()
        .find_map(|n| match &n.op {
            unit_graph::OpKind::Input(shape) if shape.dims.len() == 2 => {
                Some((shape.dims[0], shape.dims[1]))
            }
            _ => None,
        })
        .ok_or_else(|| "model graph has no 2D token input".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_parameters_are_deterministic_and_in_range() {
        let a = implicit_weight("m", "s", 2, 4, 8);
        let b = implicit_weight("m", "s", 2, 4, 8);
        assert_eq!(a, b, "parameters are a pure function of (model, step)");
        assert!(a.vals.iter().all(|v| (-63..=63).contains(v)));
        let c = implicit_weight("m", "other", 2, 4, 8);
        assert_ne!(a, c, "steps get distinct parameters");
        let bias = implicit_bias("m", "s", 16);
        assert!(bias.vals.iter().all(|v| (-8192..=8192).contains(v)));
        let t = input_tokens(7, 4, 8);
        assert_eq!(t, input_tokens(7, 4, 8));
        assert_ne!(t, input_tokens(8, 4, 8));
        assert!(t.vals.iter().all(|v| (0..=127).contains(v)));
    }

    #[test]
    fn head_split_and_merge_round_trip() {
        // [1, 3, 8] split over 4 heads -> [4, 3, 2] -> merged back.
        let mut src = Compact::zeros(1, 3, 8);
        for (at, v) in src.vals.iter_mut().enumerate() {
            *v = at as i64;
        }
        let split = gather_data(&src, 4, 3, 2).unwrap();
        assert_eq!(split.get(1, 0, 0), src.get(0, 0, 2));
        assert_eq!(split.get(3, 2, 1), src.get(0, 2, 7));
        let merged = gather_data(&split, 1, 3, 8).unwrap();
        assert_eq!(merged, src);
        assert!(gather_data(&src, 3, 3, 2).is_err(), "no adapter fits");
    }

    #[test]
    fn weight_views_follow_the_orientation() {
        let mut kproj = Compact::zeros(1, 4, 6); // [1, n=4, batch*k=6]
        for (at, v) in kproj.vals.iter_mut().enumerate() {
            *v = at as i64;
        }
        let w = weight_from_activation(&kproj, 3, 4, 2, true).unwrap();
        assert_eq!(w.get(2, 1, 0), kproj.get(0, 1, 4));
        let v = weight_from_activation(&kproj, 3, 2, 4, false).unwrap();
        assert_eq!(v.get(1, 0, 3), kproj.get(0, 3, 2));
        assert!(weight_from_activation(&kproj, 2, 4, 2, true).is_err());
    }

    #[test]
    fn reference_epilogue_matches_the_oracle_pass() {
        use unit_tir::epilogue::{EpiGeom, Epilogue, EpilogueInstr};
        use unit_tir::BufId;
        // Same chain over the same values, once via run_epilogue on a
        // padded buffer, once via the compact reference.
        let geom = EpiGeom {
            batch: 2,
            rows: 3,
            cols: 5,
            rows_pad: 3,
            cols_pad: 8,
        };
        let spec = EpilogueSpec::new(&[
            EpiOp::Bias,
            EpiOp::Add,
            EpiOp::Relu,
            EpiOp::Softmax,
            EpiOp::LayerNorm,
            EpiOp::Quant,
        ]);
        let bias = implicit_bias("m", "s", 5);
        let mut residual = Compact::zeros(2, 3, 5);
        for (at, v) in residual.vals.iter_mut().enumerate() {
            *v = (at as i64 % 41) - 20;
        }
        let mut out = TypedBuf::zeros(DType::I32, (2 * 3 * 8) as usize);
        let mut compact = Compact::zeros(2, 3, 5);
        let mut state = 99u64;
        for b in 0..2 {
            for i in 0..3 {
                for j in 0..5 {
                    let v = draw(&mut state, -100_000, 100_000);
                    out.set(geom.flat(b, i, j), Scalar::Int(v));
                    compact.set(b, i, j, v);
                }
            }
        }
        // Oracle: attach operand buffers in chain order (bias, residual).
        let mut bias_buf = TypedBuf::zeros(DType::I32, 5);
        for j in 0..5 {
            bias_buf.set(j as usize, Scalar::Int(bias.get(0, 0, j)));
        }
        let mut res_buf = TypedBuf::zeros(DType::I32, 30);
        for (at, &v) in residual.vals.iter().enumerate() {
            res_buf.set(at, Scalar::Int(v));
        }
        let epi = Epilogue {
            geom,
            instrs: spec
                .iter()
                .scan(1u32, |next, op| {
                    let operand = op.needs_operand().then(|| {
                        let id = BufId(*next);
                        *next += 1;
                        id
                    });
                    Some(EpilogueInstr { op, operand })
                })
                .collect(),
        };
        let mut bufs = vec![out, bias_buf, res_buf];
        unit_interp::run_epilogue(&epi, BufId(0), &mut bufs).unwrap();
        apply_epilogue_reference(&mut compact, &spec, &bias, &[&residual]).unwrap();
        let oracle = gather_output(&bufs[0], geom);
        assert_eq!(oracle, compact, "reference pass diverged from oracle");
    }

    #[test]
    fn model_registry_resolves_known_names_only() {
        assert!(model_graph("transformer-tiny").is_some());
        assert!(model_graph("resnet-900").is_none());
        let graph = model_graph("transformer-tiny").unwrap();
        assert_eq!(plan_input_dims(&graph).unwrap(), (64, 128));
        let micro = model_graph("transformer-micro").unwrap();
        assert_eq!(plan_input_dims(&micro).unwrap(), (8, 16));
    }
}
