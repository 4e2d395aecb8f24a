//! The fused-epilogue executor over typed buffers.
//!
//! [`run_epilogue`] is the one routine that applies a function's
//! [`unit_tir::Epilogue`] region to kernel buffers. Both executors call
//! it once the body has finished: the tree-walk oracle
//! ([`crate::exec::run`]) after its walk, the instruction tape
//! ([`crate::tape`]) after its last op, so they agree on every epilogue
//! by construction. The independent check of the epilogue semantics is
//! the compact-domain reference in unit-serve
//! (`model::apply_epilogue_reference`), which the serving suites compare
//! against the fused kernels.
//!
//! All epilogue math is fixed-point over `i64`: cells are read through
//! [`cell_to_i64`] (floats floor-truncate), transformed exactly, and
//! written back through [`i64_to_cell`] in the buffer's scalar class
//! after every instruction. On float accumulators (the GPU target) the
//! serving value domain keeps every intermediate below 2^24, so the
//! round-trip through `f32` is exact and the integer semantics survive
//! unchanged.

use unit_isa::{Scalar, TypedBuf};
use unit_tir::epilogue::{
    exp_q15, layernorm_cell, mean_sigma, requantize, softmax_prob, EpiOp, Epilogue,
};
use unit_tir::BufId;

use crate::exec::ExecError;

/// Read one cell as an exact `i64` (floats floor-truncate via `as`).
#[inline]
#[must_use]
pub fn cell_to_i64(s: Scalar) -> i64 {
    match s {
        Scalar::Int(v) => v,
        Scalar::Float(f) => f as i64,
    }
}

/// Encode an `i64` in the scalar class a buffer of `dtype` stores.
#[inline]
#[must_use]
pub fn i64_to_cell(dtype: unit_dsl::DType, v: i64) -> Scalar {
    if dtype.is_float() {
        Scalar::Float(v as f64)
    } else {
        Scalar::Int(v)
    }
}

/// Check an epilogue region against the buffers it binds, `len(i)`
/// being the length of buffer `i` of `count`: the geometry must fit the
/// output, and every operand must name a buffer long enough for its op's
/// access pattern. [`crate::tape::Tape::compile`] runs it against the
/// declarations, [`run_epilogue`] against the buffers.
///
/// # Errors
///
/// The errors [`run_epilogue`] documents.
pub(crate) fn check_epilogue(
    epi: &Epilogue,
    output: BufId,
    count: usize,
    len: impl Fn(usize) -> usize,
) -> Result<(), ExecError> {
    let g = epi.geom;
    let in_range = |ix: usize| {
        if ix < count {
            Ok(ix)
        } else {
            Err(ExecError::BufferCount {
                expected: ix + 1,
                got: count,
            })
        }
    };
    let out_len = len(in_range(output.0 as usize)?);
    if !g.fits(out_len) {
        return Err(ExecError::BufferDecl(format!(
            "epilogue geometry {g:?} escapes output b{} of {out_len} elements",
            output.0
        )));
    }
    for instr in &epi.instrs {
        let Some(id) = instr.operand else { continue };
        let ix = in_range(id.0 as usize)?;
        let need = match instr.op {
            EpiOp::Bias => g.cols,
            EpiOp::Add => g.batch * g.rows * g.cols,
            _ => 0,
        } as usize;
        if len(ix) < need {
            return Err(ExecError::BufferDecl(format!(
                "epilogue operand b{ix} holds {} elements, needs {need}",
                len(ix)
            )));
        }
    }
    Ok(())
}

/// Apply a function's epilogue region to its output buffer: one full
/// pass over the logical cells per instruction, each cell stored back in
/// the output's dtype, row reductions gathered per row (a softmax or
/// layernorm allocates one row buffer per call).
///
/// # Errors
///
/// Before any cell changes: [`ExecError::BufferCount`] when the output
/// or an operand id is out of range; [`ExecError::BufferDecl`] when the
/// geometry escapes the output or an operand buffer is shorter than its
/// op reads.
pub fn run_epilogue(epi: &Epilogue, output: BufId, bufs: &mut [TypedBuf]) -> Result<(), ExecError> {
    check_epilogue(epi, output, bufs.len(), |i| bufs[i].len())?;
    let g = epi.geom;
    let out_ix = output.0 as usize;
    let dtype = bufs[out_ix].dtype;
    for instr in &epi.instrs {
        let operand = instr.operand.map(|id| id.0 as usize);
        match instr.op {
            EpiOp::Bias | EpiOp::Add | EpiOp::Relu | EpiOp::Quant => {
                for b in 0..g.batch {
                    for i in 0..g.rows {
                        for j in 0..g.cols {
                            let at = g.flat(b, i, j);
                            let mut x = cell_to_i64(bufs[out_ix].get(at));
                            x = match instr.op {
                                EpiOp::Bias => {
                                    let op_ix = operand.expect("bias has an operand");
                                    x + cell_to_i64(bufs[op_ix].get(j as usize))
                                }
                                EpiOp::Add => {
                                    let op_ix = operand.expect("add has an operand");
                                    let r = ((b * g.rows + i) * g.cols + j) as usize;
                                    x + cell_to_i64(bufs[op_ix].get(r))
                                }
                                EpiOp::Relu => x.max(0),
                                EpiOp::Quant => requantize(x),
                                _ => unreachable!(),
                            };
                            bufs[out_ix].set(at, i64_to_cell(dtype, x));
                        }
                    }
                }
            }
            EpiOp::Softmax => {
                let mut row = vec![0i64; g.cols as usize];
                for b in 0..g.batch {
                    for i in 0..g.rows {
                        for j in 0..g.cols {
                            row[j as usize] = cell_to_i64(bufs[out_ix].get(g.flat(b, i, j)));
                        }
                        let max = row.iter().copied().max().unwrap_or(0);
                        for v in &mut row {
                            *v = exp_q15(max - *v);
                        }
                        let sum: i64 = row.iter().sum();
                        for (j, &e) in row.iter().enumerate() {
                            bufs[out_ix].set(
                                g.flat(b, i, j as i64),
                                i64_to_cell(dtype, softmax_prob(e, sum)),
                            );
                        }
                    }
                }
            }
            EpiOp::LayerNorm => {
                let mut row = vec![0i64; g.cols as usize];
                for b in 0..g.batch {
                    for i in 0..g.rows {
                        for j in 0..g.cols {
                            row[j as usize] = cell_to_i64(bufs[out_ix].get(g.flat(b, i, j)));
                        }
                        let (mean, sigma) = mean_sigma(&row);
                        for (j, &x) in row.iter().enumerate() {
                            bufs[out_ix].set(
                                g.flat(b, i, j as i64),
                                i64_to_cell(dtype, layernorm_cell(x, mean, sigma)),
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_dsl::DType;
    use unit_tir::epilogue::{EpiGeom, EpilogueInstr};

    fn geom() -> EpiGeom {
        EpiGeom {
            batch: 1,
            rows: 2,
            cols: 3,
            rows_pad: 2,
            cols_pad: 4,
        }
    }

    #[test]
    fn bias_relu_quant_chain_transforms_logical_cells_only() {
        let g = geom();
        let epi = Epilogue {
            geom: g,
            instrs: vec![
                EpilogueInstr {
                    op: EpiOp::Bias,
                    operand: Some(BufId(1)),
                },
                EpilogueInstr {
                    op: EpiOp::Relu,
                    operand: None,
                },
            ],
        };
        let mut out = TypedBuf::zeros(DType::I32, 8);
        for at in 0..8 {
            out.set(at, Scalar::Int(at as i64 - 4));
        }
        let pad_before = out.get(3);
        let mut bias = TypedBuf::zeros(DType::I32, 3);
        bias.set(0, Scalar::Int(10));
        bias.set(2, Scalar::Int(-100));
        let mut bufs = vec![out, bias];
        run_epilogue(&epi, BufId(0), &mut bufs).unwrap();
        // (b0,i0): [-4,-3,-2] + [10,0,-100] → relu → [6,0,0].
        assert_eq!(cell_to_i64(bufs[0].get(0)), 6);
        assert_eq!(cell_to_i64(bufs[0].get(1)), 0);
        assert_eq!(cell_to_i64(bufs[0].get(2)), 0);
        // Padding column untouched.
        assert_eq!(bufs[0].get(3), pad_before);
    }

    #[test]
    fn softmax_rows_sum_near_prob_one() {
        let g = geom();
        let epi = Epilogue {
            geom: g,
            instrs: vec![EpilogueInstr {
                op: EpiOp::Softmax,
                operand: None,
            }],
        };
        let mut out = TypedBuf::zeros(DType::I32, 8);
        // One dominant logit per row.
        out.set(0, Scalar::Int(1 << 20));
        out.set(5, Scalar::Int(1 << 20));
        let mut bufs = vec![out];
        run_epilogue(&epi, BufId(0), &mut bufs).unwrap();
        assert!(cell_to_i64(bufs[0].get(0)) > 100, "dominant logit wins");
        assert!(cell_to_i64(bufs[0].get(1)) < 30);
    }

    #[test]
    fn float_buffers_round_trip_exactly() {
        // The GPU accumulator is f32; serving values stay < 2^24 so the
        // fixed-point semantics are exact there too.
        let g = geom();
        let epi = Epilogue {
            geom: g,
            instrs: vec![EpilogueInstr {
                op: EpiOp::Quant,
                operand: None,
            }],
        };
        let mut out = TypedBuf::zeros(DType::F32, 8);
        out.set(0, Scalar::Float(123456.0));
        out.set(1, Scalar::Float(-99999.0));
        let mut bufs = vec![out];
        run_epilogue(&epi, BufId(0), &mut bufs).unwrap();
        assert_eq!(cell_to_i64(bufs[0].get(0)), requantize(123456));
        assert_eq!(cell_to_i64(bufs[0].get(1)), requantize(-99999));
    }

    #[test]
    fn geometry_escape_is_a_typed_error() {
        let g = geom();
        let epi = Epilogue {
            geom: g,
            instrs: vec![EpilogueInstr {
                op: EpiOp::Relu,
                operand: None,
            }],
        };
        let mut bufs = vec![TypedBuf::zeros(DType::I32, 4)];
        assert!(matches!(
            run_epilogue(&epi, BufId(0), &mut bufs),
            Err(ExecError::BufferDecl(_))
        ));
    }
}
