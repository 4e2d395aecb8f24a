//! Well-formedness verification for [`ComputeOp`]s.
//!
//! The Inspector and Rewriter assume several invariants (canonical axes,
//! affine in-bounds accesses, mixed-precision-consistent dtypes). This module
//! checks them once at construction so downstream passes can rely on them.

use std::collections::BTreeSet;
use std::fmt;

use crate::axis::AxisId;
use crate::dtype::DType;
use crate::expr::{Expr, Load};
use crate::op::{ComputeOp, InitExpr, TensorId};

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An expression references an axis that the op does not declare.
    UnknownAxis(AxisId),
    /// An expression references a tensor that the op does not declare.
    UnknownTensor(TensorId),
    /// An axis's extent is zero or negative.
    NonPositiveExtent {
        /// The offending axis.
        axis: AxisId,
        /// Its declared extent.
        extent: i64,
    },
    /// A load's (or the output access's) index count does not match the
    /// tensor's rank.
    RankMismatch {
        /// The offending tensor.
        tensor: TensorId,
        /// The tensor's declared rank.
        expected: usize,
        /// The number of indices in the access.
        got: usize,
    },
    /// A load may access an element outside the tensor's extent.
    OutOfBounds {
        /// The offending tensor.
        tensor: TensorId,
        /// Dimension of the potential violation.
        dim: usize,
        /// Inclusive lower bound of the index expression.
        min: i64,
        /// Inclusive upper bound of the index expression.
        max: i64,
        /// The dimension's extent.
        extent: i64,
    },
    /// The two operands of a binary node have different dtypes.
    BinaryDTypeMismatch(DType, DType),
    /// The update expression's dtype differs from the output dtype.
    UpdateDTypeMismatch {
        /// The output dtype.
        output: DType,
        /// The update expression's dtype.
        update: DType,
    },
    /// The init tensor's dtype differs from the output dtype.
    InitDTypeMismatch {
        /// The output dtype.
        output: DType,
        /// The init tensor's dtype.
        init: DType,
    },
    /// The output is read by the update expression (only the accumulator
    /// position may reference it).
    OutputReadInUpdate,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnknownAxis(a) => write!(f, "expression uses undeclared axis {a}"),
            VerifyError::UnknownTensor(t) => write!(f, "expression uses undeclared tensor {t}"),
            VerifyError::NonPositiveExtent { axis, extent } => {
                write!(f, "axis {axis} has non-positive extent {extent}")
            }
            VerifyError::RankMismatch {
                tensor,
                expected,
                got,
            } => {
                write!(
                    f,
                    "access of {tensor} has {got} indices but rank is {expected}"
                )
            }
            VerifyError::OutOfBounds {
                tensor,
                dim,
                min,
                max,
                extent,
            } => write!(
                f,
                "access of {tensor} dim {dim} spans [{min}, {max}] outside extent {extent}"
            ),
            VerifyError::BinaryDTypeMismatch(a, b) => {
                write!(f, "binary operands have mismatched dtypes {a} and {b}")
            }
            VerifyError::UpdateDTypeMismatch { output, update } => {
                write!(
                    f,
                    "update dtype {update} does not match output dtype {output}"
                )
            }
            VerifyError::InitDTypeMismatch { output, init } => {
                write!(f, "init dtype {init} does not match output dtype {output}")
            }
            VerifyError::OutputReadInUpdate => {
                write!(f, "update expression reads the output tensor")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify the invariants of a [`ComputeOp`].
///
/// # Errors
///
/// Returns the first violated invariant found; see [`VerifyError`].
pub fn verify_op(op: &ComputeOp) -> Result<(), VerifyError> {
    // Axis fields are public, so `Axis::new`'s positivity assert can be
    // bypassed; every bound below assumes it.
    if let Some(a) = op.all_axes().into_iter().find(|a| a.extent <= 0) {
        return Err(VerifyError::NonPositiveExtent {
            axis: a.id,
            extent: a.extent,
        });
    }
    let declared: BTreeSet<AxisId> = op.all_axes().iter().map(|a| a.id).collect();
    let extent_of = |a: AxisId| op.extent(a);

    let check_load = |load: &Load| -> Result<(), VerifyError> {
        let Some(decl) = op.tensors.get(load.tensor.0 as usize) else {
            return Err(VerifyError::UnknownTensor(load.tensor));
        };
        if decl.shape.len() != load.indices.len() {
            return Err(VerifyError::RankMismatch {
                tensor: load.tensor,
                expected: decl.shape.len(),
                got: load.indices.len(),
            });
        }
        for (dim, ix) in load.indices.iter().enumerate() {
            for v in ix.vars() {
                if !declared.contains(&v) {
                    return Err(VerifyError::UnknownAxis(v));
                }
            }
            let min = ix.min_value(&extent_of);
            let max = ix.max_value(&extent_of);
            if min < 0 || max >= decl.shape[dim] {
                return Err(VerifyError::OutOfBounds {
                    tensor: load.tensor,
                    dim,
                    min,
                    max,
                    extent: decl.shape[dim],
                });
            }
        }
        Ok(())
    };

    // Check every load in the update, and that binary dtypes agree.
    let mut err: Option<VerifyError> = None;
    op.update.visit(&mut |e| {
        if err.is_some() {
            return;
        }
        match e {
            Expr::Load(l) => {
                if let Err(x) = check_load(l) {
                    err = Some(x);
                } else if l.tensor == op.output {
                    err = Some(VerifyError::OutputReadInUpdate);
                }
            }
            Expr::Bin(_, lhs, rhs) => {
                let resolver = |t: TensorId| op.dtype_of(t);
                let lt = lhs.dtype(&resolver);
                let rt = rhs.dtype(&resolver);
                if lt != rt {
                    err = Some(VerifyError::BinaryDTypeMismatch(lt, rt));
                }
            }
            _ => {}
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    // The update must produce the output dtype.
    let resolver = |t: TensorId| op.dtype_of(t);
    let update_dt = op.update.dtype(&resolver);
    let out_dt = op.output_decl().dtype;
    if update_dt != out_dt {
        return Err(VerifyError::UpdateDTypeMismatch {
            output: out_dt,
            update: update_dt,
        });
    }

    // Init consistency.
    if let InitExpr::Tensor(l) = &op.init {
        check_load(l)?;
        let init_dt = op
            .tensors
            .get(l.tensor.0 as usize)
            .map(|t| t.dtype)
            .ok_or(VerifyError::UnknownTensor(l.tensor))?;
        if init_dt != out_dt {
            return Err(VerifyError::InitDTypeMismatch {
                output: out_dt,
                init: init_dt,
            });
        }
    }

    // Output access sanity (builder-produced ops always satisfy this, but
    // hand-built ops may not).
    let out_rank = op.output_decl().shape.len();
    if op.out_indices.len() != out_rank {
        return Err(VerifyError::RankMismatch {
            tensor: op.output,
            expected: out_rank,
            got: op.out_indices.len(),
        });
    }
    for (dim, ix) in op.out_indices.iter().enumerate() {
        for v in ix.vars() {
            if !declared.contains(&v) {
                return Err(VerifyError::UnknownAxis(v));
            }
        }
        let min = ix.min_value(&extent_of);
        let max = ix.max_value(&extent_of);
        let extent = op.output_decl().shape[dim];
        if min < 0 || max >= extent {
            return Err(VerifyError::OutOfBounds {
                tensor: op.output,
                dim,
                min,
                max,
                extent,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{conv2d_hwc, OpBuilder};
    use crate::index::LinExpr;
    use crate::op::InitExpr;

    #[test]
    fn builder_ops_verify() {
        let op = conv2d_hwc(8, 8, 16, 32, 3, 3);
        assert_eq!(verify_op(&op), Ok(()));
    }

    #[test]
    fn out_of_bounds_access_is_caught() {
        let mut op = conv2d_hwc(8, 8, 16, 32, 3, 3);
        // Corrupt: shrink the data tensor so x+r overflows.
        op.tensors[0].shape[0] = 4;
        match verify_op(&op) {
            Err(VerifyError::OutOfBounds {
                dim: 0, extent: 4, ..
            }) => {}
            other => panic!("expected out-of-bounds, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_binary_dtypes_are_caught() {
        let mut b = OpBuilder::new("bad");
        let a = b.tensor("a", &[4], DType::U8);
        let c = b.tensor("c", &[4], DType::I8);
        let i = b.axis("i", 4);
        // u8 * i8 without casts: ill-typed.
        let e = b.load(a, vec![i.into()]) * b.load(c, vec![i.into()]);
        let op = ComputeOp {
            name: "bad".into(),
            tensors: bd_tensors(&b),
            output: TensorId(2),
            axes: vec![crate::Axis::new(
                AxisId(0),
                "i",
                4,
                crate::AxisKind::DataParallel,
            )],
            reduce_axes: vec![],
            out_indices: vec![LinExpr::axis(AxisId(0))],
            init: InitExpr::Identity,
            update: e,
            reduce_op: crate::ReduceOp::Sum,
        };
        assert!(matches!(
            verify_op(&op),
            Err(VerifyError::BinaryDTypeMismatch(..))
        ));
    }

    // Helper to pull the builder's tensors plus a synthetic output decl.
    fn bd_tensors(_b: &OpBuilder) -> Vec<crate::TensorDecl> {
        vec![
            crate::TensorDecl {
                id: TensorId(0),
                name: "a".into(),
                shape: vec![4],
                dtype: DType::U8,
            },
            crate::TensorDecl {
                id: TensorId(1),
                name: "c".into(),
                shape: vec![4],
                dtype: DType::I8,
            },
            crate::TensorDecl {
                id: TensorId(2),
                name: "o".into(),
                shape: vec![4],
                dtype: DType::U8,
            },
        ]
    }

    #[test]
    fn rank_mismatch_is_caught() {
        let mut op = conv2d_hwc(8, 8, 16, 32, 3, 3);
        // Corrupt a load: drop one index from the weight access.
        if let Expr::Bin(_, _, rhs) = &mut op.update {
            if let Expr::Cast(_, inner) = rhs.as_mut() {
                if let Expr::Load(l) = inner.as_mut() {
                    l.indices.pop();
                }
            }
        }
        assert!(matches!(
            verify_op(&op),
            Err(VerifyError::RankMismatch { .. })
        ));
    }

    #[test]
    fn output_access_longer_than_output_rank_is_caught() {
        let mut op = conv2d_hwc(8, 8, 16, 32, 3, 3);
        let rank = op.output_decl().shape.len();
        op.out_indices.push(LinExpr::constant(0));
        assert_eq!(
            verify_op(&op),
            Err(VerifyError::RankMismatch {
                tensor: op.output,
                expected: rank,
                got: rank + 1,
            })
        );
    }

    #[test]
    fn output_access_shorter_than_output_rank_is_caught() {
        let mut op = conv2d_hwc(8, 8, 16, 32, 3, 3);
        let rank = op.output_decl().shape.len();
        op.out_indices.pop();
        assert_eq!(
            verify_op(&op),
            Err(VerifyError::RankMismatch {
                tensor: op.output,
                expected: rank,
                got: rank - 1,
            })
        );
    }

    #[test]
    fn non_positive_axis_extents_are_caught() {
        for extent in [0, -3] {
            let mut op = conv2d_hwc(8, 8, 16, 32, 3, 3);
            // The fields are public, so `Axis::new`'s assert is bypassed.
            op.reduce_axes[0].extent = extent;
            assert_eq!(
                verify_op(&op),
                Err(VerifyError::NonPositiveExtent {
                    axis: op.reduce_axes[0].id,
                    extent,
                })
            );
        }
    }

    #[test]
    fn update_reading_output_is_rejected() {
        let mut b = OpBuilder::new("selfref");
        let a = b.tensor("a", &[4], DType::I32);
        let i = b.axis("i", 4);
        let e = b.load(a, vec![i.into()]);
        let mut op = b.compute("o", DType::I32, vec![i.into()], InitExpr::Identity, e);
        // Corrupt: make the update read the output.
        op.update = Expr::load(op.output, vec![LinExpr::axis(AxisId(0))]);
        assert!(matches!(
            verify_op(&op),
            Err(VerifyError::OutputReadInUpdate)
        ));
    }
}
