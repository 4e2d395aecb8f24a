//! Statement-tree interpretation.
//!
//! Loop annotations do not change semantics (a parallel or GPU-bound loop is
//! interpreted sequentially — the schedule validity rules in
//! [`unit_tir::schedule`] guarantee the result is identical), so one
//! interpreter covers CPU and GPU kernels.

use std::fmt;

use unit_dsl::{DType, TensorId};
use unit_isa::{registry, Scalar, TypedBuf};
use unit_tir::{IdxExpr, IntrinStmt, OperandSpec, Stmt, TExpr, TirFunc, VarId};

/// Interpretation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Buffer vector does not match the function's declarations.
    BufferCount {
        /// One buffer per declaration expected.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// A buffer's shape or dtype mismatches its declaration.
    BufferDecl(String),
    /// An intrinsic call references an unknown instruction.
    UnknownIntrinsic(String),
    /// The instruction emulation rejected its operands.
    Emulation(String),
    /// An access escaped its buffer (would be UB in generated code).
    OutOfBounds {
        /// Offending buffer index.
        buffer: u32,
        /// Flat element index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// A Load/Store supplies a different number of indices than the
    /// buffer has dimensions. Truncating would silently compute a wrong
    /// address (the old behaviour), so both the interpreter and the tape
    /// compiler reject it.
    IndexArity {
        /// Offending buffer index.
        buffer: u32,
        /// The buffer's rank (one index expected per dimension).
        expected: usize,
        /// Indices supplied by the access.
        got: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BufferCount { expected, got } => {
                write!(f, "expected {expected} buffers, got {got}")
            }
            ExecError::BufferDecl(m) => write!(f, "buffer mismatch: {m}"),
            ExecError::UnknownIntrinsic(n) => write!(f, "unknown intrinsic {n}"),
            ExecError::Emulation(m) => write!(f, "emulation failed: {m}"),
            ExecError::OutOfBounds { buffer, index, len } => {
                write!(f, "access of b{buffer}[{index}] escapes length {len}")
            }
            ExecError::IndexArity {
                buffer,
                expected,
                got,
            } => {
                write!(
                    f,
                    "access of b{buffer} supplies {got} indices for rank {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

struct Interp<'a> {
    func: &'a TirFunc,
    bufs: &'a mut [TypedBuf],
    env: Vec<i64>,
}

/// Run a TIR function on the given buffers (`bufs[i]` binds buffer `i`).
///
/// # Errors
///
/// See [`ExecError`]. Out-of-bounds accesses are reported, never silently
/// wrapped, because they would be undefined behaviour in generated code.
pub fn run(func: &TirFunc, bufs: &mut [TypedBuf]) -> Result<(), ExecError> {
    if bufs.len() != func.buffers.len() {
        return Err(ExecError::BufferCount {
            expected: func.buffers.len(),
            got: bufs.len(),
        });
    }
    for (decl, buf) in func.buffers.iter().zip(bufs.iter()) {
        if decl.len() != buf.len() || decl.dtype != buf.dtype {
            return Err(ExecError::BufferDecl(format!(
                "buffer {} expects {} x {}, got {} x {}",
                decl.name,
                decl.len(),
                decl.dtype,
                buf.len(),
                buf.dtype
            )));
        }
    }
    let mut interp = Interp {
        func,
        bufs,
        env: vec![0; func.vars.len()],
    };
    interp.stmt(&func.body)?;
    // Fused epilogue region, applied after the body by the one epilogue
    // executor (the tape calls the same routine after its last op).
    if let Some(epi) = &func.epilogue {
        crate::epilogue::run_epilogue(epi, func.output, interp.bufs)?;
    }
    Ok(())
}

impl Interp<'_> {
    fn idx(&self, e: &IdxExpr) -> i64 {
        e.eval(&|v: VarId| self.env[v.0 as usize])
    }

    fn flat(&self, buffer: unit_tir::BufId, indices: &[IdxExpr]) -> Result<usize, ExecError> {
        let decl = self.func.buffer(buffer);
        let strides = decl.strides();
        if indices.len() != strides.len() {
            return Err(ExecError::IndexArity {
                buffer: buffer.0,
                expected: strides.len(),
                got: indices.len(),
            });
        }
        let mut flat = 0i64;
        for (ix, s) in indices.iter().zip(&strides) {
            flat += self.idx(ix) * s;
        }
        let len = self.bufs[buffer.0 as usize].len();
        if flat < 0 || flat as usize >= len {
            return Err(ExecError::OutOfBounds {
                buffer: buffer.0,
                index: flat,
                len,
            });
        }
        Ok(flat as usize)
    }

    fn expr(&self, e: &TExpr) -> Result<Scalar, ExecError> {
        match e {
            TExpr::Int(v, dt) => Ok(Scalar::Int(*v).wrap(*dt)),
            TExpr::Float(bits, dt) => Ok(Scalar::Float(f64::from_bits(*bits)).wrap(*dt)),
            TExpr::Load { buffer, indices } => {
                let at = self.flat(*buffer, indices)?;
                Ok(self.bufs[buffer.0 as usize].get(at))
            }
            TExpr::Cast(dt, inner) => {
                let from = inner.dtype(&|b| self.func.buffer(b).dtype);
                Ok(self.expr(inner)?.cast(from, *dt))
            }
            TExpr::Bin(op, lhs, rhs) => {
                let dt = lhs.dtype(&|b| self.func.buffer(b).dtype);
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                Ok(Scalar::binop(*op, a, b, dt))
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), ExecError> {
        match s {
            Stmt::For(fs) => {
                for i in 0..fs.extent {
                    self.env[fs.var.0 as usize] = i;
                    self.stmt(&fs.body)?;
                }
                Ok(())
            }
            Stmt::Seq(items) => {
                for st in items {
                    self.stmt(st)?;
                }
                Ok(())
            }
            Stmt::Store(st) => {
                let value = self.expr(&st.value)?;
                let at = self.flat(st.buffer, &st.indices)?;
                self.bufs[st.buffer.0 as usize].set(at, value);
                Ok(())
            }
            Stmt::IfLikely { guards, body } => {
                for g in guards {
                    if self.idx(&g.index) >= g.bound {
                        return Ok(());
                    }
                }
                self.stmt(body)
            }
            Stmt::Intrin(is) => self.intrin(is),
            Stmt::Sync | Stmt::Nop => Ok(()),
        }
    }

    /// Gather a register from memory according to an operand spec. Lane
    /// enumeration is shared with the tape compiler
    /// ([`OperandSpec::for_each_lane`]) — the interpreter walks it per
    /// call, the tape precomputes it once.
    fn gather(&self, spec: &OperandSpec, dtype: DType) -> Result<TypedBuf, ExecError> {
        let mut reg = TypedBuf::zeros(dtype, spec.reg_len);
        let base = self.idx(&spec.base);
        let buf = &self.bufs[spec.buffer.0 as usize];
        let len = buf.len();
        let mut oob = None;
        spec.for_each_lane(|reg_at, mem_off| {
            if oob.is_some() {
                return;
            }
            let at = base + mem_off;
            if at < 0 || at as usize >= len {
                oob = Some(at);
                return;
            }
            reg.set(reg_at as usize, buf.get(at as usize));
        });
        match oob {
            Some(index) => Err(ExecError::OutOfBounds {
                buffer: spec.buffer.0,
                index,
                len,
            }),
            None => Ok(reg),
        }
    }

    /// Scatter a register back to memory.
    fn scatter(&mut self, spec: &OperandSpec, reg: &TypedBuf) -> Result<(), ExecError> {
        let base = self.idx(&spec.base);
        let len = self.bufs[spec.buffer.0 as usize].len();
        let mut writes = Vec::with_capacity(spec.reg_len);
        let mut oob = None;
        spec.for_each_lane(|reg_at, mem_off| {
            if oob.is_some() {
                return;
            }
            let at = base + mem_off;
            if at < 0 || at as usize >= len {
                oob = Some(at);
                return;
            }
            writes.push((at as usize, reg.get(reg_at as usize)));
        });
        if let Some(index) = oob {
            return Err(ExecError::OutOfBounds {
                buffer: spec.buffer.0,
                index,
                len,
            });
        }
        let buf = &mut self.bufs[spec.buffer.0 as usize];
        for (at, v) in writes {
            buf.set(at, v);
        }
        Ok(())
    }

    fn intrin(&mut self, is: &IntrinStmt) -> Result<(), ExecError> {
        let intrin = registry::by_name(&is.intrinsic)
            .ok_or_else(|| ExecError::UnknownIntrinsic(is.intrinsic.clone()))?;
        let sem = &intrin.semantics;
        let mut regs: Vec<TypedBuf> = sem
            .tensors
            .iter()
            .map(|t| TypedBuf::zeros(t.dtype, t.len()))
            .collect();

        // Data operands, positionally paired with the semantics' loads.
        let inst_loads = sem.update.loads();
        if inst_loads.len() != is.srcs.len() {
            return Err(ExecError::Emulation(format!(
                "intrinsic {} expects {} data operands, got {}",
                is.intrinsic,
                inst_loads.len(),
                is.srcs.len()
            )));
        }
        for (load, spec) in inst_loads.iter().zip(&is.srcs) {
            let dtype = sem.tensor(load.tensor).dtype;
            regs[load.tensor.0 as usize] = self.gather(spec, dtype)?;
        }
        // Accumulator operand.
        if let Some(acc_reg) = intrin.accumulator_operand() {
            let spec = is.acc.as_ref().ok_or_else(|| {
                ExecError::Emulation(format!(
                    "intrinsic {} requires an accumulator operand",
                    is.intrinsic
                ))
            })?;
            let dtype = sem.tensor(acc_reg).dtype;
            regs[acc_reg.0 as usize] = self.gather(spec, dtype)?;
        } else {
            // In-place accumulation: seed the destination register.
            let out: TensorId = sem.output;
            let dtype = sem.tensor(out).dtype;
            regs[out.0 as usize] = self.gather(&is.dst, dtype)?;
        }

        unit_isa::execute(&intrin, &mut regs).map_err(|e| ExecError::Emulation(e.to_string()))?;

        let out_reg = regs[sem.output.0 as usize].clone();
        self.scatter(&is.dst, &out_reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::{alloc_buffers, random_fill};
    use crate::reference::run_reference;
    use unit_dsl::builder::{conv2d_hwc, matmul_u8i8};
    use unit_tir::{lower::lower, schedule::Schedule};

    #[test]
    fn default_lowering_matches_reference() {
        let op = matmul_u8i8(6, 10, 24);
        let func = lower(&Schedule::new(&op), "mm").unwrap();
        let mut bufs = alloc_buffers(&func);
        random_fill(&mut bufs, 11);
        let mut reference = bufs.clone();
        run(&func, &mut bufs).unwrap();
        run_reference(&op, &mut reference).unwrap();
        assert_eq!(bufs[2], reference[2]);
    }

    #[test]
    fn split_reorder_fuse_preserve_semantics() {
        let op = conv2d_hwc(8, 8, 8, 16, 3, 3);
        let mut s = Schedule::new(&op);
        let ls = s.leaves(); // x y k r s rc
        let (ko, ki) = s.split(ls[2], 4).unwrap();
        let f = s.fuse(ls[0], ls[1]).unwrap(); // fuse x,y
        s.reorder(&[ko, f]).unwrap();
        s.annotate(ki, unit_tir::LoopKind::Unrolled).unwrap();
        let func = lower(&s, "conv_sched").unwrap();
        let mut bufs = alloc_buffers(&func);
        random_fill(&mut bufs, 3);
        let mut reference = bufs.clone();
        run(&func, &mut bufs).unwrap();
        run_reference(&op, &mut reference).unwrap();
        assert_eq!(bufs[2], reference[2]);
    }

    #[test]
    fn imperfect_tiling_matches_reference() {
        // 30 is not a multiple of 8: the residue guard must fire.
        let op = matmul_u8i8(30, 10, 12);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        let (_, _) = s.split(ls[0], 8).unwrap();
        let func = lower(&s, "mm_resid").unwrap();
        let mut bufs = alloc_buffers(&func);
        random_fill(&mut bufs, 5);
        let mut reference = bufs.clone();
        run(&func, &mut bufs).unwrap();
        run_reference(&op, &mut reference).unwrap();
        assert_eq!(bufs[2], reference[2]);
    }

    #[test]
    fn index_arity_mismatch_is_a_typed_error() {
        // Regression: a Load/Store with fewer indices than the buffer's
        // rank used to zip against the strides and silently truncate,
        // computing a wrong address instead of erroring.
        use unit_dsl::DType;
        use unit_tir::{BufId, BufferDecl, BufferScope, Stmt, StoreStmt, TirFunc};
        let buf2d = BufferDecl {
            id: BufId(0),
            name: "out".into(),
            shape: vec![4, 4],
            dtype: DType::I32,
            scope: BufferScope::Global,
        };
        let func = TirFunc {
            name: "arity".into(),
            buffers: vec![buf2d],
            vars: vec![],
            output: BufId(0),
            body: Stmt::Store(StoreStmt {
                buffer: BufId(0),
                indices: vec![IdxExpr::Const(1)], // rank 2, one index
                value: TExpr::Int(7, DType::I32),
            }),
            epilogue: None,
        };
        let mut bufs = alloc_buffers(&func);
        assert!(matches!(
            run(&func, &mut bufs),
            Err(ExecError::IndexArity {
                buffer: 0,
                expected: 2,
                got: 1
            })
        ));
        // The tape compiler rejects the same function at compile time.
        assert!(matches!(
            crate::tape::Tape::compile(&func),
            Err(ExecError::IndexArity {
                buffer: 0,
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn buffer_validation_is_enforced() {
        let op = matmul_u8i8(4, 4, 8);
        let func = lower(&Schedule::new(&op), "mm").unwrap();
        let mut bufs = alloc_buffers(&func);
        bufs.pop();
        assert!(matches!(
            run(&func, &mut bufs),
            Err(ExecError::BufferCount { .. })
        ));
    }
}
