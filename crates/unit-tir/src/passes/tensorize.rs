//! The tensorized-instruction replacement pass (Section III-C.2).
//!
//! After the Rewriter tiles and sinks the matched loops innermost and marks
//! them with a `tensorize` pragma, this pass:
//!
//! 1. verifies that the pragma'd nest is exactly the instruction's loop
//!    structure (same extents, same reduction operator, guard-free);
//! 2. prepares each register operand through the paper's "unified
//!    programming interface": every tensorized loop variable and its
//!    coefficient in each index expression is exposed, and the per-axis
//!    `(register stride, memory stride)` pairs decide whether the operand is
//!    vectorized (`stride 1`), broadcast (`stride 0`), or unrolled and
//!    concatenated (larger strides) — exactly the three patterns of
//!    Figure 5(c);
//! 3. swaps the nest for an [`IntrinStmt`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use unit_dsl::{AxisId, ComputeOp, TensorId};
use unit_isa::TensorIntrinsic;

use crate::expr::TExpr;
use crate::func::{BufId, TirFunc, VarId};
use crate::idx::IdxExpr;
use crate::stmt::{ForStmt, IntrinStmt, OperandSpec, OperandStep, Stmt};

/// What the Rewriter passes to the replacement pass.
#[derive(Debug, Clone)]
pub struct TensorizeRequest {
    /// The instruction to inject.
    pub intrinsic: TensorIntrinsic,
    /// Mapping from tensorized TIR loop variables to instruction axes
    /// (the Inspector's `f : A -> B`).
    pub loop_map: Vec<(VarId, AxisId)>,
    /// Binding of instruction register tensors to op-side buffers (the
    /// Inspector's operand binding), including the destination register.
    pub operand_map: BTreeMap<TensorId, BufId>,
}

/// Tensorization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorizeError {
    /// No loop carries the `tensorize` pragma.
    NoPragma,
    /// The pragma'd nest does not match the instruction's loops.
    NestMismatch(String),
    /// A residue guard references a tensorized loop (tensorized dimensions
    /// must be padded to a multiple of the instruction extents).
    GuardOnTensorizedLoop,
    /// The innermost body is not the accumulate pattern the instruction
    /// implements.
    BodyShape(String),
    /// Operand preparation failed (inconsistent strides or bindings).
    OperandMismatch(String),
}

impl fmt::Display for TensorizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorizeError::NoPragma => write!(f, "no loop carries the tensorize pragma"),
            TensorizeError::NestMismatch(m) => write!(f, "tensorized nest mismatch: {m}"),
            TensorizeError::GuardOnTensorizedLoop => {
                write!(
                    f,
                    "residue guard references a tensorized loop; pad the operation first"
                )
            }
            TensorizeError::BodyShape(m) => write!(f, "unsupported loop body: {m}"),
            TensorizeError::OperandMismatch(m) => write!(f, "operand preparation failed: {m}"),
        }
    }
}

impl std::error::Error for TensorizeError {}

/// Split an index expression into (strides over tensorized vars, residual
/// base). Fails if a tensorized variable occurs under division or modulo —
/// which cannot happen for split-created loops, only fused ones.
fn split_affine(e: &IdxExpr, tvars: &BTreeSet<VarId>) -> Option<(BTreeMap<VarId, i64>, IdxExpr)> {
    match e {
        IdxExpr::Var(v) if tvars.contains(v) => {
            let mut m = BTreeMap::new();
            m.insert(*v, 1);
            Some((m, IdxExpr::Const(0)))
        }
        IdxExpr::Var(_) | IdxExpr::Const(_) => Some((BTreeMap::new(), e.clone())),
        IdxExpr::Add(a, b) => {
            let (sa, ba) = split_affine(a, tvars)?;
            let (sb, bb) = split_affine(b, tvars)?;
            let mut s = sa;
            for (v, c) in sb {
                *s.entry(v).or_insert(0) += c;
            }
            Some((s, ba.add(bb)))
        }
        IdxExpr::Mul(a, k) => {
            let (sa, ba) = split_affine(a, tvars)?;
            Some((
                sa.into_iter().map(|(v, c)| (v, c * k)).collect(),
                ba.mul(*k),
            ))
        }
        IdxExpr::FloorDiv(a, k) => {
            if a.vars().iter().any(|v| tvars.contains(v)) {
                None
            } else {
                Some((BTreeMap::new(), a.clone().floor_div(*k)))
            }
        }
        IdxExpr::Mod(a, k) => {
            if a.vars().iter().any(|v| tvars.contains(v)) {
                None
            } else {
                Some((BTreeMap::new(), a.clone().modulo(*k)))
            }
        }
    }
}

/// Flatten a multi-dim TIR access into one element-offset expression.
fn flatten(indices: &[IdxExpr], strides: &[i64]) -> IdxExpr {
    let mut out = IdxExpr::Const(0);
    for (ix, s) in indices.iter().zip(strides) {
        out = out.add(ix.clone().mul(*s));
    }
    out
}

/// Build the operand spec for one (op access, instruction access) pair.
#[allow(clippy::too_many_arguments)]
fn build_operand(
    func: &TirFunc,
    inst: &ComputeOp,
    // Op side.
    buffer: BufId,
    op_indices: &[IdxExpr],
    // Instruction side.
    reg: TensorId,
    inst_indices: &[unit_dsl::LinExpr],
    // Loop mapping.
    var_of_axis: &BTreeMap<AxisId, VarId>,
    tvars: &BTreeSet<VarId>,
) -> Result<OperandSpec, TensorizeError> {
    let buf = func.buffer(buffer);
    let flat_mem = flatten(op_indices, &buf.strides());
    let (mem_strides, base) = split_affine(&flat_mem, tvars).ok_or_else(|| {
        TensorizeError::OperandMismatch(format!(
            "access of {buffer} is not affine in the tensorized loops"
        ))
    })?;

    let reg_decl = inst.tensor(reg);
    let flat_reg = reg_decl.flatten_access(inst_indices);

    // Canonical instruction axis order.
    let inst_axes: Vec<_> = inst.all_axes().into_iter().cloned().collect();
    let mut steps = Vec::new();
    for (pos, axis) in inst_axes.iter().enumerate() {
        let reg_stride = flat_reg.coeff(axis.id);
        let mem_stride = var_of_axis
            .get(&axis.id)
            .and_then(|v| mem_strides.get(v))
            .copied()
            .unwrap_or(0);
        if reg_stride == 0 {
            if mem_stride != 0 {
                return Err(TensorizeError::OperandMismatch(format!(
                    "operation access of {buffer} varies along instruction axis {} \
                     but register {} does not (S'(u) ⊄ S(v))",
                    axis.name, reg_decl.name
                )));
            }
            continue;
        }
        steps.push(OperandStep {
            inst_axis: pos,
            extent: axis.extent,
            reg_stride,
            mem_stride,
        });
    }
    let span: i64 = steps.iter().map(|s| s.extent).product();
    if span != reg_decl.len() as i64 {
        return Err(TensorizeError::OperandMismatch(format!(
            "register {} has {} elements but the mapped loops span {span}",
            reg_decl.name,
            reg_decl.len()
        )));
    }
    Ok(OperandSpec {
        buffer,
        base,
        steps,
        reg_len: reg_decl.len(),
    })
}

/// Walk inward from the pragma loop, collecting the tensorized loops and the
/// innermost statement.
fn peel_nest(fs: &ForStmt) -> (Vec<(VarId, i64)>, &Stmt) {
    let mut loops = vec![(fs.var, fs.extent)];
    let mut cur: &Stmt = &fs.body;
    while let Stmt::For(inner) = cur {
        loops.push((inner.var, inner.extent));
        cur = &inner.body;
    }
    (loops, cur)
}

/// Apply the tensorize-replacement pass.
///
/// # Errors
///
/// See [`TensorizeError`]; every variant corresponds to a structural
/// precondition the Rewriter must establish.
pub fn tensorize_pass(func: &TirFunc, req: &TensorizeRequest) -> Result<TirFunc, TensorizeError> {
    let pragma = func
        .body
        .find_pragma("tensorize")
        .ok_or(TensorizeError::NoPragma)?;
    let (nest, innermost) = peel_nest(pragma);

    let inst = &req.intrinsic.semantics;
    let map: BTreeMap<VarId, AxisId> = req.loop_map.iter().copied().collect();
    let var_of_axis: BTreeMap<AxisId, VarId> = req.loop_map.iter().map(|(v, a)| (*a, *v)).collect();
    let tvars: BTreeSet<VarId> = map.keys().copied().collect();

    // 1. Nest structure must equal the mapped instruction loops.
    if nest.len() != req.loop_map.len() {
        return Err(TensorizeError::NestMismatch(format!(
            "nest has {} loops, mapping has {}",
            nest.len(),
            req.loop_map.len()
        )));
    }
    for (v, extent) in &nest {
        let axis = map.get(v).ok_or_else(|| {
            TensorizeError::NestMismatch(format!("loop {v} is not in the mapping"))
        })?;
        let inst_extent = inst.extent(*axis);
        if *extent != inst_extent {
            return Err(TensorizeError::NestMismatch(format!(
                "loop {v} has extent {extent}, instruction axis expects {inst_extent}"
            )));
        }
    }

    // 2. Guards may wrap the store but must not involve tensorized loops.
    let (outer_guards, store) = match innermost {
        Stmt::IfLikely { guards, body } => {
            for g in guards {
                if g.index.vars().iter().any(|v| tvars.contains(v)) {
                    return Err(TensorizeError::GuardOnTensorizedLoop);
                }
            }
            match body.as_ref() {
                Stmt::Store(st) => (guards.clone(), st),
                other => {
                    return Err(TensorizeError::BodyShape(format!(
                        "guarded body is not a store: {other}"
                    )))
                }
            }
        }
        Stmt::Store(st) => (Vec::new(), st),
        other => {
            return Err(TensorizeError::BodyShape(format!(
                "innermost is not a store: {other}"
            )))
        }
    };

    // 3. The store must be the accumulate pattern combine(load(out), elem).
    let combine = inst.reduce_op.combine_op();
    let (acc_load_indices, elem) = match &store.value {
        TExpr::Bin(op, lhs, rhs) if *op == combine => match lhs.as_ref() {
            TExpr::Load { buffer, indices }
                if *buffer == store.buffer && indices == &store.indices =>
            {
                (indices.clone(), rhs.as_ref())
            }
            _ => {
                return Err(TensorizeError::BodyShape(
                    "store value does not accumulate into the store target".to_string(),
                ))
            }
        },
        _ => {
            return Err(TensorizeError::BodyShape(format!(
                "store value is not a {combine:?}-accumulation"
            )))
        }
    };

    // 4. Pair op-side and instruction-side accesses.
    //    Destination register <- store target.
    let dst = build_operand(
        func,
        inst,
        store.buffer,
        &store.indices,
        inst.output,
        &inst.out_indices,
        &var_of_axis,
        &tvars,
    )?;
    check_binding(req, inst.output, store.buffer)?;

    //    Accumulator register (if distinct) <- the lhs load.
    let acc = match req.intrinsic.accumulator_operand() {
        Some(creg) => {
            let inst_acc = inst.accumulator_load();
            check_binding(req, creg, store.buffer)?;
            Some(build_operand(
                func,
                inst,
                store.buffer,
                &acc_load_indices,
                creg,
                &inst_acc.indices,
                &var_of_axis,
                &tvars,
            )?)
        }
        None => None,
    };

    //    Data operands: positional pairing of the element expressions' loads
    //    (compute isomorphism guarantees the orders agree).
    let op_loads = elem.loads();
    let inst_loads: Vec<&unit_dsl::Load> = inst.update.loads();
    if op_loads.len() != inst_loads.len() {
        return Err(TensorizeError::BodyShape(format!(
            "element expression has {} loads, instruction has {}",
            op_loads.len(),
            inst_loads.len()
        )));
    }
    let mut srcs = Vec::new();
    for ((buf, op_idx), il) in op_loads.iter().zip(&inst_loads) {
        check_binding(req, il.tensor, *buf)?;
        srcs.push(build_operand(
            func,
            inst,
            *buf,
            op_idx,
            il.tensor,
            &il.indices,
            &var_of_axis,
            &tvars,
        )?);
    }

    // 5. Build the replacement and rewrite the tree.
    let mut replacement = Stmt::Intrin(IntrinStmt {
        intrinsic: req.intrinsic.name.clone(),
        dst,
        acc,
        srcs,
    });
    if !outer_guards.is_empty() {
        replacement = Stmt::IfLikely {
            guards: outer_guards,
            body: Box::new(replacement),
        };
    }

    let mut out = func.clone();
    out.body = replace_pragma(&func.body, &replacement);
    Ok(out)
}

fn check_binding(req: &TensorizeRequest, reg: TensorId, buf: BufId) -> Result<(), TensorizeError> {
    match req.operand_map.get(&reg) {
        Some(b) if *b == buf => Ok(()),
        Some(b) => Err(TensorizeError::OperandMismatch(format!(
            "register {reg} is bound to {b} but the loop body uses {buf}"
        ))),
        None => Err(TensorizeError::OperandMismatch(format!(
            "register {reg} has no binding"
        ))),
    }
}

fn replace_pragma(stmt: &Stmt, replacement: &Stmt) -> Stmt {
    match stmt {
        Stmt::For(fs) => {
            if fs.pragma.as_deref() == Some("tensorize") {
                replacement.clone()
            } else {
                Stmt::For(ForStmt {
                    var: fs.var,
                    extent: fs.extent,
                    kind: fs.kind,
                    pragma: fs.pragma.clone(),
                    body: Box::new(replace_pragma(&fs.body, replacement)),
                })
            }
        }
        Stmt::Seq(items) => Stmt::Seq(
            items
                .iter()
                .map(|s| replace_pragma(s, replacement))
                .collect(),
        ),
        Stmt::IfLikely { guards, body } => Stmt::IfLikely {
            guards: guards.clone(),
            body: Box::new(replace_pragma(body, replacement)),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::schedule::Schedule;
    use unit_dsl::builder::matmul_u8i8;
    use unit_isa::registry;

    /// Hand-build the canonical VNNI mapping for a u8/i8 matmul:
    /// j (lanes of 16) -> i, k (groups of 4) -> j.
    fn tensorized_matmul() -> (TirFunc, TensorizeRequest) {
        let op = matmul_u8i8(8, 32, 64);
        let intrin = registry::by_name("llvm.x86.avx512.vpdpbusd.512").unwrap();
        let mut s = Schedule::new(&op);
        let ls = s.leaves(); // i, j, k
        let (_, ji) = s.split(ls[1], 16).unwrap();
        let (_, ki) = s.split(ls[2], 4).unwrap();
        // Order: i, j_o, k_o, j_i, k_i with pragma at j_i.
        let leaves = s.leaves();
        // leaves: i, j_o, j_i, k_o, k_i -> reorder j_i after k_o.
        s.reorder(&[leaves[3], leaves[2]]).unwrap();
        s.pragma_tensorize(ji, "llvm.x86.avx512.vpdpbusd.512")
            .unwrap();
        let func = lower(&s, "mm_vnni").unwrap();

        let inst_axes: Vec<_> = intrin.semantics.all_axes().iter().map(|a| a.id).collect();
        let req = TensorizeRequest {
            intrinsic: intrin,
            loop_map: vec![(ji, inst_axes[0]), (ki, inst_axes[1])],
            operand_map: [
                (TensorId(0), BufId(0)), // a register <- activation buffer
                (TensorId(1), BufId(1)), // b register <- weight buffer
                (TensorId(2), BufId(2)), // c register <- output (accumulator)
                (TensorId(3), BufId(2)), // d register <- output
            ]
            .into_iter()
            .collect(),
        };
        (func, req)
    }

    #[test]
    fn matmul_tensorizes_to_vnni() {
        let (func, req) = tensorized_matmul();
        let out = tensorize_pass(&func, &req).unwrap();
        assert_eq!(out.body.count(&|s| matches!(s, Stmt::Intrin(_))), 1);
        // The pragma'd loops are gone: only i, j_o, k_o (+ 2 init loops).
        let mut intrin = None;
        out.body.visit(&mut |s| {
            if let Stmt::Intrin(is) = s {
                intrin = Some(is.clone());
            }
        });
        let intrin = intrin.unwrap();
        assert_eq!(intrin.intrinsic, "llvm.x86.avx512.vpdpbusd.512");
        assert!(intrin.acc.is_some());
        assert_eq!(intrin.srcs.len(), 2);
        // a operand: j axis (i of inst) broadcast? For matmul a[i, k]:
        // lanes vary along inst axis i (j loop) with mem stride 0 -> broadcast,
        // and along inst axis j (k loop) with stride 1 -> vectorize.
        let a = &intrin.srcs[0];
        let broadcast = a.steps.iter().find(|s| s.mem_stride == 0).unwrap();
        assert_eq!(broadcast.extent, 16);
        let vector = a.steps.iter().find(|s| s.mem_stride == 1).unwrap();
        assert_eq!(vector.extent, 4);
        // b operand: b[j, k] strides: along inst i -> 64 (row), along inst j -> 1.
        let b = &intrin.srcs[1];
        assert!(b.steps.iter().any(|s| s.mem_stride == 64));
        assert!(b.steps.iter().any(|s| s.mem_stride == 1));
        // dst: 16 lanes stride 1.
        assert_eq!(intrin.dst.steps.len(), 1);
        assert_eq!(intrin.dst.steps[0].mem_stride, 1);
    }

    #[test]
    fn missing_pragma_is_an_error() {
        let op = matmul_u8i8(8, 32, 64);
        let s = Schedule::new(&op);
        let func = lower(&s, "mm").unwrap();
        let (_, req) = tensorized_matmul();
        assert_eq!(tensorize_pass(&func, &req), Err(TensorizeError::NoPragma));
    }

    #[test]
    fn extent_mismatch_is_detected() {
        let (func, mut req) = tensorized_matmul();
        // Corrupt the mapping: assign each loop to the other instruction
        // axis, so the 16-iteration loop claims the 4-lane reduce axis.
        let (v0, a0) = req.loop_map[0];
        let (v1, a1) = req.loop_map[1];
        req.loop_map = vec![(v0, a1), (v1, a0)];
        let err = tensorize_pass(&func, &req).unwrap_err();
        assert!(matches!(err, TensorizeError::NestMismatch(_)), "got {err}");
    }

    #[test]
    fn wrong_binding_is_detected() {
        let (func, mut req) = tensorized_matmul();
        req.operand_map.insert(TensorId(0), BufId(1));
        let err = tensorize_pass(&func, &req).unwrap_err();
        assert!(
            matches!(err, TensorizeError::OperandMismatch(_)),
            "got {err}"
        );
    }
}
