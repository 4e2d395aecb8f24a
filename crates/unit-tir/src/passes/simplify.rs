//! Structural simplification: flatten nested sequences, drop no-ops and
//! extent-1 loops (substituting the loop variable with zero).

use crate::func::TirFunc;
use crate::idx::IdxExpr;
use crate::stmt::{ForStmt, Guard, IntrinStmt, OperandSpec, Stmt, StoreStmt};

/// Simplify a function body.
#[must_use]
pub fn simplify(func: &TirFunc) -> TirFunc {
    let mut out = func.clone();
    out.body = simplify_stmt(&func.body);
    out
}

fn substitute_stmt(stmt: &Stmt, var: crate::func::VarId, rep: &IdxExpr) -> Stmt {
    match stmt {
        Stmt::For(fs) => Stmt::For(ForStmt {
            var: fs.var,
            extent: fs.extent,
            kind: fs.kind,
            pragma: fs.pragma.clone(),
            body: Box::new(substitute_stmt(&fs.body, var, rep)),
        }),
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|s| substitute_stmt(s, var, rep)).collect()),
        Stmt::Store(st) => Stmt::Store(StoreStmt {
            buffer: st.buffer,
            indices: st
                .indices
                .iter()
                .map(|ix| ix.substitute(var, rep))
                .collect(),
            value: st.value.substitute(var, rep),
        }),
        Stmt::IfLikely { guards, body } => Stmt::IfLikely {
            guards: guards
                .iter()
                .map(|g| Guard {
                    index: g.index.substitute(var, rep),
                    bound: g.bound,
                })
                .collect(),
            body: Box::new(substitute_stmt(body, var, rep)),
        },
        Stmt::Intrin(is) => {
            let sub = |o: &OperandSpec| OperandSpec {
                buffer: o.buffer,
                base: o.base.substitute(var, rep),
                steps: o.steps.clone(),
                reg_len: o.reg_len,
            };
            Stmt::Intrin(IntrinStmt {
                intrinsic: is.intrinsic.clone(),
                dst: sub(&is.dst),
                acc: is.acc.as_ref().map(sub),
                srcs: is.srcs.iter().map(sub).collect(),
            })
        }
        Stmt::Sync | Stmt::Nop => stmt.clone(),
    }
}

fn simplify_stmt(stmt: &Stmt) -> Stmt {
    match stmt {
        Stmt::For(fs) => {
            let body = simplify_stmt(&fs.body);
            if matches!(body, Stmt::Nop) {
                return Stmt::Nop;
            }
            if fs.extent == 1 && fs.pragma.is_none() {
                return substitute_stmt(&body, fs.var, &IdxExpr::Const(0));
            }
            Stmt::For(ForStmt {
                var: fs.var,
                extent: fs.extent,
                kind: fs.kind,
                pragma: fs.pragma.clone(),
                body: Box::new(body),
            })
        }
        Stmt::Seq(items) => {
            let mut flat = Vec::new();
            for s in items {
                match simplify_stmt(s) {
                    Stmt::Nop => {}
                    Stmt::Seq(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            match flat.len() {
                0 => Stmt::Nop,
                1 => flat.pop().expect("len checked"),
                _ => Stmt::Seq(flat),
            }
        }
        Stmt::IfLikely { guards, body } => {
            let body = simplify_stmt(body);
            if matches!(body, Stmt::Nop) {
                return Stmt::Nop;
            }
            // Drop guards that are provably satisfied (constant index).
            let live: Vec<Guard> = guards
                .iter()
                .filter(|g| match &g.index {
                    IdxExpr::Const(c) => *c >= g.bound,
                    _ => true,
                })
                .cloned()
                .collect();
            if live.is_empty() {
                body
            } else {
                Stmt::IfLikely {
                    guards: live,
                    body: Box::new(body),
                }
            }
        }
        other => other.clone(),
    }
}

/// Remove guards that bound-analysis proves redundant: a guard
/// `index < bound` is dead when the index's upper bound is below `bound`.
#[must_use]
pub fn elide_proven_guards(func: &TirFunc) -> TirFunc {
    let extent_of = |v| func.var(v).extent;
    let mut out = func.clone();
    out.body = elide_stmt(&func.body, &extent_of);
    out
}

fn elide_stmt(stmt: &Stmt, extent_of: &dyn Fn(crate::func::VarId) -> i64) -> Stmt {
    match stmt {
        Stmt::For(fs) => Stmt::For(ForStmt {
            var: fs.var,
            extent: fs.extent,
            kind: fs.kind,
            pragma: fs.pragma.clone(),
            body: Box::new(elide_stmt(&fs.body, extent_of)),
        }),
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|s| elide_stmt(s, extent_of)).collect()),
        Stmt::IfLikely { guards, body } => {
            let live: Vec<Guard> = guards
                .iter()
                .filter(|g| g.index.bounds(extent_of).1 >= g.bound)
                .cloned()
                .collect();
            let body = elide_stmt(body, extent_of);
            if live.is_empty() {
                body
            } else {
                Stmt::IfLikely {
                    guards: live,
                    body: Box::new(body),
                }
            }
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::TExpr;
    use crate::func::{BufId, VarId};
    use crate::lower::lower;
    use crate::schedule::Schedule;
    use crate::stmt::LoopKind;
    use unit_dsl::builder::matmul_u8i8;

    #[test]
    fn unit_extent_loops_are_eliminated() {
        let inner = Stmt::Store(StoreStmt {
            buffer: BufId(0),
            indices: vec![IdxExpr::Var(VarId(0))],
            value: TExpr::Int(1, unit_dsl::DType::I32),
        });
        let f = TirFunc {
            name: "t".into(),
            buffers: vec![],
            vars: vec![],
            output: BufId(0),
            body: inner.in_loop(VarId(0), 1, LoopKind::Serial),
            epilogue: None,
        };
        let s = simplify(&f);
        match &s.body {
            Stmt::Store(st) => assert_eq!(st.indices[0], IdxExpr::Const(0)),
            other => panic!("expected bare store, got {other}"),
        }
    }

    #[test]
    fn nested_seqs_flatten() {
        let f = TirFunc {
            name: "t".into(),
            buffers: vec![],
            vars: vec![],
            output: BufId(0),
            body: Stmt::Seq(vec![
                Stmt::Nop,
                Stmt::Seq(vec![Stmt::Sync, Stmt::Nop]),
                Stmt::Nop,
            ]),
            epilogue: None,
        };
        let s = simplify(&f);
        assert_eq!(s.body, Stmt::Sync);
    }

    #[test]
    fn perfect_split_guards_are_elided_by_bounds() {
        let op = matmul_u8i8(32, 32, 64);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        s.split(ls[0], 8).unwrap(); // perfect: no guard at all
        let f = lower(&s, "mm").unwrap();
        assert_eq!(f.body.count(&|s| matches!(s, Stmt::IfLikely { .. })), 0);
        // An imperfect split's guard survives elision (it is needed).
        let op2 = matmul_u8i8(30, 32, 64);
        let mut s2 = Schedule::new(&op2);
        let ls2 = s2.leaves();
        s2.split(ls2[0], 8).unwrap();
        let f2 = elide_proven_guards(&lower(&s2, "mm2").unwrap());
        assert_eq!(f2.body.count(&|s| matches!(s, Stmt::IfLikely { .. })), 1);
    }

    /// One store event of [`trace`]: destination buffer, fully evaluated
    /// indices, and the stored value with every loop variable substituted
    /// by its constant iteration value.
    type StoreEvent = (BufId, Vec<i64>, TExpr);

    /// Concretely enumerate every loop iteration of a statement and record
    /// the store trace — an independent "evaluation" of the loop nest's
    /// index arithmetic that does not go through the interpreter crate.
    fn trace(
        stmt: &Stmt,
        env: &mut std::collections::BTreeMap<VarId, i64>,
        out: &mut Vec<StoreEvent>,
    ) {
        match stmt {
            Stmt::For(fs) => {
                for i in 0..fs.extent {
                    env.insert(fs.var, i);
                    trace(&fs.body, env, out);
                }
                env.remove(&fs.var);
            }
            Stmt::Seq(items) => {
                for item in items {
                    trace(item, env, out);
                }
            }
            Stmt::IfLikely { guards, body } => {
                let holds = guards.iter().all(|g| g.index.eval(&|v| env[&v]) < g.bound);
                if holds {
                    trace(body, env, out);
                }
            }
            Stmt::Store(st) => {
                let indices: Vec<i64> = st.indices.iter().map(|ix| ix.eval(&|v| env[&v])).collect();
                let mut value = st.value.clone();
                for (var, val) in env.iter() {
                    value = value.substitute(*var, &IdxExpr::Const(*val));
                }
                out.push((st.buffer, indices, value));
            }
            Stmt::Intrin(_) => panic!("trace: untensorized nests only"),
            Stmt::Sync | Stmt::Nop => {}
        }
    }

    fn trace_func(f: &TirFunc) -> Vec<StoreEvent> {
        let mut env = std::collections::BTreeMap::new();
        let mut out = Vec::new();
        trace(&f.body, &mut env, &mut out);
        out
    }

    /// lower → simplify → evaluate must equal direct evaluation: the
    /// simplified loop nest performs exactly the same stores, with the
    /// same index arithmetic, in the same order.
    #[test]
    fn simplify_preserves_store_trace_of_lowered_funcs() {
        // Imperfect split (30 % 8 != 0) exercises likely-guards; the
        // extent-of-factor split leaves an extent-1 outer loop behind.
        for (dims, factor) in [
            ((30i64, 12i64, 21i64), 8),
            ((6, 5, 7), 7),
            ((16, 16, 16), 4),
        ] {
            let op = matmul_u8i8(dims.0, dims.1, dims.2);
            let mut s = Schedule::new(&op);
            let ls = s.leaves();
            s.split(ls[0], factor).unwrap();
            let f = lower(&s, "mm").unwrap();
            let direct = trace_func(&f);
            assert!(!direct.is_empty(), "matmul must store at least once");
            assert_eq!(
                trace_func(&simplify(&f)),
                direct,
                "dims {dims:?} factor {factor}"
            );
        }
    }

    /// Guard elision is part of the simplification pipeline and must also
    /// be trace-neutral: a proven guard can be dropped only because it
    /// always holds.
    #[test]
    fn elide_proven_guards_preserves_store_trace() {
        let op = matmul_u8i8(30, 32, 64);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        s.split(ls[0], 8).unwrap();
        let f = lower(&s, "mm").unwrap();
        assert_eq!(trace_func(&elide_proven_guards(&f)), trace_func(&f));
    }

    /// Splitting by the full extent produces an extent-1 outer loop;
    /// simplify must remove it (substituting the variable with zero) and
    /// the store trace must survive the substitution.
    #[test]
    fn extent_one_loop_elimination_round_trips() {
        let op = matmul_u8i8(6, 5, 7);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        s.split(ls[0], 6).unwrap(); // outer loop has extent 1
        let f = lower(&s, "mm").unwrap();
        let simplified = simplify(&f);
        let ones_before = f
            .body
            .count(&|s| matches!(s, Stmt::For(fs) if fs.extent == 1));
        let ones_after = simplified
            .body
            .count(&|s| matches!(s, Stmt::For(fs) if fs.extent == 1));
        assert!(
            ones_before > 0,
            "split-by-extent must create an extent-1 loop"
        );
        assert_eq!(ones_after, 0, "simplify must eliminate extent-1 loops");
        assert_eq!(trace_func(&simplified), trace_func(&f));
    }
}
