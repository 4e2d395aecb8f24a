//! Loop scheduling over a [`ComputeOp`].
//!
//! The Rewriter reorganizes loops "in DSL primitives" (Figure 5(c)): `split`
//! to tile by instruction trip counts, `reorder` to sink tensorized loops
//! innermost, `fuse` + [`LoopKind::Parallel`] for coarse-grained parallelism,
//! and [`LoopKind::Unrolled`] below the reduction for fine-grained
//! parallelism. A [`Schedule`] records these transformations symbolically;
//! [`crate::lower`] materializes the loop nest.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use unit_dsl::{AxisId, AxisKind, ComputeOp};

use crate::func::VarId;
use crate::idx::IdxExpr;
use crate::stmt::LoopKind;

/// Whether an iteration variable descends from a data-parallel or a
/// reduction axis. Split/fuse preserve the class; the Inspector only maps
/// like classes onto each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IterClass {
    /// Descends from a data-parallel axis.
    DataParallel,
    /// Descends from a reduction axis.
    Reduce,
}

impl From<AxisKind> for IterClass {
    fn from(kind: AxisKind) -> IterClass {
        match kind {
            AxisKind::DataParallel => IterClass::DataParallel,
            AxisKind::Reduce => IterClass::Reduce,
        }
    }
}

/// An iteration variable of the schedule (a root axis or a split/fuse child).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterVar {
    /// Identifier, shared with the lowered TIR.
    pub id: VarId,
    /// Diagnostic name.
    pub name: String,
    /// Trip count.
    pub extent: i64,
    /// Data-parallel or reduce lineage.
    pub class: IterClass,
}

/// Loop-structure relations recorded by scheduling primitives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Rel {
    /// `parent = outer * factor + inner`.
    Split {
        parent: VarId,
        outer: VarId,
        inner: VarId,
        factor: i64,
    },
    /// `left = fused / extent(right)`, `right = fused % extent(right)`.
    Fuse {
        left: VarId,
        right: VarId,
        right_extent: i64,
        fused: VarId,
    },
}

/// Scheduling errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The referenced variable is not a current leaf.
    NotALeaf(VarId),
    /// Split factor must be positive (and usually ≥ 2 to be useful).
    BadFactor(i64),
    /// Fuse requires the two leaves to be adjacent (left immediately
    /// outside right) and of the same class.
    NotAdjacent(VarId, VarId),
    /// Fusing across classes (data-parallel with reduce) is not allowed.
    ClassMismatch(VarId, VarId),
    /// Reorder argument is not a permutation of current leaves.
    NotAPermutation,
    /// Annotation not allowed on this leaf (e.g. `parallel` on a reduce
    /// loop, which would race on the accumulator).
    IllegalAnnotation(VarId, LoopKind),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotALeaf(v) => write!(f, "{v} is not a leaf of the schedule"),
            ScheduleError::BadFactor(k) => write!(f, "invalid split factor {k}"),
            ScheduleError::NotAdjacent(a, b) => {
                write!(f, "{a} and {b} are not adjacent leaves; reorder first")
            }
            ScheduleError::ClassMismatch(a, b) => {
                write!(f, "cannot fuse data-parallel {a} with reduce {b}")
            }
            ScheduleError::NotAPermutation => {
                write!(
                    f,
                    "reorder argument must be a permutation of the current leaves"
                )
            }
            ScheduleError::IllegalAnnotation(v, k) => {
                write!(f, "annotation {k:?} is illegal on loop {v}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A schedule: the loop organization of one [`ComputeOp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    op: ComputeOp,
    vars: Vec<IterVar>,
    pub(crate) rels: Vec<Rel>,
    leaves: Vec<VarId>,
    annotations: BTreeMap<VarId, LoopKind>,
    /// `(leaf, intrinsic-name)`: the loop at and inside which the body is
    /// tensorized.
    tensorize: Option<(VarId, String)>,
    root_of_axis: BTreeMap<AxisId, VarId>,
}

impl Schedule {
    /// The default schedule: one loop per axis, data-parallel loops
    /// outermost in declaration order, then reduction loops.
    #[must_use]
    pub fn new(op: &ComputeOp) -> Schedule {
        let mut vars = Vec::new();
        let mut leaves = Vec::new();
        let mut root_of_axis = BTreeMap::new();
        for axis in op.axes.iter().chain(&op.reduce_axes) {
            let id = VarId(vars.len() as u32);
            vars.push(IterVar {
                id,
                name: axis.name.clone(),
                extent: axis.extent,
                class: axis.kind.into(),
            });
            leaves.push(id);
            root_of_axis.insert(axis.id, id);
        }
        Schedule {
            op: op.clone(),
            vars,
            rels: Vec::new(),
            leaves,
            annotations: BTreeMap::new(),
            tensorize: None,
            root_of_axis,
        }
    }

    /// The scheduled op.
    #[must_use]
    pub fn op(&self) -> &ComputeOp {
        &self.op
    }

    /// Current leaves, outermost first.
    #[must_use]
    pub fn leaves(&self) -> Vec<VarId> {
        self.leaves.clone()
    }

    /// Iteration-variable lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this schedule.
    #[must_use]
    pub fn var(&self, id: VarId) -> &IterVar {
        &self.vars[id.0 as usize]
    }

    /// All iteration variables (roots, intermediates and leaves).
    #[must_use]
    pub fn all_vars(&self) -> &[IterVar] {
        &self.vars
    }

    /// The root iteration variable of an op axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis` does not belong to the scheduled op.
    #[must_use]
    pub fn root_of(&self, axis: AxisId) -> VarId {
        self.root_of_axis[&axis]
    }

    /// The annotation of a leaf ([`LoopKind::Serial`] if unannotated).
    #[must_use]
    pub fn annotation(&self, v: VarId) -> LoopKind {
        self.annotations
            .get(&v)
            .copied()
            .unwrap_or(LoopKind::Serial)
    }

    /// The tensorize pragma, if set: `(leaf, intrinsic name)`.
    #[must_use]
    pub fn tensorize_pragma(&self) -> Option<(VarId, &str)> {
        self.tensorize.as_ref().map(|(v, n)| (*v, n.as_str()))
    }

    fn fresh(&mut self, name: String, extent: i64, class: IterClass) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(IterVar {
            id,
            name,
            extent,
            class,
        });
        id
    }

    fn leaf_pos(&self, v: VarId) -> Result<usize, ScheduleError> {
        self.leaves
            .iter()
            .position(|l| *l == v)
            .ok_or(ScheduleError::NotALeaf(v))
    }

    /// Split a leaf by `factor`: `v -> (outer, inner)` with
    /// `extent(inner) = factor` and `extent(outer) = ceil(extent(v)/factor)`.
    /// An imperfect division produces a `likely` residue guard at lowering.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotALeaf`] / [`ScheduleError::BadFactor`].
    pub fn split(&mut self, v: VarId, factor: i64) -> Result<(VarId, VarId), ScheduleError> {
        if factor <= 0 {
            return Err(ScheduleError::BadFactor(factor));
        }
        let pos = self.leaf_pos(v)?;
        let parent = self.var(v).clone();
        let outer_extent = (parent.extent + factor - 1) / factor;
        let outer = self.fresh(format!("{}_o", parent.name), outer_extent, parent.class);
        let inner = self.fresh(format!("{}_i", parent.name), factor, parent.class);
        self.rels.push(Rel::Split {
            parent: v,
            outer,
            inner,
            factor,
        });
        self.leaves.splice(pos..=pos, [outer, inner]);
        self.annotations.remove(&v);
        Ok((outer, inner))
    }

    /// Fuse two adjacent leaves of the same class into one.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotAdjacent`] if `left` is not immediately outside
    /// `right`; [`ScheduleError::ClassMismatch`] across classes.
    pub fn fuse(&mut self, left: VarId, right: VarId) -> Result<VarId, ScheduleError> {
        let lp = self.leaf_pos(left)?;
        let rp = self.leaf_pos(right)?;
        if rp != lp + 1 {
            return Err(ScheduleError::NotAdjacent(left, right));
        }
        let (lv, rv) = (self.var(left).clone(), self.var(right).clone());
        if lv.class != rv.class {
            return Err(ScheduleError::ClassMismatch(left, right));
        }
        let fused = self.fresh(
            format!("{}_{}_f", lv.name, rv.name),
            lv.extent * rv.extent,
            lv.class,
        );
        self.rels.push(Rel::Fuse {
            left,
            right,
            right_extent: rv.extent,
            fused,
        });
        self.leaves.splice(lp..=rp, [fused]);
        self.annotations.remove(&left);
        self.annotations.remove(&right);
        Ok(fused)
    }

    /// Reorder the given leaves into the given order, keeping all other
    /// leaves in place (TVM `reorder` semantics).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotAPermutation`] if the slice repeats a leaf;
    /// [`ScheduleError::NotALeaf`] for unknown variables.
    pub fn reorder(&mut self, order: &[VarId]) -> Result<(), ScheduleError> {
        let mut positions: Vec<usize> = Vec::with_capacity(order.len());
        for v in order {
            positions.push(self.leaf_pos(*v)?);
        }
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != order.len() {
            return Err(ScheduleError::NotAPermutation);
        }
        for (slot, v) in sorted.iter().zip(order) {
            self.leaves[*slot] = *v;
        }
        Ok(())
    }

    /// Annotate a leaf. Parallel/GPU annotations on reduce-class loops are
    /// rejected: they would race on the accumulator (split-K reductions are
    /// expressed as a two-op decomposition instead, see the GPU tuner).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotALeaf`] / [`ScheduleError::IllegalAnnotation`].
    pub fn annotate(&mut self, v: VarId, kind: LoopKind) -> Result<(), ScheduleError> {
        self.leaf_pos(v)?;
        let class = self.var(v).class;
        let racy = matches!(
            kind,
            LoopKind::Parallel | LoopKind::GpuBlock | LoopKind::GpuThread
        );
        if class == IterClass::Reduce && racy {
            return Err(ScheduleError::IllegalAnnotation(v, kind));
        }
        self.annotations.insert(v, kind);
        Ok(())
    }

    /// Mark the nest rooted at leaf `v` for tensorization with `intrinsic`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotALeaf`].
    pub fn pragma_tensorize(
        &mut self,
        v: VarId,
        intrinsic: impl Into<String>,
    ) -> Result<(), ScheduleError> {
        self.leaf_pos(v)?;
        self.tensorize = Some((v, intrinsic.into()));
        Ok(())
    }

    /// Definition of every variable in terms of the current leaves, as index
    /// expressions (`parent = outer*f + inner`, `left = fused / e`,
    /// `right = fused % e`). Leaves map to themselves.
    #[must_use]
    pub fn leaf_definitions(&self) -> BTreeMap<VarId, IdxExpr> {
        let mut defs: BTreeMap<VarId, IdxExpr> = BTreeMap::new();
        for v in &self.vars {
            defs.insert(v.id, IdxExpr::Var(v.id));
        }
        for rel in self.rels.iter().rev() {
            match rel {
                Rel::Split {
                    parent,
                    outer,
                    inner,
                    factor,
                } => {
                    let expr = defs[outer].clone().mul(*factor).add(defs[inner].clone());
                    defs.insert(*parent, expr);
                }
                Rel::Fuse {
                    left,
                    right,
                    right_extent,
                    fused,
                } => {
                    let f = defs[fused].clone();
                    defs.insert(*left, f.clone().floor_div(*right_extent));
                    defs.insert(*right, f.modulo(*right_extent));
                }
            }
        }
        defs
    }

    /// Residue guards implied by imperfect splits: pairs of
    /// `(parent-definition, parent-extent)` for which
    /// `outer*factor + inner` may exceed the parent extent.
    #[must_use]
    pub fn residue_guards(&self) -> Vec<(IdxExpr, i64)> {
        let defs = self.leaf_definitions();
        let mut out = Vec::new();
        for rel in &self.rels {
            if let Rel::Split { parent, factor, .. } = rel {
                let parent_extent = self.var(*parent).extent;
                if parent_extent % factor != 0 {
                    out.push((defs[parent].clone(), parent_extent));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_dsl::builder::{conv2d_hwc, matmul_u8i8};

    #[test]
    fn default_schedule_has_one_leaf_per_axis() {
        let op = conv2d_hwc(8, 8, 16, 32, 3, 3);
        let s = Schedule::new(&op);
        assert_eq!(s.leaves().len(), 6);
        assert_eq!(s.var(s.leaves()[0]).name, "x");
        assert_eq!(s.var(s.leaves()[5]).name, "rc");
        assert_eq!(s.var(s.leaves()[5]).class, IterClass::Reduce);
    }

    #[test]
    fn split_replaces_leaf_in_place() {
        let op = matmul_u8i8(32, 32, 64);
        let mut s = Schedule::new(&op);
        let i = s.leaves()[0];
        let (o, ins) = s.split(i, 8).unwrap();
        assert_eq!(s.leaves()[0], o);
        assert_eq!(s.leaves()[1], ins);
        assert_eq!(s.var(o).extent, 4);
        assert_eq!(s.var(ins).extent, 8);
        // Splitting a non-leaf fails.
        assert!(matches!(s.split(i, 2), Err(ScheduleError::NotALeaf(_))));
    }

    #[test]
    fn imperfect_split_produces_residue_guard() {
        let op = matmul_u8i8(30, 32, 64);
        let mut s = Schedule::new(&op);
        let i = s.leaves()[0];
        let (o, _) = s.split(i, 8).unwrap();
        assert_eq!(s.var(o).extent, 4); // ceil(30/8)
        let guards = s.residue_guards();
        assert_eq!(guards.len(), 1);
        assert_eq!(guards[0].1, 30);
    }

    #[test]
    fn fuse_requires_adjacency_and_class() {
        let op = matmul_u8i8(4, 6, 8);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        let (i, j, k) = (ls[0], ls[1], ls[2]);
        assert!(matches!(
            s.fuse(j, k),
            Err(ScheduleError::ClassMismatch(..))
        ));
        assert!(matches!(s.fuse(j, i), Err(ScheduleError::NotAdjacent(..))));
        let f = s.fuse(i, j).unwrap();
        assert_eq!(s.var(f).extent, 24);
        assert_eq!(s.leaves().len(), 2);
    }

    #[test]
    fn reorder_moves_selected_leaves() {
        let op = conv2d_hwc(8, 8, 16, 32, 3, 3);
        let mut s = Schedule::new(&op);
        let ls = s.leaves(); // x y k r s rc
        s.reorder(&[ls[2], ls[0]]).unwrap(); // swap x and k
        let names: Vec<String> = s.leaves().iter().map(|v| s.var(*v).name.clone()).collect();
        assert_eq!(names, vec!["k", "y", "x", "r", "s", "rc"]);
        assert!(matches!(
            s.reorder(&[ls[0], ls[0]]),
            Err(ScheduleError::NotAPermutation)
        ));
    }

    #[test]
    fn parallel_annotation_is_rejected_on_reduce_loops() {
        let op = matmul_u8i8(4, 6, 8);
        let mut s = Schedule::new(&op);
        let k = s.leaves()[2];
        assert!(matches!(
            s.annotate(k, LoopKind::Parallel),
            Err(ScheduleError::IllegalAnnotation(..))
        ));
        assert!(s.annotate(k, LoopKind::Unrolled).is_ok());
    }

    #[test]
    fn leaf_definitions_compose_split_and_fuse() {
        let op = matmul_u8i8(12, 10, 8);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        let (io, ii) = s.split(ls[0], 4).unwrap();
        let fused = s.fuse(io, ii).unwrap();
        let defs = s.leaf_definitions();
        // i = (fused/4)*4 + fused%4 == fused for perfect splits.
        let i_def = &defs[&ls[0]];
        for v in 0..12 {
            assert_eq!(i_def.eval(&|_| v), v);
        }
        assert_eq!(s.leaves()[0], fused);
    }

    #[test]
    fn pragma_tensorize_records_leaf() {
        let op = matmul_u8i8(4, 6, 8);
        let mut s = Schedule::new(&op);
        let j = s.leaves()[1];
        s.pragma_tensorize(j, "llvm.x86.avx512.vpdpbusd.512")
            .unwrap();
        let (v, name) = s.tensorize_pragma().unwrap();
        assert_eq!(v, j);
        assert_eq!(name, "llvm.x86.avx512.vpdpbusd.512");
    }
}
