//! The instruction-tape compiler and executor: UNIT's serving fast path.
//!
//! The statement-tree interpreter ([`crate::exec`]) re-traverses the AST,
//! re-resolves intrinsic names against the registry, and re-enumerates
//! operand lanes with odometer arithmetic on **every** call — fine for
//! one-shot differential tests, wasteful when a serving engine replays the
//! same kernel thousands of times. [`Tape::compile`] lowers a
//! [`TirFunc`] *once* into a flat, preallocated instruction tape that a hot
//! loop can replay with none of that per-call work:
//!
//! * **Register bytecode.** The statement tree becomes a linear `Vec` of
//!   tape ops with explicit jump targets; loops are a `Loop`/`End` pair,
//!   residue guards compile to a `Guard` op holding its exit address.
//!
//! | opcode  | operands                    | effect                           |
//!   |---------|-----------------------------|----------------------------------|
//!   | `Loop`  | var                         | `env[var] = 0`                   |
//!   | `Par`   | var, extent, end, write set | split `[0, extent)` of the body up to `end` across threads, then jump past `end`; run serially, `env[var] = 0` like `Loop` |
//!   | `End`   | var, extent, top            | `env[var] += 1`; jump `top` while `env[var] < extent` |
//!   | `Guard` | conditions, exit            | jump `exit` unless all `index < bound` hold |
//!   | `Store` | addr program, value program | evaluate RPN value, write buffer |
//!   | `Intrin`| compiled-intrinsic id       | gather → emulate → scatter       |
//!   | `EpiEw` | fused elementwise chain     | one pass over the logical output cells applying bias / residual add / relu / requantize per cell |
//!   | `EpiRowStat` | reduction kind         | per-row max / sum / mean+sigma into the scratch row file |
//!   | `EpiRowApply`| pointwise kind         | per-cell exp / softmax-normalize / layernorm against the row file |
//!
//! * **Intrinsics resolved at compile time.** Each [`unit_tir::IntrinStmt`]
//!   site becomes a compiled-intrinsic record: the registry handle is looked up
//!   once, operand-count and accumulator requirements are validated once,
//!   and every operand's `(reg_at, mem_off)` lane pattern
//!   ([`OperandSpec::lanes`]) is precomputed into a flat slice the executor
//!   replays directly.
//! * **Static bounds checking.** Every buffer access carries an interval
//!   proof ([`IdxExpr::bounds`] over the loop extents). Accesses provably
//!   inside `[0, len)` skip per-element validation in the hot loop;
//!   only accesses the tape cannot prove (e.g. under residue guards)
//!   keep a runtime check. [`Tape::stats`] reports the split.
//! * **Parallel regions.** The outermost `parallel` loop (the tuner's
//!   fused data-parallel loop, Figure 7) compiles to a `Par` op when its
//!   body holds enough intrinsic calls to pay for a thread spawn.
//!   [`Tape::run`] splits its iterations into contiguous chunks, one per
//!   core, once the process runs more than one thread: the caller runs
//!   the first, scoped threads the rest, each with its own scratch and a
//!   private copy of the buffers the body writes.
//!   The chunks' writes and counters merge back in iteration order, so
//!   buffers and [`TapeProfile`] equal the serial run's bit for bit.
//!   Nested parallel loops, the epilogue and the tree walker stay serial.
//! * **Reusable register file.** [`TapeScratch`] preallocates the loop
//!   environment, evaluation stacks and per-site intrinsic registers. A
//!   steady-state [`Tape::run`] of a tape without intrinsic sites or
//!   parallel regions performs no heap allocation. Each intrinsic call
//!   still allocates inside the instruction emulation
//!   ([`unit_isa::execute`], hundreds of allocations per call), and each
//!   parallel region allocates its chunks' scratches and buffer copies
//!   per run.
//!
//! The tree-walk interpreter remains the differential oracle: both engines
//! share [`OperandSpec::for_each_lane`] and must produce bit-identical
//! buffers for every function (see `tests/tape_differential.rs`).
//!
//! # Example
//!
//! ```
//! use unit_dsl::builder::matmul_u8i8;
//! use unit_tir::{schedule::Schedule, lower::lower};
//! use unit_interp::{alloc_buffers, random_fill, tape::Tape};
//!
//! let op = matmul_u8i8(4, 8, 16);
//! let func = lower(&Schedule::new(&op), "mm").unwrap();
//! let tape = Tape::compile(&func).unwrap();
//! let mut scratch = tape.scratch();
//! let mut bufs = alloc_buffers(&func);
//! random_fill(&mut bufs, 42);
//! tape.run(&mut bufs, &mut scratch).unwrap(); // replayable; no intrinsics, so allocation-free
//! ```

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread;

use unit_dsl::{BinOp, DType};
use unit_isa::{registry, Scalar, TensorIntrinsic, TypedBuf};
use unit_tir::epilogue::{
    exp_q15, layernorm_cell, mean_sigma, requantize, softmax_prob, EpiGeom, EpiOp,
};
use unit_tir::{
    BufId, BufferDecl, Guard, IdxExpr, IntrinStmt, LoopKind, OperandSpec, Stmt, TExpr, TirFunc,
};

use crate::epilogue::{cell_to_i64, i64_to_cell};
use crate::exec::ExecError;

/// One step of a compiled non-affine index program (RPN over `env`).
#[derive(Debug, Clone, Copy)]
enum IdxOp {
    /// Push a loop variable's current value.
    PushVar(u32),
    /// Push a constant.
    PushConst(i64),
    /// Pop two, push their sum.
    Add,
    /// Multiply the top of stack by a constant.
    MulC(i64),
    /// Euclidean-divide the top of stack by a positive constant.
    DivC(i64),
    /// Euclidean-remainder the top of stack by a positive constant.
    ModC(i64),
}

/// A compiled index expression. Affine expressions (the overwhelmingly
/// common case) evaluate as a dot product over precomputed
/// `(var, coefficient)` terms; division/modulo expressions introduced by
/// loop fusion fall back to a small RPN program.
#[derive(Debug, Clone)]
enum IdxProg {
    Affine {
        terms: Box<[(u32, i64)]>,
        offset: i64,
    },
    Rpn(Box<[IdxOp]>),
}

impl IdxProg {
    fn compile(e: &IdxExpr) -> IdxProg {
        if let Some((coeffs, offset)) = e.as_affine() {
            IdxProg::Affine {
                terms: coeffs.into_iter().map(|(v, c)| (v.0, c)).collect(),
                offset,
            }
        } else {
            let mut ops = Vec::new();
            Self::rpn(e, &mut ops);
            IdxProg::Rpn(ops.into())
        }
    }

    fn rpn(e: &IdxExpr, out: &mut Vec<IdxOp>) {
        match e {
            IdxExpr::Var(v) => out.push(IdxOp::PushVar(v.0)),
            IdxExpr::Const(c) => out.push(IdxOp::PushConst(*c)),
            IdxExpr::Add(a, b) => {
                Self::rpn(a, out);
                Self::rpn(b, out);
                out.push(IdxOp::Add);
            }
            IdxExpr::Mul(a, k) => {
                Self::rpn(a, out);
                out.push(IdxOp::MulC(*k));
            }
            IdxExpr::FloorDiv(a, k) => {
                Self::rpn(a, out);
                out.push(IdxOp::DivC(*k));
            }
            IdxExpr::Mod(a, k) => {
                Self::rpn(a, out);
                out.push(IdxOp::ModC(*k));
            }
        }
    }

    fn eval(&self, env: &[i64], stack: &mut Vec<i64>) -> i64 {
        match self {
            IdxProg::Affine { terms, offset } => {
                let mut v = *offset;
                for &(slot, coeff) in terms.iter() {
                    v += env[slot as usize] * coeff;
                }
                v
            }
            IdxProg::Rpn(ops) => {
                stack.clear();
                for op in ops.iter() {
                    match *op {
                        IdxOp::PushVar(s) => stack.push(env[s as usize]),
                        IdxOp::PushConst(c) => stack.push(c),
                        IdxOp::Add => {
                            let b = stack.pop().expect("rpn add rhs");
                            let a = stack.last_mut().expect("rpn add lhs");
                            *a += b;
                        }
                        IdxOp::MulC(k) => {
                            let a = stack.last_mut().expect("rpn mul");
                            *a *= k;
                        }
                        IdxOp::DivC(k) => {
                            let a = stack.last_mut().expect("rpn div");
                            *a = a.div_euclid(k);
                        }
                        IdxOp::ModC(k) => {
                            let a = stack.last_mut().expect("rpn mod");
                            *a = a.rem_euclid(k);
                        }
                    }
                }
                stack.pop().expect("rpn result")
            }
        }
    }
}

/// A compiled flat buffer address: the index program plus the bounds
/// verdict. `checked == false` means the compiler proved the address lies
/// in `[0, len)` for every loop iteration, so the hot loop skips the test.
#[derive(Debug, Clone)]
struct Addr {
    buffer: u32,
    prog: IdxProg,
    len: usize,
    checked: bool,
}

impl Addr {
    #[inline]
    fn eval(&self, env: &[i64], stack: &mut Vec<i64>) -> Result<usize, ExecError> {
        let at = self.prog.eval(env, stack);
        if self.checked && (at < 0 || at as usize >= self.len) {
            return Err(ExecError::OutOfBounds {
                buffer: self.buffer,
                index: at,
                len: self.len,
            });
        }
        debug_assert!(at >= 0 && (at as usize) < self.len, "static proof violated");
        Ok(at as usize)
    }
}

/// One step of a compiled store-value program (RPN over [`Scalar`]s, with
/// all dtypes resolved at compile time).
#[derive(Debug, Clone)]
enum SOp {
    /// Push a pre-wrapped constant.
    Const(Scalar),
    /// Push a buffer element.
    Load(Addr),
    /// Convert the top of stack between dtypes.
    Cast { from: DType, to: DType },
    /// Pop two, push the binary result at a fixed dtype.
    Bin { op: BinOp, dtype: DType },
}

/// A compiled residue-guard condition (`index < bound`). Statically true
/// conditions are elided at compile time; statically false conditions
/// delete the guarded body outright.
#[derive(Debug, Clone)]
struct CompiledGuard {
    prog: IdxProg,
    bound: i64,
}

/// A gather/scatter plan for one intrinsic operand: the base-address
/// program plus the precomputed lane pattern.
#[derive(Debug, Clone)]
struct OperandPlan {
    buffer: u32,
    base: IdxProg,
    /// `(register element, memory offset)` per lane, precomputed once from
    /// [`OperandSpec::lanes`].
    lanes: Box<[(u32, i64)]>,
    len: usize,
    /// Whether `base + mem_off` needs a runtime bounds test.
    checked: bool,
}

/// A tensorized-instruction site with the registry handle resolved and all
/// operand plans precomputed.
struct CompiledIntrin {
    intrin: TensorIntrinsic,
    /// Shape prototypes for the per-site register file (one per semantics
    /// tensor), used to build [`TapeScratch`].
    reg_templates: Vec<TypedBuf>,
    /// Data-operand gathers: `(register index, plan)`.
    loads: Vec<(u32, OperandPlan)>,
    /// Accumulator seed gather: either the distinct accumulator operand or
    /// the destination (in-place accumulation).
    acc: (u32, OperandPlan),
    /// Output scatter plan.
    dst: OperandPlan,
    /// Register holding the output after emulation.
    out_reg: u32,
}

/// One step of a fused elementwise epilogue chain (all math over exact
/// `i64` cell values — see [`crate::epilogue`]).
#[derive(Debug, Clone, Copy)]
enum EwStep {
    /// `x += bias[j]`, `bias` being buffer `buf`.
    Bias { buf: u32 },
    /// `x += residual[b, i, j]`, `residual` being buffer `buf`.
    Add { buf: u32 },
    /// `x = max(0, x)`.
    Relu,
    /// `x = requantize(x)`.
    Quant,
}

/// Per-row reduction kind for `EpiRowStat`.
#[derive(Debug, Clone, Copy)]
enum RowStatKind {
    /// Row maximum into `row_a` (softmax pass 1).
    Max,
    /// Row sum into `row_a` (softmax pass 3).
    Sum,
    /// Row mean into `row_a` and `isqrt(var)+1` into `row_b` (layernorm).
    MeanSigma,
}

/// Per-cell transform kind for `EpiRowApply`.
#[derive(Debug, Clone, Copy)]
enum RowApplyKind {
    /// `x = exp_q15(row_a - x)` (softmax pass 2).
    Exp,
    /// `x = softmax_prob(x, row_a)` (softmax pass 4).
    Prob,
    /// `x = layernorm_cell(x, row_a, row_b)`.
    Norm,
}

/// One tape instruction. See the module docs for the opcode table.
enum TapeOp {
    Loop {
        var: u32,
    },
    /// A parallel region: the loop over `var` whose body is the ops
    /// between this one and `end`, the index of the loop's `End`.
    /// `writes` lists the buffers the body writes, sorted.
    Par {
        var: u32,
        extent: i64,
        end: u32,
        writes: Box<[u32]>,
    },
    End {
        var: u32,
        extent: i64,
        top: u32,
    },
    Guard {
        guards: Box<[CompiledGuard]>,
        exit: u32,
    },
    Store {
        addr: Addr,
        value: Box<[SOp]>,
    },
    Intrin {
        id: u32,
    },
    EpiEw {
        chain: Box<[EwStep]>,
    },
    EpiRowStat {
        kind: RowStatKind,
    },
    EpiRowApply {
        kind: RowApplyKind,
    },
}

/// The epilogue context shared by every `Epi*` op on a tape: which buffer
/// the region transforms and its logical-vs-padded geometry.
#[derive(Debug, Clone, Copy)]
struct TapeEpi {
    out: u32,
    geom: EpiGeom,
}

/// Compile-time statistics, primarily for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeStats {
    /// Total tape instructions.
    pub ops: usize,
    /// Tensorized-instruction sites.
    pub intrin_sites: usize,
    /// Buffer accesses proven in-bounds at compile time (no runtime test).
    pub unchecked_accesses: usize,
    /// Buffer accesses that keep a runtime bounds test.
    pub checked_accesses: usize,
    /// Residue-guard conditions discharged statically.
    pub elided_guards: usize,
    /// Epilogue instructions lowered into the tape (bias, relu, residual
    /// add, requantize, softmax, layernorm sites executing inside the
    /// dispatch loop instead of as reference passes).
    pub epilogue_ops: usize,
    /// `parallel` loops compiled into regions that [`Tape::run`] splits
    /// across threads. A `parallel` loop nested in another, or one whose
    /// body makes fewer than 16 intrinsic calls per entry (too few to pay
    /// for a thread), runs serially and is not counted.
    pub parallel_loops: usize,
}

/// Run-time execution counters, accumulated into a [`TapeScratch`]
/// across every [`Tape::run`] that reuses it. The counters are plain
/// local increments inside the dispatch loop (no atomics, no branches),
/// so they cost nothing measurable; the serving layer reads them
/// per-dispatch to attribute work (and scratch reuse, via `runs`) in
/// request traces. Compare with [`TapeStats`]: that is what the
/// compiler *decided* (e.g. `elided_guards`), this is what an execution
/// actually *did* (e.g. `guards_executed`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeProfile {
    /// Completed [`Tape::run`] calls through this scratch (values above
    /// 1 demonstrate scratch reuse — the steady-state serving mode).
    pub runs: u64,
    /// Tape instructions retired (loop bookkeeping included).
    pub ops_retired: u64,
    /// Residue-guard conditions evaluated at run time. Statically
    /// discharged conditions ([`TapeStats::elided_guards`]) never reach
    /// the tape, so they are absent here by construction.
    pub guards_executed: u64,
    /// Tensorized-intrinsic dispatches executed.
    pub intrin_dispatches: u64,
}

/// A compiled, immutable, shareable instruction tape. `Tape` is `Sync`:
/// one compiled tape serves concurrent workers, each with its own
/// [`TapeScratch`].
pub struct Tape {
    name: String,
    decls: Vec<BufferDecl>,
    n_vars: usize,
    ops: Vec<TapeOp>,
    intrins: Vec<CompiledIntrin>,
    epi: Option<TapeEpi>,
    stats: TapeStats,
}

/// Reusable mutable execution state for one [`Tape`]. Allocate once with
/// [`Tape::scratch`] and reuse across calls: its buffers are sized once,
/// so a steady-state run allocates only inside intrinsic emulation and
/// for parallel regions (see the module docs).
pub struct TapeScratch {
    env: Vec<i64>,
    idx_stack: Vec<i64>,
    val_stack: Vec<Scalar>,
    /// One register file per intrinsic site.
    regs: Vec<Vec<TypedBuf>>,
    /// Per-row statistic files for row-reduction epilogues
    /// (`batch * rows` entries each; empty without an epilogue).
    row_a: Vec<i64>,
    row_b: Vec<i64>,
    /// Row gather window for two-pass statistics (`cols` entries).
    row_tmp: Vec<i64>,
    /// Cumulative execution counters (see [`TapeProfile`]).
    profile: TapeProfile,
    /// The most threads one parallel region of a run through this
    /// scratch split across.
    threads: usize,
}

impl TapeScratch {
    /// Cumulative execution counters since construction (or the last
    /// [`TapeScratch::reset_profile`]).
    #[must_use]
    pub fn profile(&self) -> TapeProfile {
        self.profile
    }

    /// Zero the execution counters (the scratch buffers are untouched).
    pub fn reset_profile(&mut self) {
        self.profile = TapeProfile::default();
    }

    /// The most threads one parallel region split across in the runs
    /// through this scratch: 1 while every run was serial.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Intrinsic calls per entry below which a `parallel` loop compiles
/// serial: the split must move more work off the caller than a thread
/// costs. Measured on a 2-vCPU x86 VM: a scoped spawn and join takes
/// 46–78 µs (median 54), and one intrinsic call 15 µs (`sdot`, the
/// cheapest CPU instruction), 31 µs (`smmla`) or 57 µs (`vpdpbusd.512`).
/// At 16 calls per entry a two-way split hands the spawned thread at
/// least 8 calls, about 120 µs of `sdot` work or twice a spawn. An
/// intrinsic executor that does not re-interpret the instruction's DSL
/// semantics per call would cut the per-call cost about tenfold, and
/// then this constant must be re-derived.
const MIN_SPLIT_CALLS: i64 = 16;

/// The threads a parallel region may split across: the cores this
/// process may run on (its affinity mask on Linux), read once because
/// one `available_parallelism` call costs ~25 µs; or 1 while the process
/// runs a single thread.
///
/// A tape never starts a process's first thread. Once a process has
/// started one, glibc's malloc locks an arena on every call for the rest
/// of its life: on a 2-vCPU x86 VM one spawn and join at the start of a
/// single-threaded compile loop (perfbench cold-start) cut its
/// throughput by 18–25%. A server runs its workers before it dispatches a kernel.
/// A process never leaves that mode, so the first sighting of a second
/// thread is kept. Where `/proc/self/status` cannot be read, the process
/// counts as threaded.
fn split_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    static THREADED: AtomicBool = AtomicBool::new(false);
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get));
    if cores > 1 && !THREADED.load(Ordering::Relaxed) {
        let threads = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Threads:")?.trim().parse::<usize>().ok())
            });
        if threads == Some(1) {
            return 1;
        }
        THREADED.store(true, Ordering::Relaxed);
    }
    cores
}

/// The buffers one execution reads and writes: the caller's whole
/// binding, or one parallel chunk's view of it ([`ChunkBufs`]).
trait Bufs {
    /// Buffer `id`, for reading.
    fn buf(&self, id: u32) -> &TypedBuf;
    /// Write element `at` of buffer `id`.
    fn set(&mut self, id: u32, at: usize, value: Scalar);
    /// The whole binding, when this view may split a parallel region
    /// (a chunk may not: regions never nest).
    fn whole(&mut self) -> Option<&mut [TypedBuf]>;
}

impl Bufs for [TypedBuf] {
    #[inline]
    fn buf(&self, id: u32) -> &TypedBuf {
        &self[id as usize]
    }

    #[inline]
    fn set(&mut self, id: u32, at: usize, value: Scalar) {
        self[id as usize].set(at, value);
    }

    fn whole(&mut self) -> Option<&mut [TypedBuf]> {
        Some(self)
    }
}

/// A buffer of a region's write set, private to one chunk: a copy taken
/// at region entry, and which of its elements the chunk wrote.
struct Private {
    buf: TypedBuf,
    written: Vec<bool>,
}

/// One chunk's view of a parallel region's buffers: the buffers the body
/// only reads are shared with every chunk, the ones it writes are
/// [`Private`] copies.
struct ChunkBufs<'a> {
    shared: &'a [TypedBuf],
    /// By buffer id: `Some` exactly for the region's write set.
    own: Vec<Option<Private>>,
}

impl<'a> ChunkBufs<'a> {
    fn new(shared: &'a [TypedBuf], writes: &[u32]) -> ChunkBufs<'a> {
        let mut own: Vec<Option<Private>> = shared.iter().map(|_| None).collect();
        for &id in writes {
            let buf = shared[id as usize].clone();
            let written = vec![false; buf.len()];
            own[id as usize] = Some(Private { buf, written });
        }
        ChunkBufs { shared, own }
    }
}

impl Bufs for ChunkBufs<'_> {
    #[inline]
    fn buf(&self, id: u32) -> &TypedBuf {
        match &self.own[id as usize] {
            Some(p) => &p.buf,
            None => &self.shared[id as usize],
        }
    }

    #[inline]
    fn set(&mut self, id: u32, at: usize, value: Scalar) {
        let p = self.own[id as usize]
            .as_mut()
            .expect("a region writes only its write set");
        p.buf.set(at, value);
        p.written[at] = true;
    }

    fn whole(&mut self) -> Option<&mut [TypedBuf]> {
        None
    }
}

/// What one chunk of a parallel region returns: its first error, if
/// any, and its counters up to there.
type ChunkOutcome = (Result<(), ExecError>, TapeProfile);

impl Tape {
    /// Lower a function into a tape.
    ///
    /// All structural validation the interpreter performs per run happens
    /// here once: index-arity checks ([`ExecError::IndexArity`]), intrinsic
    /// resolution, operand-count and accumulator requirements, and lane
    /// register-range validation.
    ///
    /// # Errors
    ///
    /// The same [`ExecError`] variants the interpreter reports for the
    /// equivalent malformed function.
    pub fn compile(func: &TirFunc) -> Result<Tape, ExecError> {
        Self::compile_gated(func, MIN_SPLIT_CALLS)
    }

    /// [`Tape::compile`], splitting the outermost `parallel` loops that
    /// hold at least `min_split_calls` intrinsic calls per entry.
    fn compile_gated(func: &TirFunc, min_split_calls: i64) -> Result<Tape, ExecError> {
        let mut c = Compiler {
            func,
            ops: Vec::new(),
            intrins: Vec::new(),
            stats: TapeStats::default(),
            min_split_calls,
            under_parallel: false,
        };
        c.stmt(&func.body)?;
        let epi = match &func.epilogue {
            Some(region) => Some(c.epilogue(region, func.output)?),
            None => None,
        };
        c.stats.ops = c.ops.len();
        c.stats.intrin_sites = c.intrins.len();
        Ok(Tape {
            name: func.name.clone(),
            decls: func.buffers.clone(),
            n_vars: func.vars.len(),
            ops: c.ops,
            intrins: c.intrins,
            epi,
            stats: c.stats,
        })
    }

    /// The source function's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compile-time statistics.
    #[must_use]
    pub fn stats(&self) -> TapeStats {
        self.stats
    }

    /// Allocate an execution scratch sized for this tape.
    #[must_use]
    pub fn scratch(&self) -> TapeScratch {
        TapeScratch {
            env: vec![0; self.n_vars],
            idx_stack: Vec::with_capacity(8),
            val_stack: Vec::with_capacity(8),
            regs: self
                .intrins
                .iter()
                .map(|ci| ci.reg_templates.clone())
                .collect(),
            row_a: vec![0; self.row_file_len()],
            row_b: vec![0; self.row_file_len()],
            row_tmp: vec![0; self.epi.map_or(0, |e| e.geom.cols as usize)],
            profile: TapeProfile::default(),
            threads: 1,
        }
    }

    fn row_file_len(&self) -> usize {
        self.epi
            .map_or(0, |e| (e.geom.batch * e.geom.rows) as usize)
    }

    /// Execute the tape on `bufs` (`bufs[i]` binds buffer `i`), reusing
    /// `scratch`. Parallel regions split across the cores this process
    /// may run on, once it runs more than one thread; buffers, counters
    /// and errors equal a serial run's.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]; buffer validation matches [`crate::exec::run`].
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was not created by [`Tape::scratch`] on a tape
    /// of identical shape (a programmer error, not input-dependent).
    pub fn run(&self, bufs: &mut [TypedBuf], scratch: &mut TapeScratch) -> Result<(), ExecError> {
        let threads = if self.stats.parallel_loops > 0 {
            split_threads()
        } else {
            1
        };
        self.run_on(bufs, scratch, threads)
    }

    /// [`Tape::run`] with parallel regions split across at most
    /// `threads` threads (1 runs everything on the caller).
    fn run_on(
        &self,
        bufs: &mut [TypedBuf],
        scratch: &mut TapeScratch,
        threads: usize,
    ) -> Result<(), ExecError> {
        if bufs.len() != self.decls.len() {
            return Err(ExecError::BufferCount {
                expected: self.decls.len(),
                got: bufs.len(),
            });
        }
        for (decl, buf) in self.decls.iter().zip(bufs.iter()) {
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
        assert_eq!(scratch.env.len(), self.n_vars, "scratch from another tape");
        assert_eq!(
            scratch.regs.len(),
            self.intrins.len(),
            "scratch from another tape"
        );
        assert_eq!(
            scratch.row_a.len(),
            self.row_file_len(),
            "scratch from another tape"
        );
        let mut prof = TapeProfile::default();
        self.exec(0..self.ops.len(), bufs, scratch, &mut prof, threads)?;
        scratch.profile.runs += 1;
        scratch.profile.ops_retired += prof.ops_retired;
        scratch.profile.guards_executed += prof.guards_executed;
        scratch.profile.intrin_dispatches += prof.intrin_dispatches;
        Ok(())
    }

    /// Execute the ops in `ops`, adding what they retire to `prof`.
    /// Jumps stay inside `ops` or leave it at its end.
    fn exec<B: Bufs + ?Sized>(
        &self,
        ops: Range<usize>,
        bufs: &mut B,
        scratch: &mut TapeScratch,
        prof: &mut TapeProfile,
        threads: usize,
    ) -> Result<(), ExecError> {
        // Profile counters stay in locals through the loop (register
        // pressure over memory traffic) and flush to `prof` once.
        let mut prof_ops = 0u64;
        let mut prof_guards = 0u64;
        let mut prof_intrins = 0u64;
        let mut ip = ops.start;
        while ip < ops.end {
            prof_ops += 1;
            match &self.ops[ip] {
                TapeOp::Loop { var } => scratch.env[*var as usize] = 0,
                TapeOp::Par {
                    var,
                    extent,
                    end,
                    writes,
                } => {
                    let chunks = threads.min(*extent as usize);
                    if let (true, Some(all)) = (chunks > 1, bufs.whole()) {
                        let region = (*var as usize, *extent, ip + 1..*end as usize);
                        self.split(region, writes, all, scratch, prof, chunks)?;
                        ip = *end as usize + 1;
                        continue;
                    }
                    scratch.env[*var as usize] = 0;
                }
                TapeOp::End { var, extent, top } => {
                    let v = &mut scratch.env[*var as usize];
                    *v += 1;
                    if *v < *extent {
                        ip = *top as usize;
                        continue;
                    }
                }
                TapeOp::Guard { guards, exit } => {
                    let mut taken = false;
                    for g in guards.iter() {
                        prof_guards += 1;
                        if g.prog.eval(&scratch.env, &mut scratch.idx_stack) >= g.bound {
                            taken = true;
                            break;
                        }
                    }
                    if taken {
                        ip = *exit as usize;
                        continue;
                    }
                }
                TapeOp::Store { addr, value } => {
                    let v = Self::value(
                        value,
                        bufs,
                        &scratch.env,
                        &mut scratch.idx_stack,
                        &mut scratch.val_stack,
                    )?;
                    let at = addr.eval(&scratch.env, &mut scratch.idx_stack)?;
                    bufs.set(addr.buffer, at, v);
                }
                TapeOp::Intrin { id } => {
                    prof_intrins += 1;
                    let ci = &self.intrins[*id as usize];
                    let regs = &mut scratch.regs[*id as usize];
                    for reg in regs.iter_mut() {
                        reg.fill_zero();
                    }
                    for (reg_idx, plan) in &ci.loads {
                        Self::gather(
                            plan,
                            bufs,
                            &scratch.env,
                            &mut scratch.idx_stack,
                            &mut regs[*reg_idx as usize],
                        )?;
                    }
                    let (acc_reg, acc_plan) = &ci.acc;
                    Self::gather(
                        acc_plan,
                        bufs,
                        &scratch.env,
                        &mut scratch.idx_stack,
                        &mut regs[*acc_reg as usize],
                    )?;
                    unit_isa::execute(&ci.intrin, regs)
                        .map_err(|e| ExecError::Emulation(e.to_string()))?;
                    Self::scatter(
                        &ci.dst,
                        bufs,
                        &scratch.env,
                        &mut scratch.idx_stack,
                        &regs[ci.out_reg as usize],
                    )?;
                }
                TapeOp::EpiEw { chain } => {
                    let e = self.epi.expect("epilogue op on a tape without a region");
                    let (g, out) = (e.geom, e.out);
                    let dtype = bufs.buf(out).dtype;
                    for b in 0..g.batch {
                        for i in 0..g.rows {
                            for j in 0..g.cols {
                                let at = g.flat(b, i, j);
                                let mut x = cell_to_i64(bufs.buf(out).get(at));
                                for step in chain.iter() {
                                    x = match *step {
                                        EwStep::Bias { buf } => {
                                            x + cell_to_i64(bufs.buf(buf).get(j as usize))
                                        }
                                        EwStep::Add { buf } => {
                                            let r = ((b * g.rows + i) * g.cols + j) as usize;
                                            x + cell_to_i64(bufs.buf(buf).get(r))
                                        }
                                        EwStep::Relu => x.max(0),
                                        EwStep::Quant => requantize(x),
                                    };
                                }
                                bufs.set(out, at, i64_to_cell(dtype, x));
                            }
                        }
                    }
                }
                TapeOp::EpiRowStat { kind } => {
                    let e = self.epi.expect("epilogue op on a tape without a region");
                    let (g, out) = (e.geom, bufs.buf(e.out));
                    for b in 0..g.batch {
                        for i in 0..g.rows {
                            let row = (b * g.rows + i) as usize;
                            match kind {
                                RowStatKind::Max => {
                                    let mut m = i64::MIN;
                                    for j in 0..g.cols {
                                        m = m.max(cell_to_i64(out.get(g.flat(b, i, j))));
                                    }
                                    scratch.row_a[row] = m;
                                }
                                RowStatKind::Sum => {
                                    let mut s = 0i64;
                                    for j in 0..g.cols {
                                        s += cell_to_i64(out.get(g.flat(b, i, j)));
                                    }
                                    scratch.row_a[row] = s;
                                }
                                RowStatKind::MeanSigma => {
                                    for j in 0..g.cols {
                                        scratch.row_tmp[j as usize] =
                                            cell_to_i64(out.get(g.flat(b, i, j)));
                                    }
                                    let (mean, sigma) = mean_sigma(&scratch.row_tmp);
                                    scratch.row_a[row] = mean;
                                    scratch.row_b[row] = sigma;
                                }
                            }
                        }
                    }
                }
                TapeOp::EpiRowApply { kind } => {
                    let e = self.epi.expect("epilogue op on a tape without a region");
                    let (g, out) = (e.geom, e.out);
                    let dtype = bufs.buf(out).dtype;
                    for b in 0..g.batch {
                        for i in 0..g.rows {
                            let row = (b * g.rows + i) as usize;
                            for j in 0..g.cols {
                                let at = g.flat(b, i, j);
                                let x = cell_to_i64(bufs.buf(out).get(at));
                                let y = match kind {
                                    RowApplyKind::Exp => exp_q15(scratch.row_a[row] - x),
                                    RowApplyKind::Prob => softmax_prob(x, scratch.row_a[row]),
                                    RowApplyKind::Norm => {
                                        layernorm_cell(x, scratch.row_a[row], scratch.row_b[row])
                                    }
                                };
                                bufs.set(out, at, i64_to_cell(dtype, y));
                            }
                        }
                    }
                }
            }
            ip += 1;
        }
        prof.ops_retired += prof_ops;
        prof.guards_executed += prof_guards;
        prof.intrin_dispatches += prof_intrins;
        Ok(())
    }

    /// Run a parallel region, `(var, extent, body ops)`, as `chunks`
    /// contiguous slices of `[0, extent)`: the caller runs the first on
    /// `scratch`, scoped threads the rest on scratches of their own.
    /// Every chunk reads the buffers outside `writes` shared and writes a
    /// private copy of those in `writes` ([`ChunkBufs`]).
    ///
    /// Invariant: chunks write disjoint elements. `Schedule::annotate`
    /// admits `parallel` only on data-parallel loops, and distinct
    /// iterations of a data-parallel loop write distinct output elements
    /// and read back only their own, so merging each chunk's writes into
    /// `bufs` in iteration order reproduces the serial run bit for bit.
    /// Debug builds check the invariant at the merge.
    ///
    /// A failing chunk ends the merge where a serial run would have
    /// stopped: earlier chunks merge whole, the failing one up to its
    /// error, later ones not at all, and its error is returned. A chunk's
    /// panic resumes on the caller.
    fn split(
        &self,
        (var, extent, body): (usize, i64, Range<usize>),
        writes: &[u32],
        bufs: &mut [TypedBuf],
        scratch: &mut TapeScratch,
        prof: &mut TapeProfile,
        chunks: usize,
    ) -> Result<(), ExecError> {
        let run_chunk = |c: usize, view: &mut ChunkBufs, sc: &mut TapeScratch| -> ChunkOutcome {
            let n = chunks as i64;
            let mut p = TapeProfile::default();
            for v in extent * c as i64 / n..extent * (c as i64 + 1) / n {
                sc.env[var] = v;
                if let Err(e) = self.exec(body.clone(), view, sc, &mut p, 1) {
                    return (Err(e), p);
                }
                // The region's `End`, retired once per iteration as in a
                // serial run.
                p.ops_retired += 1;
            }
            (Ok(()), p)
        };
        let run_chunk = &run_chunk;
        let shared: &[TypedBuf] = bufs;
        let mut views: Vec<ChunkBufs> = (0..chunks)
            .map(|_| ChunkBufs::new(shared, writes))
            .collect();
        let mut scratches: Vec<TapeScratch> = (1..chunks)
            .map(|_| {
                let mut sc = self.scratch();
                sc.env.copy_from_slice(&scratch.env);
                sc
            })
            .collect();
        let outcomes: Vec<thread::Result<ChunkOutcome>> = thread::scope(|s| {
            let (first, rest) = views.split_first_mut().expect("a region has chunks");
            let handles: Vec<_> = rest
                .iter_mut()
                .zip(&mut scratches)
                .enumerate()
                .map(|(c, (view, sc))| s.spawn(move || run_chunk(c + 1, view, sc)))
                .collect();
            let mut outcomes = vec![Ok(run_chunk(0, first, scratch))];
            outcomes.extend(handles.into_iter().map(|h| h.join()));
            outcomes
        });
        let owned: Vec<Vec<Option<Private>>> = views.into_iter().map(|v| v.own).collect();
        scratch.threads = scratch.threads.max(chunks);

        // Debug builds record which chunk wrote each element of the
        // write set, to check the disjoint-writes invariant.
        let mut writer: Vec<Vec<Option<usize>>> = if cfg!(debug_assertions) {
            writes
                .iter()
                .map(|&id| vec![None; bufs[id as usize].len()])
                .collect()
        } else {
            Vec::new()
        };
        for (c, (outcome, mut own)) in outcomes.into_iter().zip(owned).enumerate() {
            let (result, p) = outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (k, &id) in writes.iter().enumerate() {
                let private = own[id as usize].take().expect("write set is private");
                let dst = &mut bufs[id as usize];
                for (at, _) in private.written.iter().enumerate().filter(|(_, w)| **w) {
                    if let Some(writer) = writer.get_mut(k) {
                        if let Some(other) = writer[at].replace(c) {
                            panic!(
                                "parallel region over v{var}: chunks {other} and {c} both wrote \
                                 element {at} of buffer {id}"
                            );
                        }
                    }
                    dst.set(at, private.buf.get(at));
                }
            }
            result?;
            prof.ops_retired += p.ops_retired;
            prof.guards_executed += p.guards_executed;
            prof.intrin_dispatches += p.intrin_dispatches;
        }
        Ok(())
    }

    /// One-shot convenience: allocates a fresh scratch. Prefer
    /// [`Tape::run`] with a reused scratch on hot paths.
    ///
    /// # Errors
    ///
    /// See [`Tape::run`].
    pub fn run_fresh(&self, bufs: &mut [TypedBuf]) -> Result<(), ExecError> {
        self.run(bufs, &mut self.scratch())
    }

    fn value<B: Bufs + ?Sized>(
        ops: &[SOp],
        bufs: &B,
        env: &[i64],
        idx_stack: &mut Vec<i64>,
        stack: &mut Vec<Scalar>,
    ) -> Result<Scalar, ExecError> {
        stack.clear();
        for op in ops {
            match op {
                SOp::Const(s) => stack.push(*s),
                SOp::Load(addr) => {
                    let at = addr.eval(env, idx_stack)?;
                    stack.push(bufs.buf(addr.buffer).get(at));
                }
                SOp::Cast { from, to } => {
                    let v = stack.pop().expect("cast operand");
                    stack.push(v.cast(*from, *to));
                }
                SOp::Bin { op, dtype } => {
                    let b = stack.pop().expect("bin rhs");
                    let a = stack.pop().expect("bin lhs");
                    stack.push(Scalar::binop(*op, a, b, *dtype));
                }
            }
        }
        Ok(stack.pop().expect("value result"))
    }

    fn gather<B: Bufs + ?Sized>(
        plan: &OperandPlan,
        bufs: &B,
        env: &[i64],
        idx_stack: &mut Vec<i64>,
        reg: &mut TypedBuf,
    ) -> Result<(), ExecError> {
        let base = plan.base.eval(env, idx_stack);
        let buf = bufs.buf(plan.buffer);
        for &(reg_at, mem_off) in plan.lanes.iter() {
            let at = base + mem_off;
            if plan.checked && (at < 0 || at as usize >= plan.len) {
                return Err(ExecError::OutOfBounds {
                    buffer: plan.buffer,
                    index: at,
                    len: plan.len,
                });
            }
            reg.set(reg_at as usize, buf.get(at as usize));
        }
        Ok(())
    }

    fn scatter<B: Bufs + ?Sized>(
        plan: &OperandPlan,
        bufs: &mut B,
        env: &[i64],
        idx_stack: &mut Vec<i64>,
        reg: &TypedBuf,
    ) -> Result<(), ExecError> {
        let base = plan.base.eval(env, idx_stack);
        for &(reg_at, mem_off) in plan.lanes.iter() {
            let at = base + mem_off;
            if plan.checked && (at < 0 || at as usize >= plan.len) {
                return Err(ExecError::OutOfBounds {
                    buffer: plan.buffer,
                    index: at,
                    len: plan.len,
                });
            }
            bufs.set(plan.buffer, at as usize, reg.get(reg_at as usize));
        }
        Ok(())
    }
}

struct Compiler<'a> {
    func: &'a TirFunc,
    ops: Vec<TapeOp>,
    intrins: Vec<CompiledIntrin>,
    stats: TapeStats,
    /// Intrinsic calls per entry a `parallel` loop needs to become a
    /// region ([`MIN_SPLIT_CALLS`] outside tests).
    min_split_calls: i64,
    /// Whether the statement being compiled sits inside a `parallel`
    /// loop (nested ones compile serial).
    under_parallel: bool,
}

/// Intrinsic calls one execution of `s` makes at most (guards assumed
/// taken): the work estimate behind [`MIN_SPLIT_CALLS`].
fn intrin_calls(s: &Stmt) -> i64 {
    match s {
        Stmt::For(fs) => fs.extent.max(0).saturating_mul(intrin_calls(&fs.body)),
        Stmt::Seq(items) => items
            .iter()
            .fold(0i64, |n, st| n.saturating_add(intrin_calls(st))),
        Stmt::IfLikely { body, .. } => intrin_calls(body),
        Stmt::Intrin(_) => 1,
        Stmt::Store(_) | Stmt::Sync | Stmt::Nop => 0,
    }
}

impl Compiler<'_> {
    /// Lower an epilogue region into tape ops appended after the body.
    /// Consecutive elementwise instructions batch into a single `EpiEw`
    /// chain (one pass over the output instead of one per op — the fused
    /// serving win); row reductions lower to their stat/apply pairs.
    fn epilogue(
        &mut self,
        region: &unit_tir::Epilogue,
        output: BufId,
    ) -> Result<TapeEpi, ExecError> {
        let g = region.geom;
        let out_decl = self.func.buffer(output);
        if !g.fits(out_decl.len()) {
            return Err(ExecError::BufferDecl(format!(
                "epilogue geometry {g:?} escapes output {} of {} elements",
                out_decl.name,
                out_decl.len()
            )));
        }
        let mut chain: Vec<EwStep> = Vec::new();
        for instr in &region.instrs {
            // Operand validation mirrors the oracle: the id must name a
            // declared buffer large enough for the op's access pattern.
            let operand = match instr.operand {
                Some(id) => {
                    if id.0 as usize >= self.func.buffers.len() {
                        return Err(ExecError::BufferCount {
                            expected: id.0 as usize + 1,
                            got: self.func.buffers.len(),
                        });
                    }
                    let decl = self.func.buffer(id);
                    let need = match instr.op {
                        EpiOp::Bias => g.cols,
                        EpiOp::Add => g.batch * g.rows * g.cols,
                        _ => 0,
                    } as usize;
                    if decl.len() < need {
                        return Err(ExecError::BufferDecl(format!(
                            "epilogue operand {} holds {} elements, needs {need}",
                            decl.name,
                            decl.len()
                        )));
                    }
                    Some(id.0)
                }
                None => None,
            };
            match instr.op {
                EpiOp::Bias => chain.push(EwStep::Bias {
                    buf: operand.expect("bias carries an operand"),
                }),
                EpiOp::Add => chain.push(EwStep::Add {
                    buf: operand.expect("add carries an operand"),
                }),
                EpiOp::Relu => chain.push(EwStep::Relu),
                EpiOp::Quant => chain.push(EwStep::Quant),
                EpiOp::Softmax => {
                    self.flush_ew(&mut chain);
                    self.ops.push(TapeOp::EpiRowStat {
                        kind: RowStatKind::Max,
                    });
                    self.ops.push(TapeOp::EpiRowApply {
                        kind: RowApplyKind::Exp,
                    });
                    self.ops.push(TapeOp::EpiRowStat {
                        kind: RowStatKind::Sum,
                    });
                    self.ops.push(TapeOp::EpiRowApply {
                        kind: RowApplyKind::Prob,
                    });
                }
                EpiOp::LayerNorm => {
                    self.flush_ew(&mut chain);
                    self.ops.push(TapeOp::EpiRowStat {
                        kind: RowStatKind::MeanSigma,
                    });
                    self.ops.push(TapeOp::EpiRowApply {
                        kind: RowApplyKind::Norm,
                    });
                }
            }
            self.stats.epilogue_ops += 1;
        }
        self.flush_ew(&mut chain);
        Ok(TapeEpi {
            out: output.0,
            geom: g,
        })
    }

    fn flush_ew(&mut self, chain: &mut Vec<EwStep>) {
        if !chain.is_empty() {
            self.ops.push(TapeOp::EpiEw {
                chain: std::mem::take(chain).into(),
            });
        }
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), ExecError> {
        match s {
            Stmt::For(fs) => {
                if fs.extent <= 0 {
                    return Ok(()); // statically empty: emit nothing
                }
                let parallel = fs.kind == LoopKind::Parallel;
                let region = parallel
                    && !self.under_parallel
                    && fs.extent.saturating_mul(intrin_calls(&fs.body)) >= self.min_split_calls;
                let head = self.ops.len();
                self.ops.push(TapeOp::Loop { var: fs.var.0 });
                let outer = self.under_parallel;
                self.under_parallel |= parallel;
                self.stmt(&fs.body)?;
                self.under_parallel = outer;
                let end = self.ops.len();
                self.ops.push(TapeOp::End {
                    var: fs.var.0,
                    extent: fs.extent,
                    top: head as u32 + 1,
                });
                if region {
                    self.ops[head] = TapeOp::Par {
                        var: fs.var.0,
                        extent: fs.extent,
                        end: end as u32,
                        writes: self.writes(head + 1..end),
                    };
                    self.stats.parallel_loops += 1;
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
                let mut value = Vec::new();
                self.texpr(&st.value, &mut value)?;
                let addr = self.addr(st.buffer, &st.indices)?;
                self.ops.push(TapeOp::Store {
                    addr,
                    value: value.into(),
                });
                Ok(())
            }
            Stmt::IfLikely { guards, body } => self.guarded(guards, body),
            Stmt::Intrin(is) => {
                let id = self.intrin(is)?;
                self.ops.push(TapeOp::Intrin { id });
                Ok(())
            }
            Stmt::Sync | Stmt::Nop => Ok(()),
        }
    }

    /// The buffers the ops in `body` write, sorted and deduplicated.
    fn writes(&self, body: Range<usize>) -> Box<[u32]> {
        let mut ids: Vec<u32> = self.ops[body]
            .iter()
            .filter_map(|op| match op {
                TapeOp::Store { addr, .. } => Some(addr.buffer),
                TapeOp::Intrin { id } => Some(self.intrins[*id as usize].dst.buffer),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into()
    }

    /// Compile a guarded body, discharging statically decidable conditions.
    fn guarded(&mut self, guards: &[Guard], body: &Stmt) -> Result<(), ExecError> {
        let extent_of = self.func.extent_of();
        let mut kept = Vec::new();
        for g in guards {
            let (lo, hi) = g.index.bounds(&extent_of);
            if hi < g.bound {
                // Always true: the residue guard never fires on this tape.
                self.stats.elided_guards += 1;
            } else if lo >= g.bound {
                // Always false: the body is dead, emit nothing.
                self.stats.elided_guards += 1;
                return Ok(());
            } else {
                kept.push(CompiledGuard {
                    prog: IdxProg::compile(&g.index),
                    bound: g.bound,
                });
            }
        }
        if kept.is_empty() {
            return self.stmt(body);
        }
        let at = self.ops.len();
        self.ops.push(TapeOp::Guard {
            guards: kept.into(),
            exit: 0, // patched below
        });
        self.stmt(body)?;
        let exit = self.ops.len() as u32;
        match &mut self.ops[at] {
            TapeOp::Guard { exit: e, .. } => *e = exit,
            _ => unreachable!("guard site moved"),
        }
        Ok(())
    }

    /// Fold indices and strides into one flat index expression, validating
    /// arity exactly like the interpreter.
    fn flat_expr(&self, buffer: BufId, indices: &[IdxExpr]) -> Result<IdxExpr, ExecError> {
        let strides = self.func.buffer(buffer).strides();
        if indices.len() != strides.len() {
            return Err(ExecError::IndexArity {
                buffer: buffer.0,
                expected: strides.len(),
                got: indices.len(),
            });
        }
        let mut flat = IdxExpr::Const(0);
        for (ix, s) in indices.iter().zip(&strides) {
            flat = flat.add(ix.clone().mul(*s));
        }
        Ok(flat)
    }

    fn addr(&mut self, buffer: BufId, indices: &[IdxExpr]) -> Result<Addr, ExecError> {
        let flat = self.flat_expr(buffer, indices)?;
        let len = self.func.buffer(buffer).len();
        let (lo, hi) = flat.bounds(&self.func.extent_of());
        let checked = !(lo >= 0 && hi < len as i64);
        if checked {
            self.stats.checked_accesses += 1;
        } else {
            self.stats.unchecked_accesses += 1;
        }
        Ok(Addr {
            buffer: buffer.0,
            prog: IdxProg::compile(&flat),
            len,
            checked,
        })
    }

    fn texpr(&mut self, e: &TExpr, out: &mut Vec<SOp>) -> Result<DType, ExecError> {
        match e {
            TExpr::Int(v, dt) => {
                out.push(SOp::Const(Scalar::Int(*v).wrap(*dt)));
                Ok(*dt)
            }
            TExpr::Float(bits, dt) => {
                out.push(SOp::Const(Scalar::Float(f64::from_bits(*bits)).wrap(*dt)));
                Ok(*dt)
            }
            TExpr::Load { buffer, indices } => {
                let addr = self.addr(*buffer, indices)?;
                out.push(SOp::Load(addr));
                Ok(self.func.buffer(*buffer).dtype)
            }
            TExpr::Cast(dt, inner) => {
                let from = self.texpr(inner, out)?;
                out.push(SOp::Cast { from, to: *dt });
                Ok(*dt)
            }
            TExpr::Bin(op, lhs, rhs) => {
                let dt = self.texpr(lhs, out)?;
                self.texpr(rhs, out)?;
                out.push(SOp::Bin { op: *op, dtype: dt });
                Ok(dt)
            }
        }
    }

    /// Compile one operand's gather/scatter plan: precompute the lane
    /// pattern, validate every lane's register index, and prove bounds for
    /// `base + mem_off` where possible.
    fn operand(&mut self, spec: &OperandSpec, reg_len: usize) -> Result<OperandPlan, ExecError> {
        let lanes = spec.lanes();
        for &(reg_at, _) in &lanes {
            if reg_at < 0 || reg_at as usize >= reg_len {
                return Err(ExecError::Emulation(format!(
                    "operand lane register index {reg_at} escapes register length {reg_len}"
                )));
            }
        }
        let len = self.func.buffer(spec.buffer).len();
        let (lo, hi) = spec.base.bounds(&self.func.extent_of());
        let min_off = lanes.iter().map(|&(_, m)| m).min().unwrap_or(0);
        let max_off = lanes.iter().map(|&(_, m)| m).max().unwrap_or(0);
        let checked = !(lo + min_off >= 0 && hi + max_off < len as i64);
        if checked {
            self.stats.checked_accesses += 1;
        } else {
            self.stats.unchecked_accesses += 1;
        }
        Ok(OperandPlan {
            buffer: spec.buffer.0,
            base: IdxProg::compile(&spec.base),
            lanes: lanes.into_iter().map(|(r, m)| (r as u32, m)).collect(),
            len,
            checked,
        })
    }

    fn intrin(&mut self, is: &IntrinStmt) -> Result<u32, ExecError> {
        let intrin = registry::by_name(&is.intrinsic)
            .ok_or_else(|| ExecError::UnknownIntrinsic(is.intrinsic.clone()))?;
        let sem = &intrin.semantics;
        let reg_templates: Vec<TypedBuf> = sem
            .tensors
            .iter()
            .map(|t| TypedBuf::zeros(t.dtype, t.len()))
            .collect();

        let inst_loads = sem.update.loads();
        if inst_loads.len() != is.srcs.len() {
            return Err(ExecError::Emulation(format!(
                "intrinsic {} expects {} data operands, got {}",
                is.intrinsic,
                inst_loads.len(),
                is.srcs.len()
            )));
        }
        let mut loads = Vec::with_capacity(is.srcs.len());
        for (load, spec) in inst_loads.iter().zip(&is.srcs) {
            let reg = load.tensor.0;
            let plan = self.operand(spec, reg_templates[reg as usize].len())?;
            loads.push((reg, plan));
        }
        let acc = if let Some(acc_reg) = intrin.accumulator_operand() {
            let spec = is.acc.as_ref().ok_or_else(|| {
                ExecError::Emulation(format!(
                    "intrinsic {} requires an accumulator operand",
                    is.intrinsic
                ))
            })?;
            let plan = self.operand(spec, reg_templates[acc_reg.0 as usize].len())?;
            (acc_reg.0, plan)
        } else {
            // In-place accumulation: seed the destination register.
            let out = sem.output;
            let plan = self.operand(&is.dst, reg_templates[out.0 as usize].len())?;
            (out.0, plan)
        };
        let out_reg = sem.output.0;
        let dst = self.operand(&is.dst, reg_templates[out_reg as usize].len())?;

        let id = self.intrins.len() as u32;
        self.intrins.push(CompiledIntrin {
            intrin,
            reg_templates,
            loads,
            acc,
            dst,
            out_reg,
        });
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::{alloc_buffers, random_fill};
    use crate::exec::run;
    use unit_dsl::builder::{conv2d_hwc, matmul_u8i8};
    use unit_tir::{lower::lower, schedule::Schedule};

    /// Compile + run the tape and the interpreter on identical inputs;
    /// every buffer must match bit-for-bit.
    fn assert_tape_matches_interp(func: &TirFunc, seed: u64) -> Tape {
        let tape = Tape::compile(func).expect("tape compiles");
        let mut tape_bufs = alloc_buffers(func);
        random_fill(&mut tape_bufs, seed);
        let mut interp_bufs = tape_bufs.clone();
        tape.run_fresh(&mut tape_bufs).expect("tape runs");
        run(func, &mut interp_bufs).expect("interpreter runs");
        assert_eq!(tape_bufs, interp_bufs, "tape diverged from interpreter");
        tape
    }

    #[test]
    fn default_lowering_matches_interpreter_with_all_checks_elided() {
        let op = matmul_u8i8(6, 10, 24);
        let func = lower(&Schedule::new(&op), "mm").unwrap();
        let tape = assert_tape_matches_interp(&func, 11);
        // Perfect loop nests are fully provable: no runtime bounds tests
        // survive on the tape.
        let stats = tape.stats();
        assert!(stats.unchecked_accesses > 0);
        assert_eq!(stats.checked_accesses, 0);
    }

    #[test]
    fn fused_schedule_exercises_the_rpn_fallback() {
        // Fusing introduces div/mod index expressions that defeat the
        // affine fast path.
        let op = conv2d_hwc(8, 8, 8, 16, 3, 3);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        let (_ko, ki) = s.split(ls[2], 4).unwrap();
        let f = s.fuse(ls[0], ls[1]).unwrap();
        s.reorder(&[f]).unwrap();
        s.annotate(ki, unit_tir::LoopKind::Unrolled).unwrap();
        let func = lower(&s, "conv_fused").unwrap();
        assert_tape_matches_interp(&func, 3);
    }

    #[test]
    fn imperfect_tiling_keeps_residue_guards_on_the_tape() {
        // 30 % 8 != 0: the residue guard survives compilation and fires.
        let op = matmul_u8i8(30, 10, 12);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        let (_, _) = s.split(ls[0], 8).unwrap();
        let func = lower(&s, "mm_resid").unwrap();
        let tape = assert_tape_matches_interp(&func, 5);
        assert!(
            tape.stats().ops > 0,
            "residue kernel must compile to a non-empty tape"
        );
    }

    #[test]
    fn perfect_split_guards_are_discharged_at_compile_time() {
        // 32 % 8 == 0: any guard the lowering emits is statically true.
        let op = matmul_u8i8(32, 10, 12);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        let (_, _) = s.split(ls[0], 8).unwrap();
        let func = lower(&s, "mm_even").unwrap();
        let tape = assert_tape_matches_interp(&func, 7);
        let has_runtime_guard = tape.ops.iter().any(|op| matches!(op, TapeOp::Guard { .. }));
        assert!(!has_runtime_guard, "perfect split must not keep guards");
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let op = matmul_u8i8(6, 10, 24);
        let func = lower(&Schedule::new(&op), "mm").unwrap();
        let tape = Tape::compile(&func).unwrap();
        let mut scratch = tape.scratch();
        let mut first = alloc_buffers(&func);
        random_fill(&mut first, 9);
        let mut second = first.clone();
        tape.run(&mut first, &mut scratch).unwrap();
        tape.run(&mut second, &mut scratch).unwrap();
        assert_eq!(first, second, "scratch reuse must not leak state");
    }

    #[test]
    fn profile_counts_runs_ops_and_dispatches() {
        let op = matmul_u8i8(6, 10, 24);
        let func = lower(&Schedule::new(&op), "mm").unwrap();
        let tape = Tape::compile(&func).unwrap();
        let mut scratch = tape.scratch();
        assert_eq!(scratch.profile(), TapeProfile::default());
        let mut bufs = alloc_buffers(&func);
        random_fill(&mut bufs, 9);
        tape.run(&mut bufs, &mut scratch).unwrap();
        let once = scratch.profile();
        assert_eq!(once.runs, 1);
        assert!(once.ops_retired >= tape.stats().ops as u64);
        assert!(once.intrin_dispatches >= 1 || tape.stats().intrin_sites == 0);
        tape.run(&mut bufs, &mut scratch).unwrap();
        let twice = scratch.profile();
        assert_eq!(twice.runs, 2, "reused scratch accumulates run count");
        assert_eq!(twice.ops_retired, 2 * once.ops_retired);
        assert_eq!(twice.guards_executed, 2 * once.guards_executed);
        assert_eq!(twice.intrin_dispatches, 2 * once.intrin_dispatches);
        scratch.reset_profile();
        assert_eq!(scratch.profile(), TapeProfile::default());
    }

    #[test]
    fn buffer_validation_matches_interpreter() {
        let op = matmul_u8i8(4, 4, 8);
        let func = lower(&Schedule::new(&op), "mm").unwrap();
        let tape = Tape::compile(&func).unwrap();
        let mut bufs = alloc_buffers(&func);
        bufs.pop();
        assert!(matches!(
            tape.run_fresh(&mut bufs),
            Err(ExecError::BufferCount { .. })
        ));
    }

    #[test]
    fn tape_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Tape>();
    }

    #[test]
    fn fused_epilogue_matches_oracle_and_batches_elementwise_chains() {
        use unit_tir::epilogue::EpiOp as E;
        use unit_tir::epilogue::{attach_epilogue, EpiGeom, EpilogueSpec};
        let op = matmul_u8i8(6, 10, 24);
        let mut func = lower(&Schedule::new(&op), "mm_epi").unwrap();
        // Rank-2 output [6, 10]: describe it as one batch, no padding.
        let geom = EpiGeom {
            batch: 1,
            rows: 6,
            cols: 10,
            rows_pad: 6,
            cols_pad: 10,
        };
        let spec =
            EpilogueSpec::new(&[E::Bias, E::Add, E::Relu, E::Softmax, E::LayerNorm, E::Quant]);
        attach_epilogue(&mut func, &spec, geom);
        let tape = assert_tape_matches_interp(&func, 13);
        assert_eq!(tape.stats().epilogue_ops, 6);
        // bias+add+relu collapse into ONE elementwise pass; softmax is 4
        // row ops, layernorm 2, quant 1 more elementwise pass.
        let ew = tape
            .ops
            .iter()
            .filter(|o| matches!(o, TapeOp::EpiEw { .. }))
            .count();
        assert_eq!(ew, 2, "consecutive elementwise ops must batch");
    }

    /// The kernels the pipeline serves for perfbench's `ops-openloop`
    /// menu on the CPU targets (the tuner at `max_pairs: 8`), plus the
    /// engine's batch-4 fusion of the 32³ GEMM (a batched GEMM compiled
    /// at the served kernel's replay config), as `(label, function)`.
    fn served_menu() -> Vec<(String, TirFunc)> {
        use unit_core::pipeline::{Target, TuningConfig};
        use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
        use unit_graph::compile::UnitProvider;
        use unit_graph::{CacheWorkload, OpSpec};
        let tuning = TuningConfig {
            cpu: CpuTuneMode::Tuned { max_pairs: 8 },
            gpu: GpuTuneMode::Tuned,
        };
        let menu = [
            OpSpec::batched_gemm(2, 8, 16, 16),
            OpSpec::gemm(32, 32, 32),
            OpSpec::conv2d(16, 8, 16, 1, 1, 0),
            OpSpec::depthwise(8, 8, 3, 1, 1),
        ];
        let fused = OpSpec::Gemm {
            m: 32,
            n: 32,
            k: 32,
            batch: 4,
        };
        let mut kernels = Vec::new();
        for id in ["x86-avx512-vnni", "arm-neon-dot", "arm-i8mm-smmla"] {
            let target = Target::by_id(id).expect("registered target");
            let compile = |config, op: OpSpec| {
                UnitProvider::new(target.clone(), config)
                    .compile_workload_full(&CacheWorkload::Op(op))
            };
            for op in menu {
                let served = compile(tuning, op);
                if op == OpSpec::gemm(32, 32, 32) {
                    let batch = compile(served.replay, fused);
                    kernels.push((format!("{id} fused {}", fused.describe()), batch.func));
                }
                kernels.push((format!("{id} {}", op.describe()), served.func));
            }
        }
        kernels
    }

    /// Run `tape` on seed `seed`'s inputs, splitting parallel regions
    /// across at most `threads` threads: the buffers, the counters, the
    /// widest split and the result.
    fn run_split(
        tape: &Tape,
        func: &TirFunc,
        seed: u64,
        threads: usize,
    ) -> (Vec<TypedBuf>, TapeProfile, usize, Result<(), ExecError>) {
        let mut bufs = alloc_buffers(func);
        random_fill(&mut bufs, seed);
        let mut scratch = tape.scratch();
        let result = tape.run_on(&mut bufs, &mut scratch, threads);
        (bufs, scratch.profile(), scratch.threads(), result)
    }

    /// The extent of the widest parallel region on `tape`.
    fn region_extent(tape: &Tape) -> usize {
        tape.ops
            .iter()
            .filter_map(|op| match op {
                TapeOp::Par { extent, .. } => Some(*extent as usize),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Splitting the regions across 2, 3 and one thread per iteration
    /// (extent + 1) reproduces the 1-thread run: buffers bit for bit,
    /// counters and result.
    fn assert_splits_match_serial(tape: &Tape, func: &TirFunc, seed: u64, what: &str) {
        let extent = region_extent(tape);
        assert!(extent > 1, "{what}: no region to split");
        let (bufs, profile, threads, result) = run_split(tape, func, seed, 1);
        assert_eq!(threads, 1, "{what}: one thread never splits");
        for n in [2, 3, extent + 1] {
            let split = run_split(tape, func, seed, n);
            assert_eq!(split.0, bufs, "{what}: buffers at {n} threads");
            assert_eq!(split.1, profile, "{what}: profile at {n} threads");
            assert_eq!(split.2, n.min(extent), "{what}: chunks at {n} threads");
            assert_eq!(split.3, result, "{what}: result at {n} threads");
        }
    }

    #[test]
    fn served_kernels_split_bit_identically_at_every_thread_count() {
        let mut split = 0;
        for (what, func) in served_menu() {
            let parallel = unit_tir::printer::print_func(&func).contains("parallel (");
            // Ungated, every parallel kernel splits, including the
            // depthwise SIMD fallback whose body is all `Store` ops.
            let tape = Tape::compile_gated(&func, 0).unwrap();
            assert_eq!(tape.stats().parallel_loops, usize::from(parallel), "{what}");
            // The spawn gate keeps exactly the intrinsic-free body serial.
            let gated = Tape::compile(&func).unwrap().stats().parallel_loops;
            let tensorized = tape.stats().intrin_sites > 0;
            assert_eq!(gated, usize::from(parallel && tensorized), "{what}: gate");
            if parallel {
                assert_splits_match_serial(&tape, &func, 7, &what);
                split += 1;
            }
        }
        // Every menu kernel but the VNNI batched GEMM (fully unrolled)
        // has a parallel loop.
        assert_eq!(split, 14);
    }

    #[test]
    fn a_guarded_region_whose_extent_no_split_divides_matches_serial() {
        // 30 rows tiled by 8: the parallel outer loop runs 4 iterations,
        // the last one under a residue guard, split 2, 3 and 5 ways.
        let op = matmul_u8i8(30, 10, 12);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        let (outer, _) = s.split(ls[0], 8).unwrap();
        s.annotate(outer, unit_tir::LoopKind::Parallel).unwrap();
        let func = lower(&s, "mm_resid").unwrap();
        let tape = Tape::compile_gated(&func, 0).unwrap();
        assert_eq!(region_extent(&tape), 4);
        assert!(tape.ops.iter().any(|op| matches!(op, TapeOp::Guard { .. })));
        assert_splits_match_serial(&tape, &func, 5, "mm_resid");
        let mut oracle = alloc_buffers(&func);
        random_fill(&mut oracle, 5);
        run(&func, &mut oracle).unwrap();
        assert_eq!(run_split(&tape, &func, 5, 3).0, oracle);
    }

    #[test]
    fn only_the_outermost_parallel_loop_becomes_a_region() {
        let op = matmul_u8i8(6, 10, 24);
        let mut s = Schedule::new(&op);
        let ls = s.leaves();
        s.annotate(ls[0], unit_tir::LoopKind::Parallel).unwrap();
        s.annotate(ls[1], unit_tir::LoopKind::Parallel).unwrap();
        let func = lower(&s, "mm_nested").unwrap();
        let tape = Tape::compile_gated(&func, 0).unwrap();
        assert_eq!(tape.stats().parallel_loops, 1);
        assert_splits_match_serial(&tape, &func, 2, "mm_nested");
        // No intrinsic call in the body: it cannot pay for a spawn.
        assert_eq!(Tape::compile(&func).unwrap().stats().parallel_loops, 0);
    }

    #[test]
    fn a_failing_region_returns_the_serial_runs_error_and_buffers() {
        use unit_tir::{BufferScope, LoopKind, StoreStmt, VarDecl, VarId};
        // parallel (v0 < 8) { out[v0 + 3] = in[v0] } with an 8-element
        // `out`: iterations 5, 6 and 7 escape it, and a serial run stops
        // at the first of them. One chunk per iteration fails three times.
        let v = VarId(0);
        let decl = |id: u32, name: &str| BufferDecl {
            id: BufId(id),
            name: name.to_string(),
            shape: vec![8],
            dtype: DType::I32,
            scope: BufferScope::Global,
        };
        let store = Stmt::Store(StoreStmt {
            buffer: BufId(1),
            indices: vec![IdxExpr::Var(v).add(IdxExpr::Const(3))],
            value: TExpr::Load {
                buffer: BufId(0),
                indices: vec![IdxExpr::Var(v)],
            },
        });
        let func = TirFunc {
            name: "escape".to_string(),
            buffers: vec![decl(0, "in"), decl(1, "out")],
            vars: vec![VarDecl {
                id: v,
                name: "i".to_string(),
                extent: 8,
            }],
            output: BufId(1),
            body: store.in_loop(v, 8, LoopKind::Parallel),
            epilogue: None,
        };
        let tape = Tape::compile_gated(&func, 0).unwrap();
        assert_eq!(tape.stats().parallel_loops, 1);
        let serial = run_split(&tape, &func, 3, 1).3;
        assert_eq!(
            serial,
            Err(ExecError::OutOfBounds {
                buffer: 1,
                index: 8,
                len: 8
            })
        );
        assert_splits_match_serial(&tape, &func, 3, "escape");
    }

    #[test]
    fn epilogue_geometry_escape_fails_compile() {
        use unit_tir::epilogue::{attach_epilogue, EpiGeom, EpiOp as E, EpilogueSpec};
        let op = matmul_u8i8(4, 4, 8);
        let mut func = lower(&Schedule::new(&op), "mm_bad").unwrap();
        let geom = EpiGeom {
            batch: 1,
            rows: 8,
            cols: 8,
            rows_pad: 8,
            cols_pad: 8,
        };
        attach_epilogue(&mut func, &EpilogueSpec::new(&[E::Relu]), geom);
        assert!(matches!(
            Tape::compile(&func),
            Err(ExecError::BufferDecl(_))
        ));
    }
}
