//! Tensor-IR interpreter: UNIT's functional-correctness substrate.
//!
//! The paper compiles through LLVM and runs on real VNNI / Tensor Core / DOT
//! hardware. This reproduction instead *interprets* the lowered tensor IR,
//! dispatching [`unit_tir::IntrinStmt`]s to the bit-accurate instruction
//! emulation in [`unit_isa`]. Every transformation in the pipeline is
//! validated by the equation
//!
//! ```text
//! interpret(rewritten kernel)  ==  reference(ComputeOp)
//! ```
//!
//! on random inputs, where the reference executor evaluates the op's DSL
//! semantics directly.
//!
//! Two executors share these semantics: the statement-tree walker
//! ([`exec::run`], the differential oracle) and the compiled instruction
//! tape ([`tape::Tape`], the serving fast path — lower once, replay from
//! a reused register file, split parallel loops across cores). They are
//! validated against each other bit-for-bit. Both apply a function's
//! fused epilogue through one routine, [`epilogue::run_epilogue`].
//!
//! # Example
//!
//! ```
//! use unit_dsl::builder::matmul_u8i8;
//! use unit_tir::{schedule::Schedule, lower::lower};
//! use unit_interp::{alloc_buffers, random_fill, run, reference_output};
//!
//! let op = matmul_u8i8(4, 8, 16);
//! let func = lower(&Schedule::new(&op), "mm").unwrap();
//! let mut bufs = alloc_buffers(&func);
//! random_fill(&mut bufs, 42);
//! run(&func, &mut bufs).unwrap();
//! let expect = reference_output(&op, &bufs, 42).unwrap();
//! assert_eq!(bufs[2], expect);
//! ```

pub mod buffers;
pub mod epilogue;
pub mod exec;
pub mod reference;
pub mod tape;

pub use buffers::{alloc_buffers, alloc_op_buffers, random_fill};
pub use epilogue::{cell_to_i64, i64_to_cell, run_epilogue};
pub use exec::{run, ExecError};
pub use reference::{reference_output, run_reference};
pub use tape::{Tape, TapeProfile, TapeScratch, TapeStats};
