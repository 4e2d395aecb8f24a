//! A steady-state tape run without intrinsic sites or parallel regions
//! never touches the allocator: the scratch preallocates everything the
//! tape's own bookkeeping needs (loop environment, evaluation stacks).
//! Intrinsic calls allocate inside `unit_isa::execute`, and parallel
//! regions allocate per run, so neither appears here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unit_dsl::builder::matmul_u8i8;
use unit_interp::{alloc_buffers, random_fill, Tape};
use unit_tir::{lower::lower, LoopKind, Schedule, TirFunc};

/// The system allocator, counting the allocations a thread makes while
/// it has counting switched on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of the second run of `func`'s tape through one scratch
/// (the first sizes the evaluation stacks).
fn steady_state_allocations(func: &TirFunc) -> u64 {
    let tape = Tape::compile(func).unwrap();
    assert_eq!(
        tape.stats().intrin_sites,
        0,
        "{}: intrinsic-free",
        func.name
    );
    assert_eq!(tape.stats().parallel_loops, 0, "{}: serial", func.name);
    let mut scratch = tape.scratch();
    let mut bufs = alloc_buffers(func);
    random_fill(&mut bufs, 42);
    tape.run(&mut bufs, &mut scratch).unwrap();
    allocations_in(|| tape.run(&mut bufs, &mut scratch).unwrap())
}

#[test]
fn steady_state_runs_of_an_intrinsic_free_serial_tape_allocate_nothing() {
    let one = allocations_in(|| drop(std::hint::black_box(vec![0u8; 16])));
    assert_eq!(one, 1, "the counter sees an allocation");

    // The module-doc example.
    let op = matmul_u8i8(4, 8, 16);
    let plain = lower(&Schedule::new(&op), "mm").unwrap();
    assert_eq!(steady_state_allocations(&plain), 0);

    // A `parallel` loop too small to pay for a thread compiles serial,
    // and a residue guard adds runtime checks: still nothing.
    let op = matmul_u8i8(30, 10, 12);
    let mut s = Schedule::new(&op);
    let ls = s.leaves();
    let (outer, _) = s.split(ls[0], 8).unwrap();
    s.annotate(outer, LoopKind::Parallel).unwrap();
    let guarded = lower(&s, "mm_resid").unwrap();
    assert_eq!(steady_state_allocations(&guarded), 0);
}
