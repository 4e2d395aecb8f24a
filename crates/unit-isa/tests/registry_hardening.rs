//! Hardening tests for the open instruction/target registries: shadowing
//! rules, replacement semantics, deterministic ordering, and concurrent
//! registration + enumeration from many threads.
//!
//! These run in their own test binary so the global registry state they
//! mutate cannot leak into other suites.

use std::sync::{Mutex, MutexGuard, PoisonError};

use unit_dsl::{Axis, AxisId, AxisKind, DType, InitExpr, LinExpr, OpBuilder};
use unit_isa::{registry, CpuMachine, ExecStyle, PerfAttrs, TargetDesc, TensorIntrinsic};

/// Held by the tests that register fresh instruction names outside the
/// `stress.` namespace, so none lands between the two snapshots of
/// `registry::all()` that the replacement test compares.
static FRESH_NAMES: Mutex<()> = Mutex::new(());

fn fresh_names() -> MutexGuard<'static, ()> {
    FRESH_NAMES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small, valid CPU target descriptor with the given id.
fn cpu_target(id: &str, display: &str) -> TargetDesc {
    TargetDesc {
        id: id.to_string(),
        display_name: display.to_string(),
        style: ExecStyle::Cpu {
            machine: CpuMachine {
                name: display.to_string(),
                cores: 4,
                freq_ghz: 1.0,
                vector_issue_ports: 1.0,
                scalar_ipc: 2.0,
                vector_fma_latency: 4.0,
                simd_bits: 128,
                loop_uop_budget: 32,
                frontend_penalty: 1.5,
                fork_join_cycles: 5_000.0,
                llc_bytes: 1024 * 1024,
                dram_gbps: 10.0,
                cacheline: 64,
            },
        },
        lanes: 4,
        reduce_width: 4,
        data_dtype: DType::I8,
        weight_dtype: DType::I8,
    }
}

/// A small, valid dot instruction bound to `target_id`.
fn dot_instruction(name: &str, target_id: &str) -> TensorIntrinsic {
    dot_instruction_sized(name, target_id, 4, 2)
}

/// A valid `lanes`-lane dot instruction reducing `width` i8 pairs per lane.
fn dot_instruction_sized(name: &str, target_id: &str, lanes: i64, width: i64) -> TensorIntrinsic {
    let mut b = OpBuilder::new(name);
    let a = b.tensor("a", &[lanes * width], DType::I8);
    let w = b.tensor("b", &[lanes * width], DType::I8);
    let c = b.tensor("c", &[lanes], DType::I32);
    let i = b.axis("i", lanes);
    let j = b.reduce_axis("j", width);
    let elem = b.load(a, vec![(i * width + j)]).cast(DType::I32)
        * b.load(w, vec![(i * width + j)]).cast(DType::I32);
    let semantics = b.compute(
        "d",
        DType::I32,
        vec![i.into()],
        InitExpr::load(c, vec![i.into()]),
        elem,
    );
    TensorIntrinsic {
        name: name.to_string(),
        target: target_id.to_string(),
        semantics,
        perf: PerfAttrs {
            latency_cycles: 2.0,
            throughput_ipc: 1.0,
            macs: (lanes * width) as u64,
            uops: 1,
        },
    }
}

#[test]
fn custom_targets_cannot_shadow_builtins() {
    for id in [
        "x86-avx512-vnni",
        "arm-neon-dot",
        "arm-i8mm-smmla",
        "nvidia-tensor-core",
    ] {
        let err = registry::register_target(cpu_target(id, "impostor"))
            .expect_err("built-in targets must be unshadowable");
        assert!(err.contains("built-in"), "unexpected error: {err}");
        // The built-in descriptor is untouched.
        assert_ne!(registry::target_by_id(id).unwrap().display_name, "impostor");
    }
}

#[test]
fn custom_instructions_cannot_shadow_builtins() {
    let err = registry::register(dot_instruction(
        "llvm.x86.avx512.vpdpbusd.512",
        "x86-avx512-vnni",
    ))
    .expect_err("built-in instructions must be unshadowable");
    assert!(err.contains("built-in"), "unexpected error: {err}");
}

#[test]
fn malformed_target_descriptors_are_rejected() {
    let mut bad = cpu_target("Bad Id", "spaces");
    assert!(registry::register_target(bad.clone()).is_err());
    bad.id = "zero-lanes".to_string();
    bad.lanes = 0;
    assert!(registry::register_target(bad).is_err());
}

#[test]
fn instructions_with_malformed_target_ids_are_rejected() {
    // A typo'd or empty target id would make the instruction silently
    // unreachable from for_target — registration must fail loudly instead.
    let err = registry::register(dot_instruction("harden.dot.badid", "ARM Neon"))
        .expect_err("malformed target id must be rejected");
    assert!(err.contains("kebab-case"), "unexpected error: {err}");
    let err = registry::register(dot_instruction("harden.dot.noid", ""))
        .expect_err("empty target id must be rejected");
    assert!(err.contains("empty"), "unexpected error: {err}");
    assert!(registry::by_name("harden.dot.badid").is_none());
    assert!(registry::by_name("harden.dot.noid").is_none());
}

#[test]
fn descriptors_with_malformed_semantics_are_rejected() {
    // All three used to register. The first panicked inside `verify_op`,
    // the second panics on its first `execute`, and the third breaks the
    // positive-extent invariant every bound check relies on.
    let mut long_out = dot_instruction("harden.dot.long-out", "malformed-semantics");
    long_out.semantics.out_indices.push(LinExpr::constant(0));
    let mut short_out = dot_instruction("harden.dot.short-out", "malformed-semantics");
    short_out.semantics.out_indices.pop();
    // The fields are public, so `Axis::new`'s assert is bypassed.
    let mut zero_extent = dot_instruction("harden.dot.zero-extent", "malformed-semantics");
    zero_extent.semantics.reduce_axes.push(Axis {
        id: AxisId(2),
        name: "k".to_string(),
        extent: 0,
        kind: AxisKind::Reduce,
    });
    zero_extent.perf.macs = 0;

    for (bad, reason) in [
        (long_out, "2 indices but rank is 1"),
        (short_out, "0 indices but rank is 1"),
        (zero_extent, "non-positive extent 0"),
    ] {
        let name = bad.name.clone();
        let err = registry::register(bad).expect_err("malformed semantics must be rejected");
        assert!(err.contains(reason), "{name}: unexpected error: {err}");
        assert!(registry::by_name(&name).is_none(), "{name} was registered");
    }
}

#[test]
fn runtime_instruction_on_a_builtin_target_follows_equal_mac_builtins() {
    let _fresh = fresh_names();
    // 16 MACs, like the built-in vpdpbusd.128: a signed i8 twin of it.
    registry::register(dot_instruction_sized(
        "harden.dot.s8x16",
        "x86-avx512-vnni",
        4,
        4,
    ))
    .expect("a runtime instruction may target a built-in target");

    assert_eq!(
        registry::by_name("harden.dot.s8x16")
            .expect("registered")
            .target,
        "x86-avx512-vnni"
    );
    let names: Vec<String> = registry::for_target("x86-avx512-vnni")
        .into_iter()
        .map(|i| i.name)
        .collect();
    assert_eq!(
        names,
        [
            "llvm.x86.avx512.vpdpbusd.512",
            "llvm.x86.avx512.vpdpbusd.256",
            "llvm.x86.avx512.vpdpwssd.512",
            "llvm.x86.avx512.vpdpbusd.128",
            "harden.dot.s8x16",
        ],
        "widest first; equal MACs keep built-ins before runtime registrations"
    );
}

#[test]
fn re_registration_replaces_in_place_and_order_stays_deterministic() {
    let _fresh = fresh_names();
    registry::register_target(cpu_target("order-a", "first a")).unwrap();
    registry::register_target(cpu_target("order-b", "first b")).unwrap();
    registry::register_target(cpu_target("order-c", "first c")).unwrap();

    let pos = |id: &str| {
        registry::targets()
            .iter()
            .position(|t| t.id == id)
            .unwrap_or_else(|| panic!("{id} not registered"))
    };
    let (a0, b0, c0) = (pos("order-a"), pos("order-b"), pos("order-c"));
    assert!(a0 < b0 && b0 < c0, "registration order must be preserved");

    // Replacing b keeps its slot (no move-to-end) and takes the new data.
    registry::register_target(cpu_target("order-b", "second b")).unwrap();
    assert_eq!(pos("order-b"), b0, "replacement must keep position");
    assert_eq!(
        registry::target_by_id("order-b").unwrap().display_name,
        "second b"
    );
    assert_eq!(
        registry::targets()
            .iter()
            .filter(|t| t.id == "order-b")
            .count(),
        1,
        "replacement must not duplicate"
    );

    // Built-ins always come first, in their fixed order.
    let ids: Vec<String> = registry::targets().into_iter().map(|t| t.id).collect();
    assert_eq!(
        &ids[..4],
        &[
            "x86-avx512-vnni".to_string(),
            "arm-neon-dot".to_string(),
            "arm-i8mm-smmla".to_string(),
            "nvidia-tensor-core".to_string(),
        ]
    );

    // Same replacement semantics for instructions. (The concurrent stress
    // test may append its own entries in parallel — filter those out so
    // this only checks the names this test owns.)
    let harden_names = || -> Vec<String> {
        registry::all()
            .into_iter()
            .map(|i| i.name)
            .filter(|n| !n.starts_with("stress."))
            .collect()
    };
    registry::register(dot_instruction("harden.dot.a", "order-a")).unwrap();
    let before = harden_names();
    registry::register(dot_instruction("harden.dot.a", "order-c")).unwrap();
    let after = harden_names();
    assert_eq!(before, after, "instruction replacement must keep order");
    assert_eq!(
        registry::by_name("harden.dot.a").unwrap().target,
        "order-c",
        "replacement must take the new descriptor"
    );
}

/// 8 threads hammer the registries — half registering (a mix of fresh ids,
/// replacements, and rejected shadowing attempts), half enumerating — and
/// the final state must be exactly the deterministic one.
#[test]
fn concurrent_register_and_enumerate_from_8_threads() {
    const ITERS: usize = 50;
    std::thread::scope(|scope| {
        for t in 0..8 {
            scope.spawn(move || {
                for i in 0..ITERS {
                    if t % 2 == 0 {
                        // Writers: two fresh ids per thread, re-registered
                        // every iteration, plus a doomed shadowing attempt.
                        let id = format!("stress-{t}-{}", i % 2);
                        registry::register_target(cpu_target(&id, &format!("iter {i}")))
                            .expect("valid custom target registers");
                        registry::register(dot_instruction(&format!("stress.dot.{t}"), &id))
                            .expect("valid custom instruction registers");
                        assert!(
                            registry::register_target(cpu_target("arm-neon-dot", "impostor"))
                                .is_err()
                        );
                    } else {
                        // Readers: enumeration must always see a consistent
                        // prefix of built-ins and resolve every listed id.
                        let targets = registry::targets();
                        assert_eq!(targets[0].id, "x86-avx512-vnni");
                        assert!(targets.len() >= 4);
                        for intrin in registry::for_target("arm-i8mm-smmla") {
                            assert_eq!(intrin.target, "arm-i8mm-smmla");
                        }
                        let _ = registry::all();
                    }
                }
            });
        }
    });

    // Deterministic end state: every writer's two ids exactly once, with
    // the latest registration's payload.
    for t in [0, 2, 4, 6] {
        for s in [0, 1] {
            let id = format!("stress-{t}-{s}");
            assert_eq!(
                registry::targets().iter().filter(|d| d.id == id).count(),
                1,
                "{id} must appear exactly once"
            );
        }
        let instr = registry::by_name(&format!("stress.dot.{t}")).expect("registered");
        assert!(instr.target.starts_with(&format!("stress-{t}-")));
    }
    let ids: Vec<String> = registry::targets().into_iter().map(|t| t.id).collect();
    let mut dedup = ids.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(ids.len(), dedup.len(), "no duplicate ids after the stress");
}
