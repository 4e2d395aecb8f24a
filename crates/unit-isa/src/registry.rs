//! The instruction *and target* registries.
//!
//! Integrating a new tensorized instruction into UNIT means adding one
//! [`TensorIntrinsic`] descriptor; integrating a whole new hardware target
//! means adding one [`TargetDesc`] — the Inspector, Rewriter and Tuner need
//! no changes (the extensibility claim of Section VI-C). Downstream users
//! can [`register`] instructions and [`register_target`] targets at
//! runtime; they participate in lookup, compilation and emulation exactly
//! like the built-ins.
//!
//! Ordering is deterministic everywhere: built-ins first (in their fixed
//! data-module order), runtime registrations after in first-registration
//! order; re-registration replaces in place. [`for_target`] additionally
//! orders a target's instructions widest-encoding first — the candidate
//! order the Inspector tries — derived from each descriptor's MAC count
//! rather than from list position.
//!
//! Built-in instruction descriptors are immutable data: their DSL programs
//! are built once, on the first lookup, and shared from then on. Lookups
//! ([`by_name`], [`for_target`], [`all`]) and [`register`]'s shadowing
//! check scan that table by reference and clone only the descriptors they
//! return. Runtime registration is unchanged: it sits behind a lock, keeps
//! first-registration order, replaces in place and may not shadow a
//! built-in.

use std::iter::Chain;
use std::slice;
use std::sync::{OnceLock, RwLock};

use crate::arm;
use crate::arm_i8mm;
use crate::descriptor::TensorIntrinsic;
use crate::nvidia;
use crate::target::TargetDesc;
use crate::x86;

static BUILTIN: OnceLock<Vec<TensorIntrinsic>> = OnceLock::new();
static CUSTOM: RwLock<Vec<TensorIntrinsic>> = RwLock::new(Vec::new());
static CUSTOM_TARGETS: RwLock<Vec<TargetDesc>> = RwLock::new(Vec::new());

/// Register a user-defined instruction. Re-registering a name replaces the
/// earlier descriptor in place; built-ins cannot be shadowed.
///
/// The instruction's target id must be well-formed, but the target itself
/// may be registered before or after its instructions — registration
/// order between the two registries does not matter.
///
/// # Errors
///
/// Returns the descriptor's validation failure, a malformed target id, or
/// an error if the name collides with a built-in instruction.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register(intrinsic: TensorIntrinsic) -> Result<(), String> {
    intrinsic.validate()?;
    crate::target::validate_target_id(&intrinsic.target)
        .map_err(|e| format!("{}: {e}", intrinsic.name))?;
    if builtin().iter().any(|i| i.name == intrinsic.name) {
        return Err(format!("{} is a built-in instruction", intrinsic.name));
    }
    let mut lock = CUSTOM.write().expect("registry lock");
    match lock.iter_mut().find(|i| i.name == intrinsic.name) {
        Some(slot) => *slot = intrinsic,
        None => lock.push(intrinsic),
    }
    Ok(())
}

/// Register a user-defined target descriptor. Re-registering an id
/// replaces the earlier descriptor in place (keeping its position);
/// built-in targets cannot be shadowed.
///
/// # Errors
///
/// Returns the descriptor's validation failure, or an error if the id
/// collides with a built-in target.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
pub fn register_target(target: TargetDesc) -> Result<(), String> {
    target.validate()?;
    if builtin_targets().iter().any(|t| t.id == target.id) {
        return Err(format!("{} is a built-in target", target.id));
    }
    let mut lock = CUSTOM_TARGETS.write().expect("target registry lock");
    match lock.iter_mut().find(|t| t.id == target.id) {
        Some(slot) => *slot = target,
        None => lock.push(target),
    }
    Ok(())
}

fn builtin() -> &'static [TensorIntrinsic] {
    BUILTIN.get_or_init(|| {
        let mut out = x86::all();
        out.extend(arm::all());
        out.extend(arm_i8mm::all());
        out.extend(nvidia::all());
        out
    })
}

type Entries<'a> = Chain<slice::Iter<'a, TensorIntrinsic>, slice::Iter<'a, TensorIntrinsic>>;

/// Run `f` over every registered instruction by reference, in [`all`]'s
/// order, holding the runtime registry's read lock.
fn scan<R>(f: impl FnOnce(Entries<'_>) -> R) -> R {
    let custom = CUSTOM.read().expect("registry lock");
    f(builtin().iter().chain(custom.iter()))
}

fn builtin_targets() -> Vec<TargetDesc> {
    vec![
        x86::target(),
        arm::target(),
        arm_i8mm::target(),
        nvidia::target(),
    ]
}

/// Every registered instruction — built-ins grouped by target in data-module
/// order, then runtime registrations in first-registration order.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
#[must_use]
pub fn all() -> Vec<TensorIntrinsic> {
    scan(|it| it.cloned().collect())
}

/// Every registered target — built-ins first in their fixed order, then
/// runtime registrations in first-registration order.
///
/// # Panics
///
/// Panics if the registry lock is poisoned.
#[must_use]
pub fn targets() -> Vec<TargetDesc> {
    let mut out = builtin_targets();
    out.extend(
        CUSTOM_TARGETS
            .read()
            .expect("target registry lock")
            .iter()
            .cloned(),
    );
    out
}

/// Look a target up by its id.
#[must_use]
pub fn target_by_id(id: &str) -> Option<TargetDesc> {
    targets().into_iter().find(|t| t.id == id)
}

/// Instructions available on one target, widest encoding first (the order
/// the Inspector tries them in). Ties keep registration order, so e.g. the
/// square WMMA fragment stays the preferred match among the equal-MAC
/// rectangular ones.
#[must_use]
pub fn for_target(target_id: &str) -> Vec<TensorIntrinsic> {
    let mut out: Vec<TensorIntrinsic> =
        scan(|it| it.filter(|i| i.target == target_id).cloned().collect());
    out.sort_by_key(|i| std::cmp::Reverse(i.macs_per_call()));
    out
}

/// Look an instruction up by its canonical name.
#[must_use]
pub fn by_name(name: &str) -> Option<TensorIntrinsic> {
    scan(|mut it| it.find(|i| i.name == name).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_the_papers_three_platforms_plus_i8mm() {
        for id in [
            "x86-avx512-vnni",
            "arm-neon-dot",
            "arm-i8mm-smmla",
            "nvidia-tensor-core",
        ] {
            assert!(!for_target(id).is_empty(), "no instructions for {id}");
            assert!(target_by_id(id).is_some(), "no target descriptor for {id}");
        }
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = all().into_iter().map(|i| i.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn target_ids_are_unique() {
        let ids: Vec<String> = targets().into_iter().map(|t| t.id).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
    }

    #[test]
    fn every_builtin_instruction_names_a_registered_target() {
        for intrin in all() {
            assert!(
                target_by_id(&intrin.target).is_some(),
                "{} names unknown target {}",
                intrin.name,
                intrin.target
            );
        }
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for intrin in all() {
            let found = by_name(&intrin.name).expect("registered instruction must be found");
            assert_eq!(found.target, intrin.target);
        }
        assert!(by_name("llvm.bogus").is_none());
    }

    #[test]
    fn widest_encoding_comes_first_per_target() {
        for t in targets() {
            let instrs = for_target(&t.id);
            for pair in instrs.windows(2) {
                assert!(
                    pair[0].macs_per_call() >= pair[1].macs_per_call(),
                    "{}: {} before {}",
                    t.id,
                    pair[0].name,
                    pair[1].name
                );
            }
        }
        // The square WMMA fragment wins the equal-MAC tie.
        assert!(for_target("nvidia-tensor-core")[0]
            .name
            .contains("m16n16k16"));
    }
}
