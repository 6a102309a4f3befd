//! Scoped fault injection.
//!
//! The fault-tolerance layer in `fcc-driver` is only trustworthy if every
//! rung of its recovery ladder is exercised by a *real* injected fault, in
//! the *real* code path — not by a mock. A [`FaultPlan`] names the faults
//! armed for one compile; the instrumentation hooks (`PhaseTimer::start`,
//! the pass manager, the dataflow solver, constant folding) query it at
//! their entry points. The plan lives here, in the lowest shared crate,
//! because the solver in `fcc-dataflow` must be able to observe the spin
//! injection and cannot depend on `fcc-opt` (which depends on it).
//! `fcc_opt::fault` re-exports this surface and adds the
//! `Function`-mutating corruption injection.
//!
//! Like the fuel budget ([`crate::fuel::with_fuel`]), the plan is
//! thread-local: [`with_faults`] installs it for the duration of a
//! closure, and the driver's worker pool reinstalls the caller's plan in
//! every worker it spawns. A compile sees exactly the faults its own
//! caller armed, never another thread's.

use std::cell::RefCell;

/// The faults armed for one compile. The default arms nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic at entry to the named pass/phase.
    pub panic_in: Option<String>,
    /// Busy-loop at entry to the dataflow solver. Only a fuel budget
    /// bounds it — that is the point.
    pub solver_spin: bool,
    /// Corrupt the IR right after the named pass runs (the corruption
    /// itself lives in `fcc_opt::fault`, which can see `Function`).
    pub violate_after: Option<String>,
    /// Skip restoring the φs-first block layout after folding, which
    /// re-opens a miscompile this codebase once had.
    pub phi_restore_disabled: bool,
}

thread_local! {
    static PLAN: RefCell<FaultPlan> = const {
        RefCell::new(FaultPlan {
            panic_in: None,
            solver_spin: false,
            violate_after: None,
            phi_restore_disabled: false,
        })
    };
}

/// Install `plan` as this thread's faults for the duration of `f`
/// (restored on return *and* on unwind, so nested scopes compose).
pub fn with_faults<R>(plan: &FaultPlan, f: impl FnOnce() -> R) -> R {
    struct Restore(FaultPlan);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = std::mem::take(&mut self.0);
            PLAN.with(|p| *p.borrow_mut() = prev);
        }
    }
    let prev = PLAN.with(|p| p.replace(plan.clone()));
    let _restore = Restore(prev);
    f()
}

/// The plan installed on this thread (what a worker pool hands on).
pub fn current_plan() -> FaultPlan {
    PLAN.with(|p| p.borrow().clone())
}

/// Hook: panic if a panic injection targets `label`.
pub fn maybe_panic(label: &str) {
    if PLAN.with(|p| p.borrow().panic_in.as_deref() == Some(label)) {
        panic!("injected panic in pass '{label}'");
    }
}

/// Hook: should the dataflow solver spin forever?
pub fn solver_spin() -> bool {
    PLAN.with(|p| p.borrow().solver_spin)
}

/// Hook: is `label` the pass after which the IR should be corrupted?
pub fn violation_target(label: &str) -> bool {
    PLAN.with(|p| p.borrow().violate_after.as_deref() == Some(label))
}

/// Hook: is the φ-ordering restore disabled?
pub fn phi_restore_disabled() -> bool {
    PLAN.with(|p| p.borrow().phi_restore_disabled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn everything() -> FaultPlan {
        FaultPlan {
            panic_in: Some("coalesce-new".into()),
            solver_spin: true,
            violate_after: Some("range-fold".into()),
            phi_restore_disabled: true,
        }
    }

    #[test]
    fn hooks_fire_only_inside_the_scope() {
        assert_eq!(current_plan(), FaultPlan::default());
        with_faults(&everything(), || {
            maybe_panic("build-ssa"); // wrong pass: no panic
            let r = catch_unwind(|| maybe_panic("coalesce-new"));
            let payload = r.expect_err("armed pass must panic");
            let msg = payload.downcast_ref::<String>().unwrap();
            assert!(msg.contains("injected panic in pass 'coalesce-new'"));
            assert!(solver_spin());
            assert!(violation_target("range-fold"));
            assert!(!violation_target("const-fold"));
            assert!(phi_restore_disabled());
        });
        assert!(!solver_spin());
        assert!(!violation_target("range-fold"));
        assert!(!phi_restore_disabled());
        maybe_panic("coalesce-new"); // out of scope: no panic
    }

    #[test]
    fn an_unwind_restores_the_outer_plan() {
        let outer = FaultPlan {
            solver_spin: true,
            ..FaultPlan::default()
        };
        with_faults(&outer, || {
            let r = catch_unwind(AssertUnwindSafe(|| {
                with_faults(&everything(), || maybe_panic("coalesce-new"))
            }));
            assert!(r.is_err());
            assert_eq!(current_plan(), outer);
        });
        assert_eq!(current_plan(), FaultPlan::default());
    }

    #[test]
    fn another_thread_never_sees_the_plan() {
        with_faults(&everything(), || {
            let seen = std::thread::spawn(current_plan).join().unwrap();
            assert_eq!(seen, FaultPlan::default());
        });
    }
}
