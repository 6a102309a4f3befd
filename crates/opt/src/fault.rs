//! Controlled fault injection for testing the failure-handling stack.
//!
//! This is the public face of the injection matrix that exercises the
//! driver's degradation ladder, one [`FaultPlan`] field per failure
//! class:
//!
//! * **panic in a named pass** (`panic_in`) — fired by the pass manager
//!   and the driver's phase timers at entry to the pass;
//! * **infinite loop in the solver** (`solver_spin`) — the
//!   `fcc-dataflow` worklist solver busy-loops until the fuel budget
//!   stops it;
//! * **verifier violation after a named pass** (`violate_after`) —
//!   [`maybe_corrupt`] plants a use of a never-defined value right after
//!   the pass runs, which the lint suite / SSA verifier must then report
//!   against that pass;
//! * **the φ-ordering bug** (`phi_restore_disabled`) — the fuzz harness
//!   promises that when a pipeline miscompiles, the differential oracle
//!   catches it and the shrinker reduces it to a small repro. That
//!   promise is only testable against a *real* miscompile, so this field
//!   re-opens a bug this codebase actually had: skipping
//!   [`crate::constfold::restore_phis_first`] after folding leaves non-φ
//!   instructions above sibling φs, which later φ-scans (SSA
//!   destruction, verification) silently truncate.
//!
//! The plan and its scope ([`with_faults`]) live in
//! [`fcc_analysis::fault`] (the solver cannot see this crate) and are
//! re-exported here; only the `Function`-mutating corruption is
//! implemented locally.

use fcc_ir::{Function, InstKind};

pub use fcc_analysis::fault::{
    maybe_panic, phi_restore_disabled, solver_spin, violation_target, with_faults, FaultPlan,
};

/// Hook: if a verifier-violation injection targets `pass`, corrupt
/// `func` so that any subsequent verification must fail. Returns whether
/// a corruption was applied (the pass manager then treats the pass as
/// having changed the function, so `--verify-each` lints immediately and
/// attributes the breakage to `pass`).
///
/// The corruption is a use of a value that is never defined — invalid at
/// every pipeline stage, and planted in a terminator operand (a return
/// value or branch condition) so dead-code elimination cannot quietly
/// delete it before a verifier looks.
pub fn maybe_corrupt(pass: &str, func: &mut Function) -> bool {
    if !violation_target(pass) {
        return false;
    }
    let undef = func.new_value();
    let blocks: Vec<_> = func.blocks().collect();
    for &b in blocks.iter().rev() {
        let Some(term) = func.terminator(b) else {
            continue;
        };
        let mut has_use = false;
        func.inst(term).kind.for_each_use(|_| has_use = true);
        if has_use {
            let mut first = true;
            func.inst_mut(term).kind.for_each_use_mut(|v| {
                if std::mem::take(&mut first) {
                    *v = undef;
                }
            });
            return true;
        }
    }
    // Degenerate function whose terminators use no values: plant a copy
    // from the undefined value instead (visible to the SSA verifier and
    // the definite-init lint, though DCE could remove it).
    let dst = func.new_value();
    let entry = func.entry();
    func.insert_before_terminator(entry, InstKind::Copy { src: undef }, Some(dst));
    true
}
