//! Shrinker quality: the fuzzer must find a *known* miscompile and
//! reduce it to a handful of statements.
//!
//! `FaultPlan::phi_restore_disabled` re-opens a real bug this
//! codebase once had (simplify-cfg merging blocks without restoring the
//! successor's φs to the block head first, so destruction sees φs behind
//! ordinary instructions). The differential oracle must flag seeds, and
//! the greedy AST shrinker must converge to ≤ 10 statements within a
//! fixed budget.

use fcc::driver::{check_program, fuzz, FuzzConfig};
use fcc::opt::fault::{with_faults, FaultPlan};
use fcc::workloads::statement_count;

#[test]
fn injected_phi_ordering_bug_is_found_and_shrunk_small() {
    let cfg = FuzzConfig {
        seeds: 8,
        jobs: 2,
        shrink_budget: 4000,
        ..Default::default()
    };

    // With the fix in place the sweep is clean.
    let clean = fuzz(&cfg);
    assert!(
        clean.failures.is_empty(),
        "unexpected failures with the fault off: {:?}",
        clean
            .failures
            .iter()
            .map(|f| (f.seed, &f.detail))
            .collect::<Vec<_>>()
    );

    // Re-open the bug; the same seed range must now produce findings.
    let bug = FaultPlan {
        phi_restore_disabled: true,
        ..FaultPlan::default()
    };
    let out = with_faults(&bug, || fuzz(&cfg));
    assert!(
        !out.failures.is_empty(),
        "the injected miscompile went undetected over {} seeds",
        cfg.seeds
    );
    for f in &out.failures {
        assert!(
            f.shrink_converged,
            "seed {}: shrinking ran out of budget ({} evals)",
            f.seed, f.shrink_evals
        );
        let stmts = statement_count(&f.shrunk);
        assert!(
            stmts <= 10,
            "seed {}: repro still has {stmts} statements:\n{}",
            f.seed,
            fcc::frontend::to_source(&f.shrunk)
        );
        assert!(
            f.shrink_evals <= 4000,
            "seed {}: budget overrun ({})",
            f.seed,
            f.shrink_evals
        );
        // The repro still fails while the fault is open ...
        assert!(
            with_faults(&bug, || check_program(&f.shrunk, true)).is_err(),
            "seed {}: shrunk repro no longer reproduces",
            f.seed
        );
    }

    // ... and every repro is healed by restoring the fix: the failure
    // really was the injected bug, not shrinker damage.
    for f in &out.failures {
        check_program(&f.shrunk, true).unwrap_or_else(|e| {
            panic!(
                "seed {}: repro still fails with the fix restored: {e}\n{}",
                f.seed,
                fcc::frontend::to_source(&f.shrunk)
            )
        });
    }
}
