//! Integration tests for the fault-tolerance layer: panic isolation,
//! fuel budgets, and the graceful-degradation ladder — through the
//! unified `CompileRequest` entry point (`fail_mode` selects the
//! abort/skip/degrade behaviour that used to take three functions).
//!
//! Each test arms its faults with `with_faults`, which scopes them to
//! the calling thread and the pool workers it spawns, so the tests run
//! concurrently without coordinating.

use fcc::alias::MemorySolution;
use fcc::analysis::AnalysisManager;
use fcc::core::CompileError;
use fcc::dataflow::FunctionAnalysis;
use fcc::driver::{
    compile_function_report, compile_module, failure_class, fuzz, CompileRequest, FailMode,
    FnStatus, FuzzConfig, PipelineSpec,
};
use fcc::ir::verify::verify_function;
use fcc::ir::Module;
use fcc::lint::{lint_function, LintStage};
use fcc::opt::fault::{with_faults, FaultPlan};
use fcc::opt::standard_pipeline;
use fcc::ssa::{build_ssa_with, SsaFlavor};
use fcc::workloads::{compile_kernel, kernels};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn panic_in(pass: &str) -> FaultPlan {
    FaultPlan {
        panic_in: Some(pass.into()),
        ..FaultPlan::default()
    }
}

fn solver_spin() -> FaultPlan {
    FaultPlan {
        solver_spin: true,
        ..FaultPlan::default()
    }
}

fn violate_after(pass: &str) -> FaultPlan {
    FaultPlan {
        violate_after: Some(pass.into()),
        ..FaultPlan::default()
    }
}

/// A small batch: the first few paper kernels as one module.
fn module() -> Module {
    let funcs: Vec<_> = kernels().iter().take(6).map(compile_kernel).collect();
    Module::from_functions(funcs).expect("kernel names are unique")
}

#[test]
fn injected_panic_recovers_to_standard_at_every_jobs_width() {
    let req = CompileRequest::new().opt(true).fail_mode(FailMode::Degrade);

    let mut rendered = Vec::new();
    for jobs in [1, 2, 8] {
        let batch = with_faults(&panic_in("coalesce-new"), || {
            compile_module(module(), &req.clone().jobs(jobs))
        })
        .expect("valid request");
        let (ok, recovered, failed) = batch.counts();
        assert_eq!((ok, failed), (0, 0), "jobs={jobs}");
        assert_eq!(recovered, batch.functions.len(), "jobs={jobs}");
        for f in &batch.functions {
            assert_eq!(f.status, FnStatus::Recovered { attempts: 2 }, "@{}", f.name);
            assert_eq!(f.attempts.len(), 1);
            assert_eq!(f.attempts[0].error.kind(), "panic");
            assert_eq!(f.attempts[0].error.pass(), Some("coalesce-new"));
            // Recovered output is real code: φ-free, verifier-clean, and
            // certified by the forced --verify-each lint + audit.
            let out = f.outcome.as_ref().expect("recovered outcome");
            assert!(!out.func.has_phis());
            verify_function(&out.func).expect("recovered function verifies");
            assert!(out
                .stat_lines
                .iter()
                .any(|l| l.contains("destruction audit clean")));
        }
        rendered.push(batch.into_surviving_module().to_string());
    }
    assert_eq!(rendered[0], rendered[1], "jobs=1 vs jobs=2");
    assert_eq!(rendered[0], rendered[2], "jobs=1 vs jobs=8");

    // And the recovered module is byte-identical to an honest compile on
    // the rung the ladder landed on (standard, verify forced).
    let standard = CompileRequest::new()
        .pipeline(PipelineSpec::Standard)
        .opt(true)
        .verify_each(true)
        .jobs(2);
    let plain = compile_module(module(), &standard).expect("standard compiles");
    assert_eq!(
        rendered[0],
        plain
            .into_module_outcome()
            .expect("no failures")
            .into_module()
            .to_string()
    );
}

#[test]
fn solver_spin_trips_fuel_exhaustion_naming_the_pass() {
    let req = CompileRequest::new()
        .opt(true)
        .fail_mode(FailMode::Degrade)
        .fuel(Some(200_000));

    let func = compile_kernel(&kernels()[0]);
    let report = with_faults(&solver_spin(), || compile_function_report(&func, &req));

    // Rung 0 (new) and rung 1 (standard, verify forced — its lint also
    // runs the solver) both burn their budget inside the spinning solver;
    // the bare rung never invokes it and lands the function.
    assert_eq!(report.status, FnStatus::Recovered { attempts: 3 });
    assert_eq!(report.attempts.len(), 2);
    match &report.attempts[0].error {
        CompileError::FuelExhausted { pass, spent } => {
            assert_eq!(pass, "range-fold");
            assert!(*spent > 200_000, "spent={spent}");
        }
        other => panic!("expected fuel exhaustion, got: {other}"),
    }
    assert_eq!(report.attempts[1].error.kind(), "fuel");
    assert!(report.fuel_spent > 400_000, "fresh tank per attempt");
    let out = report.outcome.expect("bare rung succeeds");
    assert!(!out.func.has_phis());
    verify_function(&out.func).expect("recovered function verifies");
}

#[test]
fn verifier_violation_after_pass_is_rejected_and_recovers() {
    let req = CompileRequest::new()
        .opt(true)
        .verify_each(true)
        .fail_mode(FailMode::Degrade);

    let func = compile_kernel(&kernels()[1]);
    let report = with_faults(&violate_after("range-fold"), || {
        compile_function_report(&func, &req)
    });

    // Both optimising rungs run range-fold, get corrupted after it, and
    // are rejected by --verify-each; the bare rung runs no passes.
    assert_eq!(report.status, FnStatus::Recovered { attempts: 3 });
    assert_eq!(report.attempts.len(), 2);
    for attempt in &report.attempts {
        assert_eq!(attempt.error.kind(), "rejected");
        let msg = attempt.error.to_string();
        assert!(msg.contains("range-fold"), "names the pass: {msg}");
    }
    let out = report.outcome.expect("bare rung succeeds");
    verify_function(&out.func).expect("recovered function verifies");
}

#[test]
fn injected_violation_is_never_masked_by_a_cached_fixpoint() {
    // range-fold reads (and caches) the dataflow fixpoint of the intact
    // function; the injection then corrupts the IR. The corruption must
    // drop the cached fixpoint, so that even a linter handed the shared
    // manager, rather than a fresh one, sees the broken function.
    let mut func = compile_kernel(&kernels()[0]);
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
    let err = with_faults(&violate_after("range-fold"), || {
        standard_pipeline().run_with(&mut func, &mut am, |f, am, b| {
            if b.pass != "range-fold" {
                return Ok(());
            }
            assert!(b.changed, "a corruption counts as a change");
            assert!(am.cached_extension::<FunctionAnalysis>(f).is_none());
            assert!(am.cached_extension::<MemorySolution>(f).is_none());
            if lint_function(f, am, LintStage::Ssa).has_errors() {
                Err(b)
            } else {
                Ok(())
            }
        })
    })
    .expect_err("the corrupted function fails the lint suite");
    assert_eq!((err.pass, err.round), ("range-fold", 1));
}

#[test]
fn abort_mode_names_the_offending_function_and_pass() {
    let batch = with_faults(&panic_in("coalesce-new"), || {
        compile_module(module(), &CompileRequest::new().jobs(2))
    })
    .expect("request is valid");
    let err = batch
        .into_module_outcome()
        .expect_err("abort surfaces the panic");
    assert!(err.contains("coalesce-new"), "{err}");
    assert!(err.contains("panic"), "{err}");
    assert!(err.starts_with('@'), "names the function: {err}");
}

#[test]
fn skip_mode_quarantines_deterministically() {
    let req = CompileRequest::new().fail_mode(FailMode::Skip);

    let mut outputs = Vec::new();
    for jobs in [1, 4] {
        let batch = with_faults(&panic_in("coalesce-new"), || {
            compile_module(module(), &req.clone().jobs(jobs))
        })
        .expect("valid request");
        assert!(batch.functions.iter().all(|f| f.status == FnStatus::Failed));
        assert_eq!(batch.failed_names().len(), batch.functions.len());
        assert!(batch.first_error().is_some());
        outputs.push(batch.into_surviving_module().to_string());
    }
    // Every function used the new pipeline, so all are quarantined, at
    // any width, leaving the same (empty) surviving module.
    assert_eq!(outputs[0], outputs[1]);
}

#[test]
fn fuzz_reports_fuel_exhaustion_as_a_shrinkable_failure_class() {
    let cfg = FuzzConfig {
        seeds: 4,
        jobs: 1,
        opt: true,
        fuel: Some(50_000),
        shrink_budget: 200,
        ..Default::default()
    };
    with_faults(&solver_spin(), || {
        let out = fuzz(&cfg);
        // Seeds whose reference run completes must all hit the spinning
        // solver and be classified as fuel exhaustion, not miscompiles.
        assert!(!out.failures.is_empty(), "spin injection must surface");
        for f in &out.failures {
            assert_eq!(failure_class(&f.detail), "fuel", "{}", f.detail);
            assert!(f.detail.contains("range-fold"), "{}", f.detail);
            // The shrunk repro still fails, in the same class.
            let err = fcc::driver::check_program_with(&f.shrunk, true, Some(50_000))
                .expect_err("shrunk repro reproduces");
            assert_eq!(failure_class(&err), "fuel", "{err}");
        }
    });
}

#[test]
fn a_faulted_compile_never_reaches_a_concurrent_clean_one() {
    // One thread keeps compiling under an injected panic while another
    // compiles the same module with no faults 20 times, both on pool
    // workers. Every faulted batch recovers every function; every clean
    // batch is untouched.
    let reference = compile_module(module(), &CompileRequest::new().opt(true).jobs(1))
        .expect("valid request")
        .into_module_outcome()
        .expect("a clean compile succeeds")
        .into_module()
        .to_string();
    let armed = Barrier::new(2);
    let clean_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let faulted = scope.spawn(|| {
            let req = CompileRequest::new()
                .opt(true)
                .fail_mode(FailMode::Degrade)
                .jobs(4);
            with_faults(&panic_in("coalesce-new"), || {
                armed.wait();
                loop {
                    let batch = compile_module(module(), &req).expect("valid request");
                    for f in &batch.functions {
                        assert_eq!(f.status, FnStatus::Recovered { attempts: 2 }, "@{}", f.name);
                    }
                    if clean_done.load(Ordering::SeqCst) {
                        break;
                    }
                }
            });
        });
        // Stop the faulted thread even if a clean run fails an assertion.
        struct Done<'a>(&'a AtomicBool);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let done = Done(&clean_done);
        armed.wait();
        for run in 0..20 {
            let batch = compile_module(module(), &CompileRequest::new().opt(true).jobs(2))
                .expect("valid request");
            assert!(
                batch.functions.iter().all(|f| f.status == FnStatus::Ok),
                "run {run}: a clean compile saw another thread's fault"
            );
            let out = batch
                .into_module_outcome()
                .expect("no failures")
                .into_module()
                .to_string();
            assert_eq!(out, reference, "run {run}");
        }
        drop(done);
        faulted.join().unwrap();
    });
}
