//! The manager-cached dataflow fixpoint is never stale.
//!
//! `FunctionAnalysis` (SCCP + intervals + known bits) and the
//! `fcc-alias` `MemorySolution` live in the `AnalysisManager`'s
//! extension slot, keyed on the function's epoch, and survive only
//! passes that changed nothing. These tests drive both optimiser
//! pipelines over every bundled kernel and a sweep of generated
//! programs, and at every pass boundary compare whatever the shared
//! manager still holds against a fresh computation on a new manager:
//! every value's fact and every block's and CFG edge's executability,
//! in all three lattices, plus every block-entry memory state.

use fcc::alias::MemorySolution;
use fcc::analysis::HitMiss;
use fcc::dataflow::Solution;
use fcc::opt::{copy_preserving_pipeline, PassBoundary, PassManager};
use fcc::prelude::*;
use fcc::workloads::{compile_kernel, generate, kernels, GenConfig};

/// How often each cached analysis was found and checked.
#[derive(Default)]
struct Coverage {
    boundaries: usize,
    dataflow_checked: usize,
    memory_checked: usize,
}

fn same_solution<F: fcc::dataflow::Lattice>(
    func: &Function,
    cached: &Solution<F>,
    fresh: &Solution<F>,
    lattice: &str,
    at: &str,
) {
    for i in 0..func.num_values() {
        let v = Value::new(i);
        assert_eq!(
            cached.fact(v),
            fresh.fact(v),
            "{at}: cached {lattice} fact of {v} is stale"
        );
    }
    for b in func.blocks() {
        assert_eq!(
            cached.block_executable(b),
            fresh.block_executable(b),
            "{at}: cached {lattice} executability of {b} is stale"
        );
        for s in func.successors(b) {
            assert_eq!(
                cached.edge_executable(b, s),
                fresh.edge_executable(b, s),
                "{at}: cached {lattice} executability of {b} -> {s} is stale"
            );
        }
    }
}

fn check_boundary(func: &Function, am: &AnalysisManager, at: &str, cov: &mut Coverage) {
    cov.boundaries += 1;
    let cached_fa = am.cached_extension::<FunctionAnalysis>(func);
    let cached_mem = am.cached_extension::<MemorySolution>(func);
    if cached_fa.is_none() && cached_mem.is_none() {
        return;
    }
    let fresh = FunctionAnalysis::compute(func, &mut AnalysisManager::new());
    if let Some(cached) = cached_fa {
        cov.dataflow_checked += 1;
        same_solution(func, &cached.consts, &fresh.consts, "sccp", at);
        same_solution(func, &cached.ranges, &fresh.ranges, "interval", at);
        same_solution(func, &cached.bits, &fresh.bits, "known-bits", at);
    }
    if let Some(cached) = cached_mem {
        cov.memory_checked += 1;
        let fresh = solve_memory(func, &fresh);
        for b in func.blocks() {
            assert_eq!(
                cached.entry(b),
                fresh.entry(b),
                "{at}: cached memory state on entry to {b} is stale"
            );
        }
    }
}

/// Build SSA and run `pm`, checking the cache at every pass boundary.
fn sweep(mut func: Function, fold: bool, pm: &PassManager, label: &str, cov: &mut Coverage) {
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut func, SsaFlavor::Pruned, fold, &mut am);
    let name = func.name.clone();
    pm.run_with(&mut func, &mut am, |f, am, b: PassBoundary| {
        let at = format!("@{name} {label} round {} after {}", b.round, b.pass);
        check_boundary(f, am, &at, cov);
        Ok::<(), ()>(())
    })
    .expect("the observer never fails");
    // The final state is what lint and `fcc analyze` read next.
    check_boundary(&func, &am, &format!("@{name} {label} at fixpoint"), cov);
}

fn sweep_both(func: Function, cov: &mut Coverage) {
    sweep(func.clone(), true, &standard_pipeline(), "standard", cov);
    sweep(
        func,
        false,
        &copy_preserving_pipeline(),
        "copy-preserving",
        cov,
    );
}

#[test]
fn cached_fixpoint_matches_fresh_on_every_kernel_at_every_pass_boundary() {
    let mut cov = Coverage::default();
    for k in kernels() {
        sweep_both(compile_kernel(k), &mut cov);
    }
    assert_eq!(kernels().len(), 34);
    // Most boundaries follow a pass that changed nothing, so the cache
    // is exercised, not just bypassed.
    assert!(
        cov.dataflow_checked * 2 > cov.boundaries,
        "{} of {} boundaries held a cached fixpoint",
        cov.dataflow_checked,
        cov.boundaries
    );
    assert!(cov.memory_checked > 0);
}

#[test]
fn cached_fixpoint_matches_fresh_on_generated_programs() {
    let mut cov = Coverage::default();
    let cfg = GenConfig::default();
    for seed in 0..200 {
        let prog = generate(seed, &cfg);
        let func = fcc::frontend::lower_program(&prog).expect("generated programs always lower");
        sweep_both(func, &mut cov);
    }
    eprintln!(
        "{} boundaries, {} cached fixpoints, {} cached memory solutions",
        cov.boundaries, cov.dataflow_checked, cov.memory_checked
    );
    assert!(cov.dataflow_checked * 2 > cov.boundaries);
    assert!(cov.memory_checked > 0);
}

#[test]
fn a_no_change_round_never_solves_the_dataflow() {
    // The confirming round of the first run changed nothing, so the
    // fixpoint it left behind is still valid: a second run is one round
    // of pure cache hits — range-fold, store-forward, redundant-load-elim
    // and dead-store-elim each read the fixpoint, store-forward also the
    // memory solution.
    let mut func = compile_kernel(&kernels()[0]);
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
    let pm = standard_pipeline();
    pm.run(&mut func, &mut am);
    let settled = am.counters();
    let summary = pm.run(&mut func, &mut am);
    assert_eq!(summary.rounds, 1, "already at fixpoint");
    let delta = am.counters() - settled;
    assert_eq!(delta.dataflow, HitMiss { hits: 4, misses: 0 });
    assert_eq!(delta.memory, HitMiss { hits: 1, misses: 0 });
}
