//! Per-function pipeline execution and the parallel batch driver.
//!
//! [`compile_function`] is the single code path behind `fcc`: front-end
//! CFG in, φ-free (optionally optimised, simplified, allocated) code
//! out, with every phase instrumented as a [`PhaseRecord`]. The CLI
//! calls it once for a single-function file and through
//! [`compile_module`] for multi-function files, where the module's
//! functions are sharded across a scoped thread pool.
//!
//! Parallelism never changes output. Each worker invocation builds its
//! own [`AnalysisManager`] and pass manager (per-function analyses share
//! no mutable state — the managers are keyed to one function's
//! modification epoch), and [`compile_module`] merges results in module
//! order, so `--jobs 1` and `--jobs 64` print byte-identical IR and
//! diagnostics.

use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use fcc_analysis::AnalysisManager;
use fcc_core::{coalesce_ssa_managed, coalesce_ssa_traced, CoalesceOptions, SplitStrategy};
use fcc_ir::{Function, Module};
use fcc_lint::{audit_destruction, lint_function, LintStage};
use fcc_opt::{copy_preserving_pipeline, simplify_cfg_with, standard_pipeline, RunSummary};
use fcc_pressure::audit_allocation;
use fcc_regalloc::{
    allocate_managed, coalesce_copies_managed, destruct_via_webs, destruct_via_webs_traced,
    spill_to_k, AllocOptions, BriggsOptions, GraphMode, SpillStrategy,
};
use fcc_ssa::{
    build_ssa_with, destruct_sreedhar_i, destruct_sreedhar_i_traced, destruct_standard_traced,
    destruct_standard_with, verify_ssa, DestructionTrace, SsaFlavor,
};

use crate::pool::BatchTiming;
use crate::report::{merge_phases, PhaseRecord, PhaseTimer};
use crate::request::{CompileRequest, RequestError};

/// The destruction pipeline to run, covering every algorithm the CLI
/// exposes (a superset of the four benchmarked [`crate::Pipeline`]s).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipelineSpec {
    /// The paper's dominance-forest coalescer.
    New,
    /// Same, splitting congruence classes by edge cut.
    NewCut,
    /// Naive Briggs et al. φ instantiation (no coalescing).
    Standard,
    /// Sreedhar Method I (CSSA isolation copies).
    Sreedhar,
    /// φ-web unioning + iterated interference-graph coalescer.
    Briggs,
    /// Same, restricted to copy-related names.
    BriggsStar,
}

impl PipelineSpec {
    /// Every pipeline, in the CLI's listing order.
    pub const ALL: [PipelineSpec; 6] = [
        PipelineSpec::New,
        PipelineSpec::NewCut,
        PipelineSpec::Standard,
        PipelineSpec::Sreedhar,
        PipelineSpec::Briggs,
        PipelineSpec::BriggsStar,
    ];

    /// The canonical spelling, shared by the CLI, the serve protocol,
    /// and the cache key (also what [`Display`](fmt::Display) prints).
    pub fn label(self) -> &'static str {
        match self {
            PipelineSpec::New => "new",
            PipelineSpec::NewCut => "new-cut",
            PipelineSpec::Standard => "standard",
            PipelineSpec::Sreedhar => "sreedhar",
            PipelineSpec::Briggs => "briggs",
            PipelineSpec::BriggsStar => "briggs-star",
        }
    }

    /// The briggs pipelines destruct by φ-web unioning, which requires
    /// copies kept un-folded (webs must be interference-free).
    pub fn needs_no_fold(self) -> bool {
        matches!(self, PipelineSpec::Briggs | PipelineSpec::BriggsStar)
    }
}

impl fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PipelineSpec {
    type Err = RequestError;

    fn from_str(s: &str) -> Result<Self, RequestError> {
        Self::ALL
            .into_iter()
            .find(|p| p.label() == s)
            .ok_or_else(|| RequestError::UnknownPipeline(s.to_string()))
    }
}

/// What the k-register path did to one function: the SSA-level spiller's
/// work plus the allocator's residual spills, as the bench tables and the
/// CLI `--stats` lines report them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillSummary {
    /// The hard register bound compiled against.
    pub k: u32,
    /// `spill` instructions the SSA-level spiller inserted.
    pub ssa_spills: usize,
    /// `reload` instructions the SSA-level spiller inserted.
    pub ssa_reloads: usize,
    /// MaxLive before any spilling.
    pub maxlive_before: u32,
    /// MaxLive after the SSA-level spiller (φ-parallelism and operand
    /// pins can keep this above `k`; the allocator's residual spilling
    /// closes the gap and the auditor certifies the final result).
    pub maxlive_after: u32,
    /// Values the allocator spilled residually after destruction.
    pub residual_spills: usize,
    /// Total spill slots in the final program (SSA + residual).
    pub slots: u32,
}

/// The result of compiling one function: rewritten code plus everything
/// the CLI may print about it.
#[derive(Clone, Debug)]
pub struct FunctionOutcome {
    /// The rewritten function.
    pub func: Function,
    /// Instrumented phases in execution order.
    pub phases: Vec<PhaseRecord>,
    /// Optimiser summary when [`CompileRequest::opt`] was set.
    pub opt_summary: Option<RunSummary>,
    /// The `--stats` commentary lines, in emission order (without the
    /// leading `; `).
    pub stat_lines: Vec<String>,
    /// Peak bytes held by this function's analysis cache.
    pub analysis_peak_bytes: usize,
    /// SSA-build → rewrite wall time for this function.
    pub compile_time: Duration,
    /// Function-level MaxLive measured on the optimised SSA form, just
    /// before destruction — the certified register demand (see
    /// `fcc-pressure`).
    pub maxlive: u32,
    /// Spill accounting when [`CompileRequest::k_registers`] was set.
    pub spill: Option<SpillSummary>,
}

/// Run the configured pipeline on one pre-SSA function.
///
/// This is `fcc`'s whole middle: SSA construction (with optional
/// optimisation and `--verify-each` gating), destruction by the chosen
/// algorithm, then optional CFG simplification and register allocation.
///
/// # Errors
/// Any phase failure — invalid SSA, a failing `--verify-each` lint
/// report, an unsatisfiable allocation — aborts with a message naming
/// the phase. Precondition violations are caught up front by
/// [`CompileRequest::validate`] (the serve daemon rejects them at the
/// protocol boundary without ever reaching this function).
pub fn compile_function(
    mut func: Function,
    cfg: &CompileRequest,
) -> Result<FunctionOutcome, String> {
    cfg.validate().map_err(|e| e.to_string())?;

    // One manager serves every phase of this function; workers never
    // share managers, so batch compilation has no cross-thread state.
    let mut am = AnalysisManager::new();
    let mut phases: Vec<PhaseRecord> = Vec::new();
    let mut stat_lines: Vec<String> = Vec::new();

    let t0 = Instant::now();
    let timer = PhaseTimer::start("build-ssa", &am);
    let ssa_stats = build_ssa_with(&mut func, SsaFlavor::Pruned, cfg.fold, &mut am);
    phases.push(timer.finish_with(&am, &ssa_stats));

    let mut opt_summary: Option<RunSummary> = None;
    if cfg.opt {
        let timer = PhaseTimer::start("optimise", &am);
        // φ-web destruction (briggs pipelines) needs copies kept alive;
        // copy propagation is standalone copy folding and would merge
        // interfering webs (see fcc_opt::copy_preserving_pipeline).
        let pm = if cfg.pipeline.needs_no_fold() {
            copy_preserving_pipeline()
        } else {
            standard_pipeline()
        };
        let summary = if cfg.verify_each {
            pm.run_verified(&mut func, &mut am, LintStage::Ssa)
                .map_err(|v| format!("--verify-each: {v}\n{}", v.report.render_text(&func)))?
        } else {
            pm.run(&mut func, &mut am)
        };
        phases.push(timer.finish(&am));
        stat_lines.push(format!("optimiser: {} rounds to fixpoint", summary.rounds));
        opt_summary = Some(summary);
    }
    verify_ssa(&func).map_err(|e| format!("internal: invalid SSA: {e}"))?;
    let maxlive = am.pressure(&func).maxlive();

    // The k-register path spills on strict SSA, before destruction:
    // reloads define fresh names, so the program stays strict SSA (and
    // therefore chordal) and the downstream pipeline is unchanged.
    let mut spill_summary: Option<SpillSummary> = None;
    if let Some(kr) = cfg.k_registers {
        let timer = PhaseTimer::start("spill", &am);
        let s = spill_to_k(&mut func, kr, SpillStrategy::CostGuided);
        phases.push(timer.finish(&am));
        verify_ssa(&func).map_err(|e| format!("internal: spilling broke SSA: {e}"))?;
        stat_lines.push(format!(
            "spill: k={kr}, {} spills, {} reloads, {} slots, maxlive {} -> {} in {} round(s)",
            s.spills, s.reloads, s.slots, s.maxlive_before, s.maxlive_after, s.rounds
        ));
        spill_summary = Some(SpillSummary {
            k: kr,
            ssa_spills: s.spills,
            ssa_reloads: s.reloads,
            maxlive_before: s.maxlive_before,
            maxlive_after: s.maxlive_after,
            residual_spills: 0,
            slots: s.slots,
        });
    }

    let mut trace: Option<DestructionTrace> = None;
    match cfg.pipeline {
        PipelineSpec::New | PipelineSpec::NewCut => {
            let opts = CoalesceOptions {
                split_strategy: if cfg.pipeline == PipelineSpec::NewCut {
                    SplitStrategy::EdgeCut
                } else {
                    SplitStrategy::RemoveMember
                },
                ..Default::default()
            };
            let timer = PhaseTimer::start("coalesce-new", &am);
            let s = if cfg.verify_each {
                let (s, t) = coalesce_ssa_traced(&mut func, &opts, &mut am);
                trace = Some(t);
                s
            } else {
                coalesce_ssa_managed(&mut func, &opts, &mut am)
            };
            phases.push(timer.finish_with(&am, &s));
            stat_lines.push(format!(
                "new: {} copies, {} filter, {} forest splits, {} local splits, {} B peak",
                s.copies_inserted, s.filter_copies, s.forest_splits, s.local_splits, s.peak_bytes
            ));
        }
        PipelineSpec::Standard => {
            let timer = PhaseTimer::start("destruct-standard", &am);
            let s = if cfg.verify_each {
                let (s, t) = destruct_standard_traced(&mut func, &mut am);
                trace = Some(t);
                s
            } else {
                destruct_standard_with(&mut func, &mut am)
            };
            phases.push(timer.finish_with(&am, &s));
            stat_lines.push(format!(
                "standard: {} copies, {} cycle temps",
                s.copies_inserted, s.cycle_temps
            ));
        }
        PipelineSpec::Sreedhar => {
            let timer = PhaseTimer::start("sreedhar-i", &am);
            let s = if cfg.verify_each {
                let (s, t) = destruct_sreedhar_i_traced(&mut func);
                trace = Some(t);
                s
            } else {
                destruct_sreedhar_i(&mut func)
            };
            phases.push(timer.finish_with(&am, &s));
            stat_lines.push(format!(
                "sreedhar-i: {} isolation copies",
                s.copies_inserted
            ));
        }
        PipelineSpec::Briggs | PipelineSpec::BriggsStar => {
            let timer = PhaseTimer::start("webs", &am);
            let w = if cfg.verify_each {
                let (w, t) = destruct_via_webs_traced(&mut func);
                trace = Some(t);
                w
            } else {
                destruct_via_webs(&mut func)
            };
            phases.push(timer.finish_with(&am, &w));
            let mode = if cfg.pipeline == PipelineSpec::Briggs {
                GraphMode::Full
            } else {
                GraphMode::Restricted
            };
            let timer = PhaseTimer::start("briggs-coalesce", &am);
            let s = coalesce_copies_managed(
                &mut func,
                &BriggsOptions {
                    mode,
                    ..Default::default()
                },
                &mut am,
            );
            phases.push(timer.finish_with(&am, &s));
            stat_lines.push(format!(
                "{}: {} removed, {} remaining, {} passes, {} B peak matrix",
                cfg.pipeline.label(),
                s.copies_removed,
                s.copies_remaining,
                s.passes.len(),
                s.peak_matrix_bytes()
            ));
        }
    }

    if let Some(trace) = &trace {
        // --verify-each: lint the destructed function and audit the
        // run's congruence classes and Waiting copies independently.
        let mut fresh = AnalysisManager::new();
        let mut report = lint_function(&func, &mut fresh, LintStage::Final);
        report.diagnostics.extend(audit_destruction(trace));
        if report.has_errors() {
            return Err(format!(
                "--verify-each: destruction pipeline '{}' failed the lint suite\n{}",
                cfg.pipeline.label(),
                report.render_text(&func)
            ));
        }
        if cfg.deny_warnings && report.warning_count() > 0 {
            return Err(format!(
                "--verify-each: destruction pipeline '{}' emitted {} warning(s) \
                 under --deny-warnings\n{}",
                cfg.pipeline.label(),
                report.warning_count(),
                report.render_text(&func)
            ));
        }
        stat_lines.push(format!(
            "verify-each: destruction audit clean ({} warning(s))",
            report.warning_count()
        ));
    }
    if cfg.simplify {
        let timer = PhaseTimer::start("simplify-cfg", &am);
        simplify_cfg_with(&mut func, &mut am);
        phases.push(timer.finish(&am));
    }
    let compile_time = t0.elapsed();
    stat_lines.push(format!(
        "{} phis inserted, {} copies folded during SSA; {} static copies in output; \
         compiled in {:.1} us",
        ssa_stats.phis_inserted,
        ssa_stats.copies_folded,
        func.static_copy_count(),
        compile_time.as_secs_f64() * 1e6
    ));

    let alloc_k = cfg.k_registers.map(|k| k as usize).or(cfg.alloc);
    if let Some(k) = alloc_k {
        let timer = PhaseTimer::start("allocate", &am);
        let alloc = allocate_managed(
            &mut func,
            &AllocOptions {
                registers: k,
                ..Default::default()
            },
            &mut am,
        )
        .map_err(|e| format!("allocation failed: {e}"))?;
        phases.push(timer.finish(&am));
        stat_lines.push(format!(
            "allocated {k} registers, {} spilled in {} rounds",
            alloc.spilled.len(),
            alloc.rounds
        ));
        if let Some(summary) = spill_summary.as_mut() {
            summary.residual_spills = alloc.spilled.len();
            summary.slots = func.spill_slot_count();
            // Certify the hard bound from the program text alone: the
            // auditor recomputes liveness and checks every point fits in
            // k registers with no clashes, and the spill code obeys the
            // one-slot-one-value discipline.
            let diags = audit_allocation(&func, &alloc.coloring, summary.k, summary.slots);
            if !diags.is_empty() {
                return Err(format!(
                    "internal: k={k} allocation failed its audit with {} violation(s); first: {}",
                    diags.len(),
                    diags[0]
                ));
            }
            stat_lines.push(format!(
                "audit: allocation certified for k={k} ({} slot(s))",
                summary.slots
            ));
        }
    }

    Ok(FunctionOutcome {
        func,
        phases,
        opt_summary,
        stat_lines,
        analysis_peak_bytes: am.peak_bytes(),
        compile_time,
        maxlive,
        spill: spill_summary,
    })
}

/// One batch-compiled module: per-function outcomes in module order plus
/// the pool timing.
#[derive(Clone, Debug)]
pub struct ModuleOutcome {
    /// Outcomes, index-aligned with the input module's functions.
    pub functions: Vec<FunctionOutcome>,
    /// Wall/cpu timing of the batch.
    pub timing: BatchTiming,
}

impl ModuleOutcome {
    /// The rewritten functions reassembled as a module (names were
    /// unique on input and compilation never renames).
    pub fn into_module(self) -> Module {
        Module::from_functions(self.functions.into_iter().map(|o| o.func).collect())
            .expect("compilation preserves the input module's unique names")
    }

    /// Phase records summed by label across all functions.
    pub fn merged_phases(&self) -> Vec<PhaseRecord> {
        let per: Vec<Vec<PhaseRecord>> = self.functions.iter().map(|o| o.phases.clone()).collect();
        merge_phases(&per)
    }

    /// Optimiser summaries merged by pass name: applications and
    /// instruction deltas summed, rounds reported as the maximum.
    pub fn merged_summary(&self) -> Option<RunSummary> {
        merge_summaries(self.functions.iter())
    }

    /// Peak analysis-cache bytes over the workers (they do not share a
    /// cache, so the batch's footprint is the largest single one).
    pub fn analysis_peak_bytes(&self) -> usize {
        self.functions
            .iter()
            .map(|o| o.analysis_peak_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Merge optimiser summaries by pass name across function outcomes:
/// applications and instruction deltas summed, rounds reported as the
/// maximum. Shared by [`ModuleOutcome`] and
/// [`crate::recover::BatchOutcome`].
pub fn merge_summaries<'a>(
    outcomes: impl Iterator<Item = &'a FunctionOutcome>,
) -> Option<RunSummary> {
    let mut merged: Option<RunSummary> = None;
    for o in outcomes {
        let Some(s) = &o.opt_summary else { continue };
        let m = merged.get_or_insert(RunSummary {
            rounds: 0,
            passes: Vec::new(),
        });
        m.rounds = m.rounds.max(s.rounds);
        for p in &s.passes {
            match m.passes.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.applications += p.applications;
                    q.insts_removed += p.insts_removed;
                }
                None => m.passes.push(p.clone()),
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::compile_module as compile_module_req;

    fn module_of(n: usize) -> Module {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!(
                "fn f{i}(n) {{ let s = {i}; for j = 0 to n {{ s = s + j * {}; }} return s; }}\n",
                i + 1
            ));
        }
        fcc_frontend::compile_module(&src).unwrap()
    }

    #[test]
    fn parallel_output_matches_serial_byte_for_byte() {
        let req = CompileRequest::new().opt(true);
        let serial = compile_module_req(module_of(12), &req.clone().jobs(1))
            .unwrap()
            .into_module_outcome()
            .unwrap();
        let parallel = compile_module_req(module_of(12), &req.jobs(4))
            .unwrap()
            .into_module_outcome()
            .unwrap();
        assert_eq!(
            serial.clone().into_module().to_string(),
            parallel.clone().into_module().to_string()
        );
        assert_eq!(serial.merged_phases().len(), parallel.merged_phases().len());
    }

    #[test]
    fn every_pipeline_spec_compiles_a_module() {
        for spec in PipelineSpec::ALL {
            let req = CompileRequest::new()
                .pipeline(spec)
                .fold(!spec.needs_no_fold())
                .verify_each(true)
                .jobs(2);
            let out = compile_module_req(module_of(3), &req)
                .map(|b| b.into_module_outcome().expect("no failures"))
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            for o in &out.functions {
                assert!(!o.func.has_phis(), "{spec}: phis left");
            }
        }
    }

    #[test]
    fn merged_summary_accumulates_pass_applications() {
        let req = CompileRequest::new().opt(true).jobs(3);
        let out = compile_module_req(module_of(6), &req)
            .unwrap()
            .into_module_outcome()
            .unwrap();
        let merged = out.merged_summary().expect("opt ran");
        assert!(!merged.passes.is_empty());
        let per_fn: usize = out
            .functions
            .iter()
            .filter_map(|o| o.opt_summary.as_ref())
            .flat_map(|s| s.passes.iter().map(|p| p.applications))
            .sum();
        let total: usize = merged.passes.iter().map(|p| p.applications).sum();
        assert_eq!(per_fn, total);
    }

    #[test]
    fn k_registers_spills_allocates_and_audits() {
        let module = module_of(4);
        for k in [4u32, 8] {
            let req = CompileRequest::new().opt(true).k_registers(Some(k));
            let out = compile_module_req(module.clone(), &req)
                .unwrap()
                .into_module_outcome()
                .unwrap_or_else(|e| panic!("k={k}: {e}"));
            for o in &out.functions {
                let s = o.spill.expect("spill summary present");
                assert_eq!(s.k, k);
                assert_eq!(s.slots, o.func.spill_slot_count());
                assert!(
                    o.stat_lines
                        .iter()
                        .any(|l| l.contains("audit: allocation certified")),
                    "k={k}: audit line missing: {:?}",
                    o.stat_lines
                );
            }
        }
    }

    #[test]
    fn pipeline_spec_parses_all_cli_spellings() {
        for s in [
            "new",
            "new-cut",
            "standard",
            "sreedhar",
            "briggs",
            "briggs-star",
        ] {
            let spec: PipelineSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
        assert!("nope".parse::<PipelineSpec>().is_err());
    }
}
