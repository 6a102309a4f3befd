//! The compile workloads — `kernels`, `ladder` and `spill` — driven
//! through `fcc_driver::compile_function_report`, the per-function path
//! of `fcc build`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fcc_analysis::{fuel, AnalysisManager, PreservedAnalyses};
use fcc_core::{coalesce_ssa_managed, CoalesceOptions, CompileError};
use fcc_driver::recover::{compile_function_guarded, contain, ladder};
use fcc_driver::{compile_function_report, CompileRequest, FailMode, FnStatus, FunctionReport};
use fcc_interp::run_with_memory;
use fcc_ir::{Function, InstKind};
use fcc_opt::{
    ConstFold, CopyProp, Dce, DeadStoreElim, Pass, PassManager, RangeFold, RedundantLoadElim,
    SimplifyCfg, StoreForward,
};
use fcc_pressure::{audit_allocation, RULE_ALLOC_PRESSURE};
use fcc_regalloc::{
    allocate_managed, spill_to_k, weighted_spill_traffic, AllocOptions, SpillStrategy,
};
use fcc_ssa::{build_ssa_with, split_critical_edges_with, verify_ssa, SsaFlavor};
use fcc_workloads::{generate, GenConfig, SplitMix64};

use crate::calib::{self, Calibration};
use crate::report::{fnv64, latency_percentiles, same_counts, Counts, Report};
use crate::stats::{growth, median, typical_pass, useful_ratio};
use crate::trace::{self, Tracer};

/// Which compile workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Kernels,
    Ladder,
    Spill,
}

/// Ladder rungs: statements per function and functions per rung. The
/// counts put the latency percentiles inside a rung (p50 in the
/// 200-statement rung, p90 in the 800 one), where timing noise moves them
/// little, and give those rungs enough functions that the seed's draw
/// moves them little either; the top rung over the bottom one gives
/// `ladder_growth`.
const LADDER: [(usize, usize); 5] = [(100, 20), (200, 48), (400, 12), (800, 14), (1600, 2)];
/// Spill classes, likewise: p50 falls inside the 40-statement class, p90
/// inside the 80 one.
const SPILL: [(usize, usize); 2] = [(40, 100), (80, 48)];
/// A class of `n` functions keeps the `n` of `draws × n` generated ones
/// whose sizes are nearest the middle, so the class's size, not the
/// seed's luck, sets its cost. Spill cost varies more with size than
/// ladder cost, and its functions are cheap to draw.
const LADDER_DRAWS: usize = 3;
const SPILL_DRAWS: usize = 5;
/// The hard register bound of the kernels and spill workloads.
const K_REGISTERS: u32 = 8;
/// Interpreter step budget for oracle runs.
const RUN_FUEL: u64 = 50_000_000;
/// On `spill`, the most functions per pass that may fall back to a
/// lower rung through the known audit defect (see
/// [`known_defect`]) before the run fails. Seeds 1–40 show at most one
/// of its 148 functions, seed 4242 two.
const KNOWN_DEFECT_CAP: u64 = 4;

/// One pre-SSA function with its fixed inputs and reference behaviour.
pub struct Input {
    pub func: Function,
    args: Vec<i64>,
    memory_words: usize,
    ref_ret: Option<i64>,
    ref_memory: Vec<i64>,
    ref_executed: u64,
    /// Live pre-SSA instructions: the unit of `insts_per_s`.
    pub insts: usize,
    /// Size class: 0 = bottom, 2 = top, 1 = neither.
    class: u8,
}

/// The generated inputs plus the request they compile under.
pub struct Workload {
    pub inputs: Vec<Input>,
    pub req: CompileRequest,
    /// Whether a fall-back through the known audit defect is tolerated
    /// (`spill` only); any other fall-back is a failed compile.
    tolerate_known_defect: bool,
}

/// Whether a recovered function fell back only because `audit_allocation`
/// rejected its k-register allocation with `alloc-pressure-exceeds-k` on
/// every failed rung — the known defect described in
/// `perfbench/README.md`, which the `new` and `standard` rungs share.
fn known_defect(report: &FunctionReport) -> bool {
    let rule = format!("[{RULE_ALLOC_PRESSURE}]");
    report
        .attempts
        .iter()
        .all(|a| matches!(&a.error, CompileError::Rejected { detail } if detail.contains(&rule)))
}

fn make_input(func: Function, args: Vec<i64>, memory_words: usize) -> Result<Input, String> {
    let out = run_with_memory(&func, &args, vec![0; memory_words], RUN_FUEL)
        .map_err(|e| format!("reference run of @{} failed: {e}", func.name))?;
    Ok(Input {
        insts: func.live_inst_count(),
        func,
        args,
        memory_words,
        ref_ret: out.ret,
        ref_memory: out.memory,
        ref_executed: out.executed,
        class: 1,
    })
}

fn lowered(rng: &mut SplitMix64, cfg: &GenConfig, name: &str) -> Result<Function, String> {
    let mut prog = generate(rng.next_u64(), cfg);
    prog.name = name.to_string();
    fcc_frontend::lower_program(&prog).map_err(|e| e.to_string())
}

fn with_args(rng: &mut SplitMix64, func: Function) -> Result<Input, String> {
    let args = vec![rng.gen_range(-50i64..50), rng.gen_range(-50i64..50)];
    make_input(func, args, 4096)
}

/// One size class: the middle `count` of `draws × count` generated
/// functions by pre-SSA size, in draw order, tagged with `class`.
fn size_class(
    rng: &mut SplitMix64,
    cfg: &GenConfig,
    (count, draws): (usize, usize),
    class: u8,
    inputs: &mut Vec<Input>,
) -> Result<(), String> {
    let mut drawn = Vec::with_capacity(draws * count);
    for i in 0..draws * count {
        drawn.push((i, lowered(rng, cfg, &format!("s{}_{i}", cfg.stmts))?));
    }
    drawn.sort_by_key(|(i, f)| (f.live_inst_count(), *i));
    let skip = (drawn.len() - count) / 2;
    let mut kept: Vec<(usize, Function)> = drawn.into_iter().skip(skip).take(count).collect();
    kept.sort_by_key(|(i, _)| *i);
    for (_, func) in kept {
        let mut input = with_args(rng, func)?;
        input.class = class;
        inputs.push(input);
    }
    Ok(())
}

/// Classes in order: the first is the bottom class, the last the top.
fn size_classes(
    rng: &mut SplitMix64,
    classes: &[(usize, usize)],
    draws: usize,
    config: fn(usize) -> GenConfig,
    inputs: &mut Vec<Input>,
) -> Result<(), String> {
    for (c, &(stmts, count)) in classes.iter().enumerate() {
        let class = match c {
            0 => 0,
            c if c == classes.len() - 1 => 2,
            _ => 1,
        };
        size_class(rng, &config(stmts), (count, draws), class, inputs)?;
    }
    Ok(())
}

fn ladder_config(stmts: usize) -> GenConfig {
    // The `scaling` bench's shape.
    GenConfig {
        stmts,
        max_depth: 4,
        vars: 8 + stmts / 50,
        max_loop: 4,
        params: 2,
        memory_ops: true,
    }
}

fn spill_config(stmts: usize) -> GenConfig {
    GenConfig {
        stmts,
        max_depth: 3,
        vars: 16,
        max_loop: 4,
        params: 2,
        memory_ops: true,
    }
}

/// Input generation, lowering and reference runs: everything `setup_s`
/// times. Deterministic per seed.
pub fn setup(kind: Kind, seed: u64) -> Result<Workload, String> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut inputs = Vec::new();
    // `--fail-mode degrade`: a function the requested pipeline cannot
    // compile is retried down fcc-driver's ladder. On `spill` a fall-back
    // through the known defect is counted in `driver.recovered` (capped);
    // every other fall-back counts as a failed compile. The oracle checks
    // what the ladder returns.
    let req = CompileRequest::new().jobs(1).fail_mode(FailMode::Degrade);
    let req = match kind {
        Kind::Kernels => {
            let mut order: Vec<usize> = (0..fcc_workloads::kernels().len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for i in order {
                let k = &fcc_workloads::kernels()[i];
                let func = fcc_workloads::compile_kernel(k);
                inputs.push(make_input(func, k.args.to_vec(), k.memory_words)?);
            }
            // Bottom and top quarter of the suite by size.
            let mut by_size: Vec<usize> = (0..inputs.len()).collect();
            by_size.sort_by_key(|&i| (inputs[i].insts, i));
            let q = inputs.len() / 4;
            for &i in &by_size[..q] {
                inputs[i].class = 0;
            }
            for &i in &by_size[by_size.len() - q..] {
                inputs[i].class = 2;
            }
            req.opt(true).k_registers(Some(K_REGISTERS))
        }
        Kind::Ladder => {
            size_classes(&mut rng, &LADDER, LADDER_DRAWS, ladder_config, &mut inputs)?;
            req
        }
        Kind::Spill => {
            size_classes(&mut rng, &SPILL, SPILL_DRAWS, spill_config, &mut inputs)?;
            req.k_registers(Some(K_REGISTERS))
        }
    };
    Ok(Workload {
        inputs,
        req,
        tolerate_known_defect: kind == Kind::Spill,
    })
}

/// One pass over every input.
struct PassRun {
    /// Per-input compile latency, nanoseconds.
    ns: Vec<u64>,
    /// Per-input output (kept for the first pass only).
    outputs: Vec<Option<Function>>,
    counts: Counts,
    failed: u64,
}

impl PassRun {
    fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Counts every pass must repeat exactly, plus a digest of the output.
fn output_counts(outs: &[Option<Function>], fuel: u64) -> Counts {
    let mut c = Counts::new();
    let mut digest = 0u64;
    for f in outs.iter().flatten() {
        c.add("static_copies", f.static_copy_count() as u64);
        c.add("out_insts", f.live_inst_count() as u64);
        digest = digest.rotate_left(7) ^ fnv64(f.to_string().as_bytes());
    }
    c.add("driver.fuel_steps", fuel);
    c.add("output_digest", digest);
    c
}

fn untraced_pass(w: &Workload, keep: bool, cal: &mut Calibration) -> PassRun {
    let mut ns = Vec::with_capacity(w.inputs.len());
    let mut outs = Vec::with_capacity(w.inputs.len());
    let mut fuel = 0;
    let mut failed = 0;
    let mut recovered = 0;
    for input in &w.inputs {
        let t0 = Instant::now();
        let report = compile_function_report(black_box(&input.func), &w.req);
        ns.push(t0.elapsed().as_nanos() as u64);
        let report = black_box(report);
        cal.tick();
        fuel += report.fuel_spent;
        match report.status {
            FnStatus::Ok => {}
            FnStatus::Recovered { .. } if w.tolerate_known_defect && known_defect(&report) => {
                recovered += 1
            }
            _ => {
                if keep {
                    eprintln!(
                        "compile: @{} {}: {:?}",
                        input.func.name,
                        report.status.label(),
                        report.attempts
                    );
                }
                failed += 1
            }
        }
        outs.push(report.outcome.map(|o| o.func));
    }
    let mut counts = output_counts(&outs, fuel);
    counts.add("driver.recovered", recovered);
    PassRun {
        ns,
        outputs: if keep { outs } else { Vec::new() },
        counts,
        failed,
    }
}

/// Latency samples a run collects at least, so `fn_ms_p90` always has
/// ten beyond it.
const MIN_SAMPLES: usize = 110;

/// Run passes until `seconds` have elapsed and [`MIN_SAMPLES`] compiles
/// are timed (at least two passes, so every count is seen twice).
fn untraced_passes(w: &Workload, seconds: f64, cal: &mut Calibration) -> Vec<PassRun> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 2
        || passes.len() * w.inputs.len() < MIN_SAMPLES
        || start.elapsed().as_secs_f64() < seconds
    {
        passes.push(untraced_pass(w, passes.is_empty(), cal));
    }
    cal.sample(calib::SAMPLES);
    passes
}

/// Fail the run if more functions of one pass fell back through the
/// known defect than [`KNOWN_DEFECT_CAP`] allows.
fn check_known_defect(r: &mut Report, pass: &PassRun) {
    let recovered = pass.counts.get("driver.recovered");
    if recovered > KNOWN_DEFECT_CAP {
        r.fail(format!(
            "{recovered} functions fell back through the known audit defect (cap {KNOWN_DEFECT_CAP})"
        ));
    }
}

/// Oracle: run each compiled function on its input's fixed arguments
/// and compare return value and memory with the reference run. Returns
/// mismatches and the dynamic copies executed.
fn oracle(w: &Workload, outputs: &[Option<Function>]) -> (u64, u64) {
    let mut mismatches = 0;
    let mut dynamic = 0;
    for (input, out) in w.inputs.iter().zip(outputs) {
        let Some(f) = out else { continue };
        match run_with_memory(f, &input.args, vec![0; input.memory_words], RUN_FUEL) {
            Ok(o) if o.ret == input.ref_ret && o.memory == input.ref_memory => {
                dynamic += o.dynamic_copies;
            }
            Ok(_) => {
                eprintln!("oracle: @{} returned a different result", input.func.name);
                mismatches += 1;
            }
            Err(e) => {
                eprintln!("oracle: @{} failed to run: {e}", input.func.name);
                mismatches += 1;
            }
        }
    }
    (mismatches, dynamic)
}

/// `ladder_growth` of one pass: cost per instruction of the top size
/// class over the bottom class.
fn pass_growth(w: &Workload, p: &PassRun) -> f64 {
    let mut sums = [(0f64, 0f64); 3];
    for (input, &ns) in w.inputs.iter().zip(&p.ns) {
        let s = &mut sums[input.class as usize];
        s.0 += ns as f64;
        s.1 += input.insts as f64;
    }
    growth(sums[0], sums[2])
}

/// The untraced run: every end-to-end metric.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    setup_raw: f64,
    w: &Workload,
    cal: &mut Calibration,
) -> Report {
    let passes = untraced_passes(w, seconds, cal);
    let peak_rss = crate::report::peak_rss_mb();
    let deterministic = same_counts(
        &passes.iter().map(|p| &p.counts).collect::<Vec<_>>(),
        "untraced",
    );
    let (mismatches, _) = oracle(w, &passes[0].outputs);

    let f = cal.factor();
    let in_insts: u64 = w.inputs.iter().map(|i| i.insts as u64).sum();
    let lat: Vec<&[u64]> = passes.iter().map(|p| p.ns.as_slice()).collect();
    let ips = in_insts as f64 / (typical_pass(&lat) / 1e9);
    let attempted = (passes.len() * w.inputs.len()) as u64;
    let failed: u64 = passes.iter().map(|p| p.failed).sum::<u64>() + mismatches;

    let mut r = Report::new(attempted, failed);
    r.correct &= deterministic;
    check_known_defect(&mut r, &passes[0]);
    r.metric("setup_s", setup_raw * f);
    r.metric("insts_per_s", ips / f);
    latency_percentiles(&mut r, &lat, f);
    r.metric(
        "out_insts",
        passes[0].counts.get("out_insts") as f64 * 1e3 / in_insts as f64,
    );
    r.metric("peak_rss_mb", peak_rss);
    r.note(format!(
        "{kind:?} seed {seed}: {} functions ({} recovered) x {} passes = {} compile samples, \
         {} input insts; raw setup {:.4} s, raw {:.0} insts/s",
        w.inputs.len(),
        passes[0].counts.get("driver.recovered"),
        passes.len(),
        passes.len() * w.inputs.len(),
        in_insts,
        setup_raw,
        ips
    ));
    r.note(cal.describe());
    r
}

// ---------------------------------------------------------------------
// The traced run.

/// `standard_pipeline()`'s passes, in its order, so the traced run can
/// time each `Pass::run` on its own.
fn standard_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(ConstFold),
        Box::new(CopyProp),
        Box::new(RangeFold),
        Box::new(StoreForward::default()),
        Box::new(RedundantLoadElim),
        Box::new(DeadStoreElim),
        Box::new(Dce),
        Box::new(SimplifyCfg),
    ]
}

/// Fail fast if the list above drifted from `standard_pipeline()`.
fn check_pass_order(passes: &[Box<dyn Pass>]) -> Result<(), String> {
    let mut probe = fcc_frontend::compile("fn probe(x) { return x; }")?;
    build_ssa_with(
        &mut probe,
        SsaFlavor::Pruned,
        true,
        &mut AnalysisManager::new(),
    );
    let summary = fcc_opt::standard_pipeline().run_standalone(&mut probe);
    let theirs: Vec<&str> = summary.passes.iter().map(|p| p.name).collect();
    let ours: Vec<&str> = passes.iter().map(|p| p.name()).collect();
    if theirs == ours {
        Ok(())
    } else {
        Err(format!(
            "standard_pipeline() is {theirs:?}, the traced run has {ours:?}"
        ))
    }
}

fn pass_span(name: &str) -> &'static str {
    match name {
        "constfold" => "opt.constfold",
        "copyprop" => "opt.copyprop",
        "range-fold" => "opt.range-fold",
        "store-forward" => "opt.store-forward",
        "redundant-load-elim" => "opt.redundant-load-elim",
        "dead-store-elim" => "opt.dead-store-elim",
        "dce" => "opt.dce",
        "simplify-cfg" => "opt.simplify-cfg",
        _ => "opt.other",
    }
}

fn phi_args(f: &Function) -> u64 {
    let mut n = 0;
    for b in f.blocks() {
        for phi in f.block_phis(b) {
            if let InstKind::Phi { args } = &f.inst(phi).kind {
                n += args.len() as u64;
            }
        }
    }
    n
}

/// `PassManager::run`, one span per `Pass::run`.
fn optimise(
    tr: &mut Tracer,
    func: &mut Function,
    am: &mut AnalysisManager,
    passes: &[Box<dyn Pass>],
    c: &mut Counts,
) {
    for _ in 0..PassManager::new().max_rounds {
        c.add("opt.rounds", 1);
        let mut changed = false;
        for p in passes {
            let before = func.epoch();
            let live_before = func.live_inst_count() as i64;
            fuel::set_pass(p.name());
            let effect = tr.span(pass_span(p.name()), |_| p.run(func, am));
            fuel::checkpoint(1);
            let preserved = if effect.changed {
                effect.preserved
            } else {
                PreservedAnalyses::all()
            };
            am.invalidate(func, before, preserved);
            c.add("opt.pass_runs", 1);
            if effect.changed {
                c.add("opt.pass_changes", 1);
                c.add_signed(
                    "opt.insts_removed",
                    live_before - func.live_inst_count() as i64,
                );
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// `compile_function` for the `new` pipeline, rebuilt from the public
/// layer calls in the same order, each in its own span. Analyses a layer
/// consumes are computed in their own span just before it runs.
fn compose(
    tr: &mut Tracer,
    mut func: Function,
    req: &CompileRequest,
    passes: &[Box<dyn Pass>],
    c: &mut Counts,
    peaks: &mut Peaks,
) -> Result<Function, String> {
    let mut am = AnalysisManager::new();
    let ssa = tr.span("ssa.build", |_| {
        build_ssa_with(&mut func, SsaFlavor::Pruned, req.fold, &mut am)
    });
    c.add("ssa.phis", ssa.phis_inserted as u64);
    if req.opt {
        tr.span("opt", |tr| optimise(tr, &mut func, &mut am, passes, c));
    }
    tr.span("ssa.verify", |_| verify_ssa(&func))
        .map_err(|e| format!("internal: invalid SSA: {e}"))?;
    tr.span("analysis.liveness", |_| am.liveness_ssa(&func));
    tr.span("analysis.pressure", |_| am.pressure(&func).maxlive());
    if let Some(k) = req.k_registers {
        let s = tr.span("spill", |_| {
            spill_to_k(&mut func, k, SpillStrategy::CostGuided)
        });
        c.add("spill.spills", s.spills as u64);
        c.add("spill.reloads", s.reloads as u64);
        tr.span("ssa.verify", |_| verify_ssa(&func))
            .map_err(|e| format!("internal: spilling broke SSA: {e}"))?;
    }
    // The coalescer splits critical edges first; doing it here lets the
    // analyses it reads be computed in their own spans.
    tr.span("coalesce.split", |_| {
        split_critical_edges_with(&mut func, &mut am)
    });
    tr.span("analysis.domtree", |_| am.domtree(&func));
    tr.span("analysis.liveness", |_| am.liveness_ssa(&func));
    c.add(
        "coalesce.phi_args",
        tr.span("bench.count", |_| phi_args(&func)),
    );
    let s = tr.span("coalesce", |_| {
        coalesce_ssa_managed(&mut func, &CoalesceOptions::default(), &mut am)
    });
    c.add("coalesce.copies_inserted", s.copies_inserted as u64);
    peaks.coalesce = peaks.coalesce.max(s.peak_bytes);
    if let Some(k) = req.k_registers {
        let opts = AllocOptions {
            registers: k as usize,
            ..Default::default()
        };
        let alloc = tr
            .span("alloc", |_| allocate_managed(&mut func, &opts, &mut am))
            .map_err(|e| format!("allocation failed: {e}"))?;
        c.add("alloc.rounds", alloc.rounds as u64);
        c.add("alloc.residual_spills", alloc.spilled.len() as u64);
        let slots = func.spill_slot_count();
        let diags = tr.span("audit", |_| {
            audit_allocation(&func, &alloc.coloring, k, slots)
        });
        if !diags.is_empty() {
            return Err(format!("k={k} allocation failed its audit: {}", diags[0]));
        }
    }
    let counters = am.counters();
    c.add("analysis.hits", counters.total_hits());
    c.add("analysis.misses", counters.total_misses());
    peaks.analysis = peaks.analysis.max(am.peak_bytes());
    // Freeing the analyses is part of the compile too.
    tr.span("analysis.release", |_| drop(am));
    Ok(func)
}

/// Peak bytes of the analysis cache and the coalescer's structures.
/// These are sizes, not counts: container capacities may differ between
/// runs, so they stay out of the determinism check.
#[derive(Default)]
struct Peaks {
    analysis: usize,
    coalesce: usize,
}

/// One traced pass: each input composed under `contain`, inside a root
/// `compile` span.
fn traced_pass(
    tr: &mut Tracer,
    w: &Workload,
    passes: &[Box<dyn Pass>],
) -> (Vec<Option<Function>>, Counts, Peaks, u64) {
    let mut c = Counts::new();
    let mut peaks = Peaks::default();
    let mut outs = Vec::with_capacity(w.inputs.len());
    let mut fuel_steps = 0;
    let t0 = Instant::now();
    for input in &w.inputs {
        tr.next_item();
        let out = tr.span("compile", |tr| {
            let (res, spent) = contain(None, || {
                let func = tr.span("driver.clone", |_| input.func.clone());
                compose(tr, func, &w.req, passes, &mut c, &mut peaks)
            });
            fuel_steps += spent;
            match res {
                Ok(f) => Some(f),
                // The requested rung failed: walk the rest of the ladder
                // as `compile_function_report` does.
                Err(_) => tr.span("driver.recover", |_| {
                    for (_, rung) in ladder(&w.req).into_iter().skip(1) {
                        let (res, spent) =
                            compile_function_guarded(input.func.clone(), &rung, w.req.fuel);
                        fuel_steps += spent;
                        if let Ok(o) = res {
                            c.add("driver.recovered", 1);
                            return Some(o.func);
                        }
                    }
                    eprintln!("traced: @{} failed on every rung", input.func.name);
                    None
                }),
            }
        });
        outs.push(out);
    }
    let wall = t0.elapsed().as_nanos() as u64;
    let oc = output_counts(&outs, fuel_steps);
    c.merge(&oc);
    (outs, c, peaks, wall)
}

/// The traced run: an untraced half for the overhead baseline and the
/// metrics only an untraced run may give, then traced passes whose
/// output must match byte for byte.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    w: &Workload,
    cal: &mut Calibration,
) -> Report {
    let passes = standard_passes();
    let mut r = Report::new(0, 0);
    if let Err(e) = check_pass_order(&passes) {
        eprintln!("traced: {e}");
        r.correct = false;
    }
    let plain = untraced_passes(w, seconds / 2.0, cal);
    let plain_ok = same_counts(
        &plain.iter().map(|p| &p.counts).collect::<Vec<_>>(),
        "untraced",
    );
    let (mismatches, dynamic) = oracle(w, &plain[0].outputs);
    let plain_wall = median(
        &plain
            .iter()
            .map(|p| p.total_ns() as f64)
            .collect::<Vec<_>>(),
    );

    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut traced: Vec<(Counts, u64, BTreeMap<&'static str, u64>)> = Vec::new();
    let mut peaks = Peaks::default();
    let mut fidelity_ok = true;
    let mut coverage = Vec::new();
    let mut chrome = String::new();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        tr.clear();
        let (outs, counts, pass_peaks, wall) = traced_pass(&mut tr, w, &passes);
        peaks.analysis = peaks.analysis.max(pass_peaks.analysis);
        peaks.coalesce = peaks.coalesce.max(pass_peaks.coalesce);
        if traced.is_empty() {
            for ((a, b), input) in outs.iter().zip(&plain[0].outputs).zip(&w.inputs) {
                let same = match (a, b) {
                    (Some(a), Some(b)) => a.to_string() == b.to_string(),
                    _ => false,
                };
                if !same {
                    eprintln!("fidelity: traced output of @{} differs", input.func.name);
                    fidelity_ok = false;
                }
            }
            chrome = trace::chrome_json(tr.spans());
        }
        coverage.push(trace::root_coverage(tr.spans()));
        traced.push((counts, wall, trace::self_time_by_name(tr.spans())));
        cal.sample(1);
    }
    cal.sample(calib::SAMPLES);
    let f = cal.factor();
    let traced_ok = same_counts(&traced.iter().map(|t| &t.0).collect::<Vec<_>>(), "traced");
    // The traced composition must spend exactly the untraced fuel.
    let fuel_ok = traced[0].0.get("driver.fuel_steps") == plain[0].counts.get("driver.fuel_steps");
    if !fuel_ok {
        eprintln!(
            "fidelity: traced fuel {} != untraced {}",
            traced[0].0.get("driver.fuel_steps"),
            plain[0].counts.get("driver.fuel_steps")
        );
    }
    let min_cov = trace::worst_coverage(&coverage).unwrap_or((1.0, "", 0));
    if min_cov.0 < 0.95 {
        eprintln!(
            "coverage: named spans cover only {:.1}% of {} #{} ({})",
            min_cov.0 * 100.0,
            min_cov.1,
            min_cov.2,
            w.inputs[min_cov.2].func.name
        );
    }
    let attempted = ((plain.len() + traced.len()) * w.inputs.len()) as u64;
    let failed = plain.iter().map(|p| p.failed).sum::<u64>() + mismatches;
    r.attempted = attempted;
    r.failed = failed;
    r.correct &= plain_ok && traced_ok && fidelity_ok && fuel_ok && min_cov.0 >= 0.95;
    check_known_defect(&mut r, &plain[0]);

    // Deterministic counts of one pass.
    let c = &traced[0].0;
    let times: Vec<&BTreeMap<&str, u64>> = traced.iter().map(|t| &t.2).collect();
    let wall_traced = median(&traced.iter().map(|t| t.1 as f64).collect::<Vec<_>>());
    let in_insts: f64 = w.inputs.iter().map(|i| i.insts as f64).sum();
    r.layer_times(&times, f);
    for name in [
        "ssa.phis",
        "analysis.hits",
        "analysis.misses",
        "opt.rounds",
        "opt.pass_runs",
        "opt.pass_changes",
        "opt.insts_removed",
        "coalesce.copies_inserted",
        "spill.spills",
        "spill.reloads",
        "alloc.rounds",
        "alloc.residual_spills",
        "driver.fuel_steps",
        "driver.recovered",
    ] {
        r.metric(name, c.get_signed(name) as f64);
    }
    let (hits, misses) = (c.get("analysis.hits"), c.get("analysis.misses"));
    r.metric("analysis.hit_ratio", useful_ratio(hits, hits + misses));
    r.metric("analysis.peak_mb", peaks.analysis as f64 / 1e6);
    r.metric("coalesce.peak_mb", peaks.coalesce as f64 / 1e6);
    r.metric(
        "opt.useful_ratio",
        useful_ratio(c.get("opt.pass_changes"), c.get("opt.pass_runs")),
    );
    let coalesce_ns = median(
        &times
            .iter()
            .map(|t| t.get("coalesce").copied().unwrap_or(0) as f64)
            .collect::<Vec<_>>(),
    );
    let phi_args = c.get("coalesce.phi_args").max(1);
    r.metric("coalesce.ns_per_phi_arg", coalesce_ns * f / phi_args as f64);

    // Metrics that must come from the untraced half.
    let mut lat_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.ns.iter().map(|&n| n as f64 * f / 1e6))
        .collect();
    lat_ms.sort_by(f64::total_cmp);
    r.tail_or_zero("req_ms_p50", &lat_ms, 50.0);
    r.tail_or_zero("req_ms_p99", &lat_ms, 99.0);
    let weighted: f64 = plain[0]
        .outputs
        .iter()
        .flatten()
        .map(weighted_spill_traffic)
        .sum();
    r.metric("spill_weighted", weighted * 1e3 / in_insts);
    let growths: Vec<f64> = plain.iter().map(|p| pass_growth(w, p)).collect();
    r.metric("ladder_growth", median(&growths));
    let ref_exec: f64 = w.inputs.iter().map(|i| i.ref_executed as f64).sum();
    r.metric(
        "static_copies",
        plain[0].counts.get("static_copies") as f64 * 1e3 / in_insts,
    );
    r.metric("dynamic_copies", dynamic as f64 * 1e3 / ref_exec);
    r.metric("error_rate", r.failed as f64 / r.attempted.max(1) as f64);
    r.metric("trace.overhead_ms", (wall_traced - plain_wall) * f / 1e6);
    r.metric("trace.coverage", min_cov.0);
    r.fill_missing_layers();
    r.note(format!(
        "{kind:?} seed {seed}: {} untraced + {} traced passes; traced pass {:.1} ms vs untraced {:.1} ms",
        plain.len(),
        traced.len(),
        wall_traced / 1e6,
        plain_wall / 1e6
    ));
    r.note(cal.describe());
    r.layer_shares(&times);
    r.write_trace(&trace::output_path(kind_name(kind), seed), &chrome);
    r
}

pub fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Kernels => "kernels",
        Kind::Ladder => "ladder",
        Kind::Spill => "spill",
    }
}
