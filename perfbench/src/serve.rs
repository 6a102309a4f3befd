//! The `serve-edit` workload: one closed-loop client — an editor that
//! waits for each reply — driving `fcc_serve::Daemon::handle_line` with
//! a persistent cache, restarted gracefully halfway through.
//!
//! A session opens a project (every base module once, filling a fresh
//! cache directory; untimed here, reported as `serve.open_ms` by the
//! traced run), then times an edit-compile loop of [`REQUESTS`] requests.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fcc_driver::{
    compile_function_report, compile_module, par_map, request_deadline, with_deadline,
    BatchOutcome, BatchTiming, CompileRequest, FailMode, FunctionReport,
};
use fcc_interp::run_with_memory;
use fcc_ir::Function;
use fcc_serve::json::{escape, Json};
use fcc_serve::protocol::{error_response, parse_request, ResponseBuilder, ServeError};
use fcc_serve::{cache_key, Daemon, FnCache, ServeOptions};
use fcc_workloads::{generate, GenConfig, SplitMix64};

use crate::calib::{self, calibrate_disk, Calibration, DiskReference};
use crate::report::{
    fnv64, latency_percentiles, layer_of, peak_rss_mb, same_counts, Counts, Report,
};
use crate::stats::{growth, median, percentile, run_percentile, typical_pass, useful_ratio};
use crate::trace::{self, Tracer};

/// Timed requests per session; the daemon restarts after half of them.
const REQUESTS: usize = 480;
/// Sessions a run times at least, so each request's median over them
/// leaves out a stall in one.
const MIN_SESSIONS: usize = 3;
/// Largest module, in functions.
const MAX_FNS: usize = 12;
/// Base modules: this many shuffled decks of 1..=[`MAX_FNS`] functions,
/// so every seed opens a project with the same mix of module sizes.
const BASE_DECKS: usize = 4;
/// Per block of this many timed requests: [`FRESH`] fresh modules,
/// [`EDITS`] one-function edits, the rest resubmissions of unchanged
/// modules. Twelve resubmissions in sixteen is the resubmit share (0.75)
/// of `fcc_serve::bench::BenchConfig::default()`, the repository's own
/// edit-loop model, whose other quarter is all fresh modules; here one
/// request in sixteen is an edit instead. About a fifth of the submitted
/// functions then miss, so `fn_ms_p90` falls among the fresh modules'
/// functions, not on the edge between hits and misses.
const BLOCK: usize = 16;
const FRESH: usize = 3;
const EDITS: usize = 1;
const MEMORY_WORDS: usize = 4096;
const RUN_FUEL: u64 = 10_000_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// A module never sent before: every function misses.
    Fresh,
    /// A byte-identical resubmission: every function hits.
    Resubmit,
    /// A sent module with one function rewritten: one miss among hits.
    Edit,
}

/// One distinct module text and what the oracle needs about it.
struct Version {
    source: String,
    funcs: Vec<Reference>,
    insts: usize,
}

/// A pre-SSA function with its fixed arguments and its reference run.
struct Reference {
    func: Function,
    args: Vec<i64>,
    ret: Option<i64>,
    /// Digest of the final memory image.
    memory: u64,
    executed: u64,
}

struct Request {
    kind: Kind,
    version: usize,
    line: String,
}

pub struct Workload {
    versions: Vec<Version>,
    /// The project opening: every base module once.
    open: Vec<Request>,
    /// The timed edit-compile loop.
    requests: Vec<Request>,
}

/// Generated functions drawn per function kept: the one of middle
/// pre-SSA size is kept, so a miss costs about the same on every seed.
const DRAWS: usize = 3;

fn gen_function(rng: &mut SplitMix64, name: String) -> Result<String, String> {
    let mut drawn = Vec::with_capacity(DRAWS);
    for _ in 0..DRAWS {
        let cfg = GenConfig {
            stmts: rng.gen_range(4usize..=16),
            max_depth: 2,
            ..GenConfig::default()
        };
        let mut prog = generate(rng.next_u64(), &cfg);
        prog.name = name.clone();
        let size = fcc_frontend::lower_program(&prog)
            .map_err(|e| e.to_string())?
            .live_inst_count();
        drawn.push((size, fcc_frontend::to_source(&prog)));
    }
    drawn.sort_by_key(|d| d.0);
    Ok(drawn.swap_remove(DRAWS / 2).1)
}

fn memory_digest(memory: &[i64]) -> u64 {
    let bytes: Vec<u8> = memory.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv64(&bytes)
}

fn version(sources: &[String], seed: u64) -> Result<Version, String> {
    let source = sources.join("\n");
    let module = fcc_frontend::compile_module(&source)?;
    let mut funcs = Vec::new();
    let mut insts = 0;
    for f in module.into_functions() {
        let h = fnv64(f.to_string().as_bytes()) ^ seed;
        let args = vec![(h % 100) as i64 - 50, ((h >> 8) % 100) as i64 - 50];
        let out = run_with_memory(&f, &args, vec![0; MEMORY_WORDS], RUN_FUEL)
            .map_err(|e| format!("reference run of @{} failed: {e}", f.name))?;
        insts += f.live_inst_count();
        funcs.push(Reference {
            func: f,
            args,
            ret: out.ret,
            memory: memory_digest(&out.memory),
            executed: out.executed,
        });
    }
    Ok(Version {
        source,
        funcs,
        insts,
    })
}

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for j in (1..v.len()).rev() {
        v.swap(j, rng.gen_range(0..=j));
    }
}

/// The module set and the request streams, all from `seed`.
struct Project {
    rng: SplitMix64,
    seed: u64,
    deck: Vec<usize>,
    /// Per module, the function sources of its latest version and that
    /// version's index.
    modules: Vec<(Vec<String>, usize)>,
    versions: Vec<Version>,
    /// Modules still to be resubmitted in this round.
    rotation: Vec<usize>,
}

impl Project {
    /// A module that was never sent, sized from the deck.
    fn fresh(&mut self) -> Result<usize, String> {
        if self.deck.is_empty() {
            self.deck = (1..=MAX_FNS).collect();
            shuffle(&mut self.rng, &mut self.deck);
        }
        let n = self.deck.pop().expect("refilled above");
        let m = self.modules.len();
        let rng = &mut self.rng;
        let fns: Vec<String> = (0..n)
            .map(|f| gen_function(rng, format!("m{m}_f{f}")))
            .collect::<Result<_, _>>()?;
        self.versions.push(version(&fns, self.seed)?);
        self.modules.push((fns, self.versions.len() - 1));
        Ok(self.versions.len() - 1)
    }

    /// A sent module with one function rewritten.
    fn edit(&mut self) -> Result<usize, String> {
        let m = self.rng.gen_range(0..self.modules.len());
        let mut fns = self.modules[m].0.clone();
        let j = self.rng.gen_range(0..fns.len());
        let name = fcc_frontend::parse_module(&fns[j])
            .map_err(|e| e.to_string())?
            .remove(0)
            .name;
        fns[j] = gen_function(&mut self.rng, name)?;
        self.versions.push(version(&fns, self.seed)?);
        self.modules[m] = (fns, self.versions.len() - 1);
        Ok(self.versions.len() - 1)
    }

    /// The next module's latest version, in rounds that visit every
    /// module once in seeded order, so module sizes keep their weight.
    fn resubmit(&mut self) -> usize {
        if self.rotation.is_empty() {
            self.rotation = (0..self.modules.len()).collect();
            shuffle(&mut self.rng, &mut self.rotation);
        }
        let m = self.rotation.pop().expect("refilled above");
        self.modules[m].1
    }

    fn request(&self, kind: Kind, version: usize) -> Request {
        let line = format!(
            "{{\"v\":1,\"verb\":\"compile\",\"source\":\"{}\"}}",
            escape(&self.versions[version].source)
        );
        Request {
            kind,
            version,
            line,
        }
    }
}

/// Generate the base modules and the timed stream; each block of
/// [`BLOCK`] timed requests is a fresh shuffle of its fixed mix.
pub fn setup(seed: u64) -> Result<Workload, String> {
    let mut p = Project {
        rng: SplitMix64::seed_from_u64(seed),
        seed,
        deck: Vec::new(),
        modules: Vec::new(),
        versions: Vec::new(),
        rotation: Vec::new(),
    };
    let mut open = Vec::new();
    for _ in 0..BASE_DECKS * MAX_FNS {
        let v = p.fresh()?;
        open.push(p.request(Kind::Fresh, v));
    }
    let mut pattern = [Kind::Resubmit; BLOCK];
    pattern[..FRESH].fill(Kind::Fresh);
    pattern[FRESH..FRESH + EDITS].fill(Kind::Edit);
    let mut requests = Vec::with_capacity(REQUESTS);
    let mut block = pattern;
    for i in 0..REQUESTS {
        if i % BLOCK == 0 {
            block = pattern;
            shuffle(&mut p.rng, &mut block);
        }
        let kind = block[i % BLOCK];
        let v = match kind {
            Kind::Fresh => p.fresh()?,
            Kind::Edit => p.edit()?,
            Kind::Resubmit => p.resubmit(),
        };
        requests.push(p.request(kind, v));
    }
    Ok(Workload {
        versions: p.versions,
        open,
        requests,
    })
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        defaults: CompileRequest::new(),
        cache_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    }
}

/// A fresh, empty cache directory inside the working directory.
fn cache_dir(tag: &str) -> PathBuf {
    let dir = Path::new(".bench_out").join(format!("serve-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Session {
    /// Per timed request, nanoseconds.
    ns: Vec<u64>,
    /// Per timed request, entries written to the disk cache.
    writes: Vec<u64>,
    /// The median reference write while the timed loop ran, seconds.
    write_s: f64,
    /// The project opening.
    open_ns: u64,
    /// The timed loop, restart included.
    wall: u64,
    /// Opening responses, then timed ones (kept for the first session).
    responses: Vec<String>,
    counts: Counts,
}

fn cache_counts(c: &mut Counts, cache: &FnCache) {
    let s = cache.stats();
    let d = cache.disk_stats();
    c.add("cache.hits", s.hits);
    c.add("cache.misses", s.misses);
    c.add("cache.evictions", s.evictions);
    c.add("disk.writes", d.writes);
    c.add("disk.loaded", d.warmed);
}

fn untraced_session(
    w: &Workload,
    tag: &str,
    keep: bool,
    cal: &mut Calibration,
    disk: &mut DiskReference,
) -> Result<Session, String> {
    let dir = cache_dir(tag);
    let open = |dir: &Path| Daemon::new(options(dir)).map_err(|e| format!("cache dir: {e}"));
    let mut daemon = open(&dir)?;
    let mut s = Session {
        ns: Vec::with_capacity(w.requests.len()),
        writes: Vec::with_capacity(w.requests.len()),
        write_s: 0.0,
        open_ns: 0,
        wall: 0,
        responses: Vec::new(),
        counts: Counts::new(),
    };
    let mut digest = 0u64;
    let mut answer = |daemon: &mut Daemon, r: &Request, s: &mut Session| -> u64 {
        let t0 = Instant::now();
        let (resp, _) = daemon.handle_line(black_box(&r.line));
        let ns = t0.elapsed().as_nanos() as u64;
        digest = digest.rotate_left(7) ^ fnv64(resp.as_bytes());
        if keep {
            s.responses.push(resp);
        }
        ns
    };
    for r in &w.open {
        s.open_ns += answer(&mut daemon, r, &mut s);
    }
    let start = Instant::now();
    let mark = disk.mark();
    for (i, r) in w.requests.iter().enumerate() {
        if i == w.requests.len() / 2 {
            daemon.finish();
            cache_counts(&mut s.counts, daemon.cache());
            drop(daemon);
            daemon = open(&dir)?;
        }
        let written = daemon.cache().disk_stats().writes;
        let ns = answer(&mut daemon, r, &mut s);
        s.ns.push(ns);
        s.writes.push(daemon.cache().disk_stats().writes - written);
        cal.tick();
        disk.tick()?;
    }
    s.wall = start.elapsed().as_nanos() as u64;
    s.write_s = disk.median_since(mark);
    daemon.finish();
    cache_counts(&mut s.counts, daemon.cache());
    drop(daemon);
    s.counts.add("response_digest", digest);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(s)
}

/// Untraced sessions for `seconds` (at least [`MIN_SESSIONS`]), with the
/// disk reference timed beside them.
fn untraced_sessions(
    w: &Workload,
    seconds: f64,
    cal: &mut Calibration,
) -> Result<(Vec<Session>, DiskReference), String> {
    let mut disk = DiskReference::new(
        Path::new(".bench_out").join(format!("disk-ref-{}", std::process::id())),
    )?;
    disk.sample(calib::SAMPLES)?;
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_SESSIONS || start.elapsed().as_secs_f64() < seconds {
        out.push(untraced_session(
            w,
            &format!("u{}", out.len()),
            out.is_empty(),
            cal,
            &mut disk,
        )?);
    }
    cal.sample(calib::SAMPLES);
    disk.sample(calib::SAMPLES)?;
    Ok((out, disk))
}

/// Counts over served code.
#[derive(Clone, Copy, Default)]
struct CodeCounts {
    static_copies: u64,
    out_insts: u64,
    dynamic_copies: u64,
    /// Instructions the reference runs executed.
    ref_executed: u64,
    /// Pre-SSA instructions submitted.
    in_insts: u64,
}

/// What an uncached compile of one module version serves.
struct Served {
    output: String,
    counts: CodeCounts,
    /// Functions whose served code misbehaves.
    mismatches: u64,
}

fn serve_oracle(w: &Workload) -> Vec<Result<Served, String>> {
    let req = CompileRequest::new();
    w.versions
        .iter()
        .map(|v| {
            let module = fcc_frontend::compile_module(&v.source)?;
            let batch = compile_module(module, &req).map_err(|e| e.to_string())?;
            if let Some((name, e)) = batch.first_error() {
                return Err(format!("@{name}: {e}"));
            }
            let out = batch.into_surviving_module();
            let mut s = Served {
                output: out.to_string(),
                counts: CodeCounts::default(),
                mismatches: 0,
            };
            for (f, r) in out.functions().iter().zip(&v.funcs) {
                let c = &mut s.counts;
                c.static_copies += f.static_copy_count() as u64;
                c.out_insts += f.live_inst_count() as u64;
                c.ref_executed += r.executed;
                c.in_insts += r.func.live_inst_count() as u64;
                match run_with_memory(f, &r.args, vec![0; MEMORY_WORDS], RUN_FUEL) {
                    Ok(o) if o.ret == r.ret && memory_digest(&o.memory) == r.memory => {
                        c.dynamic_copies += o.dynamic_copies
                    }
                    _ => {
                        eprintln!("oracle: served @{} misbehaves", r.func.name);
                        s.mismatches += 1;
                    }
                }
            }
            Ok(s)
        })
        .collect()
}

/// Check each response against the uncached compile of its module:
/// `ok`, byte-equal output, and served code that behaves like the
/// reference. Returns failures and the served-code counts summed over
/// the timed requests.
fn check_responses(
    w: &Workload,
    responses: &[String],
    served: &[Result<Served, String>],
) -> (u64, CodeCounts) {
    let mut failed = 0;
    let mut sums = CodeCounts::default();
    let all = w.open.iter().chain(&w.requests);
    for (i, (r, resp)) in all.zip(responses).enumerate() {
        let Ok(s) = &served[r.version] else {
            eprintln!("oracle: request {i}: uncached compile failed");
            failed += 1;
            continue;
        };
        let doc = fcc_serve::json::parse(resp).ok();
        let field = |k: &str| doc.as_ref().and_then(|d| d.get(k));
        let ok = field("ok").and_then(Json::as_bool) == Some(true);
        let output = field("output").and_then(Json::as_str);
        if !ok || output != Some(s.output.as_str()) || s.mismatches > 0 {
            eprintln!(
                "oracle: request {i} ({:?}): response not ok or output differs",
                r.kind
            );
            failed += 1;
        }
        if i >= w.open.len() {
            sums.static_copies += s.counts.static_copies;
            sums.out_insts += s.counts.out_insts;
            sums.dynamic_copies += s.counts.dynamic_copies;
            sums.ref_executed += s.counts.ref_executed;
            sums.in_insts += s.counts.in_insts;
        }
    }
    (failed, sums)
}

/// Cost per instruction of requests for the largest modules (10–12
/// functions) over that of the smallest (1–3).
fn session_growth(w: &Workload, ns: &[u64]) -> f64 {
    let mut sums = [(0f64, 0f64); 2];
    for (r, &t) in w.requests.iter().zip(ns) {
        let class = match w.versions[r.version].funcs.len() {
            1..=3 => 0,
            10.. => 1,
            _ => continue,
        };
        sums[class].0 += t as f64;
        sums[class].1 += w.versions[r.version].insts as f64;
    }
    growth(sums[0], sums[1])
}

/// Per-function latency in one session: every function a timed request
/// submits is one sample, its request's latency over the request's
/// function count, in nanoseconds.
fn fn_ns(w: &Workload, ns: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    for (r, &t) in w.requests.iter().zip(ns) {
        let n = w.versions[r.version].funcs.len();
        out.extend(std::iter::repeat_n(t / n as u64, n));
    }
    out
}

/// The untraced run: every end-to-end metric.
pub fn run(
    seed: u64,
    seconds: f64,
    setup_raw: f64,
    w: &Workload,
    cal: &mut Calibration,
) -> Result<Report, String> {
    let (sessions, disk) = untraced_sessions(w, seconds, cal)?;
    let peak_rss = peak_rss_mb();
    let deterministic = same_counts(
        &sessions.iter().map(|s| &s.counts).collect::<Vec<_>>(),
        "untraced",
    );
    let served = serve_oracle(w);
    let (failed, sums) = check_responses(w, &sessions[0].responses, &served);

    let f = cal.factor();
    let insts = sums.in_insts as f64;
    let raw: Vec<&[u64]> = sessions.iter().map(|s| s.ns.as_slice()).collect();
    let ips_raw = insts / (typical_pass(&raw) / 1e9);
    let raw_fn: Vec<Vec<u64>> = raw.iter().map(|ns| fn_ns(w, ns)).collect();
    let raw_fn: Vec<&[u64]> = raw_fn.iter().map(Vec::as_slice).collect();
    let raw_fn_ms = |p| run_percentile(&raw_fn, p).unwrap_or(f64::NAN) / 1e6;
    // Each request's time with the processor scaled and the disk writes
    // it made at their nominal cost, for the disk's speed during its
    // session.
    let cal_ns: Vec<Vec<u64>> = sessions
        .iter()
        .map(|s| {
            s.ns.iter()
                .zip(&s.writes)
                .map(|(&t, &n)| (calibrate_disk(t as f64 / 1e9, n, s.write_s, f) * 1e9) as u64)
                .collect()
        })
        .collect();
    let lat: Vec<&[u64]> = cal_ns.iter().map(Vec::as_slice).collect();
    let ips = insts / (typical_pass(&lat) / 1e9);

    let attempted = (sessions.len() * (w.open.len() + w.requests.len())) as u64;
    let mut r = Report::new(attempted, failed * sessions.len() as u64);
    r.correct &= deterministic;
    r.metric("setup_s", setup_raw * f);
    r.metric("insts_per_s", ips);
    let per_fn: Vec<Vec<u64>> = lat.iter().map(|ns| fn_ns(w, ns)).collect();
    latency_percentiles(
        &mut r,
        &per_fn.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        1.0,
    );
    r.metric("out_insts", sums.out_insts as f64 * 1e3 / insts);
    r.metric("peak_rss_mb", peak_rss);
    r.note(format!(
        "serve-edit seed {seed}: {} opening + {} timed requests x {} sessions, {} distinct modules, \
         {} insts submitted per session; raw setup {:.4} s, raw {:.0} insts/s, \
         raw fn_ms p50 {:.4} p90 {:.4}",
        w.open.len(),
        w.requests.len(),
        sessions.len(),
        w.versions.len(),
        sums.in_insts,
        setup_raw,
        ips_raw,
        raw_fn_ms(50.0),
        raw_fn_ms(90.0),
    ));
    r.note(format!(
        "session walls (raw): {:?} ms",
        sessions
            .iter()
            .map(|s| s.wall / 1_000_000)
            .collect::<Vec<_>>()
    ));
    r.note(cal.describe());
    r.note(disk.describe());
    Ok(r)
}

// ---------------------------------------------------------------------
// The traced run.

/// `Daemon::handle_line` for a compile line, rebuilt from the public
/// serve and driver calls with one span per layer. Returns the response
/// line and the request's miss count.
fn traced_request(
    tr: &mut Tracer,
    line: &str,
    defaults: &CompileRequest,
    cache: &mut FnCache,
    c: &mut Counts,
    pool: &mut BatchTiming,
) -> (String, usize) {
    let request = match tr.span("serve.parse", |_| parse_request(line, defaults)) {
        Ok(r) => r,
        Err(e) => return (error_response(&Json::Null, &e), 0),
    };
    let id = request.id;
    let Some(body) = request.compile else {
        return (
            error_response(&id, &ServeError::bad_request("not a compile")),
            0,
        );
    };
    let module = match tr.span("frontend", |_| fcc_frontend::compile_module(&body.source)) {
        Ok(m) => m,
        Err(e) => return (error_response(&id, &ServeError::parse_error(e)), 0),
    };
    let req = &body.req;
    let funcs = module.into_functions();
    let keys: Vec<String> = tr.span("serve.key", |_| {
        funcs
            .iter()
            .map(|f| cache_key(&f.to_string(), req))
            .collect()
    });
    let mut slots: Vec<Option<FunctionReport>> = tr.span("serve.cache_get", |_| {
        keys.iter().map(|k| cache.get(k)).collect()
    });
    let miss_idx: Vec<usize> = (0..funcs.len()).filter(|&i| slots[i].is_none()).collect();
    let deadline = request_deadline(req);
    let (compiled, timing) = tr.span("serve.compile", |_| {
        par_map(miss_idx.len(), req.jobs, |j| {
            with_deadline(deadline, || {
                compile_function_report(&funcs[miss_idx[j]], req)
            })
        })
    });
    if !miss_idx.is_empty() {
        pool.wall += timing.wall;
        pool.cpu += timing.cpu;
        pool.jobs = timing.jobs;
    }
    tr.span("serve.cache_insert", |_| {
        for (j, report) in compiled.into_iter().enumerate() {
            let i = miss_idx[j];
            if !report.hit_deadline() {
                cache.insert(&keys[i], &report);
            }
            c.add("driver.fuel_steps", report.fuel_spent);
            slots[i] = Some(report);
        }
    });
    let batch = BatchOutcome {
        functions: slots
            .into_iter()
            .map(|s| s.expect("hit or compiled"))
            .collect(),
        timing,
    };
    let resp = tr.span("serve.encode", |_| encode(&id, batch, req.fail_mode));
    (resp, miss_idx.len())
}

/// The daemon's compile response, field for field.
fn encode(id: &Json, batch: BatchOutcome, fail_mode: FailMode) -> String {
    if let Some(f) = batch.functions.iter().find(|f| f.hit_deadline()) {
        let e = f
            .attempts
            .iter()
            .find(|a| a.error.is_deadline())
            .expect("deadline attempt");
        return error_response(
            id,
            &ServeError::deadline_exceeded(format!("@{}: {}", f.name, e.error)),
        );
    }
    if fail_mode == FailMode::Abort {
        if let Some((name, e)) = batch.first_error() {
            return error_response(id, &ServeError::compile_failed(format!("@{name}: {e}")));
        }
    }
    let (ok, recovered, failed) = batch.counts();
    let mut functions = String::from("[");
    for (i, f) in batch.functions.iter().enumerate() {
        if i > 0 {
            functions.push(',');
        }
        let tried = f.attempts.len() + usize::from(f.outcome.is_some());
        functions.push_str(&format!(
            "{{\"name\":\"{}\",\"status\":\"{}\",\"attempts\":{tried}}}",
            escape(&f.name),
            f.status.label()
        ));
    }
    functions.push(']');
    let counts = format!("{{\"ok\":{ok},\"recovered\":{recovered},\"failed\":{failed}}}");
    let output = batch.into_surviving_module().to_string();
    ResponseBuilder::new(id, true)
        .str("verb", "compile")
        .raw("functions", &functions)
        .raw("counts", &counts)
        .str("output", &output)
        .finish()
}

struct TracedSession {
    responses: Vec<String>,
    /// Per timed request, its root span's item and its miss count.
    items: Vec<(u64, usize)>,
    counts: Counts,
    pool: BatchTiming,
    wall: u64,
}

/// A session as [`untraced_session`] runs it, rebuilt from the serve
/// layers' public calls. Only the timed loop's spans are kept.
fn traced_session(tr: &mut Tracer, w: &Workload, tag: &str) -> Result<TracedSession, String> {
    let dir = cache_dir(tag);
    let budget = ServeOptions::default().cache_budget;
    let defaults = options(&dir).defaults;
    let open = |tr: &mut Tracer| -> Result<FnCache, String> {
        let mut cache = FnCache::with_budget(budget);
        tr.span("disk.load", |_| cache.attach_disk(&dir))
            .map_err(|e| format!("cache dir: {e}"))?;
        Ok(cache)
    };
    let mut s = TracedSession {
        responses: Vec::with_capacity(w.open.len() + w.requests.len()),
        items: Vec::with_capacity(w.requests.len()),
        counts: Counts::new(),
        pool: BatchTiming::default(),
        wall: 0,
    };
    let mut cache = open(tr)?;
    for r in &w.open {
        let (resp, _) = traced_request(
            tr,
            &r.line,
            &defaults,
            &mut cache,
            &mut s.counts,
            &mut s.pool,
        );
        s.responses.push(resp);
    }
    tr.clear();
    s.pool = BatchTiming::default();
    let t0 = Instant::now();
    for (i, r) in w.requests.iter().enumerate() {
        if i == w.requests.len() / 2 {
            tr.next_item();
            cache = tr.span("restart", |tr| {
                tr.span("disk.flush", |_| cache.flush_disk_index());
                cache_counts(&mut s.counts, &cache);
                tr.span("serve.cache_drop", |_| drop(cache));
                open(tr)
            })?;
        }
        let item = tr.next_item();
        let (resp, misses) = tr.span("request", |tr| {
            traced_request(
                tr,
                &r.line,
                &defaults,
                &mut cache,
                &mut s.counts,
                &mut s.pool,
            )
        });
        s.responses.push(resp);
        s.items.push((item, misses));
    }
    s.wall = t0.elapsed().as_nanos() as u64;
    cache.flush_disk_index();
    cache_counts(&mut s.counts, &cache);
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(s)
}

/// Self-time share of the serve layers plus the front-end inside the
/// requests that hit on every function.
fn hit_request_share(tr: &Tracer, items: &[(u64, usize)]) -> f64 {
    let hits: std::collections::BTreeSet<u64> = items
        .iter()
        .filter(|(_, m)| *m == 0)
        .map(|(i, _)| *i)
        .collect();
    let (mut serve, mut total) = (0u64, 0u64);
    for (s, t) in tr.spans().iter().zip(trace::self_times(tr.spans())) {
        if !hits.contains(&s.item) {
            continue;
        }
        total += t;
        if matches!(layer_of(s.name), "fcc-serve" | "fcc-frontend") {
            serve += t;
        }
    }
    serve as f64 / total.max(1) as f64
}

pub fn run_traced(
    seed: u64,
    seconds: f64,
    w: &Workload,
    cal: &mut Calibration,
) -> Result<Report, String> {
    let (plain, _) = untraced_sessions(w, seconds / 2.0, cal)?;
    let plain_ok = same_counts(
        &plain.iter().map(|s| &s.counts).collect::<Vec<_>>(),
        "untraced",
    );
    let served = serve_oracle(w);
    let (failed, sums) = check_responses(w, &plain[0].responses, &served);
    let plain_wall = median(&plain.iter().map(|s| s.wall as f64).collect::<Vec<_>>());

    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut traced: Vec<(TracedSession, BTreeMap<&'static str, u64>)> = Vec::new();
    let mut fidelity_ok = true;
    let mut coverage = Vec::new();
    let mut chrome = String::new();
    let mut hit_share = 0.0;
    while traced.len() < 2 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let s = traced_session(&mut tr, w, &format!("t{}", traced.len()))?;
        if traced.is_empty() {
            for (i, (a, b)) in s.responses.iter().zip(&plain[0].responses).enumerate() {
                if a != b {
                    eprintln!("fidelity: traced response {i} differs from the daemon's");
                    fidelity_ok = false;
                }
            }
            chrome = trace::chrome_json(tr.spans());
            hit_share = hit_request_share(&tr, &s.items);
        }
        coverage.push(trace::root_coverage(tr.spans()));
        let times = trace::self_time_by_name(tr.spans());
        traced.push((s, times));
        cal.sample(1);
    }
    cal.sample(calib::SAMPLES);
    let f = cal.factor();
    // Hit/miss and disk counts must match the untraced daemon's.
    let counts_match = [
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "disk.writes",
        "disk.loaded",
    ]
    .iter()
    .all(|k| traced[0].0.counts.get(k) == plain[0].counts.get(k));
    if !counts_match {
        eprintln!(
            "fidelity: traced cache counts {:?} differ from untraced {:?}",
            traced[0].0.counts, plain[0].counts
        );
    }
    let (min_cov, name, root) = trace::worst_coverage(&coverage).unwrap_or((1.0, "", 0));
    if min_cov < 0.95 {
        eprintln!(
            "coverage: named spans cover only {:.1}% of {name} #{root}",
            min_cov * 100.0
        );
    }
    let traced_ok = same_counts(
        &traced.iter().map(|t| &t.0.counts).collect::<Vec<_>>(),
        "traced",
    );

    let per_session = w.open.len() + w.requests.len();
    let attempted = ((plain.len() + traced.len()) * per_session) as u64;
    let mut r = Report::new(attempted, failed * plain.len() as u64);
    r.correct &= plain_ok && traced_ok && fidelity_ok && counts_match && min_cov >= 0.95;
    let times: Vec<&BTreeMap<&str, u64>> = traced.iter().map(|t| &t.1).collect();
    r.layer_times(&times, f);
    let c = &traced[0].0.counts;
    for name in [
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "disk.writes",
        "disk.loaded",
        "driver.fuel_steps",
    ] {
        r.metric(name, c.get(name) as f64);
    }
    r.metric("pool.utilization", traced[0].0.pool.utilization());
    let open_ms = median(&plain.iter().map(|s| s.open_ns as f64).collect::<Vec<_>>());
    r.metric("serve.open_ms", open_ms * f / 1e6);
    let mut req_ms: Vec<f64> = plain
        .iter()
        .flat_map(|s| s.ns.iter().map(|&n| n as f64 * f / 1e6))
        .collect();
    req_ms.sort_by(f64::total_cmp);
    r.tail_or_zero("req_ms_p50", &req_ms, 50.0);
    r.tail_or_zero("req_ms_p99", &req_ms, 99.0);
    let (hits, misses) = (
        plain[0].counts.get("cache.hits"),
        plain[0].counts.get("cache.misses"),
    );
    r.metric("hit_rate", useful_ratio(hits, hits + misses));
    let growths: Vec<f64> = plain.iter().map(|s| session_growth(w, &s.ns)).collect();
    r.metric("ladder_growth", median(&growths));
    r.metric("error_rate", r.failed as f64 / r.attempted.max(1) as f64);
    r.metric(
        "static_copies",
        sums.static_copies as f64 * 1e3 / sums.in_insts as f64,
    );
    r.metric(
        "dynamic_copies",
        sums.dynamic_copies as f64 * 1e3 / sums.ref_executed as f64,
    );
    let wall_traced = median(&traced.iter().map(|t| t.0.wall as f64).collect::<Vec<_>>());
    r.metric("trace.overhead_ms", (wall_traced - plain_wall) * f / 1e6);
    r.metric("trace.coverage", min_cov);
    r.fill_missing_layers();
    r.note(format!(
        "serve-edit seed {seed}: {} untraced + {} traced sessions; hit requests spend {:.1}% of \
         self time in fcc-serve + fcc-frontend",
        plain.len(),
        traced.len(),
        hit_share * 100.0
    ));
    if percentile(&req_ms, 99.0).is_none() {
        r.note(format!("req_ms_p99 withheld: {} samples", req_ms.len()));
    }
    r.note(cal.describe());
    r.layer_shares(&times);
    r.write_trace(&trace::output_path("serve-edit", seed), &chrome);
    Ok(r)
}
