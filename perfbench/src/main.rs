//! fcc's benchmark: four seeded workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels|ladder|spill|serve-edit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A readable table and the sample counts go to standard
//! error. The exit code is non-zero on any failed compile, oracle
//! mismatch, non-`ok` response or non-repeating count. See
//! `perfbench/README.md` for what each workload and metric is.

mod calib;
mod compile;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// An untraced run repeats set-up until it has spent this long, at least
/// [`SETUP_MIN_REPEATS`] times; `setup_s` is the median.
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_MIN_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run `setup` once, or (`repeat`) until [`SETUP_BUDGET_S`] is spent
/// and at least [`SETUP_MIN_REPEATS`] times; return the last result and
/// the median time.
fn timed_setup<T>(
    repeat: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let w = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        if !repeat || (times.len() >= SETUP_MIN_REPEATS && spent >= SETUP_BUDGET_S) {
            return Ok((w, stats::median(&times)));
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let repeat = !args.trace;
    let mut cal = calib::Calibration::default();
    cal.sample(calib::SAMPLES);
    let kind = match args.workload.as_str() {
        "kernels" => compile::Kind::Kernels,
        "ladder" => compile::Kind::Ladder,
        "spill" => compile::Kind::Spill,
        "serve-edit" => {
            let (w, setup_s) = timed_setup(repeat, || serve::setup(args.seed))?;
            return if args.trace {
                serve::run_traced(args.seed, args.seconds, &w, &mut cal)
            } else {
                serve::run(args.seed, args.seconds, setup_s, &w, &mut cal)
            };
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let (w, setup_s) = timed_setup(repeat, || compile::setup(kind, args.seed))?;
    Ok(if args.trace {
        compile::run_traced(kind, args.seed, args.seconds, &w, &mut cal)
    } else {
        compile::run(kind, args.seed, args.seconds, setup_s, &w, &mut cal)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (correct, line) = report.finish(args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
