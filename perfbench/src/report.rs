//! Metric names and units, counters, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, percentile, run_percentile};

/// End-to-end metrics (untraced run), with units. Same names and units
/// as `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("insts_per_s", "inst/s"),
    ("fn_ms_p50", "ms"),
    ("fn_ms_p90", "ms"),
    ("out_insts", "insts/kinst"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units. Times are self time per
/// pass over the workload's inputs (per session on serve-edit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.ms", "ms"),
    ("ssa.build_ms", "ms"),
    ("ssa.verify_ms", "ms"),
    ("ssa.phis", "count"),
    ("analysis.liveness_ms", "ms"),
    ("analysis.pressure_ms", "ms"),
    ("analysis.domtree_ms", "ms"),
    ("analysis.release_ms", "ms"),
    ("analysis.hits", "count"),
    ("analysis.misses", "count"),
    ("analysis.hit_ratio", "ratio"),
    ("analysis.peak_mb", "MB"),
    ("opt.ms", "ms"),
    ("opt.constfold.ms", "ms"),
    ("opt.copyprop.ms", "ms"),
    ("opt.range-fold.ms", "ms"),
    ("opt.store-forward.ms", "ms"),
    ("opt.redundant-load-elim.ms", "ms"),
    ("opt.dead-store-elim.ms", "ms"),
    ("opt.dce.ms", "ms"),
    ("opt.simplify-cfg.ms", "ms"),
    ("opt.rounds", "count"),
    ("opt.pass_runs", "count"),
    ("opt.pass_changes", "count"),
    ("opt.useful_ratio", "ratio"),
    ("opt.insts_removed", "count"),
    ("coalesce.ms", "ms"),
    ("coalesce.ns_per_phi_arg", "ns"),
    ("coalesce.copies_inserted", "count"),
    ("coalesce.peak_mb", "MB"),
    ("spill.ms", "ms"),
    ("spill.spills", "count"),
    ("spill.reloads", "count"),
    ("alloc.ms", "ms"),
    ("alloc.rounds", "count"),
    ("alloc.residual_spills", "count"),
    ("audit.ms", "ms"),
    ("driver.clone_ms", "ms"),
    ("driver.fuel_steps", "count"),
    ("driver.recovered", "count"),
    ("pool.utilization", "ratio"),
    ("serve.open_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.key_ms", "ms"),
    ("serve.cache_get_ms", "ms"),
    ("serve.cache_insert_ms", "ms"),
    ("serve.compile_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("disk.writes", "count"),
    ("disk.loaded", "count"),
    ("disk.load_ms", "ms"),
    ("disk.flush_ms", "ms"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("hit_rate", "ratio"),
    ("ladder_growth", "ratio"),
    ("spill_weighted", "weight/kinst"),
    ("static_copies", "copies/kinst"),
    ("dynamic_copies", "copies/kexec"),
    ("error_rate", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// Which spans' self time makes up each per-layer time metric.
const LAYER_SPANS: &[(&str, &[&str])] = &[
    ("frontend.ms", &["frontend"]),
    ("ssa.build_ms", &["ssa.build"]),
    ("ssa.verify_ms", &["ssa.verify"]),
    ("analysis.liveness_ms", &["analysis.liveness"]),
    ("analysis.pressure_ms", &["analysis.pressure"]),
    ("analysis.domtree_ms", &["analysis.domtree"]),
    ("analysis.release_ms", &["analysis.release"]),
    // The whole optimiser: the pass manager's own work plus every pass.
    (
        "opt.ms",
        &[
            "opt",
            "opt.constfold",
            "opt.copyprop",
            "opt.range-fold",
            "opt.store-forward",
            "opt.redundant-load-elim",
            "opt.dead-store-elim",
            "opt.dce",
            "opt.simplify-cfg",
        ],
    ),
    ("opt.constfold.ms", &["opt.constfold"]),
    ("opt.copyprop.ms", &["opt.copyprop"]),
    ("opt.range-fold.ms", &["opt.range-fold"]),
    ("opt.store-forward.ms", &["opt.store-forward"]),
    ("opt.redundant-load-elim.ms", &["opt.redundant-load-elim"]),
    ("opt.dead-store-elim.ms", &["opt.dead-store-elim"]),
    ("opt.dce.ms", &["opt.dce"]),
    ("opt.simplify-cfg.ms", &["opt.simplify-cfg"]),
    ("coalesce.ms", &["coalesce", "coalesce.split"]),
    ("spill.ms", &["spill"]),
    ("alloc.ms", &["alloc"]),
    ("audit.ms", &["audit"]),
    ("driver.clone_ms", &["driver.clone"]),
    ("serve.parse_ms", &["serve.parse"]),
    ("serve.key_ms", &["serve.key"]),
    ("serve.cache_get_ms", &["serve.cache_get"]),
    ("serve.cache_insert_ms", &["serve.cache_insert"]),
    ("serve.compile_ms", &["serve.compile"]),
    ("serve.encode_ms", &["serve.encode"]),
    ("disk.load_ms", &["disk.load"]),
    ("disk.flush_ms", &["disk.flush"]),
];

/// The layer (crate) a span's self time belongs to, for the share table.
pub fn layer_of(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or("") {
        "frontend" => "fcc-frontend",
        "ssa" => "fcc-ssa",
        "analysis" => "fcc-analysis",
        "opt" => "fcc-opt",
        "coalesce" => "fcc-core",
        "spill" | "alloc" => "fcc-regalloc",
        "audit" => "fcc-pressure",
        "driver" => "fcc-driver",
        "serve" | "disk" => "fcc-serve",
        "bench" => "benchmark",
        _ => "unattributed",
    }
}

/// 64-bit FNV-1a, for output digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Named deterministic counts of one pass; two passes over the same
/// inputs must produce equal `Counts`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, i64>);

impl Counts {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_insert(0) += n as i64;
    }

    pub fn add_signed(&mut self, name: &'static str, n: i64) {
        *self.0.entry(name).or_insert(0) += n;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.get_signed(name).max(0) as u64
    }

    pub fn get_signed(&self, name: &str) -> i64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn merge(&mut self, other: &Counts) {
        for (k, v) in &other.0 {
            *self.0.entry(k).or_insert(0) += v;
        }
    }
}

/// Whether every pass (session) repeated the first one's counts.
pub fn same_counts(passes: &[&Counts], what: &str) -> bool {
    match passes.iter().position(|c| *c != passes[0]) {
        None => true,
        Some(i) => {
            eprintln!(
                "determinism: {what} pass {i} differs from pass 0: {:?} vs {:?}",
                passes[i], passes[0]
            );
            false
        }
    }
}

/// `fn_ms_p50` and `fn_ms_p90` from per-pass latencies in nanoseconds,
/// calibrated by `f`.
pub fn latency_percentiles(r: &mut Report, passes: &[&[u64]], f: f64) {
    let samples: usize = passes.iter().map(|p| p.len()).sum();
    for (name, p) in [("fn_ms_p50", 50.0), ("fn_ms_p90", 90.0)] {
        match run_percentile(passes, p) {
            Some(ns) => r.metric(name, ns * f / 1e6),
            None => r.fail(format!(
                "{name}: {samples} samples leave fewer than 10 beyond p{p}"
            )),
        }
    }
    r.note(format!(
        "fn_ms: {samples} samples in {} passes",
        passes.len()
    ));
}

/// Peak resident set size of this process so far, in megabytes: the
/// `VmHWM` line of `/proc/self/status`, or 0 where there is none. Not
/// `getrusage`, whose `ru_maxrss` keeps the high-water mark of the
/// process image before `exec` — under `cargo run`, cargo's own ~25 MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's result: whether it was correct, the operations attempted
/// and failed, and the metrics.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

fn unit_of(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric. Unknown names and non-finite values are bugs in
    /// the benchmark and fail the run.
    pub fn metric(&mut self, name: &str, value: f64) {
        let Some((name, _)) = unit_of(name) else {
            self.fail(format!("internal: unknown metric {name}"));
            return;
        };
        if !value.is_finite() {
            self.fail(format!("{name} is not finite ({value})"));
            return;
        }
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// A per-layer percentile: 0 where the workload has too few samples.
    pub fn tail_or_zero(&mut self, name: &str, sorted: &[f64], p: f64) {
        self.metric(name, percentile(sorted, p).unwrap_or(0.0));
        self.note(format!("{name}: {} samples", sorted.len()));
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("error: {why}");
        self.correct = false;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Per-layer time metrics: each pass's self time summed over the
    /// metric's spans, median over passes, in milliseconds scaled by the
    /// calibration factor `f`.
    pub fn layer_times(&mut self, passes: &[&BTreeMap<&'static str, u64>], f: f64) {
        for (metric, spans) in LAYER_SPANS {
            let per_pass: Vec<f64> = passes
                .iter()
                .map(|t| {
                    spans
                        .iter()
                        .map(|s| t.get(s).copied().unwrap_or(0))
                        .sum::<u64>() as f64
                })
                .collect();
            self.metric(metric, median(&per_pass) * f / 1e6);
        }
    }

    /// Per-layer metrics the workload never touches read 0.
    pub fn fill_missing_layers(&mut self) {
        for (name, _) in PER_LAYER {
            if !self.metrics.iter().any(|(n, _)| n == name) {
                self.metrics.push((name, 0.0));
            }
        }
    }

    /// Note each layer's share of all self time in the first pass.
    pub fn layer_shares(&mut self, passes: &[&BTreeMap<&'static str, u64>]) {
        let Some(first) = passes.first() else { return };
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (span, t) in first.iter() {
            *by_layer.entry(layer_of(span)).or_insert(0) += t;
        }
        let total: u64 = by_layer.values().sum();
        let mut line = String::from("self-time shares:");
        for (layer, t) in &by_layer {
            let _ = write!(
                line,
                " {layer} {:.1}%",
                *t as f64 * 100.0 / total.max(1) as f64
            );
        }
        self.note(line);
    }

    /// Write the Chrome trace; a failed write is reported, not fatal.
    pub fn write_trace(&mut self, path: &std::path::Path, json: &str) {
        let res = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, json));
        match res {
            Ok(()) => self.note(format!("trace written to {}", path.display())),
            Err(e) => self.note(format!("could not write {}: {e}", path.display())),
        }
    }

    /// Check the metric set is exactly the expected one, print the notes
    /// and a readable table on stderr, and return the result line.
    pub fn finish(mut self, traced: bool) -> (bool, String) {
        let expected = if traced { PER_LAYER } else { END_TO_END };
        for (name, _) in expected {
            if !self.metrics.iter().any(|(n, _)| n == name) {
                self.fail(format!("metric {name} was not measured"));
            }
        }
        self.metrics
            .retain(|(n, _)| expected.iter().any(|(e, _)| e == n));
        for note in &self.notes {
            eprintln!("{note}");
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in expected.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |m| m.1);
            eprintln!("  {name:<28} {value:>16.6} {unit}");
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        (self.correct, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = doc.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn every_layer_time_metric_is_listed() {
        for (metric, _) in LAYER_SPANS {
            assert!(unit_of(metric).is_some(), "{metric}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_expected_metrics() {
        let mut r = Report::new(3, 0);
        for (name, _) in END_TO_END {
            r.metric(name, 1.5);
        }
        r.metric("opt.ms", 2.0);
        let (ok, line) = r.finish(false);
        assert!(ok);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert!(!line.contains("opt.ms"));
    }

    #[test]
    fn a_missing_or_non_finite_metric_fails_the_run() {
        let mut r = Report::new(1, 0);
        r.metric("setup_s", f64::NAN);
        assert!(!r.correct);
        let (ok, _) = Report::new(1, 0).finish(false);
        assert!(!ok);
    }

    #[test]
    fn counts_compare_by_value() {
        let mut a = Counts::new();
        a.add("x", 2);
        let mut b = Counts::new();
        b.add("x", 1);
        b.add("x", 1);
        assert_eq!(a, b);
        b.add_signed("x", -1);
        assert_ne!(a, b);
        assert_eq!(b.get("x"), 1);
    }
}
