//! End-to-end tests of the `fcc serve` protocol: the daemon state
//! machine driven through the exact production byte path
//! (`Daemon::handle_line` / `serve_loop`), covering the error taxonomy,
//! cache determinism, fault degradation, and eviction.

use fcc::opt::fault::{with_faults, FaultPlan};
use fcc::serve::{serve_loop, Daemon, ServeOptions, PROTOCOL_VERSION};
use fcc::workloads::{generate, GenConfig};

fn daemon() -> Daemon {
    Daemon::new(ServeOptions::default()).expect("memory-only daemon")
}

/// Parse a response line (every daemon reply must be valid JSON).
fn parse(line: &str) -> fcc::serve::json::Json {
    fcc::serve::json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn compile_line(source: &str, extra: &str) -> String {
    format!(
        "{{\"v\":1,\"verb\":\"compile\",\"source\":\"{}\"{extra}}}",
        fcc::serve::json::escape(source)
    )
}

/// A deterministic 64-function MiniLang module.
fn module_64() -> String {
    let shape = GenConfig {
        stmts: 6,
        max_depth: 2,
        ..GenConfig::default()
    };
    let mut src = String::new();
    for seed in 0..64u64 {
        let mut prog = generate(seed, &shape);
        prog.name = format!("gen{seed}");
        src.push_str(&fcc::frontend::to_source(&prog));
        src.push('\n');
    }
    src
}

#[test]
fn malformed_and_unversioned_requests_get_400_and_the_daemon_lives() {
    let mut d = daemon();
    for (line, kind) in [
        ("{nope", "malformed-json"),
        ("[1,2,3]", "bad-request"),
        (r#"{"verb":"ping"}"#, "bad-request"),
        (r#"{"v":99,"verb":"ping"}"#, "unsupported-version"),
        (r#"{"v":1,"verb":"frobnicate"}"#, "unknown-verb"),
        (r#"{"v":1,"verb":"compile"}"#, "bad-request"),
        (r#"{"v":1,"verb":"ping","bogus":1}"#, "bad-request"),
    ] {
        let (resp, stop) = d.handle_line(line);
        assert!(!stop, "{line}: protocol errors never stop the daemon");
        let doc = parse(&resp);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false), "{line}");
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some(kind), "{line}");
        assert_eq!(err.get("code").unwrap().as_u64(), Some(400), "{line}");
    }
    // The unsupported-version reply names the version this build speaks.
    let (resp, _) = d.handle_line(r#"{"v":99,"verb":"ping"}"#);
    assert!(resp.contains(&PROTOCOL_VERSION.to_string()));
    // After all that abuse, an honest request still works.
    let (resp, _) = d.handle_line(&compile_line("fn f(x) { return x; }", ""));
    assert_eq!(parse(&resp).get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn briggs_with_folding_is_a_422_typed_rejection() {
    let mut d = daemon();
    let line = compile_line(
        "fn f(x) { return x; }",
        ",\"request\":{\"pipeline\":\"briggs\"}",
    );
    let (resp, stop) = d.handle_line(&line);
    assert!(!stop);
    let doc = parse(&resp);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_u64(), Some(422));
    assert_eq!(
        err.get("kind").unwrap().as_str(),
        Some("briggs-needs-no-fold")
    );
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("--no-fold"));
    // And the corrected request compiles.
    let line = compile_line(
        "fn f(x) { return x; }",
        ",\"request\":{\"pipeline\":\"briggs\",\"fold\":false}",
    );
    let (resp, _) = d.handle_line(&line);
    assert_eq!(
        parse(&resp).get("ok").unwrap().as_bool(),
        Some(true),
        "{resp}"
    );
}

#[test]
fn resubmitting_64_functions_compiles_zero_and_replays_bytes() {
    let src = module_64();
    // Byte-identical across jobs widths AND across cold/warm cache.
    let mut responses = Vec::new();
    for jobs in [1usize, 8] {
        let mut d = daemon();
        let line = compile_line(&src, &format!(",\"request\":{{\"jobs\":{jobs}}}"));
        let (cold, _) = d.handle_line(&line);
        let (warm, _) = d.handle_line(&line);
        assert_eq!(
            cold, warm,
            "jobs={jobs}: warm replay must be byte-identical"
        );

        // The stats verb proves the second pass compiled nothing.
        let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = parse(&stats);
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(64));
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(64));

        // Per-request counters agree (opt-in response field).
        let probe = compile_line(
            &src,
            &format!(",\"request\":{{\"jobs\":{jobs}}},\"cache\":true"),
        );
        let (third, _) = d.handle_line(&probe);
        let counters = parse(&third);
        let c = counters.get("cache").unwrap();
        assert_eq!(c.get("hits").unwrap().as_u64(), Some(64));
        assert_eq!(c.get("misses").unwrap().as_u64(), Some(0));

        // Strip the jobs-specific request so widths can be compared:
        // the response text itself must not depend on jobs at all.
        let doc = parse(&cold);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get("counts").unwrap().get("ok").unwrap().as_u64(),
            Some(64)
        );
        responses.push(cold);
    }
    assert_eq!(
        responses[0], responses[1],
        "jobs=1 and jobs=8 responses must be byte-identical"
    );
}

#[test]
fn editing_one_function_recompiles_only_that_function() {
    let mut d = daemon();
    let src = module_64();
    let (_, _) = d.handle_line(&compile_line(&src, ""));
    // "Edit" one function by renaming a generated one — new canonical
    // text, same module shape.
    let edited = src.replacen("fn gen7(", "fn gen7_edited(", 1);
    let (resp, _) = d.handle_line(&compile_line(&edited, ",\"cache\":true"));
    let doc = parse(&resp);
    let cache = doc.get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(63));
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
}

#[test]
fn injected_panic_degrades_per_fail_mode_without_killing_the_daemon() {
    let plan = FaultPlan {
        panic_in: Some("coalesce-new".into()),
        ..FaultPlan::default()
    };
    let mut d = daemon();
    let src = "fn f(x) { return x + 1; }\nfn g(y) { return y * 2; }";
    let mut faulted = |line: &str| with_faults(&plan, || d.handle_line(line));

    // abort (the default): 500, daemon alive.
    let (resp, stop) = faulted(&compile_line(src, ""));
    assert!(!stop);
    let doc = parse(&resp);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_u64(), Some(500));
    assert_eq!(err.get("kind").unwrap().as_str(), Some("compile-failed"));
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("coalesce-new"));

    // skip: quarantines both, succeeds with an empty surviving module.
    let (resp, _) = faulted(&compile_line(src, ",\"request\":{\"fail_mode\":\"skip\"}"));
    let doc = parse(&resp);
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
    let counts = doc.get("counts").unwrap();
    assert_eq!(counts.get("failed").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("output").unwrap().as_str(), Some(""));

    // degrade: both functions recover on the standard rung.
    let (resp, _) = faulted(&compile_line(
        src,
        ",\"request\":{\"fail_mode\":\"degrade\"}",
    ));
    let doc = parse(&resp);
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
    let counts = doc.get("counts").unwrap();
    assert_eq!(counts.get("recovered").unwrap().as_u64(), Some(2));
    let funcs = doc.get("functions").unwrap();
    if let fcc::serve::json::Json::Arr(items) = funcs {
        for f in items {
            assert_eq!(f.get("status").unwrap().as_str(), Some("recovered"));
            assert_eq!(f.get("attempts").unwrap().as_u64(), Some(2));
        }
    } else {
        panic!("functions is not an array");
    }
    assert!(doc.get("output").unwrap().as_str().unwrap().contains("@f"));

    // The daemon survives it all and still answers.
    let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
    assert_eq!(parse(&resp).get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn a_tiny_byte_budget_forces_eviction_but_not_wrong_answers() {
    // Big enough for a handful of the 64 entries, far too small for all
    // of them — every pass must insert and evict.
    let budget = 64 << 10;
    let mut d = Daemon::new(ServeOptions {
        defaults: fcc::driver::CompileRequest::new(),
        cache_budget: budget,
        ..ServeOptions::default()
    })
    .expect("memory-only daemon");
    let src = module_64();
    let line = compile_line(&src, "");
    let (cold, _) = d.handle_line(&line);
    let (warm, _) = d.handle_line(&line);
    assert_eq!(cold, warm, "evicted entries recompile to the same bytes");
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    let cache = doc.get("cache").unwrap();
    assert!(
        cache.get("insertions").unwrap().as_u64().unwrap() > 0,
        "entries must fit the budget individually: {stats}"
    );
    assert!(
        cache.get("evictions").unwrap().as_u64().unwrap() > 0,
        "{stats}"
    );
    assert!(cache.get("bytes").unwrap().as_u64().unwrap() <= budget as u64);
}

#[test]
fn the_stats_verb_shape_is_pinned() {
    // The CI durability harness scrapes these fields; adding is fine,
    // renaming or dropping any of them is a breaking change.
    let mut d = daemon();
    d.handle_line(&compile_line("fn f(x) { return x; }", ""));
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    assert_eq!(doc.get("verb").unwrap().as_str(), Some("stats"));
    let cache = doc.get("cache").unwrap();
    for key in [
        "hits",
        "misses",
        "evictions",
        "collisions",
        "insertions",
        "entries",
        "bytes",
        "budget",
    ] {
        assert!(cache.get(key).is_some(), "cache.{key} missing: {stats}");
    }
    let disk = doc.get("disk").unwrap();
    for key in [
        "warmed",
        "quarantined",
        "writes",
        "write_errors",
        "removals",
    ] {
        assert!(disk.get(key).is_some(), "disk.{key} missing: {stats}");
    }
    assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("errors").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("shed").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("deadline_exceeded").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("in_flight").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("queued").unwrap().as_u64(), Some(0));
    assert!(doc.get("uptime_ms").is_some());
}

#[test]
fn an_expired_deadline_is_a_deterministic_504() {
    let mut d = daemon();
    let line = compile_line(
        "fn f(x) { return x + 1; }\nfn g(y) { return y; }",
        ",\"request\":{\"deadline_ms\":0}",
    );
    let (first, stop) = d.handle_line(&line);
    assert!(!stop, "a 504 never kills the daemon");
    let (second, _) = d.handle_line(&line);
    assert_eq!(first, second, "504s render the budget, never elapsed time");
    let doc = parse(&first);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_u64(), Some(504));
    assert_eq!(err.get("kind").unwrap().as_str(), Some("deadline-exceeded"));
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("budget 0ms"));
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    assert_eq!(doc.get("deadline_exceeded").unwrap().as_u64(), Some(2));
    // The same module with the deadline lifted compiles cleanly: the
    // timeouts left nothing poisoned in the cache.
    let clean = compile_line(
        "fn f(x) { return x + 1; }\nfn g(y) { return y; }",
        ",\"request\":{\"deadline_ms\":null},\"cache\":true",
    );
    let (resp, _) = d.handle_line(&clean);
    let doc = parse(&resp);
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(
        doc.get("cache").unwrap().get("misses").unwrap().as_u64(),
        Some(2),
        "deadline-failed attempts were never cached"
    );
}

#[test]
fn a_full_admission_queue_sheds_with_a_typed_503() {
    let mut d = Daemon::new(ServeOptions {
        max_queue: 0,
        ..ServeOptions::default()
    })
    .expect("memory-only daemon");
    let line = compile_line("fn f(x) { return x; }", "");
    let (first, stop) = d.handle_line(&line);
    assert!(!stop);
    let (second, _) = d.handle_line(&line);
    assert_eq!(first, second, "shedding is deterministic");
    let doc = parse(&first);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_u64(), Some(503));
    assert_eq!(err.get("kind").unwrap().as_str(), Some("overloaded"));
    assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(100));
    // ping/stats/shutdown are control plane: never shed.
    let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
    assert_eq!(parse(&resp).get("ok").unwrap().as_bool(), Some(true));
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    assert_eq!(doc.get("shed").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(0));
}

#[test]
fn oversized_lines_get_400_without_buffering_the_flood() {
    let opts = ServeOptions {
        max_line_bytes: 256,
        ..ServeOptions::default()
    };
    let giant = compile_line(
        &format!("fn f(x) {{ return x + {}; }}", "9".repeat(1 << 16)),
        "",
    );
    let ok_line = compile_line("fn f(x) { return x; }", "");
    let input = format!(
        "{giant}\n{ok_line}\n{}\n{}\n",
        r#"{"v":1,"verb":"stats"}"#, r#"{"v":1,"verb":"shutdown"}"#
    );
    let mut out = Vec::new();
    serve_loop(input.as_bytes(), &mut out, opts).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    let err = parse(lines[0]);
    let e = err.get("error").unwrap();
    assert_eq!(e.get("code").unwrap().as_u64(), Some(400));
    assert_eq!(e.get("kind").unwrap().as_str(), Some("line-too-long"));
    assert_eq!(
        parse(lines[1]).get("ok").unwrap().as_bool(),
        Some(true),
        "the daemon reads cleanly past the flood"
    );
    assert_eq!(
        parse(lines[2]).get("errors").unwrap().as_u64(),
        Some(1),
        "the oversized line is counted"
    );
}

#[test]
fn serve_loop_replays_the_kernel_suite_deterministically() {
    // The CI serve job does this through the real binary; here the same
    // double replay runs in-process over the loop transport.
    let suite: Vec<&str> = fcc::workloads::kernels().iter().map(|k| k.source).collect();
    let src = suite.join("\n\n");
    let line = compile_line(&src, "");
    let input = format!("{line}\n{line}\n{}\n", r#"{"v":1,"verb":"shutdown"}"#);
    let mut out = Vec::new();
    serve_loop(input.as_bytes(), &mut out, ServeOptions::default()).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[0], lines[1], "second pass must replay byte-for-byte");
    assert!(parse(lines[0]).get("ok").unwrap().as_bool() == Some(true));
}
