//! The long-running compile service behind `fcc serve`.
//!
//! [`Daemon`] owns the state a service accumulates across requests: the
//! daemon-default [`CompileRequest`] (what `fcc serve --opt --jobs 8`
//! sets; per-request `request` objects override field-by-field), the
//! content-addressed [`FnCache`] — optionally mirrored to a crash-safe
//! on-disk store (`--cache-dir`) — and the shared [`Gate`] that admits
//! compile requests and accumulates the service counters. One request
//! line maps to one response line and never panics the process:
//! per-function faults are contained by the driver's ladder, wall-clock
//! overruns surface as typed 504s, a full admission queue sheds with a
//! typed 503, and every protocol-level failure renders as an error
//! response.
//!
//! [`serve_loop`] is the stdio transport: any `BufRead`/`Write` pair,
//! which is stdin/stdout under `fcc serve` and an in-memory buffer in
//! the tests and the load generator — the protocol tests exercise the
//! *exact* production byte path without spawning a process. Lines are
//! read through a byte-capped reader ([`read_capped_line`]): a line
//! that exceeds the cap is answered with `400 line-too-long` and
//! discarded without ever being buffered whole, so a hostile or broken
//! client cannot balloon the daemon's memory. The socket transport
//! ([`crate::socket`]) shares every piece of this machinery, which is
//! what makes socket and stdio responses byte-identical.

use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fcc_driver::{BatchOutcome, CompileRequest, FailMode};
use fcc_ir::Module;

use crate::cache::{compile_module_cached, FnCache};
use crate::disk::DiskCache;
use crate::fsio::DiskFault;
use crate::json::Json;
use crate::protocol::{
    error_response, parse_request, CompileBody, Lang, Request, ResponseBuilder, ServeError, Verb,
};

/// How a daemon starts: the default request, the cache budget, and the
/// transport limits.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Defaults applied to every compile (overridable per request).
    pub defaults: CompileRequest,
    /// Function-cache byte budget (bounds disk occupancy too).
    pub cache_budget: usize,
    /// Directory for the persistent cache; `None` keeps it memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// A fault every read and write of the persistent cache suffers
    /// (testing; `fcc serve --inject-disk-fault`).
    pub disk_fault: Option<DiskFault>,
    /// Compile requests admitted concurrently before shedding with 503.
    /// `0` sheds every compile (useful for drain/tests); stdio's
    /// sequential loop never queues, so any value ≥ 1 never sheds there.
    pub max_queue: usize,
    /// Request-line byte cap; longer lines answer `400 line-too-long`.
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            defaults: CompileRequest::new(),
            cache_budget: 256 << 20,
            cache_dir: None,
            disk_fault: None,
            max_queue: 64,
            max_line_bytes: 16 << 20,
        }
    }
}

/// Admission control and service counters, shared between the daemon
/// and its transports so connection threads can shed load and count
/// errors without taking the daemon lock.
pub struct Gate {
    capacity: usize,
    started: Instant,
    in_service: AtomicUsize,
    shed: AtomicU64,
    compiles: AtomicU64,
    errors: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl Gate {
    fn new(capacity: usize) -> Arc<Gate> {
        Arc::new(Gate {
            capacity,
            started: Instant::now(),
            in_service: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
        })
    }

    /// Try to admit one compile request. `Err` is the shed path: the
    /// queue is at capacity, and the value is the `retry_after_ms` hint
    /// (proportional to the queue depth, so a fixed request sequence
    /// produces a fixed hint). `Ok` is a ticket whose drop releases the
    /// slot — hold it until the response is written.
    pub fn try_admit(self: &Arc<Gate>) -> Result<Ticket, u64> {
        loop {
            let cur = self.in_service.load(Ordering::SeqCst);
            if cur >= self.capacity {
                self.shed.fetch_add(1, Ordering::SeqCst);
                return Err(100 * (cur as u64 + 1));
            }
            if self
                .in_service
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(Ticket(Arc::clone(self)));
            }
        }
    }

    /// Compile requests admitted and answered (including failures).
    fn count_compile(&self) {
        self.compiles.fetch_add(1, Ordering::SeqCst);
    }

    /// Error responses sent (400/422/500/504 — shed 503s count in
    /// `shed`, not here).
    pub fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::SeqCst);
    }

    fn count_deadline(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
    }

    /// Admitted compile requests not yet answered.
    pub fn in_service(&self) -> usize {
        self.in_service.load(Ordering::SeqCst)
    }
}

/// An admission slot; dropping it releases the slot.
pub struct Ticket(Arc<Gate>);

impl Drop for Ticket {
    fn drop(&mut self) {
        self.0.in_service.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The compile service's state machine: one instance per process. The
/// stdio transport drives it sequentially; the socket transport behind
/// a mutex — either way requests are serviced one at a time, which is
/// what keeps the response stream a pure function of the request
/// stream.
pub struct Daemon {
    defaults: CompileRequest,
    cache: FnCache,
    gate: Arc<Gate>,
    max_line_bytes: usize,
}

impl Daemon {
    /// A fresh daemon. With `opts.cache_dir` set this opens the
    /// persistent store and warms the cache from it (quarantining any
    /// corrupt entries); the only error path is failing to create the
    /// store's directories.
    pub fn new(opts: ServeOptions) -> io::Result<Self> {
        let mut cache = FnCache::with_budget(opts.cache_budget);
        if let Some(dir) = &opts.cache_dir {
            cache.attach_store(DiskCache::open(dir, opts.disk_fault)?);
        }
        Ok(Daemon {
            defaults: opts.defaults,
            cache,
            gate: Gate::new(opts.max_queue),
            max_line_bytes: opts.max_line_bytes,
        })
    }

    /// The function cache (the load generator reads its counters).
    pub fn cache(&self) -> &FnCache {
        &self.cache
    }

    /// The shared admission gate (transports admit before locking).
    pub fn gate(&self) -> Arc<Gate> {
        Arc::clone(&self.gate)
    }

    /// The daemon defaults (transports parse without the lock).
    pub fn defaults(&self) -> &CompileRequest {
        &self.defaults
    }

    /// The transport's request-line byte cap.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// Graceful-exit hook: flush the advisory LRU index so the next
    /// start warms in recency order. Skipped by a crash — by design the
    /// store needs nothing from this to stay correct.
    pub fn finish(&mut self) {
        self.cache.flush_disk_index();
    }

    /// Answer one request line with one response line; the flag asks the
    /// caller to stop reading (a `shutdown` verb was acknowledged).
    /// Admission is checked here for the sequential stdio path; the
    /// socket transport admits per-connection *before* taking the
    /// daemon lock and calls [`Daemon::handle_request`] directly.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        let request = match parse_request(line, &self.defaults) {
            Ok(r) => r,
            Err(e) => {
                self.gate.count_error();
                // A malformed line has no trustworthy id to echo.
                let id = json_id_of(line).unwrap_or(Json::Null);
                return (error_response(&id, &e), false);
            }
        };
        if request.verb == Verb::Compile {
            return match self.gate.try_admit() {
                Ok(_ticket) => self.handle_request(request),
                Err(retry_after_ms) => (
                    error_response(&request.id, &ServeError::overloaded(retry_after_ms)),
                    false,
                ),
            };
        }
        self.handle_request(request)
    }

    /// Dispatch an already-parsed (and, for compiles, already-admitted)
    /// request.
    pub fn handle_request(&mut self, request: Request) -> (String, bool) {
        let Request { id, verb, compile } = request;
        match verb {
            Verb::Ping => (
                ResponseBuilder::new(&id, true).str("verb", "ping").finish(),
                false,
            ),
            Verb::Shutdown => (
                ResponseBuilder::new(&id, true)
                    .str("verb", "shutdown")
                    .finish(),
                true,
            ),
            Verb::Stats => (self.stats_response(&id), false),
            Verb::Compile => {
                let body = compile.expect("parse_request pairs Compile with a body");
                match self.handle_compile(&id, &body) {
                    Ok(resp) => (resp, false),
                    Err(e) => {
                        self.gate.count_error();
                        (error_response(&id, &e), false)
                    }
                }
            }
        }
    }

    fn handle_compile(&mut self, id: &Json, body: &CompileBody) -> Result<String, ServeError> {
        let module = parse_source(&body.source, body.lang)?;
        self.gate.count_compile();
        let cached = compile_module_cached(module, &body.req, &mut self.cache);
        let (hits, misses) = (cached.hits, cached.misses);
        let batch = BatchOutcome {
            functions: cached.functions,
            timing: cached.timing,
        };

        // A blown wall-clock budget fails the whole request with a 504
        // — checked before fail-mode mapping so a deadline is never
        // misreported as a 500. The message renders the first affected
        // function (module order) and the *configured* budget, so the
        // response text is stable under replay.
        if let Some(f) = batch.functions.iter().find(|f| f.hit_deadline()) {
            self.gate.count_deadline();
            let e = f
                .attempts
                .iter()
                .find(|a| a.error.is_deadline())
                .expect("hit_deadline implies a deadline attempt");
            return Err(ServeError::deadline_exceeded(format!(
                "@{}: {}",
                f.name, e.error
            )));
        }

        if body.req.fail_mode == FailMode::Abort {
            if let Some((name, e)) = batch.first_error() {
                return Err(ServeError::compile_failed(format!("@{name}: {e}")));
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
                crate::json::escape(&f.name),
                f.status.label()
            ));
        }
        functions.push(']');
        let counts = format!("{{\"ok\":{ok},\"recovered\":{recovered},\"failed\":{failed}}}");

        // Everything appended up to here is replay-stable: statuses,
        // counts, and output depend only on the request sequence, never
        // on wall time or scheduling. The opt-in sections below are not.
        let mut resp = ResponseBuilder::new(id, true)
            .str("verb", "compile")
            .raw("functions", &functions)
            .raw("counts", &counts);

        let report = body.want_report.then(|| match body.req.format {
            fcc_driver::ReportFormat::Text => batch.outcome_table_text(),
            fcc_driver::ReportFormat::Json => batch.outcome_table_json(body.req.fail_mode),
        });
        let wall_ms = batch.timing.wall.as_secs_f64() * 1e3;
        let output = batch.into_surviving_module().to_string();
        resp = resp.str("output", &output);
        if let Some(report) = report {
            resp = resp.str("report", &report);
        }
        if body.want_cache {
            resp = resp.raw("cache", &format!("{{\"hits\":{hits},\"misses\":{misses}}}"));
        }
        if body.want_timing {
            resp = resp.raw("timing", &format!("{{\"wall_ms\":{wall_ms:.3}}}"));
        }
        Ok(resp.finish())
    }

    fn stats_response(&self, id: &Json) -> String {
        let s = self.cache.stats();
        let cache = format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"collisions\":{},\"insertions\":{},\"entries\":{},\"bytes\":{},\"budget\":{}}}",
            s.hits,
            s.misses,
            s.evictions,
            s.collisions,
            s.insertions,
            self.cache.len(),
            self.cache.held_bytes(),
            self.cache.budget()
        );
        let d = self.cache.disk_stats();
        let disk = format!(
            "{{\"warmed\":{},\"quarantined\":{},\"writes\":{},\"write_errors\":{},\"removals\":{}}}",
            d.warmed, d.quarantined, d.writes, d.write_errors, d.removals
        );
        let g = &self.gate;
        let in_flight = g.in_service();
        ResponseBuilder::new(id, true)
            .str("verb", "stats")
            .raw("cache", &cache)
            .raw("disk", &disk)
            .num("compiles", g.compiles.load(Ordering::SeqCst))
            .num("errors", g.errors.load(Ordering::SeqCst))
            .num("shed", g.shed.load(Ordering::SeqCst))
            .num(
                "deadline_exceeded",
                g.deadline_exceeded.load(Ordering::SeqCst),
            )
            .num("in_flight", in_flight as u64)
            .num("queued", in_flight.saturating_sub(1) as u64)
            .num("uptime_ms", g.started.elapsed().as_millis() as u64)
            .finish()
    }
}

/// Parse the module text per its declared language.
fn parse_source(source: &str, lang: Lang) -> Result<Module, ServeError> {
    match lang {
        Lang::MiniLang => fcc_frontend::compile_module(source).map_err(ServeError::parse_error),
        Lang::Ir => {
            fcc_ir::parse::parse_module(source).map_err(|e| ServeError::parse_error(e.to_string()))
        }
    }
}

/// Best-effort id recovery from a line that failed request validation
/// (but did parse as a JSON object).
pub(crate) fn json_id_of(line: &str) -> Option<Json> {
    crate::json::parse(line).ok()?.get("id").cloned()
}

/// One read from the byte-capped line reader.
pub(crate) enum ReadLine {
    /// End of stream (no partial line pending).
    Eof,
    /// A complete line within the cap (lossily decoded; invalid UTF-8
    /// simply fails JSON parsing downstream).
    Line(String),
    /// The line exceeded the cap. Its bytes were discarded up to and
    /// including the newline (or EOF), so the next read starts clean.
    TooLong,
}

/// Read one newline-terminated line holding at most `cap` bytes in
/// memory. Unlike `BufRead::lines`, an oversized line is *streamed to
/// the bin* — the daemon answers `400 line-too-long` having buffered no
/// more than `cap` bytes of it.
pub(crate) fn read_capped_line(reader: &mut impl BufRead, cap: usize) -> io::Result<ReadLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let (used, result) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                let result = if overflow {
                    Some(ReadLine::TooLong)
                } else if buf.is_empty() {
                    Some(ReadLine::Eof)
                } else {
                    // A final unterminated line still gets an answer.
                    Some(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()))
                };
                (0, result)
            } else if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                if !overflow {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                let result = if overflow || buf.len() > cap {
                    Some(ReadLine::TooLong)
                } else {
                    Some(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()))
                };
                (pos + 1, result)
            } else {
                if !overflow {
                    buf.extend_from_slice(chunk);
                    if buf.len() > cap {
                        overflow = true;
                        buf = Vec::new(); // stop holding the flood
                    }
                }
                (chunk.len(), None)
            }
        };
        reader.consume(used);
        if let Some(r) = result {
            return Ok(r);
        }
    }
}

/// Run the daemon over a transport until EOF or a `shutdown` verb.
/// Blank lines are ignored; every other line gets exactly one response
/// line, flushed immediately (clients block on the reply). Both exits
/// are graceful: in-flight work finishes (the loop is sequential) and
/// the persistent cache's advisory index is flushed.
pub fn serve_loop(
    mut reader: impl BufRead,
    mut writer: impl Write,
    opts: ServeOptions,
) -> io::Result<()> {
    let mut daemon = Daemon::new(opts)?;
    let cap = daemon.max_line_bytes();
    loop {
        let (response, shutdown) = match read_capped_line(&mut reader, cap)? {
            ReadLine::Eof => break,
            ReadLine::TooLong => {
                daemon.gate().count_error();
                (
                    error_response(&Json::Null, &ServeError::line_too_long(cap)),
                    false,
                )
            }
            ReadLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                daemon.handle_line(&line)
            }
        };
        writeln!(writer, "{response}")?;
        writer.flush()?;
        if shutdown {
            break;
        }
    }
    daemon.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn daemon() -> Daemon {
        Daemon::new(ServeOptions::default()).unwrap()
    }

    fn compile_line(source: &str) -> String {
        format!(
            "{{\"v\":1,\"id\":1,\"verb\":\"compile\",\"source\":\"{}\"}}",
            json::escape(source)
        )
    }

    #[test]
    fn compile_ping_stats_shutdown_round_trip() {
        let mut d = daemon();
        let (resp, stop) = d.handle_line(&compile_line("fn f(x) { return x + 1; }"));
        assert!(!stop);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        let counts = doc.get("counts").unwrap();
        assert_eq!(counts.get("ok").unwrap().as_u64(), Some(1));
        assert!(doc
            .get("output")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("function @f"));
        assert!(doc.get("cache").is_none(), "cache counters are opt-in");
        assert!(doc.get("timing").is_none(), "timing is opt-in");

        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
        assert!(resp.contains("\"ok\":true"));

        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = json::parse(&resp).unwrap();
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(1));

        let (resp, stop) = d.handle_line(r#"{"v":1,"id":"bye","verb":"shutdown"}"#);
        assert!(stop);
        assert!(resp.contains("\"id\":\"bye\""));
    }

    #[test]
    fn warm_responses_are_byte_identical_to_cold() {
        let mut d = daemon();
        let line = compile_line("fn f(x) { return x + 1; }\nfn g(y) { return y * 2; }");
        let (cold, _) = d.handle_line(&line);
        let (warm, _) = d.handle_line(&line);
        assert_eq!(cold, warm);
        let s = d.cache().stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn abort_mode_maps_failures_to_500() {
        let mut d = daemon();
        let line = format!(
            "{{\"v\":1,\"verb\":\"compile\",\"source\":\"{}\",\"request\":{{\"fuel\":1}}}}",
            json::escape("fn f(x) { return x + 1; }")
        );
        let (resp, stop) = d.handle_line(&line);
        assert!(!stop, "a failed compile does not kill the daemon");
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(500));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("compile-failed"));
    }

    #[test]
    fn parse_errors_are_422_and_echo_the_id() {
        let mut d = daemon();
        let (resp, _) = d.handle_line(r#"{"v":1,"id":9,"verb":"compile","source":"fn oops"}"#);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(9));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(422));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("parse-error"));
    }

    #[test]
    fn serve_loop_speaks_jsonl_end_to_end() {
        let input = format!(
            "{}\n\n{}\n{}\n",
            compile_line("fn f(x) { return x; }"),
            r#"{"v":1,"verb":"stats"}"#,
            r#"{"v":1,"verb":"shutdown"}"#
        );
        let mut out = Vec::new();
        serve_loop(input.as_bytes(), &mut out, ServeOptions::default()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "blank line ignored, three replies");
        assert!(lines.iter().all(|l| json::parse(l).is_ok()));
    }

    #[test]
    fn ir_lang_parses_the_textual_format() {
        let mut d = daemon();
        let func = fcc_frontend::compile("fn f(x) { return x + 1; }").unwrap();
        let line = format!(
            "{{\"v\":1,\"verb\":\"compile\",\"lang\":\"ir\",\"source\":\"{}\"}}",
            json::escape(&func.to_string())
        );
        let (resp, _) = d.handle_line(&line);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true), "{resp}");
    }

    #[test]
    fn an_oversized_line_is_400_and_the_daemon_lives_on() {
        let opts = ServeOptions {
            max_line_bytes: 128,
            ..ServeOptions::default()
        };
        let long = compile_line(&format!("fn f(x) {{ return x + {}; }}", "1".repeat(4096)));
        assert!(long.len() > 128);
        let input = format!(
            "{long}\n{}\n{}\n",
            compile_line("fn g(x) { return x; }"),
            r#"{"v":1,"verb":"stats"}"#
        );
        let mut out = Vec::new();
        serve_loop(input.as_bytes(), &mut out, opts).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = json::parse(lines[0]).unwrap();
        let err = first.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(400));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("line-too-long"));
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("ok").unwrap().as_bool(),
            Some(true),
            "the next request compiles normally"
        );
        let stats = json::parse(lines[2]).unwrap();
        assert_eq!(stats.get("errors").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn a_zero_queue_sheds_every_compile_deterministically() {
        let opts = ServeOptions {
            max_queue: 0,
            ..ServeOptions::default()
        };
        let mut d = Daemon::new(opts).unwrap();
        let line = compile_line("fn f(x) { return x; }");
        let (first, _) = d.handle_line(&line);
        let (second, _) = d.handle_line(&line);
        assert_eq!(first, second, "shedding is replay-stable");
        let doc = json::parse(&first).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(503));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(100));
        // Control verbs are never shed.
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
        assert!(resp.contains("\"ok\":true"));
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("shed").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn a_blown_deadline_is_a_504_and_counted() {
        let mut d = daemon();
        let line = format!(
            "{{\"v\":1,\"id\":4,\"verb\":\"compile\",\"source\":\"{}\",\"request\":{{\"deadline_ms\":0}}}}",
            json::escape("fn f(x) { return x + 1; }\nfn g(y) { return y; }")
        );
        let (first, stop) = d.handle_line(&line);
        assert!(!stop, "a deadline does not kill the daemon");
        let (second, _) = d.handle_line(&line);
        assert_eq!(
            first, second,
            "the 504 names the configured budget, never elapsed time"
        );
        let doc = json::parse(&first).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(504));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("deadline-exceeded"));
        let msg = err.get("message").unwrap().as_str().unwrap();
        assert!(msg.contains("@f") && msg.contains("budget 0ms"), "{msg}");
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("deadline_exceeded").unwrap().as_u64(), Some(2));
        assert_eq!(
            doc.get("cache")
                .unwrap()
                .get("insertions")
                .unwrap()
                .as_u64(),
            Some(0),
            "deadline results are never cached"
        );
    }

    #[test]
    fn stats_carries_the_full_service_shape() {
        let mut d = daemon();
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = json::parse(&resp).unwrap();
        for key in [
            "cache",
            "disk",
            "compiles",
            "errors",
            "shed",
            "deadline_exceeded",
            "in_flight",
            "queued",
            "uptime_ms",
        ] {
            assert!(doc.get(key).is_some(), "stats is missing {key:?}");
        }
        let disk = doc.get("disk").unwrap();
        for key in [
            "warmed",
            "quarantined",
            "writes",
            "write_errors",
            "removals",
        ] {
            assert_eq!(disk.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
    }

    #[test]
    fn the_capped_reader_recovers_cleanly_after_an_overflow() {
        let mut input = Vec::new();
        input.extend_from_slice(&vec![b'x'; 1000]);
        input.push(b'\n');
        input.extend_from_slice(b"short\n");
        input.extend_from_slice(b"tail-no-newline");
        let mut r = io::BufReader::with_capacity(16, &input[..]);
        assert!(matches!(
            read_capped_line(&mut r, 64).unwrap(),
            ReadLine::TooLong
        ));
        match read_capped_line(&mut r, 64).unwrap() {
            ReadLine::Line(l) => assert_eq!(l, "short"),
            _ => panic!("expected the post-overflow line"),
        }
        match read_capped_line(&mut r, 64).unwrap() {
            ReadLine::Line(l) => assert_eq!(l, "tail-no-newline"),
            _ => panic!("unterminated final line still answers"),
        }
        assert!(matches!(
            read_capped_line(&mut r, 64).unwrap(),
            ReadLine::Eof
        ));
    }
}
