//! The durability matrix for `fcc serve`: crash-safe persistence,
//! disk-fault injection, restart recovery, and transport equivalence.
//!
//! The invariant under test is the strongest one the service makes:
//! **the response stream is a pure function of the request stream** —
//! at any `--jobs` width, with a cold cache, a memory-warm cache, or a
//! disk-warm cache after a crash, under every injected disk fault, over
//! stdio or a Unix socket. Faults may cost cache hits (entries
//! quarantined, writes skipped); they may never change a byte of a
//! response.
//!
//! A disk fault belongs to one daemon's store (`ServeOptions::disk_fault`),
//! so the tests run concurrently without coordinating.

use fcc::serve::{serve_loop, serve_socket, Daemon, DiskFault, ServeOptions};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fcc-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn parse(line: &str) -> fcc::serve::json::Json {
    fcc::serve::json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

/// A deterministic 12-function module: big enough to exercise the pool
/// at jobs=8, small enough to keep the matrix fast.
fn module_src() -> String {
    let mut src = String::new();
    for i in 0..12 {
        src.push_str(&format!(
            "fn f{i}(n) {{ let s = {i}; for j = 0 to n {{ s = s + j * {}; }} return s; }}\n",
            i + 1
        ));
    }
    src
}

fn compile_line(source: &str, jobs: usize) -> String {
    format!(
        "{{\"v\":1,\"id\":1,\"verb\":\"compile\",\"source\":\"{}\",\"request\":{{\"jobs\":{jobs}}}}}",
        fcc::serve::json::escape(source)
    )
}

fn opts_with_dir(dir: &Path, disk_fault: Option<DiskFault>) -> ServeOptions {
    ServeOptions {
        cache_dir: Some(dir.to_path_buf()),
        disk_fault,
        ..ServeOptions::default()
    }
}

/// Drive one daemon through (cold, warm) compiles of the module at
/// `jobs`, returning the two response lines.
fn cold_warm(opts: ServeOptions, jobs: usize) -> (String, String) {
    let mut d = Daemon::new(opts).expect("daemon open");
    let line = compile_line(&module_src(), jobs);
    let (cold, _) = d.handle_line(&line);
    let (warm, _) = d.handle_line(&line);
    d.finish();
    (cold, warm)
}

#[test]
fn every_fault_cell_replays_byte_identical_responses() {
    // The reference bytes come from a memory-only daemon: what the
    // service says when no disk exists at all.
    let (reference, reference_warm) = cold_warm(ServeOptions::default(), 1);
    assert_eq!(reference, reference_warm);

    let mut faults: Vec<Option<DiskFault>> = vec![None];
    faults.extend(DiskFault::ALL.into_iter().map(Some));
    for fault in faults {
        for jobs in [1usize, 8] {
            let dir = tmpdir(&format!(
                "matrix-{}-{jobs}",
                fault.map(DiskFault::label).unwrap_or("clean")
            ));
            // Cold then warm under the fault.
            let (cold, warm) = cold_warm(opts_with_dir(&dir, fault), jobs);
            assert_eq!(
                cold, reference,
                "fault={fault:?} jobs={jobs}: cold response drifted"
            );
            assert_eq!(
                warm, reference,
                "fault={fault:?} jobs={jobs}: warm response drifted"
            );
            // Restart against whatever the fault left on disk. The new
            // daemon must answer identically — serving from disk when
            // entries validate, recompiling when they were quarantined
            // or never written.
            let (revived, revived_warm) = cold_warm(opts_with_dir(&dir, fault), jobs);
            assert_eq!(
                revived, reference,
                "fault={fault:?} jobs={jobs}: post-restart response drifted"
            );
            assert_eq!(revived_warm, reference);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_torn_write_crash_is_quarantined_on_restart_and_recompiled() {
    let dir = tmpdir("torn-restart");
    {
        // Every store "crashes" mid-write: files are renamed into place
        // with half their payload missing — the worst case atomic
        // rename cannot prevent.
        let (cold, warm) = cold_warm(opts_with_dir(&dir, Some(DiskFault::TornWrite)), 1);
        assert_eq!(cold, warm);
    }
    {
        let mut d = Daemon::new(opts_with_dir(&dir, None)).expect("restart");
        let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = parse(&stats);
        let disk = doc.get("disk").unwrap();
        assert_eq!(
            disk.get("quarantined").unwrap().as_u64(),
            Some(12),
            "every torn entry was detected and quarantined: {stats}"
        );
        assert_eq!(disk.get("warmed").unwrap().as_u64(), Some(0));
        // The quarantine sidecar holds the evidence.
        let quarantined = std::fs::read_dir(dir.join("quarantine"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".fnc"))
            .count();
        assert_eq!(quarantined, 12);
        // And the module recompiles to the same bytes as a clean run.
        let line = compile_line(&module_src(), 1);
        let (resp, _) = d.handle_line(&line);
        let clean = Daemon::new(ServeOptions::default())
            .unwrap()
            .handle_line(&line)
            .0;
        assert_eq!(resp, clean);
        d.finish();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_clean_restart_warms_entirely_from_disk() {
    let dir = tmpdir("warm-restart");
    {
        let (cold, warm) = cold_warm(opts_with_dir(&dir, None), 1);
        assert_eq!(cold, warm);
    }
    // "Restart": a fresh daemon over the same directory. The resubmit
    // must be answered entirely from the warmed cache.
    let mut d = Daemon::new(opts_with_dir(&dir, None)).expect("restart");
    let line = compile_line(&module_src(), 1);
    let (resp, _) = d.handle_line(&line);
    let clean = Daemon::new(ServeOptions::default())
        .unwrap()
        .handle_line(&line)
        .0;
    assert_eq!(resp, clean, "disk-warm bytes match memory-only bytes");
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    let disk = doc.get("disk").unwrap();
    assert_eq!(disk.get("warmed").unwrap().as_u64(), Some(12));
    assert_eq!(disk.get("quarantined").unwrap().as_u64(), Some(0));
    let cache = doc.get("cache").unwrap();
    let hits = cache.get("hits").unwrap().as_u64().unwrap();
    let misses = cache.get("misses").unwrap().as_u64().unwrap();
    assert_eq!(
        (hits, misses),
        (12, 0),
        "a clean warm start answers 100% (≥90% required) from disk: {stats}"
    );
    d.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_degrades_to_memory_only_without_wrong_answers() {
    let dir = tmpdir("enospc");
    let mut d = Daemon::new(opts_with_dir(&dir, Some(DiskFault::Enospc)))
        .expect("open survives a full disk");
    let line = compile_line(&module_src(), 1);
    let (cold, _) = d.handle_line(&line);
    let (warm, _) = d.handle_line(&line);
    assert_eq!(cold, warm, "memory hits still replay");
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    let disk = doc.get("disk").unwrap();
    assert_eq!(disk.get("writes").unwrap().as_u64(), Some(0));
    assert_eq!(disk.get("write_errors").unwrap().as_u64(), Some(12));
    d.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn socket_and_stdio_transports_answer_byte_identically() {
    let src = module_src();
    let requests = [
        compile_line(&src, 1),
        r#"{"v":1,"id":2,"verb":"ping"}"#.to_string(),
        compile_line(&src, 8),
        r#"{"v":1,"id":"bye","verb":"shutdown"}"#.to_string(),
    ];

    // stdio: the serve loop over in-memory buffers.
    let input = requests.join("\n") + "\n";
    let mut out = Vec::new();
    serve_loop(input.as_bytes(), &mut out, ServeOptions::default()).unwrap();
    let stdio: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();

    // socket: the same sequence over a real Unix stream.
    let path = std::env::temp_dir().join(format!("fcc-durable-{}.sock", std::process::id()));
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve_socket(&path, ServeOptions::default()))
    };
    let stream = {
        let mut tries = 0;
        loop {
            match std::os::unix::net::UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) if tries < 200 => {
                    tries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => panic!("socket never came up: {e}"),
            }
        }
    };
    use std::io::{BufRead, BufReader, Write};
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut socket_resps = Vec::new();
    for req in &requests {
        writeln!(writer, "{req}").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        socket_resps.push(resp.trim_end().to_string());
    }
    drop(writer);
    server.join().unwrap().unwrap();

    assert_eq!(
        stdio, socket_resps,
        "the transport must not touch a single byte"
    );
}
