//! The crash-safe persistent store behind the in-memory function cache.
//!
//! One file per entry under `--cache-dir`, named by the 64-bit FNV-1a
//! hash of the full cache key (`<hash:016x>.fnc`). The file layout is a
//! one-line header followed by the payload bytes:
//!
//! ```text
//! fcc-entry v1 schema=<CACHE_SCHEMA> bytes=<payload-len> fnv=<16-hex>\n
//! <payload>
//! ```
//!
//! where the payload is `{"key": <full cache key>, "report": <codec
//! document>}` and `fnv` is FNV-1a over exactly the payload bytes.
//!
//! **Trust nothing on load.** A file is served only if *all* of these
//! hold: the header parses, the schema matches this build, the payload
//! length matches the header (catches truncation/torn writes), the
//! checksum matches (catches bit flips), the embedded key hashes to the
//! filename (catches renamed/cross-wired files), and the payload
//! decodes ([`crate::codec`]). Any failure quarantines the file into
//! the `quarantine/` sidecar dir — preserving the evidence for
//! inspection — and reads as a miss: never a crash, never a wrong
//! answer. Writes go through [`crate::fsio::write_atomic`] (temp file +
//! `sync_all` + rename), so the only states a crash can leave are
//! "entry absent", "old entry intact", or "detectably torn".
//!
//! An advisory `index` file (one hash per line, LRU-oldest first) is
//! flushed on graceful shutdown so a restart can rebuild recency order;
//! after a crash it is simply stale or absent and warming falls back to
//! sorted-filename order. The index is never trusted for content — only
//! for ordering hints.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fcc_driver::FunctionReport;

use crate::cache::{fnv64, CACHE_SCHEMA};
use crate::codec::{decode_report, encode_report};
use crate::fsio::{self, DiskFault};

/// File extension of a cache entry.
const ENTRY_EXT: &str = "fnc";
/// The advisory recency-order file flushed on graceful shutdown.
const INDEX_NAME: &str = "index";
/// The sidecar directory corrupt entries are moved into.
const QUARANTINE_DIR: &str = "quarantine";

/// Lifetime counters for the disk layer, rendered by the `stats` verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Valid entries loaded into memory at startup.
    pub warmed: u64,
    /// Corrupt/foreign files moved to the quarantine sidecar.
    pub quarantined: u64,
    /// Entries written (insertions and replacements).
    pub writes: u64,
    /// Writes that failed (ENOSPC, crash-injected, permissions) and
    /// were skipped — the compile still answered from memory.
    pub write_errors: u64,
    /// Entry files removed to track memory-cache eviction.
    pub removals: u64,
}

/// The persistent mirror of the in-memory [`crate::cache::FnCache`]:
/// every insert writes through, every eviction removes, so the memory
/// budget bounds disk occupancy too.
pub struct DiskCache {
    dir: PathBuf,
    fault: Option<DiskFault>,
    stats: DiskStats,
}

impl DiskCache {
    /// Open (creating if needed) the store at `dir` and its quarantine
    /// sidecar. Sweeps temp files abandoned by a crashed predecessor.
    /// Every later read and write of this store suffers `fault`, if any.
    pub fn open(dir: &Path, fault: Option<DiskFault>) -> io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        fs::create_dir_all(dir.join(QUARANTINE_DIR))?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if fsio::is_temp_name(&name) {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(DiskCache {
            dir: dir.to_path_buf(),
            fault,
            stats: DiskStats::default(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.{ENTRY_EXT}"))
    }

    /// Persist `report` under `key`. Failures are counted and swallowed:
    /// a full or faulty disk degrades durability, never availability.
    pub fn store(&mut self, key: &str, report: &FunctionReport) {
        let hash = fnv64(key.as_bytes());
        let payload = format!(
            "{{\"key\":\"{}\",\"report\":{}}}",
            crate::json::escape(key),
            encode_report(report)
        );
        let header = format!(
            "fcc-entry v1 schema={CACHE_SCHEMA} bytes={} fnv={:016x}\n",
            payload.len(),
            fnv64(payload.as_bytes())
        );
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(payload.as_bytes());
        match fsio::write_atomic(&self.entry_path(hash), &bytes, self.fault) {
            Ok(()) => self.stats.writes += 1,
            Err(_) => self.stats.write_errors += 1,
        }
    }

    /// Remove the entry for `key_hash` (memory-cache eviction write-
    /// through). Missing files are fine — removal is idempotent.
    pub fn remove(&mut self, key_hash: u64) {
        if fs::remove_file(self.entry_path(key_hash)).is_ok() {
            self.stats.removals += 1;
        }
    }

    /// Move `path` into the quarantine sidecar, annotating why in a
    /// `.reason` file beside it. Falls back to deletion if the rename
    /// fails — a corrupt entry must never stay where it can be re-read.
    fn quarantine(&mut self, path: &Path, reason: &str) {
        self.stats.quarantined += 1;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let dest = self.dir.join(QUARANTINE_DIR).join(&name);
        if fs::rename(path, &dest).is_err() {
            let _ = fs::remove_file(path);
            return;
        }
        let _ = fs::write(dest.with_extension("reason"), reason.as_bytes());
    }

    /// Load and validate every entry, quarantining the invalid ones.
    /// Returns `(key, report)` pairs ordered by the advisory index when
    /// one exists (LRU-oldest first), with unindexed files appended in
    /// sorted-filename order — so re-inserting in returned order
    /// reconstructs the pre-shutdown recency ranking.
    pub fn load_all(&mut self) -> Vec<(String, FunctionReport)> {
        let mut names: Vec<String> = match fs::read_dir(&self.dir) {
            Ok(iter) => iter
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_file())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(&format!(".{ENTRY_EXT}")))
                .collect(),
            Err(_) => return Vec::new(),
        };
        names.sort();
        if let Some(order) = self.read_index() {
            let rank: HashMap<&str, usize> = order
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i))
                .collect();
            // Indexed files in index order, stragglers after (newest
            // assumption: they were written post-flush).
            names.sort_by_key(|n| (rank.get(n.as_str()).copied().unwrap_or(usize::MAX),));
        }

        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let path = self.dir.join(&name);
            match self.load_one(&path, &name) {
                Ok(pair) => {
                    self.stats.warmed += 1;
                    out.push(pair);
                }
                Err(reason) => self.quarantine(&path, &reason),
            }
        }
        out
    }

    /// Validate one entry file end to end. Every rejection reason is a
    /// distinct string so the quarantine sidecar says *why*.
    fn load_one(&self, path: &Path, name: &str) -> Result<(String, FunctionReport), String> {
        let bytes = fsio::read(path, self.fault).map_err(|e| format!("unreadable: {e}"))?;
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("no header line")?;
        let header =
            std::str::from_utf8(&bytes[..nl]).map_err(|_| "header is not UTF-8".to_string())?;
        let mut parts = header.split(' ');
        if (parts.next(), parts.next()) != (Some("fcc-entry"), Some("v1")) {
            return Err(format!("bad magic in header {header:?}"));
        }
        let mut schema = None;
        let mut declared_len = None;
        let mut declared_fnv = None;
        for part in parts {
            if let Some(s) = part.strip_prefix("schema=") {
                schema = Some(s.to_string());
            } else if let Some(s) = part.strip_prefix("bytes=") {
                declared_len = s.parse::<usize>().ok();
            } else if let Some(s) = part.strip_prefix("fnv=") {
                declared_fnv = u64::from_str_radix(s, 16).ok();
            }
        }
        let schema = schema.ok_or("header missing schema")?;
        if schema != CACHE_SCHEMA {
            return Err(format!(
                "schema mismatch: entry {schema:?}, this build {CACHE_SCHEMA:?}"
            ));
        }
        let declared_len = declared_len.ok_or("header missing bytes")?;
        let declared_fnv = declared_fnv.ok_or("header missing fnv")?;
        let payload = &bytes[nl + 1..];
        if payload.len() != declared_len {
            return Err(format!(
                "payload truncated: header declares {declared_len} bytes, file holds {}",
                payload.len()
            ));
        }
        if fnv64(payload) != declared_fnv {
            return Err("checksum mismatch (bit rot or torn write)".to_string());
        }
        let payload =
            std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let doc = crate::json::parse(payload).map_err(|e| format!("payload is not JSON: {e}"))?;
        let key = doc
            .get("key")
            .and_then(crate::json::Json::as_str)
            .ok_or("payload missing \"key\"")?
            .to_string();
        let expected_name = format!("{:016x}.{ENTRY_EXT}", fnv64(key.as_bytes()));
        if name != expected_name {
            return Err(format!(
                "key/filename mismatch: key hashes to {expected_name}, file is {name}"
            ));
        }
        let report_doc = doc.get("report").ok_or("payload missing \"report\"")?;
        let report = decode_report(&report_doc.to_string())?;
        Ok((key, report))
    }

    /// Flush the advisory recency index: `hashes` in LRU-oldest-first
    /// order, one `<hash:016x>.fnc` name per line. Called on graceful
    /// shutdown; crash-lost indexes only cost warm-order fidelity.
    pub fn flush_index(&mut self, hashes_lru_first: &[u64]) {
        let mut body = String::new();
        for h in hashes_lru_first {
            body.push_str(&format!("{h:016x}.{ENTRY_EXT}\n"));
        }
        let _ = fsio::write_atomic(&self.dir.join(INDEX_NAME), body.as_bytes(), self.fault);
    }

    fn read_index(&self) -> Option<Vec<String>> {
        let bytes = fsio::read(&self.dir.join(INDEX_NAME), self.fault).ok()?;
        let text = String::from_utf8(bytes).ok()?;
        Some(text.lines().map(str::to_string).collect())
    }

    /// Names currently quarantined (sorted, for tests and diagnostics).
    pub fn quarantined_names(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(self.dir.join(QUARANTINE_DIR))
            .map(|iter| {
                iter.filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.ends_with(&format!(".{ENTRY_EXT}")))
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;
    use fcc_driver::{compile_function_report, CompileRequest};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fcc-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(n: u64) -> (String, FunctionReport) {
        let req = CompileRequest::new();
        let src = format!("fn f{n}(x) {{ return x + {n}; }}");
        let module = fcc_frontend::compile_module(&src).unwrap();
        let func = &module.into_functions()[0];
        let key = cache_key(&func.to_string(), &req);
        (key, compile_function_report(func, &req))
    }

    #[test]
    fn store_then_reload_round_trips() {
        let dir = tmpdir("roundtrip");
        let mut disk = DiskCache::open(&dir, None).unwrap();
        let (key, report) = sample(1);
        disk.store(&key, &report);
        assert_eq!(disk.stats().writes, 1);

        let mut fresh = DiskCache::open(&dir, None).unwrap();
        let loaded = fresh.load_all();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, key);
        assert_eq!(
            encode_report(&loaded[0].1),
            encode_report(&report),
            "observable content survives the disk"
        );
        assert_eq!(fresh.stats().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_corruption_class_is_quarantined_not_served() {
        let dir = tmpdir("corrupt");
        let mut disk = DiskCache::open(&dir, None).unwrap();
        let (key, report) = sample(2);
        disk.store(&key, &report);
        let hash = fnv64(key.as_bytes());
        let good = fs::read(dir.join(format!("{hash:016x}.fnc"))).unwrap();

        // One corrupt file per class, alongside the good entry.
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("0000000000000001.fnc", b"garbage no header".to_vec()),
            ("0000000000000002.fnc", {
                let mut v = good.clone();
                v.truncate(v.len() - 4); // truncated payload
                v
            }),
            ("0000000000000003.fnc", {
                let mut v = good.clone();
                let last = v.len() - 1;
                v[last] ^= 0x40; // bit flip
                v
            }),
            ("0000000000000004.fnc", {
                // wrong schema
                let text = String::from_utf8(good.clone()).unwrap();
                text.replacen(CACHE_SCHEMA, "0.0.0/999", 1).into_bytes()
            }),
            // key/filename mismatch: valid bytes under the wrong name
            ("00000000000000aa.fnc", good.clone()),
        ];
        for (name, bytes) in &cases {
            fs::write(dir.join(name), bytes).unwrap();
        }

        let mut fresh = DiskCache::open(&dir, None).unwrap();
        let loaded = fresh.load_all();
        assert_eq!(loaded.len(), 1, "only the intact entry loads");
        assert_eq!(loaded[0].0, key);
        assert_eq!(fresh.stats().quarantined as usize, cases.len());
        assert_eq!(fresh.quarantined_names().len(), cases.len());
        // Quarantine emptied the main dir of bad entries: a second open
        // sees only the good one.
        let mut again = DiskCache::open(&dir, None).unwrap();
        assert_eq!(again.load_all().len(), 1);
        assert_eq!(again.stats().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_short_writes_never_serve_bad_data() {
        let dir = tmpdir("faultwrite");
        {
            let mut disk = DiskCache::open(&dir, Some(DiskFault::TornWrite)).unwrap();
            let (key, report) = sample(3);
            disk.store(&key, &report); // rename lands, payload is half
        }
        {
            let mut disk = DiskCache::open(&dir, None).unwrap();
            assert_eq!(disk.load_all().len(), 0, "torn entry must not load");
            assert_eq!(disk.stats().quarantined, 1);
        }
        {
            let mut disk = DiskCache::open(&dir, Some(DiskFault::ShortWrite)).unwrap();
            let (key, report) = sample(4);
            disk.store(&key, &report);
            assert_eq!(disk.stats().write_errors, 1);
        }
        {
            let mut disk = DiskCache::open(&dir, None).unwrap();
            assert_eq!(disk.load_all().len(), 0, "short write left nothing visible");
            assert_eq!(disk.stats().quarantined, 0, "nothing to quarantine either");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_counts_and_degrades_gracefully() {
        let dir = tmpdir("enospc");
        let mut disk = DiskCache::open(&dir, Some(DiskFault::Enospc)).unwrap();
        let (key, report) = sample(5);
        disk.store(&key, &report);
        disk.store(&key, &report);
        assert_eq!(disk.stats().write_errors, 2);
        assert_eq!(disk.stats().writes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_on_read_is_caught_by_the_checksum() {
        let dir = tmpdir("bitflip");
        {
            let mut disk = DiskCache::open(&dir, None).unwrap();
            let (key, report) = sample(6);
            disk.store(&key, &report);
        }
        {
            let mut disk = DiskCache::open(&dir, Some(DiskFault::BitFlipRead)).unwrap();
            assert_eq!(disk.load_all().len(), 0);
            assert_eq!(disk.stats().quarantined, 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_faulted_store_never_reaches_a_clean_one() {
        // Two stores in one process, used from two threads at once: the
        // torn store keeps writing while the clean store round-trips
        // every entry in every round.
        let torn_dir = tmpdir("iso-torn");
        let clean_dir = tmpdir("iso-clean");
        let samples: Vec<_> = (20..28).map(sample).collect();
        let opened = Barrier::new(2);
        let clean_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut torn = DiskCache::open(&torn_dir, Some(DiskFault::TornWrite)).unwrap();
                opened.wait();
                while !clean_done.load(Ordering::SeqCst) {
                    for (key, report) in &samples {
                        torn.store(key, report);
                    }
                }
            });
            // Stop the torn writer even if a clean round fails.
            struct Done<'a>(&'a AtomicBool);
            impl Drop for Done<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let _done = Done(&clean_done);
            opened.wait();
            for round in 0..10 {
                let mut clean = DiskCache::open(&clean_dir, None).unwrap();
                for (key, report) in &samples {
                    clean.store(key, report);
                }
                let mut fresh = DiskCache::open(&clean_dir, None).unwrap();
                let loaded = fresh.load_all();
                assert_eq!(fresh.stats().quarantined, 0, "round {round}");
                assert_eq!(loaded.len(), samples.len(), "round {round}");
                for (key, report) in &samples {
                    let (_, got) = loaded.iter().find(|(k, _)| k == key).unwrap();
                    assert_eq!(encode_report(got), encode_report(report));
                }
            }
        });
        let mut torn = DiskCache::open(&torn_dir, None).unwrap();
        assert_eq!(torn.load_all().len(), 0, "every torn entry is caught");
        assert_eq!(torn.stats().quarantined as usize, samples.len());
        let _ = fs::remove_dir_all(&torn_dir);
        let _ = fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn the_index_orders_warming_and_removal_tracks_eviction() {
        let dir = tmpdir("index");
        let mut disk = DiskCache::open(&dir, None).unwrap();
        let pairs: Vec<_> = (0..3).map(|i| sample(10 + i)).collect();
        for (key, report) in &pairs {
            disk.store(key, report);
        }
        let hashes: Vec<u64> = pairs.iter().map(|(k, _)| fnv64(k.as_bytes())).collect();
        // Flush an index naming the *second* entry oldest.
        disk.flush_index(&[hashes[1], hashes[0], hashes[2]]);
        let mut fresh = DiskCache::open(&dir, None).unwrap();
        let loaded = fresh.load_all();
        let keys: Vec<&str> = loaded.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys[0], pairs[1].0, "index order wins");
        assert_eq!(keys[1], pairs[0].0);

        fresh.remove(hashes[1]);
        assert_eq!(fresh.stats().removals, 1);
        let mut after = DiskCache::open(&dir, None).unwrap();
        assert_eq!(after.load_all().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
