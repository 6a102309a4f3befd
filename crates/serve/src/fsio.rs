//! Crash-safe file primitives behind an injectable disk-fault shim.
//!
//! Every byte the persistent cache puts on or takes off disk goes
//! through this module, for two reasons:
//!
//! 1. **Atomicity in one place.** [`write_atomic`] is the only writer:
//!    payload → temp file (same directory) → `sync_all` → `rename`.
//!    POSIX rename is atomic, so a reader (or a restarted daemon) sees
//!    either the complete old state or the complete new state of the
//!    final path — never a half-written file *at that path*. What a
//!    crash can still leave behind is a stale temp file (harmless,
//!    swept on startup) or, on filesystems that reorder data vs.
//!    rename, a renamed file with truncated payload — which is exactly
//!    what the store's checksum exists to catch.
//! 2. **Faults are injectable.** [`write_atomic`] and [`read`] take the
//!    [`DiskFault`] to apply (`None` for a healthy disk); each
//!    [`crate::DiskCache`] carries its own, so one store's fault never
//!    reaches another. The four faults model the real failure classes a
//!    durable store must survive:
//!
//!    | fault | models | observable state |
//!    |---|---|---|
//!    | [`DiskFault::TornWrite`] | crash/reorder between rename and data blocks | renamed file with truncated payload |
//!    | [`DiskFault::ShortWrite`] | crash before rename | stale temp file, final path untouched |
//!    | [`DiskFault::Enospc`] | disk full | write fails with `ENOSPC`, nothing renamed |
//!    | [`DiskFault::BitFlipRead`] | media corruption | one payload bit flipped on read |
//!
//! Tests (and the CI fault matrix, via `fcc serve
//! --inject-disk-fault`) open a faulted store, drive the daemon, and
//! assert the store's invariant: a faulted entry is either invisible or
//! detected and quarantined — never served.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;
use std::str::FromStr;

/// One injectable disk failure, applied to every file operation of the
/// store that carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// The rename lands but only half the payload's bytes do.
    TornWrite,
    /// The write dies before the rename: a temp file is abandoned and
    /// the final path is never touched.
    ShortWrite,
    /// Every write fails with `ENOSPC` before touching the disk.
    Enospc,
    /// Reads succeed but one payload bit comes back flipped.
    BitFlipRead,
}

impl DiskFault {
    /// Every fault, in the order the CI matrix sweeps them.
    pub const ALL: [DiskFault; 4] = [
        DiskFault::TornWrite,
        DiskFault::ShortWrite,
        DiskFault::Enospc,
        DiskFault::BitFlipRead,
    ];

    /// The canonical spelling (`--inject-disk-fault` takes these).
    pub fn label(self) -> &'static str {
        match self {
            DiskFault::TornWrite => "torn-write",
            DiskFault::ShortWrite => "short-write",
            DiskFault::Enospc => "enospc",
            DiskFault::BitFlipRead => "bit-flip",
        }
    }
}

impl std::fmt::Display for DiskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for DiskFault {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        DiskFault::ALL
            .into_iter()
            .find(|f| f.label() == s)
            .ok_or_else(|| {
                format!("unknown disk fault {s:?} (expected torn-write, short-write, enospc, or bit-flip)")
            })
    }
}

/// Write `bytes` to `path` via temp-file + `sync_all` + atomic rename.
/// The temp file lives in `path`'s directory (rename must not cross a
/// filesystem) and is named after the destination plus the process id,
/// so concurrent daemons sharing a cache dir cannot collide.
///
/// Under a `fault` this misbehaves exactly as documented on
/// [`DiskFault`]; the caller treats any `Err` as a failed (skipped)
/// store, never as fatal.
pub fn write_atomic(path: &Path, bytes: &[u8], fault: Option<DiskFault>) -> io::Result<()> {
    match fault {
        Some(DiskFault::Enospc) => {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        Some(DiskFault::TornWrite) => {
            // The crash window that atomic rename cannot close: the
            // rename is durable but the data blocks never all landed.
            let tmp = temp_path(path);
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, path)?;
            return Ok(());
        }
        Some(DiskFault::ShortWrite) => {
            // Crash before rename: the abandoned temp file is the only
            // trace; the final path is never touched.
            let tmp = temp_path(path);
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            return Err(io::Error::other("injected short write"));
        }
        _ => {}
    }
    let tmp = temp_path(path);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// Read the whole file at `path`, applying a `fault` of
/// [`DiskFault::BitFlipRead`] (one bit of the middle byte flips).
pub fn read(path: &Path, fault: Option<DiskFault>) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if fault == Some(DiskFault::BitFlipRead) && !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
    }
    Ok(bytes)
}

fn temp_path(path: &Path) -> std::path::PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "entry".to_string());
    path.with_file_name(format!(".tmp-{}-{name}", std::process::id()))
}

/// Is `name` one of [`write_atomic`]'s temp files? Startup sweeps these:
/// they are the debris of a crash between create and rename.
pub fn is_temp_name(name: &str) -> bool {
    name.starts_with(".tmp-")
}

#[cfg(test)]
mod tests {
    use super::*;
    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fcc-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_temp() {
        let dir = tmpdir("clean");
        let p = dir.join("x.fnc");
        write_atomic(&p, b"hello world", None).unwrap();
        assert_eq!(read(&p, None).unwrap(), b"hello world");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| is_temp_name(&e.as_ref().unwrap().file_name().to_string_lossy()))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_fault_leaves_its_documented_state() {
        let dir = tmpdir("faults");

        {
            let p = dir.join("enospc.fnc");
            assert!(write_atomic(&p, b"0123456789", Some(DiskFault::Enospc)).is_err());
            assert!(!p.exists(), "ENOSPC must not touch the final path");
        }
        {
            let p = dir.join("short.fnc");
            assert!(write_atomic(&p, b"0123456789", Some(DiskFault::ShortWrite)).is_err());
            assert!(!p.exists(), "short write dies before rename");
            let temps = fs::read_dir(&dir)
                .unwrap()
                .filter(|e| is_temp_name(&e.as_ref().unwrap().file_name().to_string_lossy()))
                .count();
            assert_eq!(temps, 1, "the abandoned temp file is the only trace");
        }
        {
            let p = dir.join("torn.fnc");
            write_atomic(&p, b"0123456789", Some(DiskFault::TornWrite)).unwrap();
            assert_eq!(read(&p, None).unwrap(), b"01234", "half the payload landed");
        }
        {
            let p = dir.join("flip.fnc");
            write_atomic(&p, b"0123456789", None).unwrap();
            let corrupt = read(&p, Some(DiskFault::BitFlipRead)).unwrap();
            assert_ne!(corrupt, b"0123456789");
            assert_eq!(corrupt.len(), 10, "bit flip corrupts, never truncates");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_spellings_round_trip() {
        for f in DiskFault::ALL {
            assert_eq!(f.label().parse::<DiskFault>().unwrap(), f);
        }
        assert!("gamma-ray".parse::<DiskFault>().is_err());
    }
}
