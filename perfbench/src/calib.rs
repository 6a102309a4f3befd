//! Host-speed calibration.
//!
//! On a shared machine the whole host speeds up and slows down by tens of
//! percent over minutes, which would swamp any change to the program.
//! Each run therefore times a fixed reference routine — part of the
//! benchmark, so no change to the program can move it — every
//! [`INTERVAL_S`] of measured work, and scales every time it reports by
//! `NOMINAL_S / median(reference)`: a reported time is the time the run
//! would have taken on a host where the reference routine takes
//! [`NOMINAL_S`]. The raw figures and the factor print on standard error.
//!
//! Durable disk writes follow the host's disk load rather than its
//! processor, so work that makes them is calibrated for those writes
//! separately, against a reference write ([`DiskReference`]).

use std::fs::{self, File};
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::median;

/// The reference routine's time on the host the bounds were set on.
pub const NOMINAL_S: f64 = 0.0035;
/// Measured work between two reference timings.
pub const INTERVAL_S: f64 = 0.1;
/// Reference timings taken before and after the timed passes.
pub const SAMPLES: usize = 10;

/// Reference timings collected through one run. The routine's buffers
/// are allocated once, so its time does not depend on the state of the
/// benchmark's own heap.
pub struct Calibration {
    samples: Vec<f64>,
    last: Option<Instant>,
    keys: Vec<u64>,
    table: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            samples: Vec::new(),
            last: None,
            keys: vec![0; 100_000],
            table: vec![0; 1 << 14],
        }
    }
}

impl Calibration {
    /// One timing of the reference routine: generating, sorting and
    /// hashing keys — the same kinds of work the compiler does.
    fn reference(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in self.keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        let mask = self.table.len() - 1;
        for (i, &k) in self.keys.iter().enumerate() {
            let slot = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(i as u64);
        }
        black_box((&self.keys, &self.table));
        t0.elapsed().as_secs_f64()
    }

    /// Time the reference routine if [`INTERVAL_S`] has passed since the
    /// last timing; call between two measured operations.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= INTERVAL_S)
        {
            self.sample(1);
        }
    }

    /// Time the reference routine `n` times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = self.reference();
            self.samples.push(t);
        }
        self.last = Some(Instant::now());
    }

    /// Multiply a raw time by this to get a calibrated one.
    pub fn factor(&self) -> f64 {
        NOMINAL_S / median(&self.samples)
    }

    pub fn describe(&self) -> String {
        format!(
            "calibration: reference {:.3} ms (median of {}), times scaled by {:.4}",
            median(&self.samples) * 1e3,
            self.samples.len(),
            self.factor()
        )
    }
}

/// The disk reference write's time on the host the bounds were set on.
pub const NOMINAL_DISK_S: f64 = 0.001;
/// Bytes per reference write: about one persistent-cache entry (those
/// of serve-edit's functions are 7–27 KB, median 16 KB).
const DISK_BYTES: usize = 16 << 10;

/// Host disk-speed calibration for work that writes durably. The
/// reference write has the persistent cache's shape — a fresh temporary
/// file, `sync_all`, rename to a fresh name — in its own directory on
/// the same filesystem. It is timed every [`INTERVAL_S`] of measured
/// work, like [`Calibration`]'s routine, and is part of the benchmark,
/// so no change to the program can move it.
pub struct DiskReference {
    dir: PathBuf,
    writes: u64,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl DiskReference {
    pub fn new(dir: PathBuf) -> Result<Self, String> {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(DiskReference {
            dir,
            writes: 0,
            samples: Vec::new(),
            last: None,
        })
    }

    fn reference(&mut self) -> Result<f64, String> {
        let payload = [b'x'; DISK_BYTES];
        let tmp = self.dir.join("entry.tmp");
        let t0 = Instant::now();
        let mut f = File::create(&tmp).map_err(|e| e.to_string())?;
        f.write_all(&payload).map_err(|e| e.to_string())?;
        f.sync_all().map_err(|e| e.to_string())?;
        drop(f);
        fs::rename(&tmp, self.dir.join(format!("{}.ref", self.writes)))
            .map_err(|e| e.to_string())?;
        self.writes += 1;
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Time the reference write if [`INTERVAL_S`] has passed since the
    /// last timing; call between two measured operations.
    pub fn tick(&mut self) -> Result<(), String> {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= INTERVAL_S)
        {
            self.sample(1)?;
        }
        Ok(())
    }

    /// Time the reference write `n` times.
    pub fn sample(&mut self, n: usize) -> Result<(), String> {
        for _ in 0..n {
            let t = self.reference()?;
            self.samples.push(t);
        }
        self.last = Some(Instant::now());
        Ok(())
    }

    /// The median reference write on this run's host, in seconds.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// A mark for [`Self::median_since`].
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// The median reference write since `mark`, in seconds (the run's
    /// median if none was timed since): the disk's speed over a stretch
    /// of work, which drifts even within one run.
    pub fn median_since(&self, mark: usize) -> f64 {
        match &self.samples[mark..] {
            [] => self.median(),
            since => median(since),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "disk calibration: reference write {:.3} ms (median of {}), nominal {:.3} ms",
            self.median() * 1e3,
            self.samples.len(),
            NOMINAL_DISK_S * 1e3
        )
    }
}

/// Calibrate a raw time of `raw_s` seconds that included `writes`
/// durable writes, made while the reference write took `write_s`: the
/// host's typical cost of those writes is replaced by their nominal
/// cost, and the rest is scaled by the processor factor `f` of a
/// [`Calibration`].
pub fn calibrate_disk(raw_s: f64, writes: u64, write_s: f64, f: f64) -> f64 {
    let w = writes as f64;
    (raw_s - w * write_s).max(0.0) * f + w * NOMINAL_DISK_S
}

impl Drop for DiskReference {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_calibration_swaps_host_writes_for_nominal_ones() {
        let nominal = NOMINAL_DISK_S;
        // No writes: only the processor factor applies.
        assert_eq!(calibrate_disk(0.010, 0, 0.004, 0.5), 0.005);
        // Two writes at 4 ms on this host: 8 ms of the 10 ms is disk.
        let t = calibrate_disk(0.010, 2, 0.004, 0.5);
        assert!((t - (0.001 + 2.0 * nominal)).abs() < 1e-12);
        // A host write slower than the request never goes negative.
        assert_eq!(calibrate_disk(0.001, 1, 0.004, 1.0), nominal);
    }
}
