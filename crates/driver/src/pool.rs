//! A std-only scoped work-stealing pool for embarrassingly parallel maps.
//!
//! The batch driver's unit of work is one function, and functions vary
//! wildly in size, so static sharding (function *i* to worker *i mod N*)
//! leaves threads idle behind a straggler. Instead every worker pulls
//! the next index from one shared atomic cursor — the simplest possible
//! work-stealing discipline, and all this workload needs: items are
//! independent, so there are no deques to steal from, just a queue to
//! drain.
//!
//! Determinism is the point of the design: workers tag each result with
//! its item index and [`par_map`] sorts the tags before returning, so
//! the caller sees input order no matter how the scheduler interleaved
//! the workers. Combined with per-worker analysis state (each closure
//! call builds its own `AnalysisManager`), output is byte-identical for
//! any `--jobs` value. Each worker also runs under the caller's
//! [`fcc_analysis::fault::FaultPlan`], so a compile sees the same
//! injected faults at every width.

use fcc_analysis::fault;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Wall-clock vs summed per-item time for one [`par_map`] batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchTiming {
    /// End-to-end elapsed time of the batch.
    pub wall: Duration,
    /// Total time spent inside the item closure, summed over items —
    /// an approximation of CPU time that needs no OS-specific calls.
    pub cpu: Duration,
    /// Worker threads used.
    pub jobs: usize,
}

impl BatchTiming {
    /// Parallel efficiency: `cpu / (wall * jobs)`, 1.0 = perfect.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.jobs.max(1) as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.cpu.as_secs_f64() / denom).min(1.0)
    }

    /// Effective speedup over a serial run: `cpu / wall`.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.cpu.as_secs_f64() / wall
    }

    /// One-line human summary for `--report` footers.
    pub fn render(&self) -> String {
        format!(
            "wall {:.1} ms, cpu {:.1} ms, {} jobs, {:.0}% utilization",
            self.wall.as_secs_f64() * 1e3,
            self.cpu.as_secs_f64() * 1e3,
            self.jobs,
            self.utilization() * 100.0
        )
    }
}

/// Resolve a `--jobs` request: `0` means "use available parallelism".
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every index in `0..n` on `jobs` scoped threads and
/// return the results in index order plus the batch timing.
///
/// `jobs == 0` uses [`resolve_jobs`]; `jobs == 1` (or `n <= 1`) runs
/// inline on the caller's thread with no pool at all, which keeps the
/// serial baseline measured by the scaling benchmark free of thread
/// overhead.
///
/// # Panics
/// Propagates a panic from `f`: if any worker panics, the whole batch
/// panics (after the scope joins the remaining workers). The panicking
/// worker poisons the shared cursor on its way out, so surviving workers
/// finish only the item already in hand instead of draining the rest of
/// the batch before the panic surfaces. (The fault-tolerant driver never
/// lets a panic reach this layer — it contains them per function — so
/// poisoning matters for direct users of `par_map`.)
pub fn par_map<T, F>(n: usize, jobs: usize, f: F) -> (Vec<T>, BatchTiming)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = resolve_jobs(jobs).min(n.max(1));
    let t0 = Instant::now();
    if jobs <= 1 || n <= 1 {
        let mut cpu = Duration::ZERO;
        let out = (0..n)
            .map(|i| {
                let it = Instant::now();
                let v = f(i);
                cpu += it.elapsed();
                v
            })
            .collect();
        return (
            out,
            BatchTiming {
                wall: t0.elapsed(),
                cpu,
                jobs: 1,
            },
        );
    }

    let plan = fault::current_plan();
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let mut tagged: Vec<(usize, T, Duration)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let cursor = &cursor;
            let poisoned = &poisoned;
            let f = &f;
            let plan = &plan;
            handles.push(scope.spawn(move || {
                // Set the poison flag if this worker unwinds out of `f`,
                // telling its peers to stop pulling new items.
                struct Poison<'a>(&'a AtomicBool);
                impl Drop for Poison<'_> {
                    fn drop(&mut self) {
                        self.0.store(true, Ordering::Relaxed);
                    }
                }
                let mut local: Vec<(usize, T, Duration)> = Vec::new();
                fault::with_faults(plan, || loop {
                    if poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let guard = Poison(poisoned);
                    let it = Instant::now();
                    let v = f(i);
                    std::mem::forget(guard);
                    local.push((i, v, it.elapsed()));
                });
                local
            }));
        }
        // Join in spawn order; a worker panic surfaces here once every
        // other worker has stopped (the cursor is poisoned, so at most
        // one in-flight item per surviving worker completes first).
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(local) => tagged.extend(local),
                Err(e) => panic = Some(e),
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
    });
    tagged.sort_by_key(|&(i, _, _)| i);
    let cpu = tagged.iter().map(|&(_, _, d)| d).sum();
    let out = tagged.into_iter().map(|(_, v, _)| v).collect();
    (
        out,
        BatchTiming {
            wall: t0.elapsed(),
            cpu,
            jobs,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 8] {
            let (out, timing) = par_map(100, jobs, |i| {
                // Uneven work so completion order differs from index order.
                if i % 7 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                i * i
            });
            let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, expect, "jobs={jobs}");
            assert!(timing.jobs >= 1);
        }
    }

    #[test]
    fn empty_and_single_item_batches_work() {
        let (out, _) = par_map(0, 4, |i| i);
        assert!(out.is_empty());
        let (out, timing) = par_map(1, 8, |i| i + 1);
        assert_eq!(out, [1]);
        assert_eq!(timing.jobs, 1, "single item runs inline");
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
        let (out, _) = par_map(16, 0, |i| i);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn utilization_is_bounded() {
        let (_, timing) = par_map(32, 4, |_| {
            std::thread::sleep(Duration::from_micros(100));
        });
        let u = timing.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        assert!(!timing.render().is_empty());
    }

    #[test]
    fn workers_run_under_the_callers_fault_plan() {
        let plan = fault::FaultPlan {
            solver_spin: true,
            ..Default::default()
        };
        for jobs in [1, 4] {
            let (seen, _) =
                fault::with_faults(&plan, || par_map(16, jobs, |_| fault::solver_spin()));
            assert!(seen.iter().all(|&s| s), "jobs={jobs}");
            let (seen, _) = par_map(16, jobs, |_| fault::solver_spin());
            assert!(seen.iter().all(|&s| !s), "jobs={jobs}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map(8, 4, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn a_panicking_worker_poisons_the_cursor() {
        use std::sync::atomic::AtomicUsize;
        // One worker panics on its first item while the others are held
        // at a barrier; once released they must see the poison flag and
        // stop instead of draining the remaining ~10k items.
        let started = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        let n = 10_000;
        let r = std::panic::catch_unwind(|| {
            par_map(n, 4, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i < 4 {
                    barrier.wait();
                    if i == 0 {
                        panic!("boom");
                    }
                    // Give the panicking worker time to unwind and
                    // poison before the survivors loop for more work.
                    std::thread::sleep(Duration::from_millis(50));
                }
                i
            })
        });
        assert!(r.is_err(), "the panic still propagates");
        let pulled = started.load(Ordering::SeqCst);
        assert!(
            pulled < n / 2,
            "poisoned cursor should stop the batch early, but {pulled}/{n} items ran"
        );
    }
}
