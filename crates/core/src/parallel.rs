//! A dependency-free scoped worker pool for embarrassingly parallel
//! sweeps.
//!
//! Every paper figure averages ~100 independent seeded runs per sweep
//! point; the runs share nothing but their configuration, so they can be
//! executed on any number of worker threads *without changing the
//! output*: each run slot is a pure function of its index, and results
//! are always returned in slot order. `par_map_indexed(n, jobs, f, _)`
//! is therefore bit-identical to `(0..n).map(f).collect()` for every
//! `jobs` value — parallelism is purely a wall-clock optimization. The
//! sweep driver, [`crate::aggregate::run_sweep`], is its one user.
//!
//! Built on [`std::thread::scope`] (no external thread-pool crate; the
//! workspace builds offline against `vendor/`). Work distribution is a
//! shared atomic cursor, so a slow slot never stalls the others beyond
//! its own duration.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Resolves a requested job count: `0` means "use the available
/// parallelism" (what `--jobs 0` and `JOBS=0` mean on the command line).
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `0..count` on up to `jobs` worker threads, returning the
/// results in index order. `on_done(i)` fires on the worker thread right
/// after slot `i`'s result is produced, in whatever order slots actually
/// finish; it is for side-band reporting (progress meters) only.
///
/// Guarantees, for any `jobs`:
/// - `f` and `on_done` are invoked exactly once per index;
/// - the returned vector equals the sequential `(0..count).map(f)`;
/// - a panic inside `f` propagates (the sweep driver wraps each slot in
///   [`std::panic::catch_unwind`] first, so its slots are isolated).
///
/// With `jobs <= 1` (or fewer than two slots) no threads are spawned and
/// `f` runs on the caller's thread: the sequential path stays the
/// baseline the parallel one is compared against.
pub(crate) fn par_map_indexed<T, F, D>(count: usize, jobs: usize, f: F, on_done: D) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    D: Fn(usize) + Sync,
{
    let jobs = effective_jobs(jobs).min(count);
    if jobs <= 1 || count <= 1 {
        return (0..count)
            .map(|i| {
                let out = f(i);
                on_done(i);
                out
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        mine.push((i, f(i)));
                        on_done(i);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(slots) => slots,
                // Re-raise the worker's panic on the calling thread with
                // its original payload instead of a generic expect.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), count);
    tagged.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_job_count() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = par_map_indexed(17, jobs, |i| i * i, |_| {});
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(5), 5);
        let out = par_map_indexed(4, 0, |i| i, |_| {});
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn each_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let calls: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        par_map_indexed(50, 4, |i| calls[i].fetch_add(1, Ordering::Relaxed), |_| {});
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_indexed(0, 4, |i| i, |_| {}), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i, |_| {}), vec![0]);
    }

    #[test]
    fn completion_callback_fires_once_per_slot() {
        use std::sync::atomic::AtomicU32;
        for jobs in [1, 4] {
            let fired: Vec<AtomicU32> = (0..20).map(|_| AtomicU32::new(0)).collect();
            let out = par_map_indexed(
                20,
                jobs,
                |i| i * 2,
                |i| {
                    fired[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
            assert!(fired.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }
}
