//! Morsel-driven parallel task execution for the operator pipeline.
//!
//! [`run_tasks`] is the one concurrency primitive the executor uses: a
//! fixed task count is handed to a scoped worker pool that pulls task
//! indices from a shared atomic cursor (work-stealing over "morsels").
//! Results land in per-task slots so callers always see them in task
//! order, regardless of which worker ran what — the cornerstone of the
//! executor's determinism guarantee.
//!
//! Cooperative cancellation: the ambient [`aqks_guard`] governor is
//! captured on the calling thread (thread-local installs don't cross
//! into workers) and its deadline is re-checked before every task, so a
//! tripped budget stops all workers within one morsel. Row charging
//! stays on the calling thread at the pre-existing charge sites, which
//! keeps budget accounting byte-identical across thread counts.
//!
//! Observability: a pool opens no span of its own, because its wall
//! time is already inside its operator's `op:` span. Each worker
//! tallies its completed tasks locally and merges the tally into one
//! atomic at exit, so the total is exact whatever the scheduling. Back
//! on the calling thread, a pool that took the parallel path adds
//! `par.pools` (1) and `par.tasks.{site}` (the total, when non-zero) to
//! the ambient span — the engine's `exec` span — where the engine's
//! metrics fold reads them.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::exec::ExecError;

/// Inputs smaller than this run on one worker even when more threads
/// are available — below it, pool overhead exceeds the win.
pub(crate) const PAR_THRESHOLD: usize = 4096;

/// Knobs controlling how a plan is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for parallel operator sections. `1` (the default)
    /// runs the same operator kernels inline on the plan's thread.
    pub threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { threads: 1 }
    }
}

impl ExecOptions {
    /// Options running `n` worker threads (clamped to at least 1).
    pub fn with_threads(n: usize) -> ExecOptions {
        ExecOptions { threads: n.max(1) }
    }
}

/// Recovers a poisoned mutex: a worker panicking mid-store cannot leave
/// the slot table unreadable (the panic still propagates via the scope).
pub(crate) fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Workers an operator uses over `n` input rows: `threads`, or 1 below
/// [`PAR_THRESHOLD`].
pub(crate) fn workers(threads: usize, n: usize) -> usize {
    if n >= PAR_THRESHOLD {
        threads.max(1)
    } else {
        1
    }
}

/// Runs `n` independent tasks on up to `threads` workers and returns
/// their results in task order. Errors are deterministic: the
/// lowest-index failing task wins, matching what a one-worker run would
/// report first.
pub(crate) fn run_tasks<T, F>(
    threads: usize,
    n: usize,
    site: &'static str,
    task: F,
) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ExecError> + Sync,
{
    let gov = aqks_guard::current();
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        // Inline path: no pool, no `par.*` counters — the one-worker
        // executor.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if let Some(g) = &gov {
                g.check_deadline(site)?;
            }
            out.push(task(i)?);
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let tasks = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<Result<T, ExecError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut done = 0u64;
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let res = match &gov {
                        Some(g) => {
                            g.check_deadline(site).map_err(ExecError::from).and_then(|_| task(i))
                        }
                        None => task(i),
                    };
                    let is_err = res.is_err();
                    *relock(&slots[i]) = Some(res);
                    if is_err {
                        failed.store(true, Ordering::Relaxed);
                        break;
                    }
                    done += 1;
                }
                // One merge per worker lifetime, not per task, so the
                // hot loop stays free of shared-cacheline traffic.
                tasks.fetch_add(done, Ordering::Relaxed);
            });
        }
    });

    // The counter name is built only when a span will receive it.
    if aqks_obs::current().is_some() {
        aqks_obs::counter("par.pools", 1);
        let tasks = tasks.into_inner();
        if tasks > 0 {
            aqks_obs::counter(format!("par.tasks.{site}"), tasks);
        }
    }

    let results: Vec<Option<Result<T, ExecError>>> =
        slots.into_iter().map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner())).collect();
    // Deterministic error selection: scan in task order.
    for r in &results {
        if let Some(Err(e)) = r {
            return Err(e.clone());
        }
    }
    let mut out = Vec::with_capacity(n);
    for r in results {
        match r {
            Some(Ok(v)) => out.push(v),
            // Unreached in practice: slots stay empty only after another
            // task failed, and that error returned above.
            _ => return Err(ExecError::Unsupported("parallel task cancelled".into())),
        }
    }
    Ok(out)
}

const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<ExecOptions>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::Condvar;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let out = run_tasks(threads, 100, "test.par", |i| Ok(i * 3)).unwrap();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        // Whatever the scheduling, the reported failure is task 7's.
        let out: Result<Vec<usize>, _> = run_tasks(4, 64, "test.par", |i| {
            if i % 7 == 0 && i > 0 {
                Err(ExecError::Unsupported(format!("task {i}")))
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Err(ExecError::Unsupported("task 7".into())));
    }

    /// Raised when the worker thread that ran the failing task exits,
    /// which is after it set the pool's failed flag.
    static FAILED_WORKER_EXITED: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

    struct OnExit;

    impl Drop for OnExit {
        fn drop(&mut self) {
            *relock(&FAILED_WORKER_EXITED.0) = true;
            FAILED_WORKER_EXITED.1.notify_all();
        }
    }

    thread_local! {
        static EXIT_SIGNAL: RefCell<Option<OnExit>> = const { RefCell::new(None) };
    }

    #[test]
    fn failure_stops_the_pool_early() {
        // Every task but task 0 waits until task 0's worker has failed
        // and exited, so each other worker holds at most one started
        // task when it next checks the failed flag, whatever the
        // scheduling.
        let started = AtomicU64::new(0);
        let res = run_tasks::<(), _>(4, 10_000, "test.par", |i| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                EXIT_SIGNAL.with(|s| *s.borrow_mut() = Some(OnExit));
                return Err(ExecError::Unsupported("boom".into()));
            }
            let (lock, cv) = &FAILED_WORKER_EXITED;
            let mut exited = relock(lock);
            while !*exited {
                exited = cv.wait(exited).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            Ok(())
        });
        assert_eq!(res, Err(ExecError::Unsupported("boom".into())));
        // Task 0 plus one held task per other worker: the failed flag
        // stopped every worker before it took another.
        assert!(started.load(Ordering::Relaxed) <= 4, "{started:?} tasks started");
    }

    #[test]
    fn worker_task_counters_merge_exactly_across_threads() {
        let rec = aqks_obs::Recorder::enabled();
        {
            let _exec = rec.span("exec");
            for _ in 0..4 {
                run_tasks(8, 1_000, "test.par.merge", |i| {
                    std::hint::black_box(i);
                    Ok(())
                })
                .unwrap();
            }
        }
        let trace = rec.take();
        let exec = &trace.roots[0];
        // Every task is counted exactly once, no matter which worker
        // ran it or how the morsels interleaved, on the calling
        // thread's span; the pools open no spans of their own.
        assert_eq!(exec.counter("par.tasks.test.par.merge"), Some(4_000));
        assert_eq!(exec.counter("par.pools"), Some(4));
        assert!(exec.children.is_empty(), "{exec:?}");
    }

    #[test]
    fn tasks_actually_run_on_multiple_threads() {
        let ids = Mutex::new(HashSet::new());
        run_tasks(4, 256, "test.par", |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::yield_now();
            Ok(())
        })
        .unwrap();
        assert!(ids.into_inner().unwrap().len() > 1);
    }
}
