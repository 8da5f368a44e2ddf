//! The work-stealing thread pool behind every `par_*` entry point.
//!
//! Helper threads are persistent: they are started the first time a
//! region asks for them (never more than the widest region so far needed)
//! and then sleep on one shared ticket queue. A region deals its tasks
//! into per-worker deques, posts one *ticket* per helper slot and wakes
//! that many helpers; the caller's thread is worker 0. Each worker drains
//! its own deque from the front and steals from the back of a victim's
//! deque when it runs dry, so the caller alone can finish a region whose
//! tickets nobody took.
//!
//! A ticket carries a reference to the region's worker closure, which
//! borrows the caller's stack (tasks, deques, results). That reference has
//! its lifetime erased in this crate's one `unsafe` block. Its invariant:
//! no helper touches a region after its caller has left it. The caller
//! holds a guard from before it posts; on return and on unwind alike the
//! guard withdraws the tickets no helper has taken and waits on the
//! region's latch, which each helper counts down only after its last use
//! of the closure.
//!
//! Panics: every task runs under `catch_unwind` on whichever thread ran
//! it, the other tasks still run, and the first panic recorded is
//! re-raised on the caller with `resume_unwind`. Helpers never unwind, so
//! they survive to serve the next region.
//!
//! Nesting: a region started on a helper thread runs inline on that
//! helper. A helper therefore never waits for other workers, which rules
//! out deadlock; a region started on a caller's thread inside another
//! region still fans out. Regions started at once from different OS
//! threads share the helpers through the one queue.
//!
//! Chunk partitioning (in `iter`) is a pure function of length and results
//! are placed by task index, so which thread ran a task never shows in a
//! result.
//!
//! Sizing: `MSR_THREADS` overrides the worker count (`0` or `1` force
//! fully sequential execution); unset, the pool uses
//! [`std::thread::available_parallelism`]. [`with_threads`] overrides the
//! count for one closure on the current thread — the hook the determinism
//! tests use to compare pool and forced-sequential runs in one process.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Worker-count configuration for parallel regions.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    threads: usize,
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on helper threads: a region started there runs inline.
    static IS_HELPER: Cell<bool> = const { Cell::new(false) };
    /// Tickets this thread has posted, for the tests' "never woke a
    /// helper" checks.
    #[cfg(test)]
    static POSTED: Cell<usize> = const { Cell::new(0) };
}

fn env_threads() -> Option<usize> {
    std::env::var("MSR_THREADS").ok()?.trim().parse().ok()
}

impl ThreadPool {
    /// A pool running parallel regions on `threads` workers (clamped to at
    /// least 1; 1 means sequential).
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The process-wide pool: `MSR_THREADS` if set, else the host's
    /// available parallelism.
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| {
            let n = env_threads().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            ThreadPool::new(n)
        })
    }

    /// Worker count of this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// The worker count parallel regions started from this thread will use.
pub fn current_num_threads() -> usize {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| ThreadPool::global().threads())
}

/// Run `f` with parallel regions on this thread capped to `threads`
/// workers (`0`/`1` force sequential execution). Restored on exit, panic
/// included.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(threads.max(1)))));
    f()
}

/// One worker's share of a region: drain deques as worker `w`.
type Work<'a> = dyn Fn(usize) + Sync + 'a;

/// A helper's claim on one worker slot of one region.
struct Ticket {
    work: &'static Work<'static>,
    worker: usize,
    latch: Arc<Latch>,
}

/// The tickets of one region that are posted and not yet finished.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn count_down(&self, n: usize) {
        let mut pending = lock(&self.pending);
        *pending -= n;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self
                .done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The helper threads' shared queue of tickets, and how many helpers
/// have been started.
struct Helpers {
    tickets: VecDeque<Ticket>,
    started: usize,
}

static HELPERS: Mutex<Helpers> = Mutex::new(Helpers {
    tickets: VecDeque::new(),
    started: 0,
});
static WAKE: Condvar = Condvar::new();

/// No pool lock is held while a task runs and task panics are caught, so
/// no lock here is poisoned; were one, the data behind it is still whole
/// (each update is a single push, pop, append or count), so it is taken
/// as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A helper thread: take a ticket, run its worker slot, count the
/// region's latch down; sleep while the queue is empty. Helpers are never
/// joined; they cannot panic (tasks run under `catch_unwind`) and sleep
/// until the process exits.
fn helper() {
    IS_HELPER.with(|h| h.set(true));
    let mut q = lock(&HELPERS);
    loop {
        match q.tickets.pop_front() {
            Some(Ticket {
                work,
                worker,
                latch,
            }) => {
                drop(q);
                work(worker);
                // The last touch of the region: after this its caller
                // may return and free everything `work` borrowed.
                latch.count_down(1);
                q = lock(&HELPERS);
            }
            None => q = WAKE.wait(q).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// Post one ticket per worker slot `1..workers`, starting helpers until
/// there are `workers - 1`. A helper that cannot be started is skipped:
/// the caller drains the region itself and withdraws what nobody took.
fn post(work: &'static Work<'static>, workers: usize, latch: &Arc<Latch>) {
    let mut q = lock(&HELPERS);
    while q.started < workers - 1 {
        let name = format!("rayon-helper-{}", q.started);
        if std::thread::Builder::new()
            .name(name)
            .spawn(helper)
            .is_err()
        {
            break;
        }
        q.started += 1;
    }
    q.tickets.extend((1..workers).map(|worker| Ticket {
        work,
        worker,
        latch: Arc::clone(latch),
    }));
    drop(q);
    #[cfg(test)]
    POSTED.with(|p| p.set(p.get() + workers - 1));
    for _ in 1..workers {
        WAKE.notify_one();
    }
}

/// Held by a region's caller from before its tickets are posted: on
/// return and on unwind alike, withdraws the tickets no helper has taken
/// and waits until every taken one is finished.
struct Join<'l>(&'l Arc<Latch>);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let mut q = lock(&HELPERS);
        let before = q.tickets.len();
        q.tickets.retain(|t| !Arc::ptr_eq(&t.latch, self.0));
        let withdrawn = before - q.tickets.len();
        drop(q);
        if withdrawn > 0 {
            self.0.count_down(withdrawn);
        }
        self.0.wait();
    }
}

/// Run `tasks` on the pool and return their results in task order.
///
/// The caller's thread doubles as worker 0, so a region of at most one
/// task, a single-thread region and any region started on a helper run
/// inline and wake nobody. A task panic is caught on whichever thread
/// ran it, every other task still runs, and the first panic recorded is
/// re-raised on the caller once every helper has left the region.
pub fn execute<T, R>(tasks: Vec<T>) -> Vec<R>
where
    T: FnOnce() -> R + Send,
    R: Send,
{
    let total = tasks.len();
    let workers = current_num_threads().min(total);
    if workers <= 1 || IS_HELPER.with(Cell::get) {
        return tasks.into_iter().map(|t| t()).collect();
    }

    // Deal contiguous blocks of tasks to each worker's deque: block c of a
    // balanced split preserves chunk locality for slice-backed regions.
    let mut feed = tasks.into_iter().enumerate();
    let deques: Vec<Mutex<VecDeque<(usize, T)>>> = (0..workers)
        .map(|w| {
            let lo = w * total / workers;
            let hi = (w + 1) * total / workers;
            Mutex::new(feed.by_ref().take(hi - lo).collect())
        })
        .collect();
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(total));
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    let work = |w: usize| {
        let mut mine = Vec::new();
        loop {
            // Own deque first (front), then steal from a victim's back.
            let mut job = lock(&deques[w]).pop_front();
            if job.is_none() {
                for off in 1..workers {
                    job = lock(&deques[(w + off) % workers]).pop_back();
                    if job.is_some() {
                        break;
                    }
                }
            }
            let Some((idx, task)) = job else { break };
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(r) => mine.push((idx, r)),
                Err(payload) => {
                    lock(&panic).get_or_insert(payload);
                }
            }
        }
        lock(&done).append(&mut mine);
    };

    let latch = Arc::new(Latch {
        pending: Mutex::new(workers - 1),
        done: Condvar::new(),
    });
    let join = Join(&latch);
    // SAFETY: only the lifetime is erased; the type is unchanged. Helpers
    // reach `work` only through this region's tickets. `join` is dropped
    // before `work`, `deques`, `done` and `panic` (declared after them),
    // on return and on unwind, and its drop withdraws every ticket no
    // helper has taken, then waits until each taken one has counted the
    // latch down, which a helper does only after its last use of `work`.
    // So no helper touches the region once this frame is left.
    let erased = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(&work) };
    post(erased, workers, &latch);
    work(0);
    drop(join);

    if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(total).collect();
    for (idx, r) in done.into_inner().unwrap_or_else(PoisonError::into_inner) {
        results[idx] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every task ran exactly once"))
        .collect()
}

/// Run two closures, potentially in parallel, and return both results.
/// A panic in either side propagates to the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    enum Side<RA, RB> {
        A(RA),
        B(RB),
    }
    let tasks: Vec<Box<dyn FnOnce() -> Side<RA, RB> + Send + '_>> =
        vec![Box::new(|| Side::A(a())), Box::new(|| Side::B(b()))];
    match <[_; 2]>::try_from(execute(tasks)) {
        Ok([Side::A(ra), Side::B(rb)]) => (ra, rb),
        _ => unreachable!("results come back in task order"),
    }
}

#[cfg(test)]
mod tests {
    use super::{execute, with_threads, IS_HELPER, POSTED};
    use crate::prelude::*;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    fn posted() -> usize {
        POSTED.with(|p| p.get())
    }

    #[test]
    fn a_nested_region_completes_and_equals_the_sequential_result() {
        let inner = |i: usize| -> Vec<usize> {
            (0..200usize)
                .into_par_iter()
                .map(|j| i * 1000 + j)
                .collect::<Vec<_>>()
        };
        let seq: Vec<Vec<usize>> = (0..32).map(inner).collect();
        let nested: Vec<Vec<usize>> =
            with_threads(4, || (0..32usize).into_par_iter().map(inner).collect());
        assert_eq!(nested, seq);
    }

    /// Runs `on_caller` as the caller's task 0 and `on_helper` as task
    /// 1, which a helper must take: task 0 blocks until task 1 has
    /// reached the barrier inside `on_helper`.
    fn with_a_helper_task(on_caller: impl Fn() + Sync, on_helper: impl Fn(&Barrier) + Sync) {
        let barrier = Barrier::new(2);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| {
                barrier.wait();
                on_caller();
            }),
            Box::new(|| on_helper(&barrier)),
        ];
        with_threads(2, || execute(tasks));
    }

    #[test]
    fn a_region_started_on_a_helper_runs_inline() {
        with_a_helper_task(
            || {},
            |barrier| {
                let before = posted();
                let me = std::thread::current().id();
                let elsewhere = AtomicBool::new(false);
                with_threads(4, || {
                    (0..64usize).into_par_iter().for_each(|_| {
                        if std::thread::current().id() != me {
                            elsewhere.store(true, Ordering::SeqCst);
                        }
                    })
                });
                // Release the caller before asserting, so a failure fails
                // the test instead of stranding the caller at the barrier.
                barrier.wait();
                assert!(IS_HELPER.with(|h| h.get()));
                assert_eq!(posted(), before, "a helper posted tickets");
                assert!(
                    !elsewhere.load(Ordering::SeqCst),
                    "a nested task left the helper"
                );
            },
        );
    }

    #[test]
    fn a_panicking_caller_waits_for_its_helpers_before_unwinding() {
        let done = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_a_helper_task(
                || panic!("the caller's own task"),
                |barrier| {
                    barrier.wait();
                    // Still borrowing the caller's frame while it unwinds.
                    for _ in 0..1000 {
                        std::thread::yield_now();
                    }
                    done.store(true, Ordering::SeqCst);
                },
            )
        }));
        assert!(caught.is_err());
        assert!(
            done.load(Ordering::SeqCst),
            "the caller left before its helper"
        );
    }

    #[test]
    fn two_os_threads_start_regions_at_once() {
        std::thread::scope(|s| {
            for t in 0..2usize {
                s.spawn(move || {
                    for round in 0..50usize {
                        let want: usize = (0..500).map(|i| i * t + round).sum();
                        let got: usize = with_threads(3, || {
                            (0..500usize).into_par_iter().map(|i| i * t + round).sum()
                        });
                        assert_eq!(got, want, "thread {t} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_region_may_ask_for_more_workers_than_the_pool_has() {
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let out: Vec<usize> = with_threads(4, || {
            (0..1000usize)
                .into_par_iter()
                .map(|i| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    i * 2
                })
                .collect()
        });
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
        assert!(seen.into_inner().unwrap().len() <= 4);
    }

    #[test]
    fn empty_and_one_item_regions_wake_no_helper() {
        with_threads(4, || {
            let before = posted();
            let caller = std::thread::current().id();
            let none: Vec<u8> = execute(Vec::<fn() -> u8>::new());
            assert!(none.is_empty());
            let one = execute(vec![|| std::thread::current().id()]);
            assert_eq!(one, [caller]);
            let v: Vec<usize> = (0..1usize).into_par_iter().map(|i| i + 1).collect();
            assert_eq!(v, [1]);
            assert_eq!(posted(), before);
            // The counter is live: a two-item region posts one ticket.
            let _: Vec<()> = execute(vec![|| (), || ()]);
            assert_eq!(posted(), before + 1);
        });
    }
}
