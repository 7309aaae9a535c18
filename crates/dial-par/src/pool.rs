//! The work-stealing pool: worker threads, per-worker deques, the global
//! injector, and the task representation shared with the scope layer.

use crate::TaskPanicked;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};

/// A type-erased unit of work. Scoped primitives need tasks that borrow
/// the caller's stack, which `Box<dyn FnOnce + 'static>` cannot express;
/// instead a task is a raw pointer plus two functions — one that runs it
/// and releases it, one that releases it without running (used when a
/// queue is dropped). The scope layer guarantees the pointee outlives the
/// task (a scope never returns while its tasks are live).
pub(crate) struct Task {
    data: *mut (),
    run_fn: unsafe fn(*mut ()),
    release_fn: unsafe fn(*mut ()),
}

// Safety: constructors require the pointee's reachable state to be Send
// (enforced by bounds on the scope-layer entry points).
unsafe impl Send for Task {}

impl Task {
    /// Builds a task from its erased parts. Callers must guarantee that
    /// `data` stays valid until `run_fn` or `release_fn` consumes it and
    /// that the closure state it reaches is `Send`.
    pub(crate) unsafe fn from_raw(
        data: *mut (),
        run_fn: unsafe fn(*mut ()),
        release_fn: unsafe fn(*mut ()),
    ) -> Self {
        Self { data, run_fn, release_fn }
    }

    /// Runs the task, consuming it.
    fn run(self) {
        let data = self.data;
        let run_fn = self.run_fn;
        std::mem::forget(self);
        // Safety: per the from_raw contract, data is live and owned here.
        unsafe { run_fn(data) }
    }
}

impl Drop for Task {
    fn drop(&mut self) {
        // Safety: a dropped task was never run, so ownership is released
        // through the dedicated path.
        unsafe { (self.release_fn)(self.data) }
    }
}

/// One worker's deque. The owner pushes and pops at the back (LIFO keeps
/// nested subtasks hot in cache); thieves take from the front, i.e. the
/// oldest and therefore typically largest pending task.
struct WorkerQueue {
    deque: Mutex<VecDeque<Task>>,
}

thread_local! {
    /// `(pool id, worker index, pool handle)` when this thread is a pool
    /// worker. The handle is weak so parked TLS never keeps a pool alive.
    static WORKER: RefCell<Option<(usize, usize, Weak<Pool>)>> = const { RefCell::new(None) };
}

/// The pool owning the current thread, when it is a worker thread.
pub(crate) fn current_worker_pool() -> Option<Arc<Pool>> {
    WORKER.with_borrow(|w| w.as_ref().and_then(|(_, _, weak)| weak.upgrade()))
}

static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

/// The pool's sleep gate. Lives in its own `Arc` so parked workers hold
/// no strong reference to the pool itself — otherwise idle workers would
/// keep each other's upgrades alive forever and the pool could never die.
struct SleepCell {
    /// `true` once the pool is shutting down; checked under the lock.
    stop: Mutex<bool>,
    cv: Condvar,
}

/// A fixed-width work-stealing thread pool.
///
/// Dropping the last external handle shuts the pool down: workers hold
/// only weak references plus the detached [`SleepCell`], and the pool's
/// `Drop` trips the sleep gate so parked workers exit promptly.
pub struct Pool {
    id: usize,
    threads: usize,
    injector: Mutex<VecDeque<Task>>,
    queues: Vec<WorkerQueue>,
    sleep: Arc<SleepCell>,
    shutdown: AtomicBool,
}

impl Pool {
    /// Builds a pool with `threads` workers (clamped to at least 1). On a
    /// one-thread pool every scoped primitive runs inline on the caller —
    /// the documented serial path — and the single worker exists only to
    /// drain detached [`Pool::spawn`] jobs.
    pub fn new(threads: usize) -> Arc<Self> {
        let threads = threads.max(1);
        let workers = threads;
        let pool = Arc::new(Self {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            threads,
            injector: Mutex::new(VecDeque::new()),
            queues: (0..workers)
                .map(|_| WorkerQueue { deque: Mutex::new(VecDeque::new()) })
                .collect(),
            sleep: Arc::new(SleepCell { stop: Mutex::new(false), cv: Condvar::new() }),
            shutdown: AtomicBool::new(false),
        });
        for idx in 0..workers {
            let weak = Arc::downgrade(&pool);
            let sleep = Arc::clone(&pool.sleep);
            std::thread::Builder::new()
                .name(format!("dial-par-{}-{idx}", pool.id))
                .spawn(move || worker_loop(&weak, &sleep, idx))
                .expect("spawn dial-par worker");
        }
        pool
    }

    /// The pool's width, counting the caller's thread: scoped primitives
    /// split work into chunks sized for this many lanes.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Stops the workers. Queued tasks that never ran are released
    /// unexecuted; running tasks finish. Idempotent, and implied by
    /// dropping the last `Arc<Pool>`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        *self.sleep.stop.lock().expect("pool sleep lock") = true;
        self.sleep.cv.notify_all();
    }

    /// Submits a detached, owned task (fire-and-forget). Panics inside
    /// the task are caught by the executing worker and discarded; the
    /// pool is never poisoned.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        type OwnedJob = Box<dyn FnOnce() + Send + 'static>;
        unsafe fn run_owned(data: *mut ()) {
            // Safety: data came from Box::into_raw of a Box<OwnedJob>.
            let job = unsafe { Box::from_raw(data.cast::<OwnedJob>()) };
            job();
        }
        unsafe fn release_owned(data: *mut ()) {
            // Safety: as above; dropping without running.
            drop(unsafe { Box::from_raw(data.cast::<OwnedJob>()) });
        }
        let boxed: Box<OwnedJob> = Box::new(Box::new(job));
        // Safety: the pointee is owned by the task and Send by bound.
        let task =
            unsafe { Task::from_raw(Box::into_raw(boxed).cast::<()>(), run_owned, release_owned) };
        self.push_task(task);
    }

    /// Enqueues a task: onto the submitting worker's own deque when the
    /// caller is one of this pool's workers, else onto the injector.
    pub(crate) fn push_task(&self, task: Task) {
        // Chaos hook: an injected queue stall delays the hand-off (the
        // submitting thread sleeps before the task becomes stealable),
        // modelling a contended or descheduled producer.
        if let Some(dial_fault::FaultAction::Delay(d)) =
            dial_fault::inject(dial_fault::FaultPoint::QueueStall)
        {
            std::thread::sleep(d);
        }
        let own_queue = WORKER.with_borrow(|w| match w {
            Some((pool_id, idx, _)) if *pool_id == self.id => Some(*idx),
            _ => None,
        });
        match own_queue {
            Some(idx) => self.queues[idx].deque.lock().expect("worker deque lock").push_back(task),
            None => self.injector.lock().expect("injector lock").push_back(task),
        }
        let _held = self.sleep.stop.lock().expect("pool sleep lock");
        self.sleep.cv.notify_one();
    }

    /// Takes one pending task: own deque back (LIFO) for workers, then
    /// the injector front, then the front of sibling deques scanning
    /// round-robin from the caller's position.
    pub(crate) fn find_task(&self) -> Option<Task> {
        let own = WORKER.with_borrow(|w| match w {
            Some((pool_id, idx, _)) if *pool_id == self.id => Some(*idx),
            _ => None,
        });
        if let Some(idx) = own {
            if let Some(task) = self.queues[idx].deque.lock().expect("worker deque lock").pop_back()
            {
                return Some(task);
            }
        }
        if let Some(task) = self.injector.lock().expect("injector lock").pop_front() {
            return Some(task);
        }
        let n = self.queues.len();
        let start = own.map_or(0, |i| i + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == own {
                continue;
            }
            if let Some(task) =
                self.queues[victim].deque.lock().expect("worker deque lock").pop_front()
            {
                return Some(task);
            }
        }
        None
    }

    /// True while any queue holds a task (used under `idle_lock` for the
    /// race-free sleep check).
    fn has_pending(&self) -> bool {
        if !self.injector.lock().expect("injector lock").is_empty() {
            return true;
        }
        self.queues.iter().any(|q| !q.deque.lock().expect("worker deque lock").is_empty())
    }

    /// Runs one pending task if there is one. Used by waiting scopes to
    /// keep the pool busy instead of blocking. Panics are contained and
    /// reported per-scope, never propagated to the helper.
    pub(crate) fn help_once(&self) -> bool {
        match self.find_task() {
            Some(task) => {
                // Scope tasks catch their own panics; this guard covers
                // detached `spawn` jobs so helpers are never unwound by
                // someone else's work.
                let _ = catch_unwind(AssertUnwindSafe(|| task.run()));
                true
            }
            None => false,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        *self.sleep.stop.lock().expect("pool sleep lock") = true;
        self.sleep.cv.notify_all();
    }
}

fn worker_loop(weak: &Weak<Pool>, sleep: &Arc<SleepCell>, idx: usize) {
    let pool_id = match weak.upgrade() {
        Some(pool) => pool.id,
        None => return,
    };
    WORKER.with_borrow_mut(|w| *w = Some((pool_id, idx, weak.clone())));
    // lint:allow(missing-checkpoint): deadline checkpoints run per chunk inside run_chunk(); this loop only dispatches and parks
    loop {
        // Work phase: the strong handle lives only for this block, so a
        // parked sibling never keeps the pool alive through us.
        let worked = match weak.upgrade() {
            None => break,
            Some(pool) => {
                if pool.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                pool.help_once()
            }
        };
        if worked {
            continue;
        }
        // Sleep phase: re-check for work under the sleep lock (pushes
        // notify under it, so this cannot lose a wakeup), then park —
        // with no timeout, since every push notifies and shutdown (both
        // explicit and via the pool's Drop) does a notify_all — and
        // without holding any strong reference to the pool.
        let guard = sleep.stop.lock().expect("pool sleep lock");
        if *guard {
            break;
        }
        let pending = match weak.upgrade() {
            None => break,
            Some(pool) => pool.has_pending(),
        };
        if pending {
            continue;
        }
        drop(sleep.cv.wait(guard).expect("pool sleep wait"));
    }
    WORKER.with_borrow_mut(|w| *w = None);
}

impl Pool {
    /// Instance form of [`crate::parallel_map`]; see the crate docs for
    /// the determinism contract.
    pub fn parallel_map<T, R, F>(self: &Arc<Self>, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        match self.try_parallel_map(items, f) {
            Ok(out) => out,
            // Already reported once by the hook; don't run it again.
            Err(panicked) => std::panic::resume_unwind(Box::new(panicked.message)),
        }
    }

    /// Instance form of [`crate::try_parallel_map`].
    pub fn try_parallel_map<T, R, F>(
        self: &Arc<Self>,
        items: Vec<T>,
        f: F,
    ) -> Result<Vec<R>, TaskPanicked>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        crate::scope::map_on(self, items, f)
    }

    /// Instance form of [`crate::join`].
    pub fn join<RA, RB>(
        self: &Arc<Self>,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        crate::scope::join_on(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn spawn_runs_detached_jobs() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) < 16 {
            assert!(Instant::now() < deadline, "spawned jobs never finished");
            std::thread::yield_now();
        }
    }

    #[test]
    fn spawned_panic_does_not_poison_the_pool() {
        let pool = Pool::new(2);
        pool.spawn(|| panic!("injected"));
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.spawn(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "pool died after a panic");
            std::thread::yield_now();
        }
    }

    #[test]
    fn workers_exit_when_the_pool_is_dropped() {
        let pool = Pool::new(2);
        let weak = Arc::downgrade(&pool);
        drop(pool);
        let deadline = Instant::now() + Duration::from_secs(10);
        while weak.strong_count() > 0 {
            assert!(Instant::now() < deadline, "workers kept the pool alive");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
