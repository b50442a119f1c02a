//! The campaign worker pool: a fixed set of persistent worker threads
//! draining a bounded task queue.
//!
//! This is the *one* host-parallel fan-out implementation in the repo —
//! the campaign service schedules leased jobs through it, and
//! `raccd-bench`'s `figures` cell store rides the same pool instead of
//! hand-rolling a `std::thread::scope` loop.
//! Properties the callers rely on:
//!
//! - **Bounded queue with deterministic saturation**: [`WorkerPool::try_submit`]
//!   rejects (returning the task) exactly when the queue holds `cap`
//!   tasks — a pure function of submission order, so shedding decisions
//!   are reproducible.
//! - **Panic capture, not poisoning**: a panicking task is caught in the
//!   worker, recorded with its submitter-provided label, and the pool
//!   keeps running. [`WorkerPool::take_panics`] surfaces the failures so
//!   batch callers can re-panic with the *originating* job attached
//!   instead of a poisoned-mutex backtrace.
//! - **Cooperative cancellation**: [`WorkerPool::cancel`] stops workers
//!   from taking new tasks and flips the shared [`CancelToken`] that
//!   long-running tasks poll mid-flight.
//! - **Drain barrier**: [`WorkerPool::drain`] blocks until the queue is
//!   empty and every worker is idle.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work with a human-readable label for panic reports.
pub struct PoolTask {
    /// Submitter-provided description (shown when the task panics).
    pub label: String,
    /// The work itself.
    pub run: Box<dyn FnOnce(&PoolCtx) + Send + 'static>,
}

/// What a running task can see of the pool: the shared cancellation token
/// and which worker thread it landed on (campaign `leased` records name
/// the worker).
pub struct PoolCtx {
    /// Shared cancellation flag (poll mid-flight in long tasks).
    pub cancel: CancelToken,
    /// Index of the worker thread executing this task.
    pub worker: u32,
}

/// Shared cancellation flag handed to every task.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Has cancellation been requested?
    pub fn cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Request cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

struct PoolState {
    queue: VecDeque<PoolTask>,
    active: usize,
    open: bool,
    panics: Vec<(String, String)>,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for work; submitters notify.
    work: Condvar,
    /// `drain` waits here for quiescence; workers notify.
    idle: Condvar,
    cap: usize,
    cancel: CancelToken,
}

/// A fixed-width pool of persistent worker threads over a bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads over a queue bounded at `cap` tasks.
    pub fn new(workers: usize, cap: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: 0,
                open: true,
                panics: Vec::new(),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            cap: cap.max(1),
            cancel: CancelToken::default(),
        });
        let workers = (0..workers.max(1))
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, idx as u32))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Submit a task, rejecting it when the queue is at capacity (the
    /// rejected task comes back so the caller can shed it explicitly).
    pub fn try_submit(&self, task: PoolTask) -> Result<(), PoolTask> {
        let mut st = self.lock();
        if st.queue.len() >= self.shared.cap || !st.open || self.shared.cancel.cancelled() {
            return Err(task);
        }
        st.queue.push_back(task);
        drop(st);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Submit a task even past the capacity bound. Reserved for *requeues*
    /// (retries of work already admitted): the retry volume is bounded by
    /// `admitted × retry_budget`, so memory stays bounded, and a retry
    /// must never be shed by pressure from newer submissions.
    pub fn submit_unbounded(&self, task: PoolTask) {
        let mut st = self.lock();
        st.queue.push_back(task);
        drop(st);
        self.shared.work.notify_one();
    }

    /// Tasks queued but not yet taken by a worker.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Tasks currently executing.
    pub fn active(&self) -> usize {
        self.lock().active
    }

    /// Request cancellation: queued tasks are dropped, running tasks see
    /// the token flip at their next poll.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
        let mut st = self.lock();
        st.queue.clear();
        drop(st);
        self.shared.work.notify_all();
        self.shared.idle.notify_all();
    }

    /// Block until the queue is empty and all workers are idle.
    pub fn drain(&self) {
        let mut st = self.lock();
        while !(st.queue.is_empty() && st.active == 0) {
            st = self.shared.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Take the `(label, panic message)` pairs of every task that panicked
    /// since the last call.
    pub fn take_panics(&self) -> Vec<(String, String)> {
        std::mem::take(&mut self.lock().panics)
    }

    /// Run a labelled batch to completion and return the panic list (empty
    /// on full success). Convenience for scoped batch callers.
    pub fn run_batch(&self, tasks: impl IntoIterator<Item = PoolTask>) -> Vec<(String, String)> {
        for t in tasks {
            // Batch mode ignores the admission bound: the batch is the
            // workload, not traffic to be shed.
            self.submit_unbounded(t);
        }
        self.drain();
        self.take_panics()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.lock();
            st.open = false;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: u32) {
    let ctx = PoolCtx {
        cancel: shared.cancel.clone(),
        worker,
    };
    loop {
        let task = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(t) = st.queue.pop_front() {
                    st.active += 1;
                    break t;
                }
                if !st.open {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let PoolTask { label, run } = task;
        let result = catch_unwind(AssertUnwindSafe(|| run(&ctx)));
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.active -= 1;
        if let Err(payload) = result {
            // `&*payload` reborrows the payload itself — a bare `&payload`
            // would unsize the Box and the downcasts would always miss.
            st.panics.push((label, panic_message(&*payload)));
        }
        if st.queue.is_empty() && st.active == 0 {
            shared.idle.notify_all();
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn task(label: &str, f: impl FnOnce(&PoolCtx) + Send + 'static) -> PoolTask {
        PoolTask {
            label: label.to_string(),
            run: Box::new(f),
        }
    }

    #[test]
    fn runs_every_task_and_drains() {
        let pool = WorkerPool::new(4, 64);
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..32 {
            let hits = Arc::clone(&hits);
            pool.try_submit(task(&format!("t{i}"), move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap_or_else(|_| panic!("queue unexpectedly full"));
        }
        pool.drain();
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        assert!(pool.take_panics().is_empty());
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn saturation_is_deterministic() {
        // One worker parked on a gate so the queue actually fills.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = WorkerPool::new(1, 4);
        let g = Arc::clone(&gate);
        pool.try_submit(task("blocker", move |_| {
            let (m, cv) = &*g;
            let mut open = m.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }))
        .unwrap_or_else(|_| panic!("first submit must fit"));
        // Wait for the worker to take the blocker off the queue.
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let mut accepted = 0;
        let mut shed = 0;
        for i in 0..10 {
            match pool.try_submit(task(&format!("t{i}"), |_| {})) {
                Ok(()) => accepted += 1,
                Err(t) => {
                    assert_eq!(t.label, format!("t{i}"));
                    shed += 1;
                }
            }
        }
        // Exactly `cap` admitted past the in-flight blocker.
        assert_eq!(accepted, 4);
        assert_eq!(shed, 6);
        let (m, cv) = &*gate;
        *m.lock().unwrap() = true;
        cv.notify_all();
        pool.drain();
    }

    #[test]
    fn panics_are_captured_with_labels() {
        let pool = WorkerPool::new(2, 8);
        pool.try_submit(task("ok", |_| {})).ok().unwrap();
        pool.try_submit(task("boom Jacobi 1:8", |_| {
            panic!("verification failed: sum 3 != 4")
        }))
        .ok()
        .unwrap();
        pool.drain();
        let panics = pool.take_panics();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].0, "boom Jacobi 1:8");
        assert!(panics[0].1.contains("verification failed"));
        // Pool still works after a panic.
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        pool.try_submit(task("after", move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        }))
        .ok()
        .unwrap();
        pool.drain();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancel_drops_queue_and_flips_token() {
        let pool = WorkerPool::new(1, 64);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let saw_cancel = Arc::new(AtomicBool::new(false));
        let sc = Arc::clone(&saw_cancel);
        pool.try_submit(task("long", move |ctx| {
            let (m, cv) = &*g;
            let mut open = m.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            sc.store(ctx.cancel.cancelled(), Ordering::Relaxed);
        }))
        .ok()
        .unwrap();
        // Wait until the worker holds the blocker, so `cancel` below
        // cannot drop it from the queue before it ever runs.
        while pool.active() == 0 {
            std::thread::yield_now();
        }
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            pool.try_submit(task("queued", move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            }))
            .ok()
            .unwrap();
        }
        pool.cancel();
        let (m, cv) = &*gate;
        *m.lock().unwrap() = true;
        cv.notify_all();
        pool.drain();
        assert!(
            saw_cancel.load(Ordering::Relaxed),
            "token visible in-flight"
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0, "queued tasks dropped");
        assert!(pool.try_submit(task("rejected", |_| {})).is_err());
    }

    #[test]
    fn run_batch_reports_panics() {
        let pool = WorkerPool::new(3, 2); // cap smaller than batch: ignored
        let tasks: Vec<PoolTask> = (0..10)
            .map(|i| {
                task(&format!("item{i}"), move |_| {
                    if i == 7 {
                        panic!("bad item")
                    }
                })
            })
            .collect();
        let panics = pool.run_batch(tasks);
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].0, "item7");
    }
}
