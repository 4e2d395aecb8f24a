//! Background re-tuning: the queue and worker that upgrade cold-tier
//! kernels to full-tier ones without stalling the serving path.
//!
//! A tiered engine ([`ServeEngine::with_tiered_cold_start`]) answers a
//! cold request immediately with a cheap, search-capped compile and
//! enqueues a [`RetuneJob`] here. The queue is **bounded** (a burst of
//! novel workloads must not grow an unbounded backlog), **deduplicated**
//! per `(target, workload)` (one upgrade covers every model namespace
//! sharing the kernel), and drained **hottest first**: the job whose
//! `(model, target)` pair has served the most requests — the engine's
//! [`crate::ServeMetrics`] hot-pair table — re-tunes before colder ones,
//! with FIFO order breaking ties.
//!
//! Draining is exposed two ways:
//!
//! * [`ServeEngine::run_pending_retunes`] — synchronous, for
//!   deterministic tests and single-threaded demos;
//! * [`RetuneWorker`] — a dedicated background thread (one per engine)
//!   that drains continuously and hot-swaps upgrades mid-traffic.
//!
//! [`ServeEngine::with_tiered_cold_start`]: crate::ServeEngine::with_tiered_cold_start
//! [`ServeEngine::run_pending_retunes`]: crate::ServeEngine::run_pending_retunes

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use unit_graph::CacheWorkload;

use crate::engine::ServeEngine;
use crate::lock_recovering;

/// Maximum pending re-tune jobs. A full queue drops new jobs instead of
/// growing: the next request for the dropped workload re-enqueues it
/// (the hit path enqueues for every cold-tier kernel it serves), so a
/// drop delays an upgrade, never loses it.
pub const RETUNE_QUEUE_CAPACITY: usize = 256;

/// One pending background re-tune: re-run the tuner at the full tier
/// for `workload` on `target`, then hot-swap the result in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetuneJob {
    /// The model namespace whose request triggered the job (the
    /// priority signal reads this pair's request count; the swap itself
    /// upgrades every namespace sharing the kernel).
    pub model: String,
    /// Target descriptor id.
    pub target: String,
    /// The workload to re-tune.
    pub workload: CacheWorkload,
    /// When the job entered the queue — the retune-queue-wait span in
    /// request traces measures from here. Never part of job identity:
    /// dedup compares `(target, workload)` only.
    pub enqueued: Instant,
}

/// The bounded, deduplicated re-tune queue (owned by the engine).
#[derive(Debug, Default)]
pub(crate) struct RetuneQueue {
    jobs: Mutex<Vec<RetuneJob>>,
    work: Condvar,
}

impl RetuneQueue {
    /// Enqueue `job` unless an equivalent `(target, workload)` job is
    /// already pending or the queue is full. Returns whether the job
    /// was actually enqueued.
    pub(crate) fn push(&self, job: RetuneJob) -> bool {
        let mut jobs = lock_recovering(&self.jobs);
        let duplicate = jobs
            .iter()
            .any(|j| j.target == job.target && j.workload == job.workload);
        if duplicate || jobs.len() >= RETUNE_QUEUE_CAPACITY {
            return false;
        }
        jobs.push(job);
        self.work.notify_one();
        true
    }

    /// Pending jobs.
    pub(crate) fn len(&self) -> usize {
        lock_recovering(&self.jobs).len()
    }

    /// Remove and return the job maximizing `priority`; the earliest
    /// enqueued job wins ties (FIFO). `None` when the queue is empty.
    pub(crate) fn pop_max_by(&self, priority: impl Fn(&RetuneJob) -> u64) -> Option<RetuneJob> {
        let mut jobs = lock_recovering(&self.jobs);
        let best = jobs
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| priority(a).cmp(&priority(b)).then(ib.cmp(ia)))?
            .0;
        Some(jobs.remove(best))
    }

    /// Block until a job is enqueued or `timeout` elapses. (The worker
    /// re-checks its stop flag on every wake, so the timeout also bounds
    /// shutdown latency.)
    pub(crate) fn wait_for_work(&self, timeout: Duration) {
        let jobs = lock_recovering(&self.jobs);
        if jobs.is_empty() {
            let _ = self.work.wait_timeout(jobs, timeout);
        }
    }
}

/// The dedicated background re-tune worker: one thread draining its
/// engine's queue for as long as the worker lives. Dropping (or
/// [`RetuneWorker::shutdown`]) stops the thread and joins it; pending
/// jobs stay queued and can still be drained synchronously.
pub struct RetuneWorker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RetuneWorker {
    /// Start the worker thread for `engine`.
    #[must_use]
    pub fn start(engine: Arc<ServeEngine>) -> RetuneWorker {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if engine.run_pending_retunes() == 0 {
                        engine.wait_for_retune_work(Duration::from_millis(10));
                    }
                }
            })
        };
        RetuneWorker {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop and join the worker thread (drop does the same; this form
    /// makes shutdown explicit).
    pub fn shutdown(mut self) {
        self.stop_in_place();
    }

    fn stop_in_place(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RetuneWorker {
    fn drop(&mut self) {
        self.stop_in_place();
    }
}

impl std::fmt::Debug for RetuneWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetuneWorker")
            .field("stopped", &self.stop.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_graph::OpSpec;

    fn job(model: &str, target: &str, m: i64) -> RetuneJob {
        RetuneJob {
            model: model.to_string(),
            target: target.to_string(),
            workload: CacheWorkload::Op(OpSpec::gemm(m, 8, 8)),
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn queue_dedups_on_target_and_workload_not_model() {
        let q = RetuneQueue::default();
        assert!(q.push(job("a", "cpu", 8)));
        assert!(
            !q.push(job("b", "cpu", 8)),
            "same (target, workload) under another model is the same upgrade"
        );
        assert!(q.push(job("a", "gpu", 8)), "another target is distinct");
        assert!(q.push(job("a", "cpu", 16)), "another workload is distinct");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn queue_is_bounded_and_drops_overflow() {
        let q = RetuneQueue::default();
        for m in 0..RETUNE_QUEUE_CAPACITY {
            assert!(q.push(job("m", "cpu", m as i64 + 1)));
        }
        assert!(!q.push(job("m", "cpu", RETUNE_QUEUE_CAPACITY as i64 + 1)));
        assert_eq!(q.len(), RETUNE_QUEUE_CAPACITY);
    }

    #[test]
    fn pop_takes_the_hottest_job_fifo_on_ties() {
        let q = RetuneQueue::default();
        q.push(job("cool", "cpu", 8));
        q.push(job("hot", "cpu", 16));
        q.push(job("tied-first", "cpu", 24));
        q.push(job("tied-second", "cpu", 32));
        let heat = |j: &RetuneJob| match j.model.as_str() {
            "hot" => 10,
            "cool" => 1,
            _ => 5,
        };
        assert_eq!(q.pop_max_by(heat).unwrap().model, "hot");
        assert_eq!(
            q.pop_max_by(heat).unwrap().model,
            "tied-first",
            "equal priority drains in FIFO order"
        );
        assert_eq!(q.pop_max_by(heat).unwrap().model, "tied-second");
        assert_eq!(q.pop_max_by(heat).unwrap().model, "cool");
        assert!(q.pop_max_by(heat).is_none());
    }
}
