//! Shared per-configuration pool: the whole run when no fault plane is
//! attached, the warm-up image when one is.
//!
//! Seeds of one configuration diverge only where the fault plane is
//! reseeded, at the warm-up boundary. With no fault plane the reseed does
//! nothing and every seed is the same simulation end to end: the first
//! successful run, cold, parks its digest here and later seeds are
//! answered with it. With one, every seed shares the warm-up prefix: the
//! first worker to need it simulates the warm-up, snapshots, and parks the
//! image here; later seeds restore from the shared image for nearly free
//! (`raccd-snap` round-trips are byte-identical by the snapshot e2e
//! suite). A run in flight is waited for, not duplicated; a failed one
//! pools nothing, so the next attempt runs again.

use crate::ledger::JobDigest;
use raccd_snap::Snapshot;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Pool counters (campaign report material).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapPoolStats {
    /// Restores served from a pooled image.
    pub hits: u64,
    /// Warm-ups simulated and pooled.
    pub misses: u64,
    /// Attempts answered with a pooled run's digest, without a driver run.
    pub shared: u64,
}

#[derive(Default)]
struct Inner {
    images: HashMap<u64, Arc<Snapshot>>,
    /// A fingerprint's pooled digest, or `None` while its run is in flight.
    runs: HashMap<u64, Option<JobDigest>>,
    stats: SnapPoolStats,
}

/// Concurrent map from configuration fingerprint to its post-warm-up
/// snapshot and, for a fault-free configuration, its run's digest.
#[derive(Default)]
pub struct SnapshotPool {
    inner: Mutex<Inner>,
    /// Waiters on an in-flight run; notified when it settles.
    settled: Condvar,
}

/// A claimed run: pools its digest, or frees the fingerprint when the run
/// failed or panicked, and wakes the waiters either way.
struct Claim<'a> {
    pool: &'a SnapshotPool,
    fingerprint: u64,
    digest: Option<JobDigest>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut inner = self.pool.lock();
        match self.digest.take() {
            Some(d) => inner.runs.insert(self.fingerprint, Some(d)),
            None => inner.runs.remove(&self.fingerprint),
        };
        drop(inner);
        self.pool.settled.notify_all();
    }
}

impl SnapshotPool {
    /// Fetch the pooled image for `fingerprint`, or build it with `make`
    /// and pool it. `make` runs outside the lock, so concurrent misses on
    /// *different* fingerprints warm up in parallel; a duplicate build of
    /// the same fingerprint is possible under a race but harmless (images
    /// are deterministic — first insert wins, and the loser counts a hit).
    pub fn get_or_build(&self, fingerprint: u64, make: impl FnOnce() -> Snapshot) -> Arc<Snapshot> {
        if let Some(img) = self.lookup(fingerprint) {
            return img;
        }
        let built = Arc::new(make());
        let mut inner = self.lock();
        if let Some(existing) = inner.images.get(&fingerprint).cloned() {
            inner.stats.hits += 1;
            return existing;
        }
        inner.stats.misses += 1;
        inner.images.insert(fingerprint, Arc::clone(&built));
        built
    }

    fn lookup(&self, fingerprint: u64) -> Option<Arc<Snapshot>> {
        let mut inner = self.lock();
        let img = inner.images.get(&fingerprint).cloned();
        if img.is_some() {
            inner.stats.hits += 1;
        }
        img
    }

    /// The digest of `fingerprint`'s run: pooled, waited for while another
    /// thread runs it, or made here by `run` (outside the lock). Only an
    /// `Ok` is pooled; after an `Err` or a panic the next caller runs it.
    /// The caller vouches that every run of `fingerprint` gives one digest.
    pub fn get_or_run(
        &self,
        fingerprint: u64,
        run: impl FnOnce() -> Result<JobDigest, String>,
    ) -> Result<JobDigest, String> {
        let mut inner = self.lock();
        loop {
            match inner.runs.get(&fingerprint) {
                Some(Some(d)) => {
                    let d = d.clone();
                    inner.stats.shared += 1;
                    return Ok(d);
                }
                Some(None) => {}
                None => break,
            }
            inner = self.settled.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        inner.runs.insert(fingerprint, None);
        drop(inner);
        let mut claim = Claim {
            pool: self,
            fingerprint,
            digest: None,
        };
        let out = run();
        claim.digest = out.as_ref().ok().cloned();
        out
    }

    /// Counters so far.
    pub fn stats(&self) -> SnapPoolStats {
        self.lock().stats
    }

    /// Pooled images.
    pub fn len(&self) -> usize {
        self.lock().images.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_then_hits() {
        let pool = SnapshotPool::default();
        let mut builds = 0;
        for _ in 0..5 {
            pool.get_or_build(42, || {
                builds += 1;
                Snapshot::new()
            });
        }
        assert_eq!(builds, 1);
        let st = pool.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, 4);
        assert_eq!(pool.len(), 1);
    }

    fn digest(cycles: u64) -> JobDigest {
        JobDigest {
            cycles,
            ..JobDigest::default()
        }
    }

    /// A failed or panicking run pools nothing: the next caller runs, and
    /// only its success answers the callers after it.
    #[test]
    fn runs_once_after_failures_then_shares() {
        let pool = SnapshotPool::default();
        assert_eq!(
            pool.get_or_run(7, || Err("boom".into())),
            Err("boom".into())
        );
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.get_or_run(7, || panic!("in the run"))
        }));
        assert!(panicked.is_err());
        assert_eq!(pool.get_or_run(7, || Ok(digest(3))), Ok(digest(3)));
        for _ in 0..3 {
            let shared = pool.get_or_run(7, || unreachable!("pooled"));
            assert_eq!(shared, Ok(digest(3)));
        }
        assert_eq!(pool.stats().shared, 3);
        assert_eq!(pool.get_or_run(8, || Ok(digest(4))), Ok(digest(4)));
        assert_eq!(pool.stats().shared, 3, "another fingerprint runs itself");
    }

    /// Callers that arrive while a run is in flight wait for it instead of
    /// running it again.
    #[test]
    fn an_in_flight_run_is_waited_for() {
        let pool = SnapshotPool::default();
        let (started, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let runs = std::sync::atomic::AtomicU32::new(0);
        let run = || {
            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(digest(9))
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.get_or_run(1, || {
                    started.wait();
                    release.wait();
                    run()
                })
            });
            started.wait();
            let waiters: Vec<_> = (0..3)
                .map(|_| s.spawn(|| pool.get_or_run(1, run)))
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(20));
            release.wait();
            for w in waiters {
                assert_eq!(w.join().unwrap(), Ok(digest(9)));
            }
        });
        assert_eq!(runs.into_inner(), 1);
        assert_eq!(pool.stats().shared, 3);
    }
}
