//! Shared-read / exclusive-reconfigure ownership of a [`DualStore`].
//!
//! The dual-store design `D = ⟨T_R, T_G⟩` is read-only during the online
//! phase — §4.2 of the paper confines all design changes (migration,
//! eviction, tuning) to the offline phase between batches. [`SharedStore`]
//! turns that phase discipline into a lock discipline: query workers hold
//! the read side of one `RwLock` for the duration of a batch, and the
//! tuner takes the write side in [`SharedStore::reconfigure`], which also
//! advances a monotonically increasing **epoch**. A design change can
//! therefore never interleave with an in-flight query: the write acquire
//! is the batch barrier.

use bytes::Bytes;
use kgdual_core::{persist, DualStore, PhysicalTuner, RestoreReport};
use kgdual_graphstore::{AdjacencyBackend, GraphBackend};
use kgdual_model::DesignError;
use kgdual_sched::Scheduler;
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`DualStore`] shared between concurrent query workers (readers) and
/// the physical tuner (exclusive writer).
///
/// Generic over the graph-store substrate; the `AdjacencyBackend` default
/// keeps concrete `SharedStore` mentions source-compatible.
#[derive(Debug)]
pub struct SharedStore<B: GraphBackend = AdjacencyBackend> {
    store: RwLock<DualStore<B>>,
    epoch: AtomicU64,
}

impl<B: GraphBackend> SharedStore<B> {
    /// Take ownership of a dual store, starting at epoch 0.
    pub fn new(dual: DualStore<B>) -> Self {
        SharedStore {
            store: RwLock::new(dual),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current reconfiguration epoch: the number of exclusive design
    /// phases that have completed. Two reads of the store under the same
    /// epoch observed the same physical design.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Acquire shared read access for query execution. Many readers may
    /// hold this simultaneously; a pending [`reconfigure`] blocks until
    /// all guards drop.
    ///
    /// [`reconfigure`]: SharedStore::reconfigure
    pub fn read(&self) -> RwLockReadGuard<'_, DualStore<B>> {
        self.store.read()
    }

    /// Run one exclusive reconfiguration phase (tuning, migration, data
    /// updates) and advance the epoch. Blocks until every in-flight batch
    /// has released its read guard, so design changes land *between*
    /// batches, never mid-flight.
    pub fn reconfigure<R>(&self, f: impl FnOnce(&mut DualStore<B>) -> R) -> R {
        let mut guard = self.write_timed();
        let out = f(&mut guard);
        // Publish the new design before readers can reacquire.
        self.epoch.fetch_add(1, Ordering::Release);
        out
    }

    /// Unwrap the store (end of experiment).
    pub fn into_inner(self) -> DualStore<B> {
        self.store.into_inner()
    }

    /// Write acquire with the wait recorded in the epoch-barrier
    /// histogram — the time a design change spent draining in-flight
    /// batches.
    fn write_timed(&self) -> parking_lot::RwLockWriteGuard<'_, DualStore<B>> {
        let wait = kgdual_obs::timer();
        let guard = self.store.write();
        if let Some(ns) = wait.elapsed_ns() {
            crate::obs::exec_obs().epoch_wait.record(ns);
        }
        guard
    }

    /// Does nothing.
    ///
    /// Inert: kgbench links it (`benchmark/src/sut.rs:419`); ROADMAP
    /// 14(c)'s benchmark change deletes it.
    pub fn install_shard_dispatch(&self, _dispatch: Arc<SchedShardDispatch>) {}

    /// Capture a design checkpoint once in-flight batches have drained.
    ///
    /// Takes the **write** lock — the same barrier as
    /// [`reconfigure`](SharedStore::reconfigure) — so the checkpoint waits
    /// for every in-flight batch to release its read guard and can never
    /// observe a half-executed online phase. Unlike `reconfigure` it does
    /// not advance the epoch: a checkpoint changes no design. The current
    /// epoch is recorded in the snapshot so a restarted store resumes the
    /// same tuning-trail position. Serialisation runs on the caller's
    /// thread, under the lock. Intended between batches (where the write
    /// lock is free); calling it mid-batch simply blocks until the batch
    /// drains.
    pub fn checkpoint(&self, tuner: Option<&dyn PhysicalTuner<B>>) -> Bytes {
        let wall = kgdual_obs::timer();
        let guard = self.write_timed();
        let snap = persist::save_checkpoint(&guard, tuner, self.epoch());
        if let Some(ns) = wall.elapsed_ns() {
            crate::obs::exec_obs().checkpoint_wall.record(ns);
        }
        snap
    }

    /// Restore a checkpoint produced by [`checkpoint`](SharedStore::checkpoint)
    /// (or [`kgdual_core::persist::save_checkpoint`]) under the write
    /// lock, rehydrating the design, optionally the tuner, and the
    /// recorded reconfiguration epoch. Decode and validation errors leave
    /// the store, tuner, and epoch untouched; the epoch only moves on
    /// success. (For the one non-atomic corner — a *custom* backend
    /// failing natively mid-replay — see the atomicity note on
    /// [`kgdual_core::persist::restore_checkpoint`]: the design resets to
    /// cold, the tuner keeps its imported state, the epoch stays put.)
    pub fn restore(
        &self,
        tuner: Option<&mut dyn PhysicalTuner<B>>,
        snapshot: &[u8],
    ) -> Result<RestoreReport, DesignError> {
        let mut guard = self.write_timed();
        let report = persist::restore_checkpoint(&mut guard, tuner, snapshot)?;
        self.epoch.store(report.epoch, Ordering::Release);
        Ok(report)
    }
}

/// A field-less stand-in for the deleted hash-join probe fan-out.
///
/// Inert: kgbench links it (`benchmark/src/sut.rs:419`); ROADMAP 14(c)'s
/// benchmark change deletes it.
#[derive(Debug, Default)]
pub struct SchedShardDispatch;

impl SchedShardDispatch {
    /// Ignores `sched`.
    ///
    /// Inert: kgbench links it (`benchmark/src/sut.rs:419`); ROADMAP
    /// 14(c)'s benchmark change deletes it.
    pub fn new(_sched: Arc<Scheduler>) -> Self {
        SchedShardDispatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::{DatasetBuilder, Term};

    fn store() -> SharedStore {
        let mut b = DatasetBuilder::new();
        for i in 0..8 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:bornIn",
                &Term::iri(format!("y:c{}", i % 2)),
            );
        }
        SharedStore::new(DualStore::from_dataset(b.build(), 100))
    }

    #[test]
    fn epoch_advances_only_on_reconfigure() {
        let s = store();
        assert_eq!(s.epoch(), 0);
        {
            let _r1 = s.read();
            let _r2 = s.read();
            assert_eq!(s.epoch(), 0, "reads do not advance the epoch");
        }
        let migrated = s.reconfigure(|dual| {
            let p = dual.dict().pred_id("y:bornIn").unwrap();
            dual.migrate_partition(p).is_ok()
        });
        assert!(migrated);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.read().graph().used(), 8);
    }

    #[test]
    fn reconfigure_waits_for_readers() {
        // A reader held on another thread must delay the write side; the
        // readers-then-writer ordering is what makes mid-batch design
        // changes impossible.
        let s = store();
        let entered = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let guard = s.read();
            let writer = scope.spawn(|| {
                s.reconfigure(|_| {
                    entered.store(true, Ordering::SeqCst);
                });
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !entered.load(Ordering::SeqCst),
                "reconfigure must not run while a read guard is live"
            );
            drop(guard);
            writer.join().unwrap();
        });
        assert!(entered.load(Ordering::SeqCst));
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn checkpoint_waits_for_readers() {
        let s = store();
        s.reconfigure(|dual| {
            let p = dual.dict().pred_id("y:bornIn").unwrap();
            dual.migrate_partition(p).unwrap();
        });
        let idle = s.checkpoint(None);

        // A live read guard (an in-flight batch) blocks the checkpoint at
        // the write acquire until it drops.
        let entered = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let guard = s.read();
            let (sref, entered) = (&s, &entered);
            let writer = scope.spawn(move || {
                let snap = sref.checkpoint(None);
                entered.store(true, Ordering::SeqCst);
                snap
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !entered.load(Ordering::SeqCst),
                "checkpoint must wait for the in-flight batch to drain"
            );
            drop(guard);
            let snap = writer.join().unwrap();
            assert_eq!(snap, idle);
        });
    }

    #[test]
    fn into_inner_returns_the_store() {
        let s = store();
        s.reconfigure(|dual| {
            let p = dual.dict().pred_id("y:bornIn").unwrap();
            dual.migrate_partition(p).unwrap();
        });
        let dual = s.into_inner();
        assert_eq!(dual.graph().used(), 8);
    }
}
