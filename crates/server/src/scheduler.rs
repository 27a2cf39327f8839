//! Weighted fair dispatch: deficit round-robin over per-tenant rings of
//! ready connections.
//!
//! Workers pull connections (not individual requests) from the scheduler;
//! a connection is *ready* when its queue went empty→non-empty and it is
//! not already claimed by a worker. Tenants take turns in deficit
//! round-robin: each pass a tenant may dispatch up to `deficit` ready
//! connections; deficits refill in proportion to the tenant's weight once
//! every tenant's deficit (or ring) is exhausted. A tenant flooding the
//! server with ready connections therefore cannot starve a light tenant —
//! the light tenant's ring is visited every cycle.
//!
//! The scheduler also owns the server's *execution slots*: a dispatch from
//! [`Scheduler::next`] holds one until [`Scheduler::release`], and so does
//! a reader that runs a request itself after [`Scheduler::try_claim`]. The
//! claim succeeds only while no connection is ready, so an inline run never
//! overtakes a connection waiting in a ring, and inline runs and worker
//! dispatches together never exceed the slot count.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// A schedulable item: anything that knows its tenant.
pub trait Schedulable {
    /// Owning tenant id (index into the scheduler's rings).
    fn tenant(&self) -> u32;
}

struct Rings<T> {
    /// One FIFO of ready items per tenant.
    rings: Vec<VecDeque<Arc<T>>>,
    /// Remaining dispatch credit per tenant in the current cycle.
    deficit: Vec<u32>,
    /// Next tenant to inspect (rotates for fairness).
    cursor: usize,
    /// Total ready items across all rings.
    ready: usize,
    /// Execution slots currently held (dispatches plus inline claims).
    busy: usize,
    shutdown: bool,
}

impl<T> Rings<T> {
    fn can_dispatch(&self, slots: usize) -> bool {
        self.ready > 0 && self.busy < slots
    }
}

/// Deficit round-robin scheduler; `next()` blocks until an item is ready
/// and an execution slot is free, or shutdown.
pub struct Scheduler<T> {
    inner: Mutex<Rings<T>>,
    available: Condvar,
    /// Dispatch credit each tenant gets per refill.
    weights: Vec<u32>,
    /// Execution slots; `usize::MAX` for a scheduler that never bounds.
    slots: usize,
}

impl<T: Schedulable> Scheduler<T> {
    /// Scheduler for `weights.len()` tenants with unbounded execution
    /// slots: `next` never waits for a [`Scheduler::release`].
    pub fn new(weights: Vec<u32>) -> Self {
        Self::with_slots(weights, usize::MAX)
    }

    /// Scheduler for `weights.len()` tenants whose dispatches and inline
    /// claims together hold at most `slots` (≥ 1) execution slots.
    pub fn with_slots(weights: Vec<u32>, slots: usize) -> Self {
        let n = weights.len();
        let weights: Vec<u32> = weights.into_iter().map(|w| w.max(1)).collect();
        Scheduler {
            inner: Mutex::new(Rings {
                rings: (0..n).map(|_| VecDeque::new()).collect(),
                deficit: weights.clone(),
                cursor: 0,
                ready: 0,
                busy: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            weights,
            slots: slots.max(1),
        }
    }

    /// Mark `item` ready. The caller must ensure each item is enqueued at
    /// most once at a time (the connection's `scheduled` flag).
    pub fn enqueue(&self, item: Arc<T>) {
        let mut g = self.inner.lock();
        if g.shutdown {
            return;
        }
        let t = item.tenant() as usize;
        g.rings[t].push_back(item);
        g.ready += 1;
        drop(g);
        self.available.notify_one();
    }

    /// Dequeue the next item in weighted-fair order; blocks until one is
    /// ready and an execution slot is free. The caller holds that slot
    /// until [`Scheduler::release`]. Returns `None` after
    /// [`Scheduler::stop`].
    pub fn next(&self) -> Option<Arc<T>> {
        let mut g = self.inner.lock();
        loop {
            if g.shutdown {
                return None;
            }
            if g.can_dispatch(self.slots) {
                return Some(self.pick(&mut g));
            }
            self.available.wait(&mut g);
        }
    }

    /// Claim an execution slot for work that bypasses the rings. Refused
    /// while any item is ready (it would be overtaken), while every slot
    /// is held, and after [`Scheduler::stop`]. On success the caller
    /// holds the slot until [`Scheduler::release`].
    pub fn try_claim(&self) -> bool {
        let mut g = self.inner.lock();
        if g.shutdown || g.ready > 0 || g.busy >= self.slots {
            return false;
        }
        g.busy += 1;
        true
    }

    /// Return a slot taken by [`Scheduler::next`] or
    /// [`Scheduler::try_claim`], waking a waiter if an item is ready.
    pub fn release(&self) {
        let mut g = self.inner.lock();
        debug_assert!(g.busy > 0, "release without a held slot");
        g.busy -= 1;
        let wake = g.ready > 0;
        drop(g);
        if wake {
            self.available.notify_one();
        }
    }

    /// DRR scan; takes a slot for the dispatch. Invariant: `g.ready > 0`,
    /// so some ring is non-empty and the scan terminates after at most
    /// two passes (one to exhaust stale deficits, one after the refill).
    fn pick(&self, g: &mut Rings<T>) -> Arc<T> {
        g.busy += 1;
        let n = g.rings.len();
        loop {
            let mut visited = 0;
            while visited < n {
                let t = g.cursor;
                if !g.rings[t].is_empty() && g.deficit[t] > 0 {
                    g.deficit[t] -= 1;
                    let item = g.rings[t].pop_front().expect("non-empty ring");
                    g.ready -= 1;
                    // Stay on this tenant while it has credit; move on
                    // once its deficit or ring drains.
                    if g.deficit[t] == 0 || g.rings[t].is_empty() {
                        g.cursor = (t + 1) % n;
                    }
                    return item;
                }
                g.cursor = (t + 1) % n;
                visited += 1;
            }
            // Full pass with no spendable deficit: refill by weight.
            g.deficit.clone_from(&self.weights);
        }
    }

    /// Wake all waiters and make subsequent `next()` calls return `None`.
    pub fn stop(&self) {
        let mut g = self.inner.lock();
        g.shutdown = true;
        for ring in &mut g.rings {
            ring.clear();
        }
        g.ready = 0;
        drop(g);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    impl<T: Schedulable> Scheduler<T> {
        /// Like [`Scheduler::next`] with a timeout; `None` on timeout or
        /// shutdown (check [`Scheduler::is_stopped`] to distinguish).
        fn next_timeout(&self, timeout: Duration) -> Option<Arc<T>> {
            let mut g = self.inner.lock();
            loop {
                if g.shutdown {
                    return None;
                }
                if g.can_dispatch(self.slots) {
                    return Some(self.pick(&mut g));
                }
                if self.available.wait_for(&mut g, timeout).timed_out() {
                    return None;
                }
            }
        }

        /// Whether [`Scheduler::stop`] has been called.
        fn is_stopped(&self) -> bool {
            self.inner.lock().shutdown
        }
    }

    struct Item(u32);
    impl Schedulable for Item {
        fn tenant(&self) -> u32 {
            self.0
        }
    }

    #[test]
    fn drr_respects_weights() {
        // Tenant 0 weight 3, tenant 1 weight 1; both rings saturated.
        let s = Scheduler::new(vec![3, 1]);
        for _ in 0..40 {
            s.enqueue(Arc::new(Item(0)));
        }
        for _ in 0..40 {
            s.enqueue(Arc::new(Item(1)));
        }
        let mut counts = [0u32; 2];
        for _ in 0..40 {
            let item = s.next().expect("ready");
            counts[item.tenant() as usize] += 1;
        }
        // 3:1 split within rounding of one quantum cycle.
        assert!(
            (28..=32).contains(&counts[0]),
            "weighted split off: {counts:?}"
        );
        assert_eq!(counts[0] + counts[1], 40);
    }

    #[test]
    fn light_tenant_not_starved_by_flood() {
        // Equal weights; tenant 0 floods, tenant 1 sends one item.
        let s = Scheduler::new(vec![1, 1]);
        for _ in 0..100 {
            s.enqueue(Arc::new(Item(0)));
        }
        s.enqueue(Arc::new(Item(1)));
        // The lone tenant-1 item must appear within one cycle (2 pulls).
        let mut seen_at = None;
        for i in 0..101 {
            if s.next().expect("ready").tenant() == 1 {
                seen_at = Some(i);
                break;
            }
        }
        assert!(seen_at.expect("tenant 1 dispatched") <= 2);
    }

    #[test]
    fn stop_wakes_blocked_workers() {
        let s = Arc::new(Scheduler::<Item>::new(vec![1]));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || s2.next());
        std::thread::sleep(Duration::from_millis(20));
        s.stop();
        assert!(h.join().unwrap().is_none());
        assert!(s.is_stopped());
        // Enqueue after stop is a no-op.
        s.enqueue(Arc::new(Item(0)));
        assert!(s.next_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn next_timeout_times_out_when_idle() {
        let s = Scheduler::<Item>::new(vec![1]);
        assert!(s.next_timeout(Duration::from_millis(10)).is_none());
        assert!(!s.is_stopped());
    }

    #[test]
    fn claim_refused_while_ready_or_slots_full() {
        let s = Scheduler::with_slots(vec![1], 2);
        s.enqueue(Arc::new(Item(0)));
        assert!(!s.try_claim(), "a ready item must not be overtaken");
        let _dispatched = s.next().expect("ready");
        assert!(s.try_claim(), "one slot of two is free");
        assert!(!s.try_claim(), "every slot is held");
        s.release();
        assert!(s.try_claim());
        s.release();
        s.release();
        s.stop();
        assert!(!s.try_claim(), "no claims after stop");
    }

    #[test]
    fn next_waits_for_a_slot_once_slots_are_outstanding() {
        let s = Scheduler::with_slots(vec![1], 2);
        for _ in 0..3 {
            s.enqueue(Arc::new(Item(0)));
        }
        assert!(s.next().is_some());
        assert!(s.next().is_some());
        // Both slots are out: the third item stays ready until one comes
        // back.
        assert!(s.next_timeout(Duration::from_millis(20)).is_none());
        s.release();
        assert!(s.next_timeout(Duration::from_millis(20)).is_some());
        assert!(s.next_timeout(Duration::from_millis(20)).is_none());
    }

    #[test]
    fn release_wakes_a_worker_waiting_for_a_slot() {
        let s = Arc::new(Scheduler::with_slots(vec![1], 1));
        assert!(s.try_claim());
        s.enqueue(Arc::new(Item(0)));
        let (tx, rx) = std::sync::mpsc::channel();
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || tx.send(s2.next().is_some()).unwrap());
        // The worker sees a ready item but no free slot, so it waits.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        s.release();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(true));
        h.join().unwrap();
    }

    #[test]
    fn new_is_unbounded() {
        // Callers of `new` may dispatch forever without returning a slot.
        let s = Scheduler::new(vec![1]);
        let item = Arc::new(Item(0));
        for _ in 0..10_000 {
            s.enqueue(Arc::clone(&item));
            assert!(s.next_timeout(Duration::from_secs(1)).is_some());
        }
        assert!(s.try_claim());
    }
}
