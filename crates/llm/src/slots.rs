//! A shared pool of LLM-call slots: the mechanism by which a cross-query
//! scheduler enforces a *global* in-flight cap across many concurrent
//! queries.
//!
//! `EngineConfig::parallelism` bounds how many requests one query keeps in
//! flight; with many queries running against one deployment that per-query
//! bound multiplies out. A [`CallSlots`] pool is a counting semaphore every
//! scan worker must pass through right before dispatching a model request:
//! no matter how many queries run or what parallelism each uses, at most
//! `capacity` requests are in flight at once.
//!
//! The slot/ticket contract (relied on by `llmsql-sched`):
//!
//! * A slot is held only for the duration of one dispatched model request
//!   and released on every exit path (RAII guard), so waiting for a slot
//!   cannot deadlock: some holder is always inside a completion that
//!   finishes.
//! * A thread that finds no slot free is registered, under the pool's lock,
//!   as a waiter, and parks ([`llmsql_types::clock::park_until`]). Every
//!   release wakes every registered thread: a waiter may have been
//!   cancelled since it registered, and waking only it would strand the
//!   rest. Each thread is registered once, so the list is no longer than
//!   the number of threads that dispatch.
//! * Slot acquisition throttles *when* a planned prompt is sent, never
//!   *whether* — prompt planning happens before acquisition, so a query's
//!   prompt set, row output and logical call count are byte-identical with
//!   or without a slot pool.
//! * Waits are measured: the time a worker blocked waiting for a slot is
//!   surfaced as `ExecMetrics::slot_wait_ms`, making over-subscription
//!   visible per query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use llmsql_types::clock;
use parking_lot::Mutex;

/// A counting semaphore over LLM-call slots. Cheap to share (`Arc`), fair
/// enough for throttling: a release wakes every waiter, and the first to
/// come back takes the slot.
pub struct CallSlots {
    capacity: usize,
    free: Mutex<Free>,
    /// Highest number of slots ever held at once (global in-flight peak).
    peak_in_use: AtomicU64,
    /// Total time acquisitions spent blocked, microseconds.
    wait_us: AtomicU64,
}

/// The free slots and the threads waiting for one, under one lock.
struct Free {
    slots: usize,
    waiters: Vec<clock::Unparker>,
}

impl CallSlots {
    /// Create a pool of `capacity` slots (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        CallSlots {
            capacity,
            free: Mutex::new(Free {
                slots: capacity,
                waiters: Vec::new(),
            }),
            peak_in_use: AtomicU64::new(0),
            wait_us: AtomicU64::new(0),
        }
    }

    /// Block until a slot is free and take it. Returns the guard (releasing
    /// on drop) and how long the call blocked, in milliseconds.
    ///
    /// Accounting only charges *real* waits: an acquisition that never
    /// parked adds nothing to `total_wait_ms` (which is monotone — it only
    /// ever `fetch_add`s a non-negative measured duration).
    pub fn acquire(&self) -> (SlotGuard<'_>, f64) {
        let mut blocked_since = None;
        while !self.take() {
            blocked_since.get_or_insert_with(clock::now);
            clock::park_until(None);
        }
        let waited_us = blocked_since.map_or(0, |since| (clock::now() - since).as_micros() as u64);
        self.record_blocked_wait(waited_us);
        (SlotGuard { pool: self }, waited_us as f64 / 1000.0)
    }

    /// Take a slot only if one is free right now, without blocking; the
    /// guard owns an `Arc` to the pool, so it can outlive the caller's
    /// stack frame (hedged requests hand it to a worker thread). Returns
    /// `None` when the pool is saturated, and then the next release wakes
    /// the calling thread.
    pub fn try_acquire_owned(self: &Arc<Self>) -> Option<OwnedSlotGuard> {
        self.take().then(|| OwnedSlotGuard {
            pool: Arc::clone(self),
        })
    }

    /// Take a free slot, or register the calling thread as a waiter.
    fn take(&self) -> bool {
        let mut free = self.free.lock();
        if free.slots == 0 {
            clock::enlist(&mut free.waiters);
            return false;
        }
        free.slots -= 1;
        let in_use = (self.capacity - free.slots) as u64;
        drop(free);
        // ordering: Relaxed — in_use was computed under the mutex (which
        // orders the slot handoff); these counters are advisory statistics
        // layered on top, not synchronization.
        self.peak_in_use.fetch_max(in_use, Ordering::Relaxed);
        true
    }

    /// The configured slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots currently held.
    pub fn in_use(&self) -> usize {
        self.capacity - self.free.lock().slots
    }

    /// Highest number of slots ever held at once.
    pub fn peak_in_use(&self) -> u64 {
        // ordering: Relaxed — advisory statistics read.
        self.peak_in_use.load(Ordering::Relaxed)
    }

    /// Fold a measured blocked wait into `total_wait_ms`. A scan waits for
    /// capacity on its event loop, parked after a failed
    /// [`CallSlots::try_acquire_owned`], rather than in
    /// [`CallSlots::acquire`]; the time it spent parked must still show up
    /// in `total_wait_ms`, or over-subscription would be invisible.
    pub fn record_blocked_wait(&self, waited_us: u64) {
        if waited_us > 0 {
            // ordering: Relaxed — a monotone statistic, same contract as
            // peak_in_use in take().
            self.wait_us.fetch_add(waited_us, Ordering::Relaxed);
        }
    }

    /// Total time spent blocked waiting for slots, milliseconds.
    pub fn total_wait_ms(&self) -> f64 {
        // ordering: Relaxed — advisory statistics read.
        self.wait_us.load(Ordering::Relaxed) as f64 / 1000.0
    }

    fn release(&self) {
        let mut free = self.free.lock();
        free.slots += 1;
        debug_assert!(free.slots <= self.capacity);
        let waiters = std::mem::take(&mut free.waiters);
        drop(free);
        waiters.iter().for_each(clock::Unparker::unpark);
    }
}

/// RAII guard for one held call slot.
pub struct SlotGuard<'a> {
    pool: &'a CallSlots,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.pool.release();
    }
}

/// Owning variant of [`SlotGuard`]: keeps the pool alive and can be moved
/// across threads (see [`CallSlots::try_acquire_owned`]).
pub struct OwnedSlotGuard {
    pool: Arc<CallSlots>,
}

impl Drop for OwnedSlotGuard {
    fn drop(&mut self) {
        self.pool.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_and_release_track_usage() {
        let slots = CallSlots::new(2);
        assert_eq!(slots.capacity(), 2);
        assert_eq!(slots.in_use(), 0);
        {
            let (_a, wait_a) = slots.acquire();
            let (_b, wait_b) = slots.acquire();
            assert_eq!(slots.in_use(), 2);
            assert!(wait_a < 100.0 && wait_b < 100.0);
        }
        assert_eq!(slots.in_use(), 0);
        assert_eq!(slots.peak_in_use(), 2);
        assert_eq!(slots.total_wait_ms(), 0.0);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let slots = CallSlots::new(0);
        assert_eq!(slots.capacity(), 1);
        let (_g, _) = slots.acquire();
        assert_eq!(slots.in_use(), 1);
    }

    #[test]
    fn concurrent_holders_never_exceed_capacity() {
        let slots = Arc::new(CallSlots::new(3));
        let max_seen = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..12 {
                let slots = Arc::clone(&slots);
                let max_seen = Arc::clone(&max_seen);
                scope.spawn(move || {
                    for _ in 0..5 {
                        let (_g, _) = slots.acquire();
                        // ordering: Relaxed — test max tracker; the scope
                        // join publishes the final value to the assert.
                        max_seen.fetch_max(slots.in_use() as u64, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                });
            }
        });
        // ordering: Relaxed — read after scope join; join synchronizes.
        assert!(max_seen.load(Ordering::Relaxed) <= 3);
        assert_eq!(slots.peak_in_use(), 3);
        assert_eq!(slots.in_use(), 0);
        // 12 threads over 3 slots: someone must have blocked.
        assert!(slots.total_wait_ms() > 0.0);
    }

    #[test]
    fn uncontended_acquisitions_charge_no_wait() {
        // Regression: acquisitions that never block (including back-to-back
        // reacquisition through the free list) must not accumulate wait
        // time.
        let slots = CallSlots::new(2);
        for _ in 0..100 {
            let (_g, waited_ms) = slots.acquire();
            assert_eq!(waited_ms, 0.0);
        }
        assert_eq!(slots.total_wait_ms(), 0.0);
    }

    #[test]
    fn wait_accounting_is_monotone_under_concurrent_readers() {
        // 8 writers hammer a 1-slot pool while a reader samples
        // total_wait_ms: it must only ever grow.
        let slots = Arc::new(CallSlots::new(1));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            {
                let slots = Arc::clone(&slots);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last_wait = 0.0f64;
                    // ordering: Relaxed — plain stop flag; no data rides on
                    // it, the reader only needs eventual visibility.
                    while stop.load(Ordering::Relaxed) == 0 {
                        let wait = slots.total_wait_ms();
                        assert!(wait >= last_wait, "total_wait_ms went backwards");
                        last_wait = wait;
                    }
                });
            }
            std::thread::scope(|inner| {
                for _ in 0..8 {
                    let slots = Arc::clone(&slots);
                    inner.spawn(move || {
                        for _ in 0..10 {
                            let (_g, waited_ms) = slots.acquire();
                            assert!(waited_ms >= 0.0);
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                    });
                }
            });
            // ordering: Relaxed — see the flag's read loop above.
            stop.store(1, Ordering::Relaxed);
        });
        // 8 threads over 1 slot: some acquisition must have measurably
        // blocked.
        assert!(slots.total_wait_ms() > 0.0);
    }

    #[test]
    fn try_acquire_owned_never_blocks_and_respects_capacity() {
        let slots = Arc::new(CallSlots::new(2));
        let a = slots.try_acquire_owned().expect("slot 1 free");
        let b = slots.try_acquire_owned().expect("slot 2 free");
        assert!(slots.try_acquire_owned().is_none(), "pool is saturated");
        assert_eq!(slots.in_use(), 2);
        // The owned guard can cross threads and releases on drop there.
        let handle = std::thread::spawn(move || drop(a));
        handle.join().unwrap();
        drop(b);
        assert_eq!(slots.in_use(), 0);
        assert_eq!(slots.peak_in_use(), 2);
        // Non-blocking acquisition is never counted as a wait.
        assert_eq!(slots.total_wait_ms(), 0.0);
    }

    #[test]
    fn a_release_wakes_a_waiter_registered_behind_a_cancelled_one() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let slots = Arc::new(CallSlots::new(1));
        let held = slots.try_acquire_owned().expect("the one slot is free");
        // B finds the pool full, which registers it, and then goes away
        // without looking again: a cancelled waiter.
        let b = Arc::clone(&slots);
        std::thread::spawn(move || assert!(b.try_acquire_owned().is_none()))
            .join()
            .unwrap();
        // C registers behind B and parks until it holds a slot.
        let (tx, rx) = channel();
        let c = Arc::clone(&slots);
        let waiter = std::thread::spawn(move || {
            let mut registered = Some(tx.clone());
            while c.try_acquire_owned().is_none() {
                if let Some(registered) = registered.take() {
                    registered.send("registered").unwrap();
                }
                clock::park_until(None);
            }
            tx.send("acquired").unwrap();
        });
        let hang = Duration::from_secs(10);
        assert_eq!(rx.recv_timeout(hang), Ok("registered"));
        drop(held);
        assert_eq!(
            rx.recv_timeout(hang),
            Ok("acquired"),
            "the release woke only the cancelled waiter"
        );
        waiter.join().unwrap();
        assert_eq!(slots.in_use(), 0);
    }

    #[test]
    fn blocked_acquire_measures_wait() {
        let slots = Arc::new(CallSlots::new(1));
        let (guard, _) = slots.acquire();
        let waiter = {
            let slots = Arc::clone(&slots);
            std::thread::spawn(move || slots.acquire().1)
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(guard);
        let waited_ms = waiter.join().unwrap();
        assert!(
            waited_ms >= 20.0,
            "waiter should have blocked ~30ms, measured {waited_ms:.1}ms"
        );
        assert!(slots.total_wait_ms() >= 20.0);
    }
}
