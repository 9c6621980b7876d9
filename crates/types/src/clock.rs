//! The engine's one clock. Every clock read and every wait in library code
//! goes through [`now`] and [`park_until`]; nothing else reads time, sleeps
//! or blocks a thread.
//!
//! A test stops time instead of sleeping through it: while the guard that
//! [`pause`] returns lives, the calling thread's [`now`] is virtual — the
//! real instant at which `pause` was called, plus an offset — and a timed
//! [`park_until`] moves that offset forward to its deadline without sleeping.
//! `Instant` stays the currency, so code that takes a `now` argument cannot
//! tell the two clocks apart.
//!
//! A thread waiting on another thread parks with no deadline, or with its
//! own timer's, and whoever changes what it waits on wakes it through the
//! [`Unparker`] it registered. A wake-up costs no virtual time, so a paused
//! thread blocked on a real-clock one reads the same `now` when it resumes.
//!
//! The clock is per thread. A standalone query runs wholly on its caller's
//! thread — parse, plan, its event loop, the simulated model, the backend
//! pool and the deadline — so one pause makes the whole query virtual, and
//! its round trips cost exactly what the model's latency says. Code that
//! hands instants between threads (the scheduler) stays on the real clock.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::Instant;

thread_local! {
    /// This thread's virtual now while a [`pause`] guard lives.
    static PAUSED: Cell<Option<Instant>> = const { Cell::new(None) };
    /// This thread's wake-up handle, made on first use.
    static UNPARKER: Unparker = Unparker(Arc::new(Wake {
        unparked: AtomicBool::new(false),
        thread: thread::current(),
    }));
}

/// The current instant: the real one, or this thread's virtual one while a
/// [`pause`] guard lives.
pub fn now() -> Instant {
    PAUSED.with(Cell::get).unwrap_or_else(Instant::now)
}

/// Wait until this thread is unparked (see [`unparker`]) or `deadline`
/// passes; `None` is no deadline. An unpark that came before the park is
/// not lost: the park returns at once and consumes it. A return says only
/// "look again", so every caller re-checks what it waits on in a loop.
///
/// On a paused clock a pending unpark moves no virtual time, and a
/// deadline with none pending moves time forward to it at once. Without a
/// deadline a paused thread really parks, until another thread wakes it.
pub fn park_until(deadline: Option<Instant>) {
    UNPARKER.with(|me| {
        // ordering: Acquire — pairs with the Release in `unpark`, so what the
        // waker changed before waking this thread is visible from here on.
        let woken = || me.0.unparked.swap(false, Ordering::Acquire);
        let mut deadline = deadline;
        if let Some(now) = PAUSED.with(Cell::get) {
            if woken() {
                return;
            }
            if let Some(d) = deadline.take() {
                return PAUSED.with(|paused| paused.set(Some(now.max(d))));
            }
        }
        while !woken() {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => thread::park(),
                Some(left) if left.is_zero() => return,
                Some(left) => thread::park_timeout(left),
            }
        }
    });
}

/// The calling thread's wake-up handle.
pub fn unparker() -> Unparker {
    UNPARKER.with(Unparker::clone)
}

/// Register the calling thread among `waiters`, once: whoever changes what
/// they wait on unparks them all.
pub fn enlist(waiters: &mut Vec<Unparker>) {
    let me = unparker();
    if !waiters.contains(&me) {
        waiters.push(me);
    }
}

/// Wakes one thread from [`park_until`]. Two handles are equal when they
/// wake the same thread, so a list of waiters can hold each thread once.
#[derive(Clone)]
pub struct Unparker(Arc<Wake>);

struct Wake {
    unparked: AtomicBool,
    thread: Thread,
}

impl Unparker {
    /// End the thread's current park, or its next one if it is not parked.
    pub fn unpark(&self) {
        // ordering: Release — pairs with the Acquire swap in `park_until`.
        self.0.unparked.store(true, Ordering::Release);
        self.0.thread.unpark();
    }
}

impl PartialEq for Unparker {
    fn eq(&self, other: &Unparker) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Pause this thread's clock at the real now until the guard drops.
#[must_use = "the clock runs again as soon as the guard drops"]
pub fn pause() -> PauseGuard {
    PauseGuard {
        previous: PAUSED.with(|paused| paused.replace(Some(Instant::now()))),
        thread: PhantomData,
    }
}

/// Keeps the calling thread's clock paused (see [`pause`]); dropping it
/// restores the clock the thread had before.
pub struct PauseGuard {
    previous: Option<Instant>,
    /// A pause belongs to the thread that took it: the guard is not `Send`.
    thread: PhantomData<*const ()>,
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        PAUSED.with(|paused| paused.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_paused_clock_moves_only_through_timed_parks() {
        let _paused = pause();
        let start = now();
        std::hint::black_box((0..10_000).sum::<u64>());
        assert_eq!(now(), start, "work took no virtual time");
        park_until(Some(start + Duration::from_millis(250)));
        assert_eq!(now(), start + Duration::from_millis(250));
        park_until(Some(now() + Duration::from_micros(1)));
        assert_eq!(now() - start, Duration::from_micros(250_001));
    }

    #[test]
    fn sleeping_until_a_past_instant_is_a_no_op() {
        let _paused = pause();
        let start = now();
        park_until(Some(start + Duration::from_millis(5)));
        park_until(Some(start));
        park_until(Some(start + Duration::from_millis(1)));
        assert_eq!(now(), start + Duration::from_millis(5));
    }

    #[test]
    fn dropping_the_guard_restores_the_real_clock() {
        let paused = pause();
        let virtual_now = now() + Duration::from_hours(1);
        park_until(Some(virtual_now));
        assert_eq!(now(), virtual_now);
        drop(paused);
        assert!(now() < virtual_now, "the real clock is an hour behind");
        assert!(PAUSED.with(Cell::get).is_none());
    }

    #[test]
    fn a_pause_holds_only_on_the_thread_that_took_it() {
        let _paused = pause();
        let far = now() + Duration::from_hours(1);
        park_until(Some(far));
        let elsewhere = std::thread::spawn(now).join().unwrap();
        assert!(elsewhere < far, "another thread saw this thread's pause");
        assert_eq!(now(), far);
    }

    #[test]
    fn an_unpark_before_the_park_is_not_lost() {
        unparker().unpark();
        park_until(None);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            tx.send(unparker()).unwrap();
            park_until(None);
        });
        // Whether the waiter has parked yet or not, the unpark reaches it.
        rx.recv().unwrap().unpark();
        waiter.join().unwrap();
    }

    #[test]
    fn a_paused_timed_park_lands_exactly_on_its_deadline() {
        let _paused = pause();
        let deadline = now() + Duration::from_micros(1_234);
        park_until(Some(deadline));
        assert_eq!(now(), deadline);
    }

    #[test]
    fn a_pending_unpark_moves_no_virtual_time() {
        let _paused = pause();
        let start = now();
        unparker().unpark();
        park_until(Some(start + Duration::from_hours(1)));
        assert_eq!(now(), start, "the wake-up came first");
        park_until(Some(start + Duration::from_millis(3)));
        assert_eq!(now() - start, Duration::from_millis(3), "and was consumed");
    }
}
