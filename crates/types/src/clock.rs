//! The engine's one clock. Every clock read and every sleep in library code
//! goes through [`now`] and [`sleep_until`]; nothing else reads time.
//!
//! A test stops time instead of sleeping through it: while the guard that
//! [`pause`] returns lives, the calling thread's [`now`] is virtual — the
//! real instant at which `pause` was called, plus an offset — and
//! [`sleep_until`] moves that offset forward to its deadline without sleeping.
//! `Instant` stays the currency, so code that takes a `now` argument cannot
//! tell the two clocks apart.
//!
//! The clock is per thread. A standalone query runs wholly on its caller's
//! thread — parse, plan, its event loop, the simulated model, the backend
//! pool and the deadline — so one pause makes the whole query virtual, and
//! its round trips cost exactly what the model's latency says. Code that
//! hands instants between threads (the scheduler) stays on the real clock.

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Instant;

thread_local! {
    /// This thread's virtual now while a [`pause`] guard lives.
    static PAUSED: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The current instant: the real one, or this thread's virtual one while a
/// [`pause`] guard lives.
pub fn now() -> Instant {
    PAUSED.with(Cell::get).unwrap_or_else(Instant::now)
}

/// Wait until `deadline`. On the real clock the thread sleeps; on a paused
/// one time moves forward to `deadline` at once. A deadline already past
/// returns at once and moves nothing.
pub fn sleep_until(deadline: Instant) {
    match PAUSED.with(Cell::get) {
        Some(now) => PAUSED.with(|paused| paused.set(Some(now.max(deadline)))),
        None => std::thread::sleep(deadline.saturating_duration_since(Instant::now())),
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
    fn a_paused_clock_moves_only_through_sleep_until() {
        let _paused = pause();
        let start = now();
        std::hint::black_box((0..10_000).sum::<u64>());
        assert_eq!(now(), start, "work took no virtual time");
        sleep_until(start + Duration::from_millis(250));
        assert_eq!(now(), start + Duration::from_millis(250));
        sleep_until(now() + Duration::from_micros(1));
        assert_eq!(now() - start, Duration::from_micros(250_001));
    }

    #[test]
    fn sleeping_until_a_past_instant_is_a_no_op() {
        let _paused = pause();
        let start = now();
        sleep_until(start + Duration::from_millis(5));
        sleep_until(start);
        sleep_until(start + Duration::from_millis(1));
        assert_eq!(now(), start + Duration::from_millis(5));
    }

    #[test]
    fn dropping_the_guard_restores_the_real_clock() {
        let paused = pause();
        let virtual_now = now() + Duration::from_hours(1);
        sleep_until(virtual_now);
        assert_eq!(now(), virtual_now);
        drop(paused);
        assert!(now() < virtual_now, "the real clock is an hour behind");
        assert!(PAUSED.with(Cell::get).is_none());
    }

    #[test]
    fn a_pause_holds_only_on_the_thread_that_took_it() {
        let _paused = pause();
        let far = now() + Duration::from_hours(1);
        sleep_until(far);
        let elsewhere = std::thread::spawn(now).join().unwrap();
        assert!(elsewhere < far, "another thread saw this thread's pause");
        assert_eq!(now(), far);
    }
}
