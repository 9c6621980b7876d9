//! The one place this crate blocks a thread: driving a poll-based call for a
//! caller that has no event loop.

use std::time::Instant;

/// Run `step` until it yields a value. Each call either finishes (`Ok`) or
/// reports when polling can next make progress (`Err(wakeup)`; `None` means
/// "poll again now"); the thread sleeps to that wakeup in between. This is
/// `llmsql_exec::reactor::drive` for a single call, and how a simulated
/// round trip is realized — once, as the timer the call already carries.
pub(crate) fn block_on<T>(mut step: impl FnMut(Instant) -> Result<T, Option<Instant>>) -> T {
    loop {
        let now = Instant::now();
        match step(now) {
            Ok(value) => return value,
            Err(Some(wakeup)) => std::thread::sleep(wakeup.saturating_duration_since(now)),
            Err(None) => std::thread::yield_now(),
        }
    }
}
