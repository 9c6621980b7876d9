// Fixture: thread waits in library code outside the clock allowlist — a
// condvar wait, a park and a timed park, none of which a paused clock sees.
use std::sync::{Condvar, Mutex};

pub fn wait_for(ready: &Mutex<bool>, changed: &Condvar) {
    let mut guard = ready.lock().unwrap_or_else(|e| e.into_inner());
    while !*guard {
        guard = changed.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
}

pub fn park_a_while() {
    std::thread::park();
    std::thread::park_timeout(std::time::Duration::from_millis(5));
}
