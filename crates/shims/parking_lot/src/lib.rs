#![forbid(unsafe_code)]
//! Offline stand-in for the `parking_lot` crate (see `crates/shims/README.md`).
//!
//! Wraps `std::sync` primitives with parking_lot's non-poisoning API:
//! `lock()/read()/write()` return guards directly instead of `Result`s. A
//! poisoned lock (a panic while holding the guard) is recovered rather than
//! propagated, which matches parking_lot's behavior of not poisoning at all.
//!
//! With the `lock_audit` feature, every acquisition is checked against a
//! global lock-order graph and a cycle (a lock-order inversion that could
//! deadlock under the right interleaving) panics with both acquisition
//! backtraces — see [`audit`](self) internals in `audit.rs` — and
//! `acquisitions()` counts the calling thread's acquisitions, so a test can
//! pin how many locks a path takes. Without the feature, the guards are
//! plain newtypes and the audit compiles to nothing.

use std::fmt;
use std::ops::{Deref, DerefMut};

#[cfg(feature = "lock_audit")]
mod audit;

#[cfg(feature = "lock_audit")]
pub use audit::acquisitions;

/// A mutual-exclusion lock with parking_lot's panic-free API.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lock_audit")]
    meta: audit::LockMeta,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; unlocks (and, under `lock_audit`, pops the
/// thread's held-lock stack) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // The held stack is thread-local, so popping before or after the OS
    // unlock (field drop order is declaration order) is equivalent.
    #[cfg(feature = "lock_audit")]
    _held: audit::HeldToken,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(feature = "lock_audit")]
            meta: audit::LockMeta::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            #[cfg(feature = "lock_audit")]
            _held: audit::acquire(&self.meta),
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            // A successful try_lock still participates in ordering: it
            // cannot deadlock itself, but it can establish the edge that a
            // later blocking acquisition inverts.
            #[cfg(feature = "lock_audit")]
            _held: audit::acquire(&self.meta),
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Name this lock in `lock_audit` reports. No-op without the feature;
    /// first caller wins with it.
    #[cfg(feature = "lock_audit")]
    pub fn set_audit_name(&self, name: &str) {
        self.meta.set_name(name);
    }

    /// Name this lock in `lock_audit` reports. No-op without the feature.
    #[cfg(not(feature = "lock_audit"))]
    pub fn set_audit_name(&self, _name: &str) {}
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// A reader-writer lock with parking_lot's panic-free API.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lock_audit")]
    meta: audit::LockMeta,
    inner: std::sync::RwLock<T>,
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock_audit")]
    _held: audit::HeldToken,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock_audit")]
    _held: audit::HeldToken,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(feature = "lock_audit")]
            meta: audit::LockMeta::new(),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            #[cfg(feature = "lock_audit")]
            _held: audit::acquire(&self.meta),
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            #[cfg(feature = "lock_audit")]
            _held: audit::acquire(&self.meta),
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Name this lock in `lock_audit` reports. No-op without the feature;
    /// first caller wins with it.
    #[cfg(feature = "lock_audit")]
    pub fn set_audit_name(&self, name: &str) {
        self.meta.set_name(name);
    }

    /// Name this lock in `lock_audit` reports. No-op without the feature.
    #[cfg(not(feature = "lock_audit"))]
    pub fn set_audit_name(&self, _name: &str) {}
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &*g).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn try_lock_contended_and_free() {
        let m = Mutex::new(7);
        {
            let held = m.lock();
            assert!(m.try_lock().is_none());
            assert_eq!(*held, 7);
        }
        assert_eq!(m.try_lock().map(|g| *g), Some(7));
    }

    #[test]
    fn set_audit_name_is_callable_in_both_feature_states() {
        let m = Mutex::new(0u8);
        m.set_audit_name("test.mutex");
        let l = RwLock::new(0u8);
        l.set_audit_name("test.rwlock");
        drop((m.lock(), l.read()));
    }
}
