//! Seeded lock-order inversion fixtures for the `lock_audit` feature.
//!
//! Run with `cargo test -p parking_lot --features lock_audit`. Without the
//! feature the whole file compiles to nothing (and inversions go
//! undetected by design — the audit is a debug/test instrument).
#![cfg(feature = "lock_audit")]

use parking_lot::{Mutex, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The canonical two-lock inversion: establish A -> B, then acquire B -> A.
/// No actual deadlock is needed — the audit fires on the order violation
/// itself, single-threaded and deterministically.
#[test]
fn detects_seeded_mutex_inversion() {
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    a.set_audit_name("fixture.inversion.a");
    b.set_audit_name("fixture.inversion.b");

    // Establish the order a -> b.
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }

    // Invert it: b -> a must panic, naming both locks.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _gb = b.lock();
        let _ga = a.lock();
    }));
    let err = result.expect_err("inverted acquisition must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a string");
    assert!(
        msg.contains("lock order inversion"),
        "unexpected message: {msg}"
    );
    assert!(msg.contains("fixture.inversion.a"), "message: {msg}");
    assert!(msg.contains("fixture.inversion.b"), "message: {msg}");
    assert!(
        msg.contains("prior acquisition") && msg.contains("current acquisition"),
        "both acquisition backtraces must be reported: {msg}"
    );
}

/// Transitive cycles are caught too: a -> b, b -> c, then c -> a.
#[test]
fn detects_transitive_inversion() {
    let a = Mutex::new(());
    let b = Mutex::new(());
    let c = Mutex::new(());
    a.set_audit_name("fixture.chain.a");
    b.set_audit_name("fixture.chain.b");
    c.set_audit_name("fixture.chain.c");

    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    {
        let _gb = b.lock();
        let _gc = c.lock();
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _gc = c.lock();
        let _ga = a.lock();
    }));
    assert!(result.is_err(), "transitive cycle must be detected");
}

/// RwLock acquisitions participate in the same order graph.
#[test]
fn detects_rwlock_inversion() {
    let data = RwLock::new(1u32);
    let meta = Mutex::new(2u32);
    data.set_audit_name("fixture.rw.data");
    meta.set_audit_name("fixture.rw.meta");

    {
        let _gd = data.read();
        let _gm = meta.lock();
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _gm = meta.lock();
        let _gd = data.write();
    }));
    assert!(result.is_err(), "rwlock inversion must be detected");
}

/// Consistent ordering never fires, however often it repeats, and shared
/// re-entrant reads of one lock are not an inversion.
#[test]
fn consistent_order_and_reentrant_reads_pass() {
    let a = Mutex::new(());
    let b = Mutex::new(());
    a.set_audit_name("fixture.ok.a");
    b.set_audit_name("fixture.ok.b");
    for _ in 0..16 {
        let _ga = a.lock();
        let _gb = b.lock();
    }

    let l = RwLock::new(0u8);
    l.set_audit_name("fixture.ok.rw");
    let g1 = l.read();
    let g2 = l.read();
    drop((g1, g2));
}

/// Every acquisition counts once on the thread that makes it, whatever the
/// lock and however it is taken; a failed `try_lock` takes nothing.
#[test]
fn acquisitions_count_each_lock_taken_on_this_thread() {
    let m = Mutex::new(0u8);
    let l = RwLock::new(0u8);
    let before = parking_lot::acquisitions();
    drop(m.lock());
    drop((l.read(), l.read()));
    drop(l.write());
    {
        let _held = m.lock();
        assert!(m.try_lock().is_none());
    }
    assert_eq!(parking_lot::acquisitions() - before, 5);
    let elsewhere = std::thread::spawn(|| parking_lot::acquisitions()).join();
    assert_eq!(elsewhere.unwrap(), 0, "another thread's count");
}
