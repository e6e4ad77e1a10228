//! Fixture: lock/IO-discipline violations, allow-directives, and clean
//! variants. Linted as if it lived at `crates/store/src/fixture.rs`;
//! never compiled.

use std::fs::File;
use std::sync::{Mutex, RwLock};

/// VIOLATION (lock-order): a second acquisition under a held guard with
/// no directive citing the documented order.
fn nested(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let ga = a.lock().unwrap_or_else(|e| e.into_inner());
    let gb = b.lock().unwrap_or_else(|e| e.into_inner());
    *ga + *gb
}

/// VIOLATION (fsync-under-lock): fsync latency stalls every waiter.
fn sync_under_guard(wal: &Mutex<File>) -> std::io::Result<()> {
    let file = wal.lock().unwrap_or_else(|e| e.into_inner());
    file.sync_all()?;
    Ok(())
}

/// ALLOWED: a deliberate nested acquisition citing the documented order.
fn ordered(registry: &RwLock<u32>, session: &Mutex<u32>) -> u32 {
    let map = registry.read().unwrap_or_else(|e| e.into_inner());
    // tsx-lint: allow(lock-order, follows the documented order registry → session → store WAL)
    let s = session.lock().unwrap_or_else(|e| e.into_inner());
    *map + *s
}

/// CLEAN: dropping the first guard before the second acquisition.
fn sequential(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let ga = a.lock().unwrap_or_else(|e| e.into_inner());
    let first = *ga;
    drop(ga);
    let gb = b.lock().unwrap_or_else(|e| e.into_inner());
    first + *gb
}

/// CLEAN: a statement temporary releases its guard at the semicolon.
fn temporary(m: &RwLock<Vec<u32>>, n: &Mutex<u32>) -> u32 {
    m.write().unwrap_or_else(|e| e.into_inner()).push(1);
    let g = n.lock().unwrap_or_else(|e| e.into_inner());
    *g
}

/// CLEAN: an if-let guard is scoped to its own block.
fn scoped(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    if let Ok(g) = a.try_lock() {
        return *g;
    }
    let h = b.lock().unwrap_or_else(|e| e.into_inner());
    *h
}

/// VIOLATION (compute-under-lock): the explain pipeline runs while the
/// session guard is held, so every same-tenant writer waits behind it.
fn explain_locked(session: &Mutex<Session>, request: &Request) -> Answer {
    let s = session.lock().unwrap_or_else(|e| e.into_inner());
    s.explain(request)
}

/// CLEAN: prepare under the guard, explain once it is released.
fn explain_prepared(session: &Mutex<Session>, request: &Request) -> Answer {
    let prepared = {
        let mut s = session.lock().unwrap_or_else(|e| e.into_inner());
        s.prepare(request)
    };
    prepared.explain(request)
}
