//! Lock-order auditing (the `lock_audit` feature).
//!
//! Every audited lock gets a lazily-assigned id and an optional name. Each
//! thread keeps a stack of currently held locks; every acquisition while
//! other locks are held records a directed edge `held -> acquired` in a
//! global order graph, together with the backtrace that first established
//! it. Before recording, the acquisition checks whether the *reverse*
//! direction is already reachable in the graph — if `acquired` can reach
//! `held`, the two orders together form a cycle, and the audit panics with
//! both acquisition backtraces (the stored one for the established edge and
//! a fresh one for the inverting acquisition).
//!
//! The whole module only exists under `--features lock_audit`; without it
//! the lock types carry no extra fields and the guards are plain newtypes
//! that compile to nothing.

use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock};

/// Global id allocator; 0 is reserved as "not yet assigned".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Per-lock audit metadata. Const-constructible so `Mutex::new` /
/// `RwLock::new` stay `const fn` with the feature on.
pub struct LockMeta {
    /// 0 until the first acquisition assigns an id from [`NEXT_ID`].
    id: AtomicU64,
    name: OnceLock<String>,
}

impl LockMeta {
    pub const fn new() -> Self {
        LockMeta {
            id: AtomicU64::new(0),
            name: OnceLock::new(),
        }
    }

    /// Name this lock for audit reports. First caller wins; later calls are
    /// ignored so shared fixtures can set names idempotently.
    pub fn set_name(&self, name: &str) {
        let _ = self.name.set(name.to_string());
    }

    fn label(&self, id: u64) -> String {
        match self.name.get() {
            Some(n) => n.clone(),
            None => format!("lock#{id}"),
        }
    }

    /// The lock's id, assigned from the global counter on first use.
    fn ensure_id(&self) -> u64 {
        // ordering: Relaxed — the id is an opaque token; uniqueness comes
        // from fetch_add on NEXT_ID, and no other memory is published
        // through it.
        let seen = self.id.load(Ordering::Relaxed);
        if seen != 0 {
            return seen;
        }
        // ordering: Relaxed — fetch_add only needs uniqueness.
        let fresh = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed CAS — on a race the loser reads the winner's id
        // from the failure value; either way every caller agrees afterward.
        match self
            .id
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(existing) => existing,
        }
    }
}

impl Default for LockMeta {
    fn default() -> Self {
        LockMeta::new()
    }
}

/// One established ordering edge `from -> to`: the first acquisition of
/// `to` while `from` was held, with the backtrace that established it.
struct EdgeInfo {
    from_label: String,
    to_label: String,
    backtrace: String,
}

/// The global acquisition-order graph: `edges[from][to]` exists when some
/// thread has acquired `to` while holding `from`.
#[derive(Default)]
struct Graph {
    edges: HashMap<u64, HashMap<u64, EdgeInfo>>,
}

impl Graph {
    /// Is `to` reachable from `from` by following established edges?
    fn reaches(&self, from: u64, to: u64) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![from];
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if let Some(nexts) = self.edges.get(&node) {
                for &next in nexts.keys() {
                    if !seen.contains(&next) {
                        seen.push(next);
                        stack.push(next);
                    }
                }
            }
        }
        false
    }
}

fn graph() -> &'static StdMutex<Graph> {
    static GRAPH: OnceLock<StdMutex<Graph>> = OnceLock::new();
    GRAPH.get_or_init(|| StdMutex::new(Graph::default()))
}

thread_local! {
    /// Locks currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<(u64, String)>> = const { RefCell::new(Vec::new()) };
    /// Acquisitions this thread has made, of every audited lock.
    static ACQUIRED: Cell<u64> = const { Cell::new(0) };
}

/// How many lock acquisitions (`lock`, `try_lock` that succeeded, `read`,
/// `write`) the calling thread has made so far. The difference across a
/// call is the number of locks the call took on this thread.
pub fn acquisitions() -> u64 {
    ACQUIRED.with(Cell::get)
}

/// Guard-side token: pops this lock from the thread's held stack on drop.
pub struct HeldToken {
    id: u64,
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|(id, _)| *id == self.id) {
                held.remove(pos);
            }
        });
    }
}

/// Record an acquisition of `meta`'s lock: check every currently held lock
/// for an order inversion, record the new edges, and push onto the held
/// stack. Panics (naming both locks, with both backtraces) when the
/// acquisition closes a cycle in the order graph.
pub fn acquire(meta: &LockMeta) -> HeldToken {
    ACQUIRED.with(|count| count.set(count.get() + 1));
    let id = meta.ensure_id();
    let label = meta.label(id);
    let holders: Vec<(u64, String)> = HELD.with(|held| held.borrow().clone());

    // Re-entrant same-lock acquisitions (shared read guards) are not an
    // ordering fact; skip them.
    let holders: Vec<_> = holders.into_iter().filter(|(h, _)| *h != id).collect();
    if !holders.is_empty() {
        let mut inversion: Option<String> = None;
        {
            let mut graph = graph().lock().unwrap_or_else(|e| e.into_inner());
            for (held_id, held_label) in &holders {
                if graph.reaches(id, *held_id) {
                    // The reverse order is established: walking the graph
                    // from `id` reaches `held_id`, so acquiring `id` while
                    // holding `held_id` inverts it. Report the direct edge's
                    // backtrace when one exists.
                    let prior = graph
                        .edges
                        .get(&id)
                        .and_then(|m| m.get(held_id))
                        .map(|e| {
                            format!(
                                "'{}' -> '{}' established at:\n{}",
                                e.from_label, e.to_label, e.backtrace
                            )
                        })
                        .unwrap_or_else(|| "<established transitively>".to_string());
                    inversion = Some(format!(
                        "lock order inversion: acquiring '{label}' while holding \
                         '{held_label}', but the order '{label}' -> '{held_label}' \
                         was already established\n\
                         --- prior acquisition establishing '{label}' -> '{held_label}' ---\n\
                         {prior}\n\
                         --- current acquisition of '{label}' ---\n\
                         {current}",
                        current = Backtrace::force_capture(),
                    ));
                    break;
                }
                graph
                    .edges
                    .entry(*held_id)
                    .or_default()
                    .entry(id)
                    .or_insert_with(|| EdgeInfo {
                        from_label: held_label.clone(),
                        to_label: label.clone(),
                        backtrace: Backtrace::force_capture().to_string(),
                    });
            }
        }
        if let Some(message) = inversion {
            panic!("{message}");
        }
    }

    HELD.with(|held| held.borrow_mut().push((id, label)));
    HeldToken { id }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaches_follows_transitive_edges() {
        let mut g = Graph::default();
        for (a, b) in [(1, 2), (2, 3)] {
            g.edges.entry(a).or_default().insert(
                b,
                EdgeInfo {
                    from_label: format!("l{a}"),
                    to_label: format!("l{b}"),
                    backtrace: String::new(),
                },
            );
        }
        assert!(g.reaches(1, 3));
        assert!(g.reaches(2, 3));
        assert!(!g.reaches(3, 1));
    }
}
