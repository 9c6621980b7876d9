//! The event-driven dispatch core: a completion-polling event loop that lets
//! **one OS thread hold many in-flight LLM calls**.
//!
//! # Why
//!
//! Pinning one OS thread per in-flight request caps deployment-wide
//! concurrency by thread count, not backend capacity:
//! `SchedConfig::llm_slots = 64` would need ~64 sleeping threads. Instead a
//! scan *submits* each request through the poll-based API
//! (`LanguageModel::submit` → `llmsql_llm::CallHandle`) and then parks
//! **here**, polling the handles as their wakeups arrive — 64 in-flight
//! simulated calls are then held by the one thread that planned them.
//!
//! There is one event loop, [`LiveSet`], and every scan drives its own on the
//! query's thread — standalone or under a scheduler alike. Operations never
//! leave the thread that made them, so they need be neither `Send` nor
//! `'static`. What concurrent queries share is not a loop but the state
//! their operations poll: the call-slot pool (which the backend pool's
//! hedges draw on too), the prompt coalescer, the backend pool's breakers
//! and latency averages.
//!
//! # The completion contract
//!
//! A [`LiveSet`] holds a **live set** of [`Completion`] operations (in
//! practice `llmsql_llm::ClientCall`s wrapped with per-query accounting).
//! The set is open: its owner adds operations whenever it likes, and waits
//! for them in the order it added them.
//!
//! * **submit/poll** — an operation makes progress only inside
//!   [`Completion::poll`], which must never block; the loop calls it when
//!   the operation is *due* ([`Completion::next_wakeup`] has arrived or is
//!   `None`). Polling is level-triggered: a poll that makes no progress is
//!   harmless.
//! * **head-first waiting** — a wait runs *every* live operation and returns
//!   as soon as the **head**, the oldest one not yet handed back, has
//!   resolved — not when some batch has drained. Younger operations keep
//!   their place and their progress, and are often already resolved when
//!   their turn comes.
//! * **wake-ups** — the loop keeps no timer state of its own. Every round
//!   visits every live operation anyway, so it reads each survivor's
//!   [`Completion::next_wakeup`] there and parks until the earliest;
//!   nothing is armed and nothing is cancelled, so a completed call cannot
//!   leave a stale wakeup behind. Backoff, hedge-arm and simulated-latency
//!   deadlines all reach the loop this one way. Waiting on another *query*
//!   does not: an operation blocked on a call slot or on a coalescing
//!   leader reports no wake-up, having registered the loop's thread with
//!   the slot pool or the coalescing entry, and the release or publish that
//!   unblocks it unparks the thread ([`clock::park_until`]). No poll period
//!   stands in for that wake-up, so a paused loop waiting on a real-clock
//!   thread moves no virtual time.
//! * **completion cascades** — finishing one operation can unblock another
//!   (dropping a slot permit frees capacity a parked operation is waiting
//!   for), so after any completion the loop re-polls every due operation
//!   before parking again.
//! * **cancellation / who owns the slot guard** — the *operation* owns its
//!   slot permit (acquired through its admission gate, held for exactly one
//!   dispatch, released on resolution). The loop owns nothing besides:
//!   dropping a [`LiveSet`] drops its unfinished operations, and their
//!   `Drop` impls release permits, single-flight leaderships and
//!   per-backend gauges. Dropping is cancelling; there is no other cancel
//!   path.
//! * **deadlines** — a query deadline is checked every iteration; once it
//!   has fired, a wait on an unresolved head reports [`Expired`] even while
//!   calls are parked mid-flight, which is what bounds a late query's
//!   overhang to what it already had in flight.
//!
//! The loop never spins; [`LiveSet::wait_head`] states the park rule.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use llmsql_types::clock;

/// A poll-driven operation a [`LiveSet`] can run to completion.
pub trait Completion {
    /// Attempt progress; `true` once the operation has finished. Not called
    /// again after returning `true`. Must never block.
    fn poll(&mut self, now: Instant) -> bool;

    /// The earliest instant at which another [`Completion::poll`] can make
    /// progress: a timer. `None` after a poll that made no progress means
    /// the operation is blocked on state another thread changes, and that
    /// it registered the polling thread to be unparked when it does
    /// ([`clock::park_until`]); it never means "poll me again soon".
    ///
    /// Must be derived from *stored* state (a flight's ready time, a backoff
    /// deadline). Returning `now + δ` unconditionally makes the wakeup
    /// recede forever — the loop's due-check would never find the operation
    /// due, and it would never be polled again.
    fn next_wakeup(&self, now: Instant) -> Option<Instant>;
}

/// How a [`drive`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveOutcome {
    /// Every operation completed.
    Completed,
    /// The deadline fired first; unfinished operations were left pending
    /// (dropping them is the cancellation).
    DeadlineExceeded,
}

/// Floor of a timer wait: below this, yielding to the OS costs more than it
/// saves.
const MIN_SLEEP: Duration = Duration::from_micros(50);

/// A list of armed deadlines, expired by [`TimerWheel::advance`].
///
/// **No engine path uses it.** The event loop reads wakeups from its
/// operations (see the module docs). It stays, as small as the probe's use,
/// because the frozen benchmark package's probe (`exec.reactor.timer_ns`)
/// imports it; it goes when that package is next opened (ROADMAP item 6(c)).
#[derive(Default)]
pub struct TimerWheel {
    deadlines: Vec<Instant>,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel::default()
    }

    /// Arm a timer for `deadline`.
    pub fn arm(&mut self, deadline: Instant) {
        self.deadlines.push(deadline);
    }

    /// Expire every timer whose deadline is at or before `now`, returning
    /// their deadlines in order.
    pub fn advance(&mut self, now: Instant) -> Vec<Instant> {
        let (mut fired, armed): (Vec<_>, _) = self.deadlines.drain(..).partition(|&d| d <= now);
        self.deadlines = armed;
        fired.sort_unstable();
        fired
    }
}

impl<C: Completion + ?Sized> Completion for &mut C {
    fn poll(&mut self, now: Instant) -> bool {
        (**self).poll(now)
    }

    fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        (**self).next_wakeup(now)
    }
}

/// One operation of a [`LiveSet`].
struct Live<C> {
    op: C,
    done: bool,
}

/// The deadline passed while the head of a [`LiveSet`] was unresolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired;

/// The event loop: a live set of operations in submission order, driven by
/// the thread that owns it (see the module docs for the contract).
/// Operations join at any time ([`LiveSet::push`]); [`LiveSet::wait_head`]
/// runs *all* of them and returns when the oldest resolves. The set keeps no
/// timer state: each round reads the operations' own wakeups. Dropping the
/// set drops — cancels — whatever is still unfinished.
pub struct LiveSet<C> {
    ops: VecDeque<Live<C>>,
}

impl<C> Default for LiveSet<C> {
    fn default() -> Self {
        LiveSet {
            ops: VecDeque::new(),
        }
    }
}

impl<C> LiveSet<C> {
    /// An empty set with room for `room` operations before it grows: a scan
    /// sizes it to its window, so a window of one takes one operation's worth
    /// of memory, not the four a first `push` would reserve.
    pub fn with_capacity(room: usize) -> Self {
        LiveSet {
            ops: VecDeque::with_capacity(room),
        }
    }
}

impl<C: Completion> LiveSet<C> {
    /// Operations in the set: accepted and not yet handed back, resolved or
    /// not.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when every accepted operation has been handed back.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Accept `op` into the live set. Its first poll happens here, inline —
    /// that poll is what submits a call — so an admitted operation is in
    /// flight before the caller does anything else.
    pub fn push(&mut self, mut op: C) {
        let done = op.poll(clock::now());
        self.ops.push_back(Live { op, done });
    }

    /// Drive every live operation until the **head** — the oldest one not
    /// yet handed back — resolves, then hand it back: whatever the operation
    /// resolved to is the caller's to read off it. `None` when the set is
    /// empty. Once `deadline` has passed an unresolved head reports
    /// [`Expired`] and stays where it is: dropping the set is the
    /// cancellation.
    ///
    /// The park rule: poll every due operation; after any completion go
    /// round again; otherwise park until the earliest timer the survivors
    /// report or the deadline — never for less than `MIN_SLEEP` — or, with
    /// neither, until a thread an operation waits on unparks this one.
    pub fn wait_head(&mut self, deadline: Option<Instant>) -> Option<Result<C, Expired>> {
        loop {
            if self.ops.front()?.done {
                return self.ops.pop_front().map(|live| Ok(live.op));
            }
            let now = clock::now();
            if deadline.is_some_and(|d| now >= d) {
                return Some(Err(Expired));
            }
            // Completions can cascade (a released slot permit unblocks a
            // parked operation), hence the extra round before any sleep.
            let mut progressed = false;
            for live in self.ops.iter_mut().filter(|live| !live.done) {
                let due = live.op.next_wakeup(now).is_none_or(|wake| wake <= now);
                if due && live.op.poll(now) {
                    live.done = true;
                    progressed = true;
                }
            }
            if progressed {
                continue;
            }
            let timer = self
                .ops
                .iter()
                .filter(|live| !live.done)
                .filter_map(|live| live.op.next_wakeup(now))
                .chain(deadline)
                .min();
            clock::park_until(
                timer.map(|t| clock::now() + t.saturating_duration_since(now).max(MIN_SLEEP)),
            );
        }
    }
}

/// Run `ops` to completion on the calling thread, or until `deadline`
/// fires: a [`LiveSet`] fed the whole slice and waited on until it is empty.
/// The caller inspects its operations afterwards for results; on
/// [`DriveOutcome::DeadlineExceeded`] the unfinished ones are simply dropped
/// — that *is* the cancellation. The engine itself feeds a [`LiveSet`]
/// directly; this wrapper stays for the frozen benchmark package's probe
/// (ROADMAP item 6(c)).
pub fn drive<C: Completion>(ops: &mut [C], deadline: Option<Instant>) -> DriveOutcome {
    let mut live = LiveSet::default();
    for op in ops {
        live.push(op);
    }
    loop {
        match live.wait_head(deadline) {
            None => return DriveOutcome::Completed,
            Some(Ok(_)) => {}
            Some(Err(Expired)) => return DriveOutcome::DeadlineExceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn wheel_fires_in_deadline_order() {
        let mut wheel = TimerWheel::new();
        let base = Instant::now();
        let late = base + Duration::from_millis(8);
        let early = base + Duration::from_millis(2);
        let mid = base + Duration::from_millis(5);
        for deadline in [late, early, mid] {
            wheel.arm(deadline);
        }
        // Nothing due yet.
        assert!(wheel.advance(base + Duration::from_micros(100)).is_empty());
        // The early and mid timers fire together, ordered by deadline.
        assert_eq!(wheel.advance(base + Duration::from_millis(6)), [early, mid]);
        assert_eq!(wheel.advance(base + Duration::from_millis(10)), [late]);
        assert!(wheel.advance(base + Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn timers_never_fire_before_their_deadline() {
        // Advanced every 200µs of paused time, a 3ms timer fires on the
        // 15th step: at its deadline, not a step early.
        let _paused = clock::pause();
        let mut wheel = TimerWheel::new();
        let deadline = clock::now() + Duration::from_millis(3);
        wheel.arm(deadline);
        while wheel.advance(clock::now()).is_empty() {
            clock::park_until(Some(clock::now() + Duration::from_micros(200)));
        }
        assert_eq!(clock::now(), deadline);
    }

    /// A synthetic operation: completes after `ready_at`, counts its polls.
    struct TimedOp {
        ready_at: Instant,
        polls: usize,
        done: bool,
    }

    impl Completion for TimedOp {
        fn poll(&mut self, now: Instant) -> bool {
            self.polls += 1;
            if now >= self.ready_at {
                self.done = true;
            }
            self.done
        }
        fn next_wakeup(&self, _now: Instant) -> Option<Instant> {
            Some(self.ready_at)
        }
    }

    #[test]
    fn drive_completes_overlapping_timers_without_blocking_per_op() {
        // 32 ops of 10ms each, started 50µs apart, on one thread:
        // event-driven overlap means the whole batch completes when the last
        // one is ready, not after 32 round trips.
        let _paused = clock::pause();
        let start = clock::now();
        let mut ops: Vec<TimedOp> = (0..32)
            .map(|i| TimedOp {
                ready_at: start + Duration::from_millis(10) + Duration::from_micros(i * 50),
                polls: 0,
                done: false,
            })
            .collect();
        let outcome = drive(&mut ops, None);
        assert_eq!(outcome, DriveOutcome::Completed);
        assert!(ops.iter().all(|op| op.done));
        assert_eq!(clock::now() - start, Duration::from_micros(11_550));
        // Timer-driven polling, not spinning: each op is polled once when
        // pushed and once when its wakeup arrives.
        assert!(ops.iter().all(|op| op.polls == 2), "reactor is spinning");
    }

    #[test]
    fn drive_honours_the_deadline_while_ops_are_parked() {
        let _paused = clock::pause();
        let start = clock::now();
        let mut ops = vec![TimedOp {
            ready_at: start + Duration::from_millis(500),
            polls: 0,
            done: false,
        }];
        let outcome = drive(&mut ops, Some(start + Duration::from_millis(5)));
        assert_eq!(outcome, DriveOutcome::DeadlineExceeded);
        assert!(!ops[0].done, "op must be left pending for the caller");
        // The abort comes at the deadline, not when the parked call is due.
        assert_eq!(clock::now() - start, Duration::from_millis(5));
    }

    /// Two ops sharing one "slot": the second can only proceed once the
    /// first completes — exercising the completion-cascade re-poll. A
    /// blocked op reports no wake-up; the cascade alone re-polls it.
    #[test]
    fn drive_cascades_completions_that_unblock_parked_ops() {
        struct SlotOp<'a> {
            slot_free: &'a Cell<bool>,
            holds: bool,
            ready_at: Option<Instant>,
            latency: Duration,
            done: bool,
        }
        impl Completion for SlotOp<'_> {
            fn poll(&mut self, now: Instant) -> bool {
                if self.done {
                    return true;
                }
                if !self.holds {
                    if !self.slot_free.get() {
                        return false;
                    }
                    self.slot_free.set(false);
                    self.holds = true;
                    self.ready_at = Some(now + self.latency);
                }
                if now >= self.ready_at.expect("holding implies a flight") {
                    self.done = true;
                    self.slot_free.set(true);
                }
                self.done
            }
            fn next_wakeup(&self, _now: Instant) -> Option<Instant> {
                self.ready_at
            }
        }
        let slot_free = Cell::new(true);
        let mut ops = vec![
            SlotOp {
                slot_free: &slot_free,
                holds: false,
                ready_at: None,
                latency: Duration::from_millis(5),
                done: false,
            },
            SlotOp {
                slot_free: &slot_free,
                holds: false,
                ready_at: None,
                latency: Duration::from_millis(5),
                done: false,
            },
        ];
        let _paused = clock::pause();
        let start = clock::now();
        assert_eq!(drive(&mut ops, None), DriveOutcome::Completed);
        assert!(ops.iter().all(|op| op.done));
        assert!(slot_free.get(), "slot leaked");
        // The second op takes the slot in the round in which the first frees
        // it, so the two run back to back.
        assert_eq!(clock::now() - start, Duration::from_millis(10));
    }

    /// Resolves at `ready_at`; says when it was dropped, resolved or not.
    struct Tracked {
        name: &'static str,
        ready_at: Instant,
        dropped: Rc<Cell<bool>>,
    }

    impl Tracked {
        fn after(name: &'static str, delay: Duration) -> (Tracked, Rc<Cell<bool>>) {
            let dropped = Rc::default();
            let op = Tracked {
                name,
                ready_at: clock::now() + delay,
                dropped: Rc::clone(&dropped),
            };
            (op, dropped)
        }
    }

    impl Completion for Tracked {
        fn poll(&mut self, now: Instant) -> bool {
            now >= self.ready_at
        }
        fn next_wakeup(&self, _now: Instant) -> Option<Instant> {
            Some(self.ready_at)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.dropped.set(true);
        }
    }

    #[test]
    fn a_live_set_hands_back_its_head_while_younger_operations_fly() {
        const NEVER: Duration = Duration::from_hours(1);
        let _paused = clock::pause();
        let start = clock::now();
        let mut live = LiveSet::default();
        let (head, head_dropped) = Tracked::after("head", Duration::from_millis(2));
        let (stuck, stuck_dropped) = Tracked::after("stuck", NEVER);
        live.push(head);
        live.push(stuck);
        // The head resolves; the wait does not hold out for the batch, and
        // the operation comes back to the caller, whole.
        let handed_back = live.wait_head(None).unwrap().ok().unwrap();
        assert_eq!(handed_back.name, "head");
        assert_eq!(clock::now() - start, Duration::from_millis(2));
        assert!(!head_dropped.get(), "the set dropped what it hands back");
        assert!(!stuck_dropped.get());
        // An operation admitted mid-flight runs behind the stuck one and
        // resolves there, but the wait is for the head.
        let (late, late_dropped) = Tracked::after("late", Duration::ZERO);
        live.push(late);
        let soon = clock::now() + Duration::from_millis(5);
        assert!(matches!(live.wait_head(Some(soon)), Some(Err(Expired))));
        assert_eq!(clock::now(), soon);
        assert!(!stuck_dropped.get(), "an expired head stays put");
        // Dropping the set is the cancellation.
        drop(live);
        assert!(stuck_dropped.get() && late_dropped.get());
        assert!(LiveSet::<Tracked>::default().wait_head(None).is_none());
    }
}
