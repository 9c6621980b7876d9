//! The event-driven dispatch core: a completion-polling event loop that lets
//! **one OS thread hold many in-flight LLM calls**.
//!
//! # Why
//!
//! Pinning one OS thread per in-flight request caps deployment-wide
//! concurrency by thread count, not backend capacity:
//! `SchedConfig::llm_slots = 64` would need ~64 sleeping threads. Instead a
//! scan worker *submits* each request through the poll-based API
//! (`LanguageModel::submit` → `llmsql_llm::CallHandle`) and then parks
//! **here**, polling the handles as their wakeups arrive — 64 in-flight
//! simulated calls are then held by the one worker thread that planned
//! them.
//!
//! # The completion contract
//!
//! An event loop — a private [`LiveSet`], or the deployment's
//! [`SharedReactor`] through a [`Stream`] — holds a **live set** of
//! [`Completion`] operations (in practice `llmsql_llm::ClientCall`s wrapped
//! with per-query accounting). The set is open: its owner adds operations
//! whenever it likes, and waits for them in the order it added them.
//!
//! * **submit/poll** — an operation makes progress only inside
//!   [`Completion::poll`], which must never block; the reactor calls it when
//!   the operation is *due* ([`Completion::next_wakeup`] has arrived or is
//!   `None`). Polling is level-triggered: a poll that makes no progress is
//!   harmless, so the loop can afford to re-poll broadly.
//! * **head-first waiting** — a wait runs *every* live operation and returns
//!   as soon as the **head**, the oldest one not yet handed back, has
//!   resolved — not when some batch has drained. Younger operations keep
//!   their place and their progress, and are often already resolved when
//!   their turn comes.
//! * **wake-ups** — the loop keeps no timer state of its own. Every round
//!   visits every live operation anyway, so it reads each survivor's
//!   [`Completion::next_wakeup`] there and sleeps until the earliest;
//!   nothing is armed and nothing is cancelled, so a completed call cannot
//!   leave a stale wakeup behind. Backoff, hedge-arm and simulated-latency
//!   deadlines all reach the loop this one way, in both loops.
//! * **completion cascades** — finishing one operation can unblock another
//!   (dropping a slot permit frees capacity a parked operation is waiting
//!   for), so after any completion the loop re-polls every due operation
//!   before sleeping again.
//! * **cancellation / who owns the slot guard** — the *operation* owns its
//!   slot permit (acquired through its admission gate, held for exactly one
//!   dispatch, released on resolution). The reactor owns nothing besides:
//!   dropping a [`LiveSet`] or a [`Stream`] drops its unfinished operations,
//!   and their `Drop` impls release permits, single-flight leaderships and
//!   per-backend gauges. Dropping is cancelling; there is no other cancel
//!   path.
//! * **deadlines** — a query deadline is checked every iteration; once it
//!   has fired, a wait on an unresolved head reports
//!   [`DriveOutcome::DeadlineExceeded`] even while calls are parked
//!   mid-flight, which is what bounds a late query's overhang to what it
//!   already had in flight.
//!
//! The loop never spins: between polls it sleeps until the earliest wakeup
//! its operations report, exactly (a short floor stands in when an operation
//! declares itself immediately pollable, e.g. waiting on a slot another
//! *thread's* reactor will free), or the deadline — never for less than
//! `MIN_SLEEP`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A poll-driven operation the reactor can run to completion.
pub trait Completion {
    /// Attempt progress; `true` once the operation has finished. Not called
    /// again after returning `true`. Must never block.
    fn poll(&mut self, now: Instant) -> bool;

    /// The earliest instant at which another [`Completion::poll`] can make
    /// progress, or `None` for "poll me immediately".
    ///
    /// Must be derived from *stored* state (a flight's ready time, a parked
    /// retry deadline set when parking). Returning `now + δ` unconditionally
    /// makes the wakeup recede forever — the reactor's due-check would never
    /// find the operation due, and it would never be polled again.
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

/// [`TimerWheel`] granularity: fine enough that sub-millisecond backoffs and
/// follower retries are not rounded into oblivion, coarse enough that the
/// wheel stays tiny.
const TICK: Duration = Duration::from_micros(250);

/// Wheel size. With 250µs ticks one revolution covers 64ms — longer
/// deadlines simply survive extra revolutions (the entry stores its absolute
/// tick).
const WHEEL_SLOTS: usize = 256;

/// Sleep floor: below this, yielding to the OS costs more than it saves.
const MIN_SLEEP: Duration = Duration::from_micros(50);

/// How long an "immediately pollable but unproductive" operation may delay
/// the next poll round — the cross-thread fallback for operations waiting on
/// state (a slot permit) that another thread's reactor will free.
const IMMEDIATE_RETRY: Duration = Duration::from_micros(250);

/// Identifies one armed timer; returned by [`TimerWheel::arm`] and required
/// for [`TimerWheel::cancel`]. Kept, like the wheel, for the benchmark's
/// probe only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    id: u64,
    tick: u64,
}

struct WheelEntry {
    id: u64,
    tick: u64,
}

/// A hashed timer wheel: O(1) arm/cancel, expiry by advancing a cursor over
/// the slots. Entries past one revolution stay in their slot and fire on the
/// revolution their absolute tick falls in.
///
/// **No engine path uses it.** Both event loops read wakeups from their
/// operations (see the module docs). The wheel and [`TimerId`] stay exported,
/// signatures unchanged, because the frozen benchmark package's probe
/// (`exec.reactor.timer_ns`) imports them; they go when that package is next
/// opened (ROADMAP item 4b).
pub struct TimerWheel {
    slots: Vec<Vec<WheelEntry>>,
    epoch: Instant,
    /// Ticks fully expired so far (entries with `tick <= cursor` are gone).
    cursor: u64,
    next_id: u64,
    live: usize,
}

impl TimerWheel {
    /// An empty wheel whose tick 0 is "now".
    pub fn new() -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            epoch: Instant::now(),
            cursor: 0,
            next_id: 0,
            live: 0,
        }
    }

    /// The absolute tick covering `deadline`, rounded **up** so a timer never
    /// fires before its deadline.
    fn tick_for(&self, deadline: Instant) -> u64 {
        let since = deadline.saturating_duration_since(self.epoch);
        (since.as_nanos() as u64).div_ceil(TICK.as_nanos() as u64)
    }

    /// Arm a timer for `deadline`. Deadlines in the past land on the next
    /// unexpired tick and fire on the next [`TimerWheel::advance`].
    pub fn arm(&mut self, deadline: Instant) -> TimerId {
        let tick = self.tick_for(deadline).max(self.cursor + 1);
        let id = self.next_id;
        self.next_id += 1;
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push(WheelEntry { id, tick });
        self.live += 1;
        TimerId { id, tick }
    }

    /// Cancel an armed timer; `true` when it was still pending (a timer that
    /// already fired — or was already cancelled — returns `false`).
    pub fn cancel(&mut self, timer: TimerId) -> bool {
        let slot = &mut self.slots[(timer.tick % WHEEL_SLOTS as u64) as usize];
        match slot.iter().position(|e| e.id == timer.id) {
            Some(index) => {
                slot.swap_remove(index);
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// Expire every timer whose deadline is at or before `now`, in deadline
    /// order, advancing the cursor.
    pub fn advance(&mut self, now: Instant) -> Vec<TimerId> {
        let now_tick =
            now.saturating_duration_since(self.epoch).as_nanos() as u64 / TICK.as_nanos() as u64;
        if now_tick <= self.cursor || self.live == 0 {
            self.cursor = self.cursor.max(now_tick);
            return Vec::new();
        }
        let mut fired = Vec::new();
        // Visit each slot at most once per advance: a span longer than one
        // revolution has wrapped past every slot anyway.
        let span = (now_tick - self.cursor).min(WHEEL_SLOTS as u64);
        for offset in 1..=span {
            let slot = &mut self.slots[((self.cursor + offset) % WHEEL_SLOTS as u64) as usize];
            let mut index = 0;
            while index < slot.len() {
                if slot[index].tick <= now_tick {
                    let entry = slot.swap_remove(index);
                    fired.push(TimerId {
                        id: entry.id,
                        tick: entry.tick,
                    });
                } else {
                    index += 1;
                }
            }
        }
        self.live -= fired.len();
        self.cursor = now_tick;
        fired.sort_by_key(|t| t.tick);
        fired
    }

    /// The earliest armed deadline, or `None` when the wheel is empty.
    pub fn next_deadline(&self) -> Option<Instant> {
        if self.live == 0 {
            return None;
        }
        let tick = self
            .slots
            .iter()
            .flat_map(|slot| slot.iter().map(|e| e.tick))
            .min()?;
        Some(self.epoch + TICK * tick as u32)
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
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

/// When `op` next wants a poll, for a loop about to sleep. An operation that
/// says "immediately" yet did not resolve is blocked on state another thread
/// will change (a slot permit, say) and gets the [`IMMEDIATE_RETRY`] floor.
fn wake_time<C: Completion + ?Sized>(op: &C, now: Instant) -> Instant {
    op.next_wakeup(now).unwrap_or(now + IMMEDIATE_RETRY)
}

/// One operation of a [`LiveSet`].
struct Live<C> {
    op: C,
    done: bool,
}

/// The private event loop: a live set of operations in submission order,
/// driven by the thread that owns it (see the module docs for the contract).
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

impl<C: Completion> LiveSet<C> {
    /// Accept `op` into the live set. Its first poll happens here, inline —
    /// that poll is what submits a call — so an admitted operation is in
    /// flight before the caller does anything else.
    pub fn push(&mut self, mut op: C) {
        let done = op.poll(Instant::now());
        self.ops.push_back(Live { op, done });
    }

    /// Drive every live operation until the **head** — the oldest one not
    /// yet handed back — resolves, then drop it and report
    /// [`DriveOutcome::Completed`]; the caller reads the result from
    /// wherever the operation wrote it. `None` when the set is empty. Once
    /// `deadline` has passed an unresolved head reports
    /// [`DriveOutcome::DeadlineExceeded`] and stays where it is: dropping
    /// the set is the cancellation.
    ///
    /// The sleep rule, shared with [`SharedReactor`]'s driver loop: poll
    /// every due operation; after any completion go round again; otherwise
    /// sleep until the earliest of the survivors' `wake_time`s and the
    /// deadline, and never for less than `MIN_SLEEP`.
    pub fn wait_head(&mut self, deadline: Option<Instant>) -> Option<DriveOutcome> {
        loop {
            if self.ops.front()?.done {
                self.ops.pop_front();
                return Some(DriveOutcome::Completed);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return Some(DriveOutcome::DeadlineExceeded);
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
            let until = self
                .ops
                .iter()
                .filter(|live| !live.done)
                .map(|live| wake_time(&live.op, now))
                .chain(deadline)
                .min()
                // Unreachable: the unresolved head is live.
                .unwrap_or(now + IMMEDIATE_RETRY);
            std::thread::sleep(until.saturating_duration_since(now).max(MIN_SLEEP));
        }
    }
}

/// Run `ops` to completion on the calling thread, or until `deadline`
/// fires: a [`LiveSet`] fed the whole slice and waited on until it is empty.
/// The caller inspects its operations afterwards for results; on
/// [`DriveOutcome::DeadlineExceeded`] the unfinished ones are simply dropped
/// — that *is* the cancellation. The engine itself feeds a [`LiveSet`]
/// directly; this wrapper stays for the frozen benchmark package's probe
/// (ROADMAP item 4b).
pub fn drive<C: Completion>(ops: &mut [C], deadline: Option<Instant>) -> DriveOutcome {
    let mut live = LiveSet::default();
    for op in ops {
        live.push(op);
    }
    loop {
        match live.wait_head(deadline) {
            None => return DriveOutcome::Completed,
            Some(DriveOutcome::Completed) => {}
            Some(DriveOutcome::DeadlineExceeded) => return DriveOutcome::DeadlineExceeded,
        }
    }
}

/// One operation inside the shared reactor, tagged with the stream that
/// submitted it and its place in that stream.
struct TaggedOp {
    stream: u64,
    seq: u64,
    op: Box<dyn Completion + Send>,
}

/// Book-keeping for one open [`Stream`].
struct StreamState {
    /// Sequence number of the head: the oldest operation not yet handed back
    /// to the submitter.
    head: u64,
    /// Whether each operation from the head on has resolved, in submission
    /// order.
    done: VecDeque<bool>,
    /// The submitting query's deadline; firing it cancels only this stream.
    deadline: Option<Instant>,
    /// The deadline fired: every wait on an unresolved operation reports
    /// [`DriveOutcome::DeadlineExceeded`].
    expired: bool,
}

/// What submitters and the driver share under the state lock.
struct ReactorState {
    next_stream: u64,
    /// Operations submitted but not yet adopted by a driver.
    injected: Vec<TaggedOp>,
    streams: HashMap<u64, StreamState>,
    /// True while some submitter thread is driving the event loop.
    has_driver: bool,
}

/// A deployment-wide event loop that many threads submit operations to and
/// park on — the scheduler-owned singleton form of [`LiveSet`].
///
/// # The worker model
///
/// A [`LiveSet`] gives one scan one private event loop: the owning thread
/// polls its own operations and nothing else. A [`SharedReactor`] lifts that
/// to the deployment: every scan opens a [`Stream`], the streams' operations
/// land in one shared live set, and exactly one of the parked submitter
/// threads — the **driver** — runs the event loop for *all* of them at once.
/// Completions from different queries therefore interleave on one loop,
/// which is what makes cross-query effects (deployment-scope prompt
/// coalescing, a single `llm_slots` ceiling) observable within one poll
/// round instead of across thread-timer boundaries.
///
/// The driver seat is not a dedicated thread: the first submitter to wait
/// while the seat is empty takes it and drives until the **head of its own
/// stream** resolves. Then it leaves — the unfinished operations, its own
/// later ones included, stay in the live set — and wakes the parked
/// submitters, one of which takes over. Every parked submitter is a driver
/// candidate, so no operation can be orphaned while its submitter waits; a
/// submitter that is busy consuming an answer leaves its operations to
/// whoever drives, or untouched until it waits again.
///
/// Per-stream semantics are those of a [`LiveSet`]: a stream's deadline
/// fires only that stream, and closing a stream — dropping is cancelling —
/// takes its unfinished operations out of the loop before [`Stream`]'s drop
/// returns.
pub struct SharedReactor {
    state: Mutex<ReactorState>,
    /// The operations the driver is running. Held by the driver for a poll
    /// pass and by a closing stream taking its operations back, never while
    /// parked; taken before `state` where both are held.
    live: Mutex<Vec<TaggedOp>>,
    /// Wakes the driver: new operations were injected.
    work: Condvar,
    /// Wakes parked submitters: a head resolved, or the driver seat freed.
    resolved: Condvar,
}

impl Default for SharedReactor {
    fn default() -> Self {
        SharedReactor::new()
    }
}

/// Releases the driver seat on every exit path. A *panicking* driver may
/// have left an operation half-polled, so nothing in the loop can be
/// trusted to complete: the guard drops every operation and expires every
/// stream, so their submitters observe a deadline abort instead of parking
/// forever.
struct DriverSeat<'a> {
    reactor: &'a SharedReactor,
}

impl Drop for DriverSeat<'_> {
    fn drop(&mut self) {
        let mut doomed = Vec::new();
        if std::thread::panicking() {
            doomed.append(&mut self.reactor.lock_live());
        }
        let mut state = self.reactor.lock_state();
        state.has_driver = false;
        if std::thread::panicking() {
            doomed.append(&mut state.injected);
            for stream in state.streams.values_mut() {
                stream.expired = true;
            }
        }
        drop(state);
        self.reactor.resolved.notify_all();
    }
}

impl SharedReactor {
    /// An empty shared reactor (typically wrapped in an `Arc` and attached
    /// to an engine by the scheduler that owns the deployment).
    pub fn new() -> SharedReactor {
        SharedReactor {
            state: Mutex::new(ReactorState {
                next_stream: 0,
                injected: Vec::new(),
                streams: HashMap::new(),
                has_driver: false,
            }),
            live: Mutex::new(Vec::new()),
            work: Condvar::new(),
            resolved: Condvar::new(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, ReactorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_live(&self) -> MutexGuard<'_, Vec<TaggedOp>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a stream: an in-order sequence of operations whose submitter
    /// waits on them head first — the shared-loop counterpart of a
    /// [`LiveSet`]. `deadline` is the submitting query's.
    pub fn open(&self, deadline: Option<Instant>) -> Stream<'_> {
        let mut state = self.lock_state();
        let id = state.next_stream;
        state.next_stream += 1;
        state.streams.insert(
            id,
            StreamState {
                head: 0,
                done: VecDeque::new(),
                deadline,
                expired: false,
            },
        );
        Stream {
            reactor: self,
            id,
            next_seq: 0,
            pushed: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The driver loop: run every stream's operations until the head of the
    /// caller's own stream (`own`) resolves or its deadline fires, then
    /// leave the seat.
    ///
    /// The sleep rule is [`LiveSet::wait_head`]'s: poll every due operation;
    /// after any completion go round again; otherwise sleep until the
    /// earliest of the survivors' `wake_time`s and the stream deadlines, and
    /// never for less than `MIN_SLEEP`. The one addition is that a new
    /// injection interrupts the sleep.
    fn drive_until_head(&self, own: u64) {
        let _seat = DriverSeat { reactor: self };
        let mut completed: Vec<(u64, u64)> = Vec::new();
        loop {
            let now = Instant::now();
            // Intake, deadline firing and the exit check. `live` is held
            // across the hand-over so a closing stream finds each of its
            // operations in exactly one of the two places. An expired
            // stream's operations stay until its submitter, woken here,
            // closes it: a stream has one cancel path, its own drop.
            let mut live = self.lock_live();
            let mut state = self.lock_state();
            live.append(&mut state.injected);
            let mut newly_expired = false;
            for stream in state.streams.values_mut() {
                if !stream.expired && stream.deadline.is_some_and(|d| now >= d) {
                    stream.expired = true;
                    newly_expired = true;
                }
            }
            let own_resolved = state
                .streams
                .get(&own)
                .is_none_or(|s| s.expired || s.done.front() != Some(&false));
            drop(state);
            if newly_expired {
                self.resolved.notify_all();
            }
            if own_resolved {
                return;
            }

            // Poll every due operation; completions can cascade (a freed
            // slot permit unblocks a parked operation — possibly of another
            // stream), so any completion means another round before sleeping.
            live.retain_mut(|t| {
                let due = t.op.next_wakeup(now).is_none_or(|wake| wake <= now);
                let finished = due && t.op.poll(now);
                if finished {
                    completed.push((t.stream, t.seq));
                }
                !finished
            });
            let wake_at = live.iter().map(|t| wake_time(&*t.op, now)).min();
            drop(live);

            let mut state = self.lock_state();
            if !completed.is_empty() {
                let mut head_resolved = false;
                for (id, seq) in completed.drain(..) {
                    // A stream closed meanwhile no longer cares.
                    let Some(stream) = state.streams.get_mut(&id) else {
                        continue;
                    };
                    if let Some(done) = stream.done.get_mut((seq - stream.head) as usize) {
                        *done = true;
                        head_resolved |= seq == stream.head;
                    }
                }
                drop(state);
                if head_resolved {
                    self.resolved.notify_all();
                }
                continue;
            }

            // Sleep until the earliest stored wakeup or stream deadline —
            // woken early by any new injection.
            if !state.injected.is_empty() {
                continue;
            }
            let deadlines = state.streams.values().filter(|s| !s.expired);
            let until = wake_at
                .into_iter()
                .chain(deadlines.filter_map(|s| s.deadline))
                .min()
                // Unreachable while the own head is unresolved (its operation
                // is live and carries a wakeup), but keeps a defect from
                // becoming an unbounded park.
                .unwrap_or(now + Duration::from_millis(10));
            let sleep = until.saturating_duration_since(now).max(MIN_SLEEP);
            let (guard, _timeout) = self
                .work
                .wait_timeout(state, sleep)
                .unwrap_or_else(PoisonError::into_inner);
            drop(guard);
        }
    }

    /// Streams currently open, advisory.
    pub fn streams_open(&self) -> usize {
        self.lock_state().streams.len()
    }
}

/// One scan's operations on a [`SharedReactor`], in submission order. The
/// submitter pushes operations whenever it likes and waits for them head
/// first; closing the stream (drop) cancels whatever is unfinished.
pub struct Stream<'a> {
    reactor: &'a SharedReactor,
    id: u64,
    next_seq: u64,
    /// Whether each operation pushed since the last wait resolved on its
    /// first poll, and the ones that did not: handed to the loop by the next
    /// wait, so a round of admissions costs one lock and one driver wake-up.
    pushed: Vec<bool>,
    pending: Vec<TaggedOp>,
}

impl Stream<'_> {
    /// Accept `op` into the stream. As in [`LiveSet::push`], its first poll
    /// happens here, inline, on the submitter's thread; if that does not
    /// resolve it, it joins the shared live set when the submitter next
    /// waits.
    pub fn push(&mut self, mut op: Box<dyn Completion + Send>) {
        let done = op.poll(Instant::now());
        self.pushed.push(done);
        if !done {
            self.pending.push(TaggedOp {
                stream: self.id,
                seq: self.next_seq,
                op,
            });
        }
        self.next_seq += 1;
    }

    /// Park until the stream's **head** operation resolves — the shared-loop
    /// counterpart of [`LiveSet::wait_head`], with the same return values.
    /// The calling thread either waits for a driver to resolve it or
    /// becomes the driver itself; see [`SharedReactor`] for the worker
    /// model.
    pub fn wait_head(&mut self) -> Option<DriveOutcome> {
        let reactor = self.reactor;
        let mut state = reactor.lock_state();
        if let Some(stream) = state.streams.get_mut(&self.id) {
            stream.done.extend(self.pushed.drain(..));
        }
        if !self.pending.is_empty() {
            state.injected.append(&mut self.pending);
            reactor.work.notify_all();
        }
        loop {
            let stream = state.streams.get_mut(&self.id)?;
            match *stream.done.front()? {
                true => {
                    stream.done.pop_front();
                    stream.head += 1;
                    return Some(DriveOutcome::Completed);
                }
                false if stream.expired => return Some(DriveOutcome::DeadlineExceeded),
                false => {}
            }
            if state.has_driver {
                // Park; any head resolution or driver hand-off wakes us.
                state = reactor
                    .resolved
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            } else {
                state.has_driver = true;
                drop(state);
                reactor.drive_until_head(self.id);
                state = reactor.lock_state();
            }
        }
    }
}

impl Drop for Stream<'_> {
    fn drop(&mut self) {
        let mut state = self.reactor.lock_state();
        let unfinished = state
            .streams
            .remove(&self.id)
            .is_some_and(|stream| stream.done.contains(&false));
        if !unfinished {
            return;
        }
        // Cancel: take the unfinished operations out of the loop, wherever
        // they are, and drop them here — outside both locks.
        let mine = |t: &mut TaggedOp| t.stream == self.id;
        let mut cancelled: Vec<TaggedOp> = state.injected.extract_if(.., mine).collect();
        drop(state);
        cancelled.extend(self.reactor.lock_live().extract_if(.., mine));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_in_deadline_order() {
        let mut wheel = TimerWheel::new();
        let base = Instant::now();
        let late = wheel.arm(base + Duration::from_millis(8));
        let early = wheel.arm(base + Duration::from_millis(2));
        let mid = wheel.arm(base + Duration::from_millis(5));
        assert_eq!(wheel.len(), 3);
        assert!(wheel.next_deadline().unwrap() <= base + Duration::from_millis(3));

        // Nothing due yet.
        assert!(wheel.advance(base + Duration::from_micros(100)).is_empty());
        // The early and mid timers fire together, ordered by deadline.
        let fired = wheel.advance(base + Duration::from_millis(6));
        assert_eq!(fired, vec![early, mid]);
        let fired = wheel.advance(base + Duration::from_millis(10));
        assert_eq!(fired, vec![late]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn cancelled_timers_never_fire_and_fired_timers_cannot_cancel() {
        let mut wheel = TimerWheel::new();
        let base = Instant::now();
        let keep = wheel.arm(base + Duration::from_millis(1));
        let drop_me = wheel.arm(base + Duration::from_millis(1));
        assert!(wheel.cancel(drop_me), "pending timer should cancel");
        assert!(!wheel.cancel(drop_me), "double-cancel reports not-pending");
        let fired = wheel.advance(base + Duration::from_millis(2));
        assert_eq!(fired, vec![keep], "cancelled timer fired");
        assert!(
            !wheel.cancel(keep),
            "a fired timer is gone; cancelling it must be a no-op"
        );
        assert!(wheel.is_empty());
    }

    #[test]
    fn timers_beyond_one_revolution_survive_the_wrap() {
        // 256 slots at 250µs = 64ms per revolution; a 200ms timer must not
        // fire when its slot first comes around.
        let mut wheel = TimerWheel::new();
        let base = Instant::now();
        let far = wheel.arm(base + Duration::from_millis(200));
        let near = wheel.arm(base + Duration::from_millis(1));
        assert_eq!(wheel.advance(base + Duration::from_millis(70)), vec![near]);
        assert!(
            wheel.advance(base + Duration::from_millis(140)).is_empty(),
            "far timer fired a revolution early"
        );
        assert_eq!(
            wheel.advance(base + Duration::from_millis(201)),
            vec![far],
            "far timer lost across revolutions"
        );
    }

    #[test]
    fn timers_never_fire_before_their_deadline() {
        let mut wheel = TimerWheel::new();
        let deadline = Instant::now() + Duration::from_millis(3);
        wheel.arm(deadline);
        loop {
            let now = Instant::now();
            let fired = wheel.advance(now);
            if !fired.is_empty() {
                assert!(now >= deadline, "timer fired {:?} early", deadline - now);
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
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
        // 32 ops of ~10ms each on one thread: event-driven overlap means the
        // whole batch completes in ~one round trip, not 32.
        let start = Instant::now();
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
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(160),
            "no overlap: 32×10ms took {elapsed:?}"
        );
        // Timer-driven polling, not spinning: each op is polled a handful of
        // times, not thousands.
        assert!(
            ops.iter().all(|op| op.polls < 200),
            "reactor is spinning: {:?}",
            ops.iter().map(|op| op.polls).max()
        );
    }

    #[test]
    fn drive_honours_the_deadline_while_ops_are_parked() {
        let start = Instant::now();
        let mut ops = vec![TimedOp {
            ready_at: start + Duration::from_millis(500),
            polls: 0,
            done: false,
        }];
        let outcome = drive(&mut ops, Some(start + Duration::from_millis(5)));
        assert_eq!(outcome, DriveOutcome::DeadlineExceeded);
        assert!(!ops[0].done, "op must be left pending for the caller");
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "deadline abort should not wait for the parked call"
        );
    }

    /// Two ops sharing one "slot": the second can only proceed once the
    /// first completes — exercising the completion-cascade re-poll.
    #[test]
    fn drive_cascades_completions_that_unblock_parked_ops() {
        use std::cell::Cell;
        struct SlotOp<'a> {
            slot_free: &'a Cell<bool>,
            holds: bool,
            ready_at: Option<Instant>,
            /// Absolute retry deadline while parked (per the
            /// [`Completion::next_wakeup`] contract: stored, not `now + δ`).
            retry_at: Option<Instant>,
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
                        self.retry_at = Some(now + Duration::from_micros(250));
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
                if self.holds {
                    self.ready_at
                } else {
                    self.retry_at
                }
            }
        }
        let slot_free = Cell::new(true);
        let mut ops = vec![
            SlotOp {
                slot_free: &slot_free,
                holds: false,
                ready_at: None,
                retry_at: None,
                latency: Duration::from_millis(5),
                done: false,
            },
            SlotOp {
                slot_free: &slot_free,
                holds: false,
                ready_at: None,
                retry_at: None,
                latency: Duration::from_millis(5),
                done: false,
            },
        ];
        let start = Instant::now();
        assert_eq!(drive(&mut ops, None), DriveOutcome::Completed);
        assert!(ops.iter().all(|op| op.done));
        assert!(slot_free.get(), "slot leaked");
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "ops overlapped despite sharing one slot"
        );
    }

    /// Push `ops` onto a fresh stream of `reactor` and wait for each, head
    /// first: how a batch of operations runs on the shared loop.
    fn run_stream(
        reactor: &SharedReactor,
        ops: Vec<Box<dyn Completion + Send>>,
        deadline: Option<Instant>,
    ) -> DriveOutcome {
        let mut stream = reactor.open(deadline);
        for op in ops {
            stream.push(op);
        }
        loop {
            match stream.wait_head() {
                None => return DriveOutcome::Completed,
                Some(DriveOutcome::Completed) => {}
                Some(DriveOutcome::DeadlineExceeded) => return DriveOutcome::DeadlineExceeded,
            }
        }
    }

    /// A Send-able timed op for cross-thread shared-reactor tests: completes
    /// after `ready_at`, flips a shared flag.
    struct SharedTimedOp {
        ready_at: Instant,
        done: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Completion for SharedTimedOp {
        fn poll(&mut self, now: Instant) -> bool {
            if now >= self.ready_at {
                // ordering: Relaxed — test flag; the submitting thread's
                // join (and the reactor's state mutex) publish it to the asserts.
                self.done.store(true, std::sync::atomic::Ordering::Relaxed);
                return true;
            }
            false
        }
        fn next_wakeup(&self, _now: Instant) -> Option<Instant> {
            Some(self.ready_at)
        }
    }

    #[test]
    fn shared_reactor_interleaves_streams_from_many_threads() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // 4 submitters × 8 ops of ~10ms each on ONE shared loop: with the
        // streams interleaving, the whole deployment finishes in ~one round
        // trip; thread-per-stream serialization would be fine too, but a
        // non-interleaving reactor (one stream at a time) would take ~40ms+.
        let reactor = Arc::new(SharedReactor::new());
        let start = Instant::now();
        let flags: Vec<Arc<AtomicBool>> =
            (0..32).map(|_| Arc::new(AtomicBool::new(false))).collect();
        std::thread::scope(|scope| {
            for stream_idx in 0..4 {
                let reactor = Arc::clone(&reactor);
                let flags = &flags;
                scope.spawn(move || {
                    let ops: Vec<Box<dyn Completion + Send>> = (0..8)
                        .map(|i| {
                            Box::new(SharedTimedOp {
                                ready_at: start
                                    + Duration::from_millis(10)
                                    + Duration::from_micros((stream_idx * 8 + i) * 50),
                                done: Arc::clone(&flags[(stream_idx * 8 + i) as usize]),
                            }) as Box<dyn Completion + Send>
                        })
                        .collect();
                    let outcome = run_stream(&reactor, ops, None);
                    assert_eq!(outcome, DriveOutcome::Completed);
                });
            }
        });
        assert!(
            flags
                .iter()
                // ordering: Relaxed — read after scope join; join synchronizes.
                .all(|f| f.load(std::sync::atomic::Ordering::Relaxed)),
            "an op was dropped without completing"
        );
        assert_eq!(reactor.streams_open(), 0, "stream table leaked");
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "streams did not interleave: {elapsed:?}"
        );
    }

    #[test]
    fn a_stream_deadline_fires_only_its_own_stream() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let reactor = Arc::new(SharedReactor::new());
        let start = Instant::now();
        let slow_done = Arc::new(AtomicBool::new(false));
        let ok_done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            {
                let reactor = Arc::clone(&reactor);
                let slow_done = Arc::clone(&slow_done);
                scope.spawn(move || {
                    let ops: Vec<Box<dyn Completion + Send>> = vec![Box::new(SharedTimedOp {
                        ready_at: start + Duration::from_millis(500),
                        done: slow_done,
                    })];
                    let outcome = run_stream(&reactor, ops, Some(start + Duration::from_millis(5)));
                    assert_eq!(outcome, DriveOutcome::DeadlineExceeded);
                });
            }
            {
                let reactor = Arc::clone(&reactor);
                let ok_done = Arc::clone(&ok_done);
                scope.spawn(move || {
                    let ops: Vec<Box<dyn Completion + Send>> = vec![Box::new(SharedTimedOp {
                        ready_at: start + Duration::from_millis(15),
                        done: ok_done,
                    })];
                    let outcome = run_stream(&reactor, ops, None);
                    assert_eq!(outcome, DriveOutcome::Completed);
                });
            }
        });
        // ordering: Relaxed — read after scope join; join synchronizes.
        assert!(!slow_done.load(std::sync::atomic::Ordering::Relaxed));
        // ordering: Relaxed — read after scope join; join synchronizes.
        assert!(ok_done.load(std::sync::atomic::Ordering::Relaxed));
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "deadline abort waited for the cancelled call"
        );
    }

    #[test]
    fn sequential_streams_reuse_the_shared_reactor() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // The driver seat must be released and re-taken across streams.
        let reactor = SharedReactor::new();
        for _ in 0..3 {
            let done = Arc::new(AtomicBool::new(false));
            let start = Instant::now();
            let ops: Vec<Box<dyn Completion + Send>> = vec![Box::new(SharedTimedOp {
                ready_at: start + Duration::from_millis(2),
                done: Arc::clone(&done),
            })];
            assert_eq!(run_stream(&reactor, ops, None), DriveOutcome::Completed);
            // ordering: Relaxed — single-threaded here.
            assert!(done.load(std::sync::atomic::Ordering::Relaxed));
        }
        assert_eq!(reactor.streams_open(), 0);
    }

    #[test]
    fn empty_streams_complete_without_touching_the_loop() {
        let reactor = SharedReactor::new();
        assert_eq!(
            run_stream(&reactor, Vec::new(), None),
            DriveOutcome::Completed
        );
        assert_eq!(reactor.streams_open(), 0);
    }

    /// Resolves at `ready_at`; says when it was dropped, resolved or not.
    struct Tracked {
        ready_at: Instant,
        dropped: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Tracked {
        fn after(delay: Duration) -> (Tracked, std::sync::Arc<std::sync::atomic::AtomicBool>) {
            let dropped = std::sync::Arc::default();
            let op = Tracked {
                ready_at: Instant::now() + delay,
                dropped: std::sync::Arc::clone(&dropped),
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
            // ordering: SeqCst — test flag read from another thread right
            // after the drop; no cheaper ordering is worth arguing for.
            self.dropped
                .store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    const NEVER: Duration = Duration::from_hours(1);

    #[test]
    fn a_live_set_hands_back_its_head_while_younger_operations_fly() {
        // ordering: SeqCst throughout — see `Tracked::drop`.
        use std::sync::atomic::Ordering::SeqCst;
        let mut live = LiveSet::default();
        let (head, head_dropped) = Tracked::after(Duration::from_millis(2));
        let (stuck, stuck_dropped) = Tracked::after(NEVER);
        live.push(head);
        live.push(stuck);
        // The head resolves; the wait does not hold out for the batch.
        assert_eq!(live.wait_head(None), Some(DriveOutcome::Completed));
        assert!(head_dropped.load(SeqCst), "a resolved head is handed back");
        assert!(!stuck_dropped.load(SeqCst));
        // An operation admitted mid-flight runs behind the stuck one and
        // resolves there, but the wait is for the head.
        let (late, late_dropped) = Tracked::after(Duration::ZERO);
        live.push(late);
        let soon = Instant::now() + Duration::from_millis(5);
        assert_eq!(
            live.wait_head(Some(soon)),
            Some(DriveOutcome::DeadlineExceeded)
        );
        assert!(!stuck_dropped.load(SeqCst), "an expired head stays put");
        // Dropping the set is the cancellation.
        drop(live);
        assert!(stuck_dropped.load(SeqCst) && late_dropped.load(SeqCst));
        assert_eq!(LiveSet::<Tracked>::default().wait_head(None), None);
    }

    #[test]
    fn closing_a_stream_takes_its_operations_out_of_the_loop() {
        // ordering: SeqCst throughout — see `Tracked::drop`.
        use std::sync::atomic::Ordering::SeqCst;
        // Three streams on one loop: one runs to completion, one is closed
        // with an operation in flight, one hits its deadline. Whichever
        // thread holds the driver seat, a closed stream's unfinished
        // operations are gone when its drop returns — the other streams'
        // are not touched.
        let reactor = SharedReactor::new();
        let (kept, kept_dropped) = Tracked::after(Duration::from_millis(20));
        std::thread::scope(|scope| {
            let patient = scope.spawn(|| run_stream(&reactor, vec![Box::new(kept)], None));
            let hurried = scope.spawn(|| {
                let (stuck, stuck_dropped) = Tracked::after(NEVER);
                let deadline = Instant::now() + Duration::from_millis(5);
                let outcome = run_stream(&reactor, vec![Box::new(stuck)], Some(deadline));
                assert_eq!(outcome, DriveOutcome::DeadlineExceeded);
                assert!(stuck_dropped.load(SeqCst), "expired operation still live");
            });

            let mut stream = reactor.open(None);
            let (quick, _) = Tracked::after(Duration::from_millis(1));
            let (stuck, stuck_dropped) = Tracked::after(NEVER);
            stream.push(Box::new(quick));
            stream.push(Box::new(stuck));
            assert_eq!(stream.wait_head(), Some(DriveOutcome::Completed));
            assert!(!stuck_dropped.load(SeqCst));
            drop(stream);
            assert!(
                stuck_dropped.load(SeqCst),
                "closed stream left an operation"
            );

            hurried.join().unwrap();
            assert_eq!(patient.join().unwrap(), DriveOutcome::Completed);
        });
        assert!(kept_dropped.load(SeqCst), "a resolved operation is dropped");
        assert_eq!(reactor.streams_open(), 0);
    }
}
