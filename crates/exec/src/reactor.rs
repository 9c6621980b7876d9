//! The event-driven dispatch core: a timer wheel plus a completion-polling
//! event loop that lets **one OS thread hold many in-flight LLM calls**.
//!
//! # Why
//!
//! Pinning one OS thread per in-flight request caps deployment-wide
//! concurrency by thread count, not backend capacity:
//! `SchedConfig::llm_slots = 64` would need ~64 sleeping threads. Instead a
//! scan worker *submits* its whole wave through the poll-based API
//! (`LanguageModel::submit` → `llmsql_llm::CallHandle`) and then parks
//! **here**, polling the handles as their timers expire — 64 in-flight
//! simulated calls are then held by the one worker thread that planned
//! them.
//!
//! # The completion contract
//!
//! [`drive`] owns a set of [`Completion`] operations (in practice
//! `llmsql_llm::ClientCall`s wrapped with per-query accounting) and runs them
//! to completion:
//!
//! * **submit/poll** — an operation makes progress only inside
//!   [`Completion::poll`], which must never block; the reactor calls it when
//!   the operation is *due* ([`Completion::next_wakeup`] has arrived or is
//!   `None`). Polling is level-triggered: a poll that makes no progress is
//!   harmless, so the loop can afford to re-poll broadly.
//! * **timers** — each pending operation's wakeup is armed on the
//!   [`TimerWheel`]; when an operation completes, its timer is **cancelled**
//!   (a completed call never fires a stale wakeup). Backoff, hedge-arm and
//!   simulated-latency deadlines all flow through the same wheel.
//! * **completion cascades** — finishing one operation can unblock another
//!   (dropping a slot permit frees capacity a parked operation is waiting
//!   for), so after any completion the loop re-polls every due operation
//!   before sleeping again.
//! * **cancellation / who owns the slot guard** — the *operation* owns its
//!   slot permit (acquired through its admission gate, held for exactly one
//!   dispatch, released on resolution). The reactor owns nothing but timers:
//!   when [`drive`] returns [`DriveOutcome::DeadlineExceeded`], the caller
//!   simply drops the unfinished operations, and their `Drop` impls release
//!   permits, single-flight leaderships and per-backend gauges. Dropping is
//!   cancelling; there is no other cancel path.
//! * **deadlines** — a query deadline is checked every iteration; firing it
//!   aborts the whole wave even while calls are parked mid-flight, which is
//!   what bounds a late query's overhang to one wave.
//!
//! The loop never spins: between polls it sleeps until the wheel's next
//! deadline (or a short floor when an operation declares itself immediately
//! pollable, e.g. waiting on a slot another *thread's* reactor will free).

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The dispatch path's clock. Scan-side code reads wall-clock time through
/// this passthrough instead of calling `Instant::now()` directly, so the
/// banned-time lint keeps a single allowlisted home (this module) for time
/// reads on the hot path.
pub fn now() -> Instant {
    Instant::now()
}

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

/// Timer granularity: fine enough that sub-millisecond backoffs and
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
/// for [`TimerWheel::cancel`].
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

/// Run `ops` to completion on the calling thread (see the module docs for
/// the contract), or until `deadline` fires. The caller inspects its
/// operations afterwards for results; on [`DriveOutcome::DeadlineExceeded`]
/// the unfinished ones are simply dropped — that *is* the cancellation.
pub fn drive<C: Completion>(ops: &mut [C], deadline: Option<Instant>) -> DriveOutcome {
    // First pass inline, before any loop state is built: cache hits and
    // already-resolved handles finish here, so a wave that needs no waiting
    // (most single-prompt waves of a cached workload) costs no timer wheel.
    let now = Instant::now();
    if deadline.is_some_and(|d| now >= d) {
        return DriveOutcome::DeadlineExceeded;
    }
    let mut pending: Vec<usize> = (0..ops.len()).filter(|&i| !ops[i].poll(now)).collect();
    if pending.is_empty() {
        return DriveOutcome::Completed;
    }

    let mut wheel = TimerWheel::new();
    // Per-op armed timer (cancelled on completion or re-armed on change).
    let mut armed: Vec<Option<(TimerId, Instant)>> = ops.iter().map(|_| None).collect();

    loop {
        let mut now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            return DriveOutcome::DeadlineExceeded;
        }
        // Expire due timers (the fired entries are gone from the wheel, so
        // their ops must not try to cancel them later).
        for fired in wheel.advance(now) {
            for slot in &mut armed {
                if slot.is_some_and(|(id, _)| id == fired) {
                    *slot = None;
                }
            }
        }

        // Poll every due operation; completions can cascade (a released slot
        // permit unblocks a parked op), so keep going until a full pass
        // completes nothing.
        loop {
            let mut progressed = false;
            pending.retain(|&i| {
                let due = ops[i].next_wakeup(now).is_none_or(|wake| wake <= now);
                if due && ops[i].poll(now) {
                    if let Some((timer, _)) = armed[i].take() {
                        wheel.cancel(timer);
                    }
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if !progressed {
                break;
            }
            now = Instant::now();
        }
        if pending.is_empty() {
            return DriveOutcome::Completed;
        }

        // Re-arm timers to the survivors' current wakeups and sleep until
        // the earliest of: the wheel, the query deadline, or the
        // immediate-retry floor for ops that are pollable but blocked on
        // external state.
        let mut immediate = false;
        for &i in &pending {
            match ops[i].next_wakeup(now) {
                None => {
                    immediate = true;
                    if let Some((timer, _)) = armed[i].take() {
                        wheel.cancel(timer);
                    }
                }
                Some(wake) => {
                    let stale = armed[i].is_none_or(|(_, at)| {
                        let delta = wake.max(at) - wake.min(at);
                        delta > TICK
                    });
                    if stale {
                        if let Some((timer, _)) = armed[i].take() {
                            wheel.cancel(timer);
                        }
                        armed[i] = Some((wheel.arm(wake), wake));
                    }
                }
            }
        }
        let mut wake_at = wheel.next_deadline();
        if immediate {
            let retry = now + IMMEDIATE_RETRY;
            wake_at = Some(wake_at.map_or(retry, |w| w.min(retry)));
        }
        if let Some(d) = deadline {
            wake_at = Some(wake_at.map_or(d, |w| w.min(d)));
        }
        let until = wake_at.unwrap_or(now + IMMEDIATE_RETRY);
        let sleep = until.saturating_duration_since(now).max(MIN_SLEEP);
        std::thread::sleep(sleep);
    }
}

/// One operation inside the shared reactor, tagged with the wave that
/// submitted it.
struct TaggedOp {
    wave: u64,
    op: Box<dyn Completion + Send>,
}

/// Book-keeping for one submitted wave.
struct WaveState {
    /// Operations of this wave not yet completed.
    remaining: usize,
    /// The submitting query's deadline; firing it resolves (and cancels)
    /// only this wave.
    deadline: Option<Instant>,
    /// Set exactly once when the wave resolves.
    outcome: Option<DriveOutcome>,
}

/// Shared state of a [`SharedReactor`]: the injection queue, per-wave
/// progress, and the driver seat.
struct ReactorState {
    next_wave: u64,
    /// Operations submitted but not yet adopted by the driver.
    injected: Vec<TaggedOp>,
    waves: HashMap<u64, WaveState>,
    /// True while some submitter thread is driving the event loop.
    has_driver: bool,
}

/// A deployment-wide event loop that many threads submit waves to and park
/// on — the scheduler-owned singleton form of [`drive`].
///
/// # The worker model
///
/// [`drive`] gives one *wave* one private event loop: the submitting thread
/// polls its own operations and nothing else. A [`SharedReactor`] lifts that
/// to the deployment: every [`SharedReactor::submit_wave`] call injects its
/// operations into one shared pool, and exactly one of the parked submitter
/// threads — the **driver** — runs the event loop for *all* in-flight waves
/// at once. Completions from different queries therefore interleave on one
/// loop, which is what makes cross-query effects (deployment-scope prompt
/// coalescing, a single `llm_slots` ceiling) observable within one poll
/// round instead of across thread-timer boundaries.
///
/// The driver seat is not a dedicated thread: the first submitter to find
/// the seat empty takes it, drives until **its own wave** resolves, then
/// hands unfinished foreign operations back to the injection queue and wakes
/// a parked submitter to take over. Every parked submitter is a driver
/// candidate, so no wave can be orphaned while its submitter waits.
///
/// Per-wave semantics are unchanged from [`drive`]: a wave's deadline fires
/// only that wave (its unfinished operations are dropped — dropping is
/// cancelling), and [`SharedReactor::submit_wave`] returns the same
/// [`DriveOutcome`] the private loop would have produced.
pub struct SharedReactor {
    state: Mutex<ReactorState>,
    /// Wakes the driver: new operations were injected.
    work: Condvar,
    /// Wakes parked submitters: a wave resolved, or the driver seat freed.
    wave_done: Condvar,
}

impl Default for SharedReactor {
    fn default() -> Self {
        SharedReactor::new()
    }
}

/// Releases the driver seat on every exit path. A *panicking* driver has
/// already dropped the local operations it held, so its waves can never
/// complete: the guard resolves them (and clears the injection queue) so
/// their submitters observe a deadline abort instead of parking forever.
struct DriverSeat<'a> {
    reactor: &'a SharedReactor,
}

impl Drop for DriverSeat<'_> {
    fn drop(&mut self) {
        let mut state = self.reactor.lock_state();
        state.has_driver = false;
        if std::thread::panicking() {
            state.injected.clear();
            for wave in state.waves.values_mut() {
                if wave.outcome.is_none() {
                    wave.outcome = Some(DriveOutcome::DeadlineExceeded);
                }
            }
        }
        drop(state);
        self.reactor.wave_done.notify_all();
        self.reactor.work.notify_all();
    }
}

impl SharedReactor {
    /// An empty shared reactor (typically wrapped in an `Arc` and attached
    /// to an engine by the scheduler that owns the deployment).
    pub fn new() -> SharedReactor {
        SharedReactor {
            state: Mutex::new(ReactorState {
                next_wave: 0,
                injected: Vec::new(),
                waves: HashMap::new(),
                has_driver: false,
            }),
            work: Condvar::new(),
            wave_done: Condvar::new(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, ReactorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Submit one wave of operations and park until it resolves — the
    /// shared-loop counterpart of [`drive`]. The calling thread either waits
    /// for a resolution or becomes the driver itself; see the type docs for
    /// the worker model. Results are read from wherever the operations write
    /// them (they are consumed here; on a deadline abort the unfinished ones
    /// are dropped, which is the cancellation).
    pub fn submit_wave(
        &self,
        ops: Vec<Box<dyn Completion + Send>>,
        deadline: Option<Instant>,
    ) -> DriveOutcome {
        if ops.is_empty() {
            return DriveOutcome::Completed;
        }
        let wave = {
            let mut state = self.lock_state();
            let wave = state.next_wave;
            state.next_wave += 1;
            state.waves.insert(
                wave,
                WaveState {
                    remaining: ops.len(),
                    deadline,
                    outcome: None,
                },
            );
            state
                .injected
                .extend(ops.into_iter().map(|op| TaggedOp { wave, op }));
            wave
        };
        self.work.notify_all();
        loop {
            let mut state = self.lock_state();
            if let Some(outcome) = state.waves.get(&wave).and_then(|w| w.outcome) {
                state.waves.remove(&wave);
                return outcome;
            }
            if state.has_driver {
                // Park; any wave resolution or driver handoff wakes us.
                let guard = self
                    .wave_done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                drop(guard);
            } else {
                state.has_driver = true;
                drop(state);
                return self.drive_waves(wave);
            }
        }
    }

    /// The driver loop: run every in-flight wave's operations until the
    /// caller's own wave (`own`) resolves, then hand back the seat. The
    /// polling discipline is identical to [`drive`]: level-triggered polls
    /// of due operations, cascade re-polls after completions, and sleeps
    /// bounded by the earliest stored wakeup / wave deadline — interruptible
    /// by new injections.
    fn drive_waves(&self, own: u64) -> DriveOutcome {
        let seat = DriverSeat { reactor: self };
        let mut local: Vec<TaggedOp> = Vec::new();
        let mut completed: Vec<u64> = Vec::new();
        loop {
            let mut now = Instant::now();
            // Intake + wave-deadline firing + own-wave exit check, one lock.
            let (cancelled, own_outcome) = {
                let mut state = self.lock_state();
                local.append(&mut state.injected);
                let mut cancelled: Vec<u64> = Vec::new();
                let mut newly_resolved = false;
                for (&id, wave) in &mut state.waves {
                    if wave.outcome.is_none() && wave.deadline.is_some_and(|d| now >= d) {
                        wave.outcome = Some(DriveOutcome::DeadlineExceeded);
                        newly_resolved = true;
                    }
                    if wave.outcome.is_some() {
                        cancelled.push(id);
                    }
                }
                if newly_resolved {
                    self.wave_done.notify_all();
                }
                (cancelled, state.waves.get(&own).and_then(|w| w.outcome))
            };
            // Drop resolved waves' operations outside the state lock
            // (dropping is cancellation and runs arbitrary `Drop` impls).
            if !cancelled.is_empty() {
                local.retain(|t| !cancelled.contains(&t.wave));
            }
            if let Some(outcome) = own_outcome {
                // Hand unfinished foreign operations back; the seat guard
                // frees the seat and wakes a successor.
                let mut state = self.lock_state();
                state.waves.remove(&own);
                state.injected.append(&mut local);
                drop(state);
                drop(seat);
                return outcome;
            }

            // Poll every due operation; completions can cascade (a freed
            // slot permit unblocks a parked op — possibly of another wave).
            loop {
                let mut progressed = false;
                local.retain_mut(|t| {
                    let due = t.op.next_wakeup(now).is_none_or(|wake| wake <= now);
                    if due && t.op.poll(now) {
                        completed.push(t.wave);
                        progressed = true;
                        false
                    } else {
                        true
                    }
                });
                if !progressed {
                    break;
                }
                now = Instant::now();
            }
            if !completed.is_empty() {
                let mut state = self.lock_state();
                let mut newly_resolved = false;
                for id in completed.drain(..) {
                    if let Some(wave) = state.waves.get_mut(&id) {
                        if wave.outcome.is_none() {
                            wave.remaining -= 1;
                            if wave.remaining == 0 {
                                wave.outcome = Some(DriveOutcome::Completed);
                                newly_resolved = true;
                            }
                        }
                    }
                }
                drop(state);
                if newly_resolved {
                    self.wave_done.notify_all();
                }
                // Re-check the own wave and the intake queue before sleeping.
                continue;
            }

            // Sleep until the earliest stored wakeup, wave deadline, or the
            // immediate-retry floor — woken early by any new injection.
            let state = self.lock_state();
            if !state.injected.is_empty() {
                continue;
            }
            let mut wake_at: Option<Instant> = None;
            let mut immediate = false;
            for t in &local {
                match t.op.next_wakeup(now) {
                    None => immediate = true,
                    Some(wake) => wake_at = Some(wake_at.map_or(wake, |w: Instant| w.min(wake))),
                }
            }
            for wave in state.waves.values() {
                if wave.outcome.is_none() {
                    if let Some(d) = wave.deadline {
                        wake_at = Some(wake_at.map_or(d, |w| w.min(d)));
                    }
                }
            }
            if immediate {
                let retry = now + IMMEDIATE_RETRY;
                wake_at = Some(wake_at.map_or(retry, |w| w.min(retry)));
            }
            // The fallback bound is unreachable while the own wave is alive
            // (its operations are local and carry wakeups), but keeps a
            // defect from becoming an unbounded park.
            let until = wake_at.unwrap_or(now + Duration::from_millis(10));
            let sleep = until.saturating_duration_since(now).max(MIN_SLEEP);
            let (guard, _timeout) = self
                .work
                .wait_timeout(state, sleep)
                .unwrap_or_else(PoisonError::into_inner);
            drop(guard);
        }
    }

    /// Waves currently unresolved (parked submitters), advisory.
    pub fn waves_in_flight(&self) -> usize {
        self.lock_state().waves.len()
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
                // join (and submit_wave's mutex) publish it to the asserts.
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
    fn shared_reactor_interleaves_waves_from_many_threads() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // 4 submitters × 8 ops of ~10ms each on ONE shared loop: with the
        // waves interleaving, the whole deployment finishes in ~one round
        // trip; thread-per-wave serialization would be fine too, but a
        // non-interleaving reactor (one wave at a time) would take ~40ms+.
        let reactor = Arc::new(SharedReactor::new());
        let start = Instant::now();
        let flags: Vec<Arc<AtomicBool>> =
            (0..32).map(|_| Arc::new(AtomicBool::new(false))).collect();
        std::thread::scope(|scope| {
            for wave_idx in 0..4 {
                let reactor = Arc::clone(&reactor);
                let flags = &flags;
                scope.spawn(move || {
                    let ops: Vec<Box<dyn Completion + Send>> = (0..8)
                        .map(|i| {
                            Box::new(SharedTimedOp {
                                ready_at: start
                                    + Duration::from_millis(10)
                                    + Duration::from_micros((wave_idx * 8 + i) * 50),
                                done: Arc::clone(&flags[(wave_idx * 8 + i) as usize]),
                            }) as Box<dyn Completion + Send>
                        })
                        .collect();
                    let outcome = reactor.submit_wave(ops, None);
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
        assert_eq!(reactor.waves_in_flight(), 0, "wave table leaked");
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "waves did not interleave: {elapsed:?}"
        );
    }

    #[test]
    fn a_wave_deadline_fires_only_its_own_wave() {
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
                    let outcome = reactor.submit_wave(ops, Some(start + Duration::from_millis(5)));
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
                    let outcome = reactor.submit_wave(ops, None);
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
    fn sequential_waves_reuse_the_shared_reactor() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // The driver seat must be released and re-taken across waves.
        let reactor = SharedReactor::new();
        for _ in 0..3 {
            let done = Arc::new(AtomicBool::new(false));
            let start = Instant::now();
            let ops: Vec<Box<dyn Completion + Send>> = vec![Box::new(SharedTimedOp {
                ready_at: start + Duration::from_millis(2),
                done: Arc::clone(&done),
            })];
            assert_eq!(reactor.submit_wave(ops, None), DriveOutcome::Completed);
            // ordering: Relaxed — single-threaded here.
            assert!(done.load(std::sync::atomic::Ordering::Relaxed));
        }
        assert_eq!(reactor.waves_in_flight(), 0);
    }

    #[test]
    fn empty_waves_complete_without_touching_the_loop() {
        let reactor = SharedReactor::new();
        assert_eq!(
            reactor.submit_wave(Vec::new(), None),
            DriveOutcome::Completed
        );
        assert_eq!(reactor.waves_in_flight(), 0);
    }
}
