//! One request's walk over a pool, stated as a transition system:
//! [`PoolCall`].
//!
//! **The walk.** Each candidate, in routing order, gets at most
//! `1 + retries` attempts with exponential backoff between them
//! (`backoff_base_ms × 2^attempt`, capped); a breaker-open candidate is
//! skipped and an expired one gets a single probe. The first success wins;
//! once every candidate is spent the last error is returned. Every attempt
//! is counted once, in [`Flight::launch`] or [`Flight::harvest`], on the
//! pool's counters and on the call's [`BackendReceipt`] together, so a
//! query's share of the pool's counters is the sum of its calls' receipts.
//!
//! **The routing order** (stated here only). The first poll orders the walk
//! by what the pool knows at that instant. Each member's *health key* is
//! (breaker open, expected time to a success, registration index); the
//! expected time is its decayed latency EWMA ÷ (1 − its decayed failure
//! share), and a member without a success sorts last.
//!
//! * `RoutingPolicy::LatencyAware`: the whole walk is in health order,
//!   hedging or not, except that a member no attempt has resolved on yet
//!   comes first, so a cold pool explores every member once. Failures count:
//!   a hard-down member is tried once, then sorts last, as does an open one.
//! * Any other policy, hedging on: the policy's primary keeps its place and
//!   the rest follow in health order — unless the pool already expects the
//!   primary to be late: closed, sampled, and its expected time past the
//!   hedge threshold below. Then the primary takes its place in health
//!   order too, and the call's first attempt goes to a sibling instead of a
//!   doomed primary plus a hedge. Either way the healthiest sibling is both
//!   the first failover stop and the hedge target.
//! * Any other policy, hedging off: the policy's order verbatim (so
//!   `PromptHash`'s physical trace stays a pure function of the prompt).
//!
//! **Hedging.** The first poll arms a timer at `multiplier × (lowest decayed
//! latency EWMA among closed candidates)`, floored at `min_ms` — the hedge
//! threshold — to cover the first launch; if it expires while that
//! candidate still works, one duplicate goes to the next closed candidate.
//! The timer is for the lateness the pool did not see coming: a primary it
//! expects to be late does not launch first at all. First success wins; the
//! loser is dropped, and a beaten flight's time so far is folded into its
//! backend's EWMA where it exceeds the estimate, so a member that only ever
//! loses still gets sampled. A member the walk passes over gets no samples,
//! so its decayed estimate falls until it is tried again. A hedge fires only
//! when hedging is on, some closed candidate has a sample, at least two are
//! closed, and — when the pool gates hedges on call slots
//! ([`super::BackendPool::set_hedge_slots`]; a scheduler does) — a slot is
//! free at that instant, so a hedge only uses spare capacity; a veto
//! disarms it for good. Text is the same whichever flight wins.
//!
//! **Transitions.** A call's state is its walk ([`Walk`], with the `pos` it
//! stands on and the `attempt` ordinal there) and its hedge ([`Hedge`]).
//! Time reaches it only as the `now` of a poll, which turns what is due into
//! [`Event`]s and applies them ([`PoolCall::step`]) until nothing is due or
//! the call resolves. These invariants hold initially and every transition
//! preserves them:
//!
//! * **I1, bounded spend.** At most `1 + retries` attempts per candidate and
//!   one hedge: `backends × (1 + retries) + 1` attempts a call.
//! * **I2, the timer covers the first launch.** `Hedge::Armed` ⇒ the walk is
//!   `InFlight` or in `Backoff` on the candidate it first launched on;
//!   leaving that candidate disarms it.
//! * **I3, one attempt per hedge target.** The target lies behind `pos`
//!   when the hedge fires, and the walk never launches there.
//! * **I4, nothing leaks.** A flight owns its `in_flight` increment, a
//!   probe's claim and a hedge's call slot, and gives them back when it
//!   resolves or is dropped — dropping a call is cancelling it.
//! * **I5, resolved once.** The result is handed out once; a resolved call is
//!   `Walk::Done` with `Hedge::Off` and holds nothing.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llmsql_types::{Error, Result, RoutingPolicy};

use super::pool::{Admission, Member, Settings};
use super::{BackendReceipt, CallHandle, CallMachine};
use crate::model::{CompletionRequest, CompletionResponse};
use crate::slots::{CallSlots, OwnedSlotGuard};

/// Hard cap on a single backoff so a misconfigured base cannot stall a call
/// for seconds.
const BACKOFF_CAP_MS: f64 = 100.0;

/// One candidate of a [`PoolCall`], in routing order.
pub(super) struct PoolCandidate {
    pub(super) member: Arc<Member>,
    /// Registration index in the pool: the last tie-break of every order.
    index: usize,
    /// What this call has done on this backend so far.
    receipt: BackendReceipt,
}

/// What a [`Flight`] is to its call.
enum Role {
    /// An attempt of the walk.
    Step,
    /// An attempt of the walk that is its breaker's single half-open probe.
    Probe,
    /// A duplicate of a late attempt, holding its call slot (when the pool
    /// gates hedges) for its whole flight.
    Hedge { _slot: Option<OwnedSlotGuard> },
}

/// One attempt in flight: owns the per-backend `in_flight` increment, a
/// probe's claim and a hedge's call slot, so that dropping the flight —
/// cancellation by abandonment — always gives them back (I4).
///
/// Every attempt event is counted here and nowhere else — a launch, a retry
/// and a hedge in [`Flight::launch`]; a success, an error and a hedge won in
/// [`Flight::harvest`] — each on the backend's counters and on the call's
/// [`BackendReceipt`] together.
struct Flight {
    handle: CallHandle,
    /// The poll that launched it.
    started: Instant,
    role: Role,
    /// Index (into the call's candidates) of the backend serving it.
    cand: usize,
    member: Arc<Member>,
    /// True while the in-flight increment is still owed back.
    open: bool,
}

impl Flight {
    /// Launch attempt `attempt` (> 0 is a retry) of `request` on
    /// `cands[cand]` at `now`.
    fn launch(
        cands: &mut [PoolCandidate],
        cand: usize,
        request: &CompletionRequest,
        attempt: usize,
        role: Role,
        now: Instant,
    ) -> Flight {
        let at = &mut cands[cand];
        let counters = &at.member.counters;
        // ordering: Relaxed — calls is a statistic; in_flight is an advisory
        // gauge (a routing hint); no memory is published under either.
        counters.calls.fetch_add(1, Ordering::Relaxed);
        counters.in_flight.fetch_add(1, Ordering::Relaxed);
        at.receipt.calls += 1;
        if attempt > 0 {
            // ordering: Relaxed — statistics counter.
            counters.retries.fetch_add(1, Ordering::Relaxed);
        }
        if matches!(role, Role::Hedge { .. }) {
            // ordering: Relaxed — statistics counter.
            counters.hedges.fetch_add(1, Ordering::Relaxed);
            at.receipt.hedges += 1;
        }
        // The flight owns its gauges before the backend runs, so a backend
        // that panics inside `submit` still releases them (and a probe
        // claim) on unwind.
        let mut flight = Flight {
            handle: CallHandle::taken(),
            started: now,
            role,
            cand,
            member: Arc::clone(&at.member),
            open: true,
        };
        flight.handle = at.member.backend.submit(request, attempt, now);
        flight
    }

    /// Poll the attempt; once it has resolved, release its gauge and count
    /// its outcome. A failure also says whether this backend is spent for
    /// the call — a probe and a hedge get a single attempt, and a breaker
    /// the failure just opened dooms any retry.
    fn harvest(
        &mut self,
        now: Instant,
        cands: &mut [PoolCandidate],
        settings: &Settings,
    ) -> Option<std::result::Result<CompletionResponse, (Error, bool)>> {
        let outcome = self.handle.poll(now)?;
        let measured_ms = now.saturating_duration_since(self.started).as_secs_f64() * 1000.0;
        let now_ms = settings.ms(now);
        self.close();
        let receipt = &mut cands[self.cand].receipt;
        Some(match outcome {
            Ok(response) => {
                let reported_us =
                    self.member
                        .record_success(response.latency_ms, measured_ms, now_ms);
                receipt.latency_ms += reported_us as f64 / 1000.0;
                if settings.breaker_threshold > 0 {
                    self.member.breaker.on_success();
                }
                if matches!(self.role, Role::Hedge { .. }) {
                    // ordering: Relaxed — statistics counter.
                    self.member
                        .counters
                        .hedges_won
                        .fetch_add(1, Ordering::Relaxed);
                    receipt.hedges_won += 1;
                }
                Ok(response)
            }
            Err(e) => {
                let opened = self.member.record_error(
                    now_ms,
                    settings.breaker_threshold,
                    settings.breaker_cooldown_ms,
                    matches!(self.role, Role::Probe),
                );
                receipt.errors += 1;
                Err((e, opened || !matches!(self.role, Role::Step)))
            }
        })
    }

    /// Normal resolution: release the in-flight increment; breaker state is
    /// [`Flight::harvest`]'s job (`on_success`/`on_error` own the probe claim
    /// there).
    fn close(&mut self) {
        if self.open {
            self.open = false;
            // ordering: Relaxed — advisory routing gauge, pairs with the
            // fetch_add in launch().
            self.member
                .counters
                .in_flight
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Flight {
    fn drop(&mut self) {
        if self.open {
            self.close();
            if matches!(self.role, Role::Probe) {
                // An abandoned half-open probe must not wedge the breaker.
                self.member.breaker.abort_probe();
            }
        }
    }
}

/// Where a [`PoolCall`]'s candidate walk stands.
enum Walk {
    /// Submitted, not yet polled: the candidates are in the policy's order.
    Unrouted,
    /// Attempt `attempt` is in flight on `cands[pos]` — or, once every
    /// candidate is spent, the hedge is, and its outcome decides the call.
    InFlight(Flight),
    /// `cands[pos]` failed a retryable attempt; attempt `attempt` launches
    /// at `until`.
    Backoff { until: Instant },
    /// Resolved: the result was handed out.
    Done,
}

/// Where a [`PoolCall`]'s hedge stands.
enum Hedge {
    /// None can fire: hedging is off, the call is not hedgeable, or the
    /// timer was disarmed, vetoed or has fired.
    Off,
    /// The timer covering the walk's first launch expires at `at` (I2).
    Armed { at: Instant },
    /// The hedge is in flight.
    Flying(Flight),
    /// The hedge failed on `target`, which the walk does not visit (I3).
    Spent { target: usize },
}

impl Hedge {
    /// The candidate the hedge took, which the walk skips.
    fn target(&self) -> Option<usize> {
        match self {
            Hedge::Flying(flight) => Some(flight.cand),
            Hedge::Spent { target } => Some(*target),
            Hedge::Off | Hedge::Armed { .. } => None,
        }
    }
}

/// What a poll finds due.
enum Event {
    /// The first poll: nothing is routed yet.
    Submitted,
    /// The walk's attempt resolved; a failure says whether its backend is
    /// spent for the call.
    AttemptResolved(std::result::Result<CompletionResponse, (Error, bool)>),
    /// The backoff before a retry elapsed.
    BackoffDue,
    /// The hedge timer expired.
    HedgeDue,
    /// The hedge resolved.
    HedgeResolved(std::result::Result<CompletionResponse, (Error, bool)>),
}

/// A poll-driven [`super::BackendPool`] request: the full routing, retry and
/// hedging protocol as a [`CallMachine`], created by
/// [`super::BackendPool::submit_call`]. See the module docs for the walk,
/// its transitions and their invariants.
///
/// Ownership rules (the completion contract, relied on by
/// `llmsql_exec::reactor`):
///
/// * [`CallMachine::poll`] returns the result exactly once; after that the
///   machine is inert.
/// * Backoff and hedge delays are timers surfaced through
///   [`CallMachine::next_wakeup`], never sleeps — polling is always
///   non-blocking (up to a member backend's own `submit`, which for
///   timer-backed backends is compute only) and reads no clock.
/// * Dropping the machine mid-flight abandons walk and hedge alike:
///   per-backend `in_flight` gauges, probe claims and the hedge's call slot
///   are all released by `Drop`.
pub struct PoolCall {
    request: CompletionRequest,
    /// Candidates in routing order (index 0 = primary).
    pub(super) cands: Vec<PoolCandidate>,
    settings: Settings,
    /// The call slots a hedge must fit into (`None` = always admitted).
    hedge_slots: Option<Arc<CallSlots>>,
    walk: Walk,
    /// Index (into `cands`) of the candidate the walk stands on.
    pos: usize,
    /// Attempt ordinal on the current candidate.
    attempt: usize,
    hedge: Hedge,
    last_err: Option<Error>,
    short_circuited: usize,
}

impl PoolCall {
    /// A call over `members` (registration index and member), in the
    /// routing policy's order.
    pub(super) fn new<'a>(
        request: CompletionRequest,
        members: impl IntoIterator<Item = (usize, &'a Arc<Member>)>,
        settings: Settings,
        hedge_slots: Option<Arc<CallSlots>>,
    ) -> PoolCall {
        PoolCall {
            request,
            cands: members
                .into_iter()
                .map(|(index, member)| PoolCandidate {
                    member: Arc::clone(member),
                    index,
                    receipt: BackendReceipt::default(),
                })
                .collect(),
            settings,
            hedge_slots,
            walk: Walk::Unrouted,
            pos: 0,
            attempt: 0,
            hedge: Hedge::Off,
            last_err: None,
            short_circuited: 0,
        }
    }

    /// What is due at `now`, the hedge side first: a hedge that resolved at
    /// the same instant as the walk's attempt wins the race.
    fn next_event(&mut self, now: Instant) -> Option<Event> {
        match &mut self.hedge {
            Hedge::Flying(flight) => {
                if let Some(outcome) = flight.harvest(now, &mut self.cands, &self.settings) {
                    return Some(Event::HedgeResolved(outcome));
                }
            }
            Hedge::Armed { at } if now >= *at => return Some(Event::HedgeDue),
            _ => {}
        }
        match &mut self.walk {
            Walk::Unrouted => Some(Event::Submitted),
            Walk::InFlight(flight) => flight
                .harvest(now, &mut self.cands, &self.settings)
                .map(Event::AttemptResolved),
            Walk::Backoff { until } => (now >= *until).then_some(Event::BackoffDue),
            Walk::Done => None,
        }
    }

    /// The transition function: apply `event` at `now`. Returns the call's
    /// result when the event resolves it.
    fn step(&mut self, event: Event, now: Instant) -> Option<Result<CompletionResponse>> {
        match event {
            // Unrouted → the first launch, on the order the pool's health
            // gives at `now`; a hedgeable call arms its timer to cover that
            // launch (I2). A walk whose every candidate is short-circuited
            // resolves here with the breaker error.
            Event::Submitted => {
                let threshold_ms = self.route(now);
                let resolved = self.advance(now);
                if let (Some(ms), Walk::InFlight(_)) = (threshold_ms, &self.walk) {
                    self.hedge = Hedge::Armed {
                        at: now + Duration::from_secs_f64(ms / 1000.0),
                    };
                }
                resolved
            }
            Event::AttemptResolved(Ok(response)) => Some(Ok(response)),
            // A spent backend, or its last retry: walk on (I1). Otherwise
            // back off, on the same candidate — the timer still covers it.
            Event::AttemptResolved(Err((err, spent))) => {
                self.last_err = Some(err);
                if spent || self.attempt >= self.settings.retries {
                    self.pos += 1;
                    return self.advance(now);
                }
                self.attempt += 1;
                let backoff_ms = (self.settings.backoff_base_ms
                    * (1u64 << (self.attempt - 1).min(20)) as f64)
                    .min(BACKOFF_CAP_MS);
                self.walk = Walk::Backoff {
                    until: now + Duration::from_secs_f64(backoff_ms / 1000.0),
                };
                None
            }
            Event::BackoffDue => {
                self.launch(Role::Step, now);
                None
            }
            Event::HedgeDue => {
                self.fire_hedge(now);
                None
            }
            // The hedge beat the walk: the beaten flight's time so far is a
            // lower bound on its backend's latency.
            Event::HedgeResolved(Ok(response)) => {
                if let Walk::InFlight(beaten) = &self.walk {
                    beaten.member.observe_latency_at_least(
                        now.saturating_duration_since(beaten.started).as_secs_f64() * 1000.0,
                        self.settings.ms(now),
                    );
                }
                Some(Ok(response))
            }
            // A failed hedge spends its target (I3); the walk goes on.
            Event::HedgeResolved(Err((err, _))) => {
                self.last_err = Some(err);
                if let Hedge::Flying(flight) = &self.hedge {
                    self.hedge = Hedge::Spent {
                        target: flight.cand,
                    };
                }
                None
            }
        }
    }

    /// Order the candidates by what the pool knows at `now` — the decayed
    /// health averages and the breakers — and say how long the first launch
    /// may run before it is late (`None`: the call is not hedgeable).
    fn route(&mut self, now: Instant) -> Option<f64> {
        let explore = self.settings.policy == RoutingPolicy::LatencyAware;
        let hedging = self.settings.hedge_multiplier > 0.0;
        if !explore && !hedging {
            return None; // the walk is the policy's order
        }
        let now_ms = self.settings.ms(now);
        let (mut closed, mut floor_ms) = (0, f64::INFINITY);
        for cand in self.cands.iter().filter(|c| c.member.breaker_closed()) {
            closed += 1;
            if let Some(ewma_ms) = cand.member.decayed_ewma(now_ms) {
                floor_ms = floor_ms.min(ewma_ms);
            }
        }
        let threshold_ms = (hedging && closed >= 2 && floor_ms.is_finite())
            .then(|| (self.settings.hedge_multiplier * floor_ms).max(self.settings.hedge_min_ms));
        // Latency-aware routing walks every candidate in health order. Other
        // policies launch their primary first unless the pool already expects
        // it to be late: closed, sampled, and its expected time to a success
        // past the threshold. An open primary stays first, for the walk to
        // skip or probe. The rest go by health.
        let primary = &self.cands[0].member;
        let late = threshold_ms.is_some_and(|threshold_ms| {
            primary.breaker_closed()
                && primary
                    .expected_ms(now_ms)
                    .is_some_and(|expected_ms| expected_ms > threshold_ms)
        });
        let from = usize::from(!explore && !late);
        // The health key: (breaker open, expected time to a success), then
        // the slot index, so the order is total and an unstable sort
        // deterministic. A member without a success sorts last — except that
        // latency-aware routing puts one no attempt has resolved on first, so
        // a cold pool explores every member once.
        let health = |cand: &PoolCandidate| {
            let member = &cand.member;
            let expected_ms = match member.expected_ms(now_ms) {
                Some(expected_ms) => expected_ms,
                None if explore && member.untried() => f64::NEG_INFINITY,
                None => f64::INFINITY,
            };
            (!member.breaker_closed(), expected_ms)
        };
        self.cands[from..].sort_unstable_by(|a, b| {
            let ((open_a, expected_a), (open_b, expected_b)) = (health(a), health(b));
            open_a
                .cmp(&open_b)
                .then(expected_a.total_cmp(&expected_b))
                .then(a.index.cmp(&b.index))
        });
        threshold_ms
    }

    /// Walk on from `cands[pos]`: skip the hedge's target (I3) and what the
    /// breakers short-circuit, and launch attempt 0 on the first admissible
    /// candidate. Past the last one, a hedge still flying becomes the walk's
    /// flight — its outcome decides the call — and otherwise the call fails.
    fn advance(&mut self, now: Instant) -> Option<Result<CompletionResponse>> {
        // The timer covered the candidate the walk is leaving (I2).
        if matches!(self.hedge, Hedge::Armed { .. }) {
            self.hedge = Hedge::Off;
        }
        let now_ms = self.settings.ms(now);
        while self.pos < self.cands.len() {
            if self.hedge.target() == Some(self.pos) {
                self.pos += 1;
                continue;
            }
            let role = if self.settings.breaker_threshold == 0 {
                Role::Step
            } else {
                let member = &self.cands[self.pos].member;
                match member.breaker.admission(now_ms) {
                    Admission::Normal => Role::Step,
                    Admission::Probe => Role::Probe,
                    Admission::Skip => {
                        // ordering: Relaxed — statistics counter.
                        member
                            .counters
                            .short_circuits
                            .fetch_add(1, Ordering::Relaxed);
                        self.short_circuited += 1;
                        self.pos += 1;
                        continue;
                    }
                }
            };
            self.attempt = 0;
            self.launch(role, now);
            return None;
        }
        match std::mem::replace(&mut self.hedge, Hedge::Off) {
            Hedge::Flying(flight) => {
                self.walk = Walk::InFlight(flight);
                None
            }
            _ => Some(Err(self.exhausted_error())),
        }
    }

    /// Launch attempt `attempt` on `cands[pos]`.
    fn launch(&mut self, role: Role, now: Instant) {
        self.walk = Walk::InFlight(Flight::launch(
            &mut self.cands,
            self.pos,
            &self.request,
            self.attempt,
            role,
            now,
        ));
    }

    /// The timer expired while `cands[pos]` is still working (I2): duplicate
    /// the request on the next closed candidate behind it — the healthiest
    /// sibling left — if a call slot is free. Either way the timer is spent:
    /// a call hedges at most once (I1), and a veto disarms it for good.
    fn fire_hedge(&mut self, now: Instant) {
        self.hedge = Hedge::Off;
        let Some(target) =
            (self.pos + 1..self.cands.len()).find(|&c| self.cands[c].member.breaker_closed())
        else {
            return;
        };
        let permit = match self.hedge_slots.as_ref().map(CallSlots::try_acquire_owned) {
            None => None,
            Some(None) => return,
            Some(granted) => granted,
        };
        self.hedge = Hedge::Flying(Flight::launch(
            &mut self.cands,
            target,
            &self.request,
            0,
            Role::Hedge { _slot: permit },
            now,
        ));
    }

    /// The terminal error once every candidate (and any hedge) is spent.
    /// Only a walk that launched nothing has no error to return: every
    /// candidate was short-circuited.
    fn exhausted_error(&mut self) -> Error {
        self.last_err.take().unwrap_or_else(|| {
            Error::llm(format!(
                "all {} backend(s) are circuit-broken; retry after the cooldown",
                self.short_circuited
            ))
        })
    }
}

impl CallMachine for PoolCall {
    fn poll(&mut self, now: Instant) -> Option<Result<CompletionResponse>> {
        while let Some(event) = self.next_event(now) {
            if let Some(result) = self.step(event, now) {
                // I5: the loser of a race is dropped, which cancels it (I4).
                self.walk = Walk::Done;
                self.hedge = Hedge::Off;
                return Some(result);
            }
        }
        None
    }

    fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        let walk = match &self.walk {
            Walk::Unrouted | Walk::Done => return None,
            Walk::InFlight(flight) => flight.handle.next_wakeup(now)?,
            Walk::Backoff { until } => *until,
        };
        let hedge = match &self.hedge {
            Hedge::Off | Hedge::Spent { .. } => return Some(walk),
            Hedge::Armed { at } => *at,
            Hedge::Flying(flight) => flight.handle.next_wakeup(now)?,
        };
        Some(walk.min(hedge))
    }

    fn backend_receipts(&self, visit: &mut dyn FnMut(&str, &BackendReceipt)) {
        for cand in &self.cands {
            visit(cand.member.backend.id(), &cand.receipt);
        }
    }
}
