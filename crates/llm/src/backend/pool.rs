//! The pool's members and what it knows about them: [`BackendPool`], its
//! routing policy, per-backend counters, circuit breakers and health
//! averages, all lock-free. [`BackendPool::submit_call`] hands each request
//! a [`PoolCall`] over the members, in the policy's order as far as the
//! policy needs no clock; what the call learns of a member lands in that
//! member's [`Member`], which the pool and every call in flight share.
//!
//! **Circuit breaker** ([`BackendPool::with_breaker`]). *Closed*: requests
//! flow; a success resets the consecutive-error count. *Open*: after
//! `threshold` consecutive failed attempts the walk skips the backend
//! ([`BackendStats::short_circuits`]), so a hard-down backend absorbs a
//! bounded number of attempts, not one per request. *Half-open*: once
//! `cooldown_ms` has run, exactly one probe per cooldown window goes
//! through; success closes the breaker, failure re-opens it. The probe claim
//! is a compare-exchange on the exact expiry the claimant observed (claim
//! and expiry share one atomic word), so N racers admit one probe, and a
//! racer holding the expiry of a window a failed probe just replaced cannot
//! claim another. An abandoned probe (dropped call, panicking backend)
//! releases the claim and re-expires the cooldown. Off by default: with it
//! on, the physical trace depends on the instants calls are polled at; text
//! never does.
//!
//! **Health.** Each member keeps two decayed averages of what its attempts
//! did: an EWMA of its *measured* latency — from the poll that launched an
//! attempt to the poll that found it resolved, successes only
//! ([`BackendStats::latency_ms`] is the *reported* latency) — and its
//! *failure share*, an EWMA of attempt outcomes (1 a failure, 0 a success).
//! Every read that decides something halves each average per
//! [`DECAY_HALF_LIFE_MS`] since its last sample, so a backend whose scary
//! average chased traffic away drifts back into contention and is
//! re-probed. Together they give the member's *expected time to a success*,
//! latency ÷ (1 − failure share): the expected number of attempts times the
//! cost of each, and the key of the health order a call walks in (stated
//! in `call.rs`'s module docs). Breaker cooldowns and staleness count
//! milliseconds from the pool's epoch to a poll's `now`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use llmsql_types::{
    clock, AtomicEwmaMs, BackendSpec, ChaosPlan, Error, LlmCostModel, Result, RoutingPolicy,
};

use super::{Backend, CallHandle, PoolCall, RemoteLlm};
use crate::model::{CompletionRequest, CompletionResponse, LanguageModel};
use crate::noise::hash01;
use crate::slots::CallSlots;

/// A snapshot of one backend's physical-call counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendStats {
    /// Backend name.
    pub id: String,
    /// Physical attempts issued to this backend (including failed ones).
    pub calls: u64,
    /// Attempts that returned an error.
    pub errors: u64,
    /// Attempts that were retries (of any prior failed attempt on this
    /// backend for the same request).
    pub retries: u64,
    /// Sum of reported completion latencies for successful attempts, ms.
    pub latency_ms: f64,
    /// Requests currently being served by this backend.
    pub in_flight: u64,
    /// Requests that skipped this backend because its circuit breaker was
    /// open (each one saved `1 + retries` doomed attempts).
    pub short_circuits: u64,
    /// True while the breaker is not closed (open, or awaiting the outcome
    /// of a half-open probe).
    pub breaker_open: bool,
    /// Hedge requests issued *to* this backend (duplicates of a late request
    /// first dispatched elsewhere). Always zero with hedging disabled.
    pub hedges: u64,
    /// Hedges issued to this backend whose response won the race against the
    /// late primary.
    pub hedges_won: u64,
}

/// One call's own share of one backend's [`BackendStats`]: what that call,
/// and nothing else, did there. Every event is counted on the backend's
/// counters and on the receipt of the call that caused it at the same site,
/// so the receipts of all calls sum to the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendReceipt {
    /// Physical attempts this call issued to the backend (failed ones,
    /// retries and a hedge included).
    pub calls: u64,
    /// Attempts that returned an error.
    pub errors: u64,
    /// Reported completion latency of the attempts that succeeded, ms.
    pub latency_ms: f64,
    /// Hedges this call issued to the backend (at most one).
    pub hedges: u64,
    /// Hedges issued to the backend that beat the late primary.
    pub hedges_won: u64,
}

/// Lock-free per-backend counters (see [`BackendStats`] for the snapshot).
#[derive(Default)]
pub(super) struct SlotCounters {
    pub(super) calls: AtomicU64,
    errors: AtomicU64,
    pub(super) retries: AtomicU64,
    /// Latency accumulated in microseconds (an atomic f64 is not portable).
    latency_us: AtomicU64,
    pub(super) in_flight: AtomicU64,
    pub(super) short_circuits: AtomicU64,
    pub(super) hedges: AtomicU64,
    pub(super) hedges_won: AtomicU64,
    /// EWMA of *measured* successful-request latency, milliseconds.
    latency: Decayed,
    /// EWMA of attempt outcomes: 1 per failed attempt, 0 per success.
    failures: Decayed,
}

/// An EWMA whose reads decay with staleness: [`DECAY_HALF_LIFE_MS`] of idle
/// time halves what a read returns (see [`AtomicEwmaMs::decayed`]).
#[derive(Default)]
struct Decayed {
    ewma: AtomicEwmaMs,
    /// Pool-epoch time (ms, saturated to ≥ 1 so 0 keeps meaning "never") of
    /// the latest sample — the staleness clock for read-side decay.
    last_sample_ms: AtomicU64,
}

impl Decayed {
    /// Fold one sample in and restart the staleness clock.
    ///
    /// A sample landing after the estimate went stale (idle ≥ 2 decay
    /// half-lives) *replaces* the average instead of merging into it: the
    /// decayed read already declared the old value untrustworthy, so letting
    /// it drag the fresh observation would keep a recovered backend pinned
    /// to its obsolete history for many more samples.
    fn observe(&self, sample: f64, now_ms: u64) {
        // ordering: Relaxed — last_sample_ms is a freshness hint where a
        // stale read only makes one sample merge instead of replace (both
        // outcomes valid).
        let last = self.last_sample_ms.load(Ordering::Relaxed);
        let stale = last != 0 && now_ms.saturating_sub(last) as f64 >= 2.0 * DECAY_HALF_LIFE_MS;
        if stale {
            self.ewma.set(sample);
        } else {
            self.ewma.observe(sample);
        }
        // ordering: Relaxed — freshness hint, see the load above.
        self.last_sample_ms.store(now_ms.max(1), Ordering::Relaxed);
    }

    /// The average discounted for the time since its last sample; `None`
    /// before the first.
    fn read(&self, now_ms: u64) -> Option<f64> {
        // ordering: Relaxed — freshness hint read; a stale value only skews
        // the advisory decay estimate.
        let last = self.last_sample_ms.load(Ordering::Relaxed);
        let idle_ms = if last == 0 {
            0.0
        } else {
            now_ms.saturating_sub(last) as f64
        };
        self.ewma.decayed(idle_ms, DECAY_HALF_LIFE_MS)
    }
}

/// Reported completion latency → accumulated microseconds. Rounds to the
/// nearest microsecond instead of truncating (which silently dropped sub-µs
/// remainders on every call) and clamps NaN / negative simulated latencies
/// to zero instead of letting the `f64 → u64` cast produce garbage.
fn round_latency_us(latency_ms: f64) -> u64 {
    let us = (latency_ms * 1000.0).round();
    if us.is_finite() && us > 0.0 {
        us as u64 // saturating cast: an absurd finite latency pins at u64::MAX
    } else {
        0
    }
}

/// Sentinel value of [`BreakerState::open_until_ms`] marking "a half-open
/// probe is in flight". Encoding the probe claim *in the same word* as the
/// cooldown expiry is what makes probe admission race-free: claiming the
/// probe is a compare-exchange on the exact expiry the claimant observed, so
/// a racer holding a stale expiry (including one from a previous cooldown
/// window) can never slip a second probe through.
const PROBE_IN_FLIGHT: u64 = u64::MAX;

/// Circuit-breaker state of one backend. Lock-free: the candidate walk reads
/// it on every request.
///
/// The whole open/half-open protocol lives in one atomic word,
/// `open_until_ms`: `0` = closed, [`PROBE_IN_FLIGHT`] = a probe owns the
/// half-open window, anything else = open until that pool-epoch time.
#[derive(Default)]
pub(super) struct BreakerState {
    /// Failed attempts since the last success.
    consecutive_errors: AtomicU64,
    /// `0` = closed. [`PROBE_IN_FLIGHT`] = cooldown expired and exactly one
    /// probe request is in flight. Otherwise the pool-epoch-relative time
    /// (ms, saturated to at least 1 so it never collides with the closed
    /// sentinel) at which the cooldown expires and a half-open probe may go
    /// through.
    open_until_ms: AtomicU64,
}

/// What the breaker allows for the next request on a backend.
#[derive(Debug, PartialEq)]
pub(super) enum Admission {
    /// Breaker closed: attempt normally.
    Normal,
    /// Cooldown elapsed: this request is the single half-open probe.
    Probe,
    /// Breaker open: skip the backend.
    Skip,
}

impl BreakerState {
    pub(super) fn admission(&self, now_ms: u64) -> Admission {
        // ordering: Acquire — pairs with the Release stores in open()/
        // on_success(); a caller that observes "closed" also observes the
        // error-count reset that preceded it.
        let open_until = self.open_until_ms.load(Ordering::Acquire);
        if open_until == 0 {
            return Admission::Normal;
        }
        if open_until == PROBE_IN_FLIGHT || now_ms < open_until {
            return Admission::Skip;
        }
        // Cooldown elapsed: let exactly one caller through as the probe.
        // The compare-exchange is against the expiry this caller *observed*,
        // so of N racers exactly one wins; the rest fail (the word now holds
        // the sentinel — or a fresh expiry if the probe already resolved)
        // and keep skipping. In particular a racer that passed the expiry
        // check just before a failed probe re-opened the breaker can no
        // longer claim a second probe inside the new cooldown window: its
        // stale expiry no longer matches.
        // ordering: AcqRel on success — the winner both acquires the state
        // the opener published and releases its probe claim to whoever
        // resolves it; Acquire on failure so the loser sees the up-to-date
        // word when it skips.
        if self
            .open_until_ms
            .compare_exchange(
                open_until,
                PROBE_IN_FLIGHT,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            Admission::Probe
        } else {
            Admission::Skip
        }
    }

    pub(super) fn on_success(&self) {
        // ordering: Release ×2 — the error-count reset must be visible
        // before the "closed" word is; pairs with the Acquire load in
        // admission(), so a closed breaker is never seen with a stale
        // pre-reset error count.
        self.consecutive_errors.store(0, Ordering::Release);
        self.open_until_ms.store(0, Ordering::Release);
    }

    /// Open the breaker until `now_ms + cooldown_ms`. Saturating: an absurd
    /// (but finite, so validation-passing) cooldown pins the expiry just
    /// below [`PROBE_IN_FLIGHT`] instead of overflowing (or colliding with
    /// the sentinel, which would read as a phantom probe).
    pub(super) fn open(&self, now_ms: u64, cooldown_ms: f64) {
        // f64→u64 casts saturate.
        let cooldown = cooldown_ms.max(0.0) as u64;
        // ordering: Release — publishes the expiry (and the error history
        // before it) to admission()'s Acquire load; the probe CAS there is
        // against this exact value.
        self.open_until_ms.store(
            now_ms
                .saturating_add(cooldown)
                .clamp(1, PROBE_IN_FLIGHT - 1),
            Ordering::Release,
        );
    }

    /// Record a failed attempt; returns true when the breaker is now open
    /// (so the caller stops burning retries on this backend).
    pub(super) fn on_error(
        &self,
        now_ms: u64,
        threshold: u64,
        cooldown_ms: f64,
        was_probe: bool,
    ) -> bool {
        // ordering: AcqRel — the RMW must see the latest reset (Acquire,
        // pairs with on_success's Release) and publish the new count before
        // a threshold-crossing open() (Release side); plain Relaxed could
        // fold increments across an unseen reset and open the breaker on
        // stale history.
        let errors = self.consecutive_errors.fetch_add(1, Ordering::AcqRel) + 1;
        // A failed probe goes straight back to open for another cooldown;
        // otherwise the threshold decides.
        if was_probe || (threshold > 0 && errors >= threshold) {
            self.open(now_ms, cooldown_ms);
            return true;
        }
        false
    }

    /// Release an abandoned probe claim (dropped call, panicking backend):
    /// expire the cooldown immediately so the next request re-probes, instead
    /// of the backend staying short-circuited forever. The compare-exchange
    /// only fires if the claim is still ours — a probe whose outcome already
    /// resolved the breaker (concurrent `open`/`on_success`) is left alone.
    pub(super) fn abort_probe(&self) {
        // ordering: AcqRel/Acquire — same pairing discipline as the probe
        // claim in admission(); releasing the claim must not be reorderable
        // before the work the probe abandoned.
        let _ = self.open_until_ms.compare_exchange(
            PROBE_IN_FLIGHT,
            1,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }
}

/// Half-life of the read-side decay of the health averages, milliseconds.
/// Long enough that decay is invisible within one query (sub-second), short
/// enough that a backend sidelined by a stale scary average re-enters
/// contention within a few seconds of idling.
pub(super) const DECAY_HALF_LIFE_MS: f64 = 2_000.0;

/// One member of a pool: its endpoint, counters, health averages (latency
/// and failure share, see the module docs) and breaker, behind one `Arc`
/// that the pool and every [`PoolCall`] routed over it share — a call can
/// outlive a borrow of the pool.
pub(super) struct Member {
    pub(super) backend: Arc<dyn Backend>,
    pub(super) counters: SlotCounters,
    pub(super) breaker: BreakerState,
}

impl Member {
    /// Record one successful attempt: reported-latency accumulator, the
    /// measured-latency EWMA and the failure share. Primary and hedge
    /// flights account alike. Returns the reported latency as accumulated,
    /// microseconds.
    pub(super) fn record_success(&self, reported_ms: f64, measured_ms: f64, now_ms: u64) -> u64 {
        let reported_us = round_latency_us(reported_ms);
        // ordering: Relaxed — latency_us is a monotone statistic.
        self.counters
            .latency_us
            .fetch_add(reported_us, Ordering::Relaxed);
        self.observe_latency(measured_ms, now_ms);
        self.counters.failures.observe(0.0, now_ms);
        reported_us
    }

    /// Fold one measured latency into the EWMA.
    pub(super) fn observe_latency(&self, measured_ms: f64, now_ms: u64) {
        self.counters.latency.observe(measured_ms, now_ms);
    }

    /// Fold in a *lower bound* on this backend's latency: the time a flight
    /// had already taken when a hedge beat it. The flight is about to be
    /// cancelled, so this is the only sample it will give; where the bound
    /// exceeds the current estimate it is informative. Without it a slow
    /// member whose every request is hedged away never gets an estimate: the
    /// pool could never expect it to be late, and latency-aware routing,
    /// which explores members no attempt has resolved on, would launch on it
    /// first every time.
    pub(super) fn observe_latency_at_least(&self, elapsed_ms: f64, now_ms: u64) {
        if self
            .decayed_ewma(now_ms)
            .is_none_or(|estimate_ms| elapsed_ms > estimate_ms)
        {
            self.observe_latency(elapsed_ms, now_ms);
        }
    }

    /// Record one failed attempt in the counters and the failure share;
    /// returns true when the breaker just opened (so the caller fails over
    /// instead of burning retries).
    pub(super) fn record_error(
        &self,
        now_ms: u64,
        threshold: u64,
        cooldown_ms: f64,
        probe: bool,
    ) -> bool {
        // ordering: Relaxed — statistics counter; breaker decisions use the
        // separately-ordered BreakerState word, not this.
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.counters.failures.observe(1.0, now_ms);
        threshold > 0 && self.breaker.on_error(now_ms, threshold, cooldown_ms, probe)
    }

    /// The latency EWMA discounted for staleness: [`DECAY_HALF_LIFE_MS`] of
    /// idle time halves the estimate.
    pub(super) fn decayed_ewma(&self, now_ms: u64) -> Option<f64> {
        self.counters.latency.read(now_ms)
    }

    /// The expected time to a success at `now_ms`: the decayed latency EWMA
    /// ÷ (1 − the decayed failure share) — the expected number of attempts
    /// times the cost of each. Infinite for a member whose every recent
    /// attempt failed; `None` before its first success.
    pub(super) fn expected_ms(&self, now_ms: u64) -> Option<f64> {
        let latency_ms = self.decayed_ewma(now_ms)?;
        let share = self.counters.failures.read(now_ms).unwrap_or(0.0);
        Some(if share < 1.0 {
            latency_ms / (1.0 - share)
        } else {
            f64::INFINITY
        })
    }

    /// True until one of its attempts resolves: every outcome, success or
    /// failure, samples the failure share.
    pub(super) fn untried(&self) -> bool {
        self.counters.failures.ewma.get().is_none()
    }

    /// True while the breaker is closed (never opened, or reset by a
    /// success). An expired cooldown still reads open: that backend's next
    /// request is a probe, not ordinary traffic.
    pub(super) fn breaker_closed(&self) -> bool {
        // ordering: Acquire — same pairing as admission(): a "closed" read
        // implies the preceding error-count reset is visible.
        self.breaker.open_until_ms.load(Ordering::Acquire) == 0
    }
}

/// What a [`PoolCall`] needs of its pool's configuration: copied into every
/// call, which can outlive a borrow of the pool.
#[derive(Clone, Copy)]
pub(super) struct Settings {
    pub(super) policy: RoutingPolicy,
    /// Retries per backend before failing over (bounded retry).
    pub(super) retries: usize,
    /// Exponential backoff base between attempts, milliseconds.
    pub(super) backoff_base_ms: f64,
    /// Circuit breaker: consecutive errors that open a backend's breaker
    /// (0 = breaker disabled).
    pub(super) breaker_threshold: u64,
    /// Circuit breaker: cooldown before a half-open probe, milliseconds.
    pub(super) breaker_cooldown_ms: f64,
    /// Hedged requests: lateness threshold as a multiple of the pool's
    /// lowest latency EWMA (0 = hedging disabled).
    pub(super) hedge_multiplier: f64,
    /// Hedged requests: floor on the lateness threshold, milliseconds.
    pub(super) hedge_min_ms: f64,
    /// When the pool was built: the origin of its millisecond clock.
    pub(super) epoch: Instant,
}

impl Settings {
    /// Milliseconds from the pool's epoch to `now` — the clock breaker
    /// cooldowns and EWMA staleness run on.
    pub(super) fn ms(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch).as_millis() as u64
    }
}

/// A registry of semantically identical backends with routing and failover.
///
/// The pool implements [`LanguageModel`], so an [`crate::LlmClient`] can wrap
/// it exactly like a single model: caching, single-flight dedup and usage
/// accounting all see one *logical* endpoint, while physical attempts spread
/// across the members.
pub struct BackendPool {
    pub(super) members: Vec<Arc<Member>>,
    rr_cursor: AtomicUsize,
    pub(super) settings: Settings,
    /// The call slots a hedge must find spare capacity in (`None` = hedges
    /// are always admitted). Under a cross-query scheduler, the scheduler's.
    hedge_slots: parking_lot::Mutex<Option<Arc<CallSlots>>>,
}

impl BackendPool {
    /// Build a pool. Fails on an empty backend list, duplicate ids, or
    /// members whose [`Backend::fingerprint`]s disagree (which would let
    /// routing change query results — contract rule 1).
    pub fn new(backends: Vec<Arc<dyn Backend>>, policy: RoutingPolicy) -> Result<Self> {
        if backends.is_empty() {
            return Err(Error::config("a backend pool needs at least one backend"));
        }
        let fingerprint = backends[0].fingerprint();
        let mut seen = std::collections::BTreeSet::new();
        for backend in &backends {
            if !seen.insert(backend.id().to_string()) {
                return Err(Error::config(format!(
                    "duplicate backend id '{}' in pool",
                    backend.id()
                )));
            }
            let fp = backend.fingerprint();
            if fp != fingerprint {
                return Err(Error::config(format!(
                    "backend '{}' serves a different model ({fp} != {fingerprint}); \
                     pooled backends must be semantically identical",
                    backend.id()
                )));
            }
        }
        Ok(BackendPool {
            members: backends
                .into_iter()
                .map(|backend| {
                    Arc::new(Member {
                        backend,
                        counters: SlotCounters::default(),
                        breaker: BreakerState::default(),
                    })
                })
                .collect(),
            rr_cursor: AtomicUsize::new(0),
            settings: Settings {
                policy,
                retries: 1,
                backoff_base_ms: 1.0,
                breaker_threshold: 0,
                breaker_cooldown_ms: 250.0,
                hedge_multiplier: 0.0,
                hedge_min_ms: 1.0,
                epoch: clock::now(),
            },
            hedge_slots: parking_lot::Mutex::new(None),
        })
    }

    /// Build a pool of [`RemoteLlm`] endpoints over one shared model, one per
    /// spec. `seed` drives the deterministic per-backend error streams.
    pub fn from_specs(
        inner: Arc<dyn LanguageModel>,
        specs: &[BackendSpec],
        policy: RoutingPolicy,
        seed: u64,
    ) -> Result<Self> {
        BackendPool::from_specs_with_chaos(inner, specs, policy, seed, None)
    }

    /// [`BackendPool::from_specs`], with every member additionally subjected
    /// to a shared [`ChaosPlan`] (see [`RemoteLlm::with_chaos`]). The plan is
    /// validated once here so a malformed window fails construction, not a
    /// request.
    pub fn from_specs_with_chaos(
        inner: Arc<dyn LanguageModel>,
        specs: &[BackendSpec],
        policy: RoutingPolicy,
        seed: u64,
        chaos: Option<ChaosPlan>,
    ) -> Result<Self> {
        if let Some(plan) = &chaos {
            plan.validate()?;
        }
        let chaos = chaos.map(Arc::new);
        let backends = specs
            .iter()
            .map(|spec| {
                spec.validate()?;
                let mut remote = RemoteLlm::from_spec(Arc::clone(&inner), spec, seed);
                if let Some(plan) = &chaos {
                    remote = remote.with_chaos(Arc::clone(plan));
                }
                Ok(Arc::new(remote) as Arc<dyn Backend>)
            })
            .collect::<Result<Vec<_>>>()?;
        BackendPool::new(backends, policy)
    }

    /// Builder-style: retries per backend before failing over (default 1).
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.settings.retries = retries;
        self
    }

    /// Builder-style: exponential backoff base in milliseconds (default 1.0;
    /// each retry doubles it, capped at 100ms). Zero disables backoff.
    pub fn with_backoff_base_ms(mut self, base_ms: f64) -> Self {
        self.settings.backoff_base_ms = base_ms.max(0.0);
        self
    }

    /// Builder-style: enable the circuit breaker — open a backend after
    /// `threshold` consecutive failed attempts and allow one half-open probe
    /// after `cooldown_ms` (see the module docs). `threshold == 0` disables
    /// the breaker (the default).
    pub fn with_breaker(mut self, threshold: usize, cooldown_ms: f64) -> Self {
        self.settings.breaker_threshold = threshold as u64;
        self.settings.breaker_cooldown_ms = cooldown_ms.max(0.0);
        self
    }

    /// Builder-style: enable hedged requests (see `call.rs` for the full
    /// contract). A request late by `multiplier ×` the pool's lowest latency
    /// EWMA (floored at `min_ms`) gets one duplicate on the next healthy
    /// candidate of its walk; first success wins. With hedging on, every
    /// policy's walk goes by health (`call.rs` states the order).
    /// `multiplier == 0` disables hedging (the default).
    pub fn with_hedging(mut self, multiplier: f64, min_ms: f64) -> Self {
        self.settings.hedge_multiplier = multiplier.max(0.0);
        self.settings.hedge_min_ms = min_ms.max(0.0);
        self
    }

    /// Make every hedge fit into `slots`: a hedge fires only when a slot is
    /// free at that instant, and holds it for its whole flight — so under a
    /// cross-query scheduler a hedge only ever uses *spare* capacity and
    /// never queues behind planned work. `None` admits every hedge.
    pub fn set_hedge_slots(&self, slots: Option<Arc<CallSlots>>) {
        *self.hedge_slots.lock() = slots;
    }

    /// Number of backends in the pool.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the pool has no backends (never, per [`BackendPool::new`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Per-backend counter snapshots, in registration order.
    pub fn stats(&self) -> Vec<BackendStats> {
        self.members
            .iter()
            .map(|member| {
                let counters = &member.counters;
                // ordering: Relaxed throughout — advisory statistics
                // snapshot; fields are individually monotone but not
                // mutually consistent mid-flight (tests needing exact
                // totals quiesce the pool first). breaker_open is a hint
                // here; admission() does the Acquire read that decides.
                BackendStats {
                    id: member.backend.id().to_string(),
                    calls: counters.calls.load(Ordering::Relaxed),
                    errors: counters.errors.load(Ordering::Relaxed),
                    retries: counters.retries.load(Ordering::Relaxed),
                    latency_ms: counters.latency_us.load(Ordering::Relaxed) as f64 / 1000.0,
                    in_flight: counters.in_flight.load(Ordering::Relaxed),
                    short_circuits: counters.short_circuits.load(Ordering::Relaxed),
                    breaker_open: member.breaker.open_until_ms.load(Ordering::Relaxed) != 0,
                    hedges: counters.hedges.load(Ordering::Relaxed),
                    hedges_won: counters.hedges_won.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Candidate order for the next request under the configured policy,
    /// as far as the policy needs no clock: latency-aware ordering reads the
    /// decayed health averages, so it waits for the call's first poll.
    fn candidate_order(&self, request: &CompletionRequest) -> Vec<usize> {
        let n = self.members.len();
        let mut order: Vec<usize> = (0..n).collect();
        match self.settings.policy {
            RoutingPolicy::RoundRobin => {
                // ordering: Relaxed — the cursor only needs per-increment
                // uniqueness to spread starts; no memory rides on it.
                let start = self.rr_cursor.fetch_add(1, Ordering::Relaxed) % n;
                order.rotate_left(start);
            }
            RoutingPolicy::LeastInFlight => {
                order.sort_by_key(|&i| {
                    (
                        self.members[i]
                            .counters
                            .in_flight
                            // ordering: Relaxed — load-balancing hint; a
                            // stale gauge only mis-ranks one candidate walk.
                            .load(Ordering::Relaxed),
                        i,
                    )
                });
            }
            RoutingPolicy::CostAware => {
                order.sort_by(|&a, &b| {
                    let price = |i: usize| {
                        let m = self.members[i].backend.cost_model();
                        m.usd_per_1k_prompt_tokens + m.usd_per_1k_completion_tokens
                    };
                    price(a).total_cmp(&price(b)).then(a.cmp(&b))
                });
            }
            RoutingPolicy::PromptHash => {
                // The start index is a pure function of the prompt text, so
                // the backend serving each prompt (and the whole physical
                // trace) is reproducible at any parallelism.
                let start = (hash01(&["route", &request.prompt], 0) * n as f64) as usize % n;
                order.rotate_left(start);
            }
            RoutingPolicy::LatencyAware => {}
        }
        order
    }

    /// Route one request: the whole routing protocol — candidate walk,
    /// bounded retry with backoff timers, breaker skips/probes, timer-armed
    /// hedging — as a poll-driven [`PoolCall`]. The caller (usually an event
    /// loop holding many of these) polls it at once and then to completion;
    /// dropping it mid-flight cancels cleanly.
    pub fn submit_call(&self, request: &CompletionRequest) -> PoolCall {
        let hedge_slots = if self.settings.hedge_multiplier > 0.0 {
            self.hedge_slots.lock().clone()
        } else {
            None
        };
        PoolCall::new(
            request.clone(),
            self.candidate_order(request)
                .into_iter()
                .map(|i| (i, &self.members[i])),
            self.settings,
            hedge_slots,
        )
    }
}

impl LanguageModel for BackendPool {
    fn name(&self) -> String {
        let members: Vec<&str> = self.members.iter().map(|m| m.backend.id()).collect();
        format!("pool[{}]({})", self.settings.policy, members.join(","))
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.submit(request).wait()
    }

    fn submit(&self, request: &CompletionRequest) -> CallHandle {
        CallHandle::machine(Box::new(self.submit_call(request)))
    }

    fn fingerprint(&self) -> String {
        // All members agree (enforced at construction); the pool is
        // semantically the model its members serve.
        self.members[0].backend.fingerprint()
    }

    fn cost_model(&self) -> LlmCostModel {
        self.members[0].backend.cost_model()
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        // Members are semantically identical (enforced at construction), so
        // any member's hint is the pool's hint.
        self.members[0].backend.relation_cardinality(table)
    }
}
