//! Multi-backend dispatch, in three files by what each owns: `endpoint.rs`,
//! one endpoint ([`Backend`], the [`CallHandle`] an attempt returns,
//! [`RemoteLlm`], [`DirectBackend`]); `pool.rs`, the members and what is
//! known about them ([`BackendPool`]: routing policy, counters, breakers,
//! health averages); `call.rs`, one request's walk over the pool as a
//! transition system ([`PoolCall`]), its invariants beside its transitions.
//!
//! **Time** enters the pool only as the `now` of a poll: the walk launches
//! attempts at it ([`Backend::submit`] is handed it), measures latencies to
//! it, and counts breaker cooldowns and health staleness in milliseconds from
//! the pool's epoch to it. Nothing below the poll reads the clock, so a test
//! drives a call on synthetic instants — submit, poll at
//! [`CallMachine::next_wakeup`], never sleep — and names the instant it
//! resolves. The pool reads the clock once, when it is built (its epoch).
//!
//! **The failure-handling contract**, relied on by the scheduler and the
//! chaos harness:
//!
//! * *Retries, failover and hedges are budget-free*: physical attempts,
//!   visible in [`BackendPool::stats`], never charged to the engine's logical
//!   call budget (`max_llm_calls`, which counts prompts).
//! * *Bounded spend*: a call issues at most `backends × (1 + retries)`
//!   attempts plus one hedge; with the breaker on, a hard-down backend
//!   absorbs at most `threshold` attempts per cooldown (plus one probe).
//! * *Faults cannot change rows*: pooled backends are fingerprint-equal,
//!   text is a pure function of the prompt, and failure decisions are pure
//!   functions of `(backend, prompt, attempt, seed, chaos plan)`.

mod call;
mod endpoint;
mod pool;

pub use call::PoolCall;
pub use endpoint::{Backend, CallHandle, CallMachine, DirectBackend, RemoteLlm};
pub use pool::{BackendPool, BackendReceipt, BackendStats};

#[cfg(test)]
mod tests {
    use super::pool::{Admission, BreakerState, Member};
    use super::*;
    use crate::model::{CompletionRequest, CompletionResponse, LanguageModel};
    use crate::slots::CallSlots;
    use crate::tokenizer::count_tokens;
    use llmsql_types::{BackendSpec, Error, LlmCostModel, Result, RoutingPolicy};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A deterministic fake model: completion text is a pure function of the
    /// prompt; counts invocations.
    struct EchoModel {
        tag: String,
        calls: Mutex<u64>,
    }

    impl EchoModel {
        fn new(tag: &str) -> Self {
            EchoModel {
                tag: tag.to_string(),
                calls: Mutex::new(0),
            }
        }
    }

    impl LanguageModel for EchoModel {
        fn name(&self) -> String {
            format!("echo({})", self.tag)
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
            *self.calls.lock() += 1;
            Ok(CompletionResponse {
                text: format!("{}:{}", self.tag, request.prompt),
                prompt_tokens: count_tokens(&request.prompt),
                completion_tokens: 3,
                latency_ms: 1.0,
                cost_usd: 0.001,
            })
        }
    }

    fn spec(name: &str) -> BackendSpec {
        BackendSpec::new(name)
    }

    fn pool_over(specs: &[BackendSpec], policy: RoutingPolicy) -> (Arc<EchoModel>, BackendPool) {
        let model = Arc::new(EchoModel::new("m"));
        let pool = BackendPool::from_specs(
            Arc::clone(&model) as Arc<dyn LanguageModel>,
            specs,
            policy,
            7,
        )
        .unwrap()
        .with_backoff_base_ms(0.0);
        (model, pool)
    }

    fn ms(millis: u64) -> Duration {
        Duration::from_millis(millis)
    }

    /// Drive `call` on synthetic time from `now`: poll, and when it is still
    /// pending jump to the instant it names next — no sleep, no clock. Returns
    /// the result and the instant the call resolved at.
    fn run(call: &mut impl CallMachine, mut now: Instant) -> (Result<CompletionResponse>, Instant) {
        for _ in 0..10_000 {
            if let Some(result) = call.poll(now) {
                return (result, now);
            }
            if let Some(wake) = call.next_wakeup(now) {
                now = now.max(wake);
            }
        }
        panic!("the call never resolved");
    }

    /// Send `prompt` through `pool` at `now`; see [`run`].
    fn send(
        pool: &BackendPool,
        prompt: &str,
        now: Instant,
    ) -> (Result<CompletionResponse>, Instant) {
        run(&mut pool.submit_call(&CompletionRequest::new(prompt)), now)
    }

    /// The pool's epoch: the synthetic time origin of a test, so that its
    /// millisecond clock reads exactly what the test's offsets say.
    fn epoch(pool: &BackendPool) -> Instant {
        pool.settings.epoch
    }

    /// Give member `slot` a latency sample of `ms` as though a request had
    /// measured it at `now`.
    fn warm(pool: &BackendPool, slot: usize, ms: f64, now: Instant) {
        pool.members[slot].observe_latency(ms, pool.settings.ms(now));
    }

    /// Open member `slot`'s breaker at `now` for longer than any test runs.
    fn trip(pool: &BackendPool, slot: usize, now: Instant) {
        pool.members[slot]
            .breaker
            .open(pool.settings.ms(now), 60_000.0);
    }

    /// Member `slot`'s latency estimate as routing reads it at `now`.
    fn ewma_at(pool: &BackendPool, slot: usize, now: Instant) -> Option<f64> {
        pool.members[slot].decayed_ewma(pool.settings.ms(now))
    }

    fn total_hedges(pool: &BackendPool) -> u64 {
        pool.stats().iter().map(|s| s.hedges).sum()
    }

    /// A backend whose round trip is adjustable at runtime: a timer from the
    /// instant the attempt is launched at, never a sleep.
    struct AdjustableBackend {
        id: String,
        inner: Arc<dyn LanguageModel>,
        delay_ms: AtomicU64,
    }

    impl AdjustableBackend {
        fn new(id: &str, inner: Arc<dyn LanguageModel>, delay_ms: u64) -> Arc<Self> {
            Arc::new(AdjustableBackend {
                id: id.to_string(),
                inner,
                delay_ms: AtomicU64::new(delay_ms),
            })
        }

        fn set_delay(&self, delay_ms: u64) {
            // ordering: Relaxed — test knob; the driving thread reads it back.
            self.delay_ms.store(delay_ms, Ordering::Relaxed);
        }
    }

    impl Backend for AdjustableBackend {
        fn id(&self) -> &str {
            &self.id
        }
        fn submit(&self, request: &CompletionRequest, _attempt: usize, now: Instant) -> CallHandle {
            // ordering: Relaxed — test knob; any recent value is fine.
            let delay = self.delay_ms.load(Ordering::Relaxed);
            let result = self.inner.complete(request);
            if delay > 0 {
                CallHandle::timed(result, now + ms(delay))
            } else {
                CallHandle::ready(result)
            }
        }
        fn fingerprint(&self) -> String {
            self.inner.fingerprint()
        }
    }

    /// A pool over adjustable backends `(id, delay ms)`, in registration order.
    fn adjustable_pool(
        members: &[(&str, u64)],
        policy: RoutingPolicy,
    ) -> (Vec<Arc<AdjustableBackend>>, BackendPool) {
        let model = Arc::new(EchoModel::new("m"));
        let backends: Vec<Arc<AdjustableBackend>> = members
            .iter()
            .map(|&(id, delay)| AdjustableBackend::new(id, Arc::clone(&model) as _, delay))
            .collect();
        let pool = BackendPool::new(
            backends
                .iter()
                .map(|b| Arc::clone(b) as Arc<dyn Backend>)
                .collect(),
            policy,
        )
        .unwrap();
        (backends, pool)
    }

    #[test]
    fn round_robin_rotates_across_backends() {
        let (_, pool) = pool_over(
            &[spec("a"), spec("b"), spec("c")],
            RoutingPolicy::RoundRobin,
        );
        for i in 0..6 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        let stats = pool.stats();
        assert_eq!(
            stats.iter().map(|s| s.calls).collect::<Vec<_>>(),
            vec![2, 2, 2],
            "round robin should spread calls evenly: {stats:?}"
        );
        assert!(stats.iter().all(|s| s.errors == 0 && s.in_flight == 0));
    }

    #[test]
    fn cost_aware_prefers_cheapest_backend() {
        let cheap = LlmCostModel {
            usd_per_1k_prompt_tokens: 0.0001,
            usd_per_1k_completion_tokens: 0.0002,
            ..LlmCostModel::default()
        };
        let (_, pool) = pool_over(
            &[
                spec("pricey"),
                spec("bargain").with_cost_model(cheap),
                spec("mid"),
            ],
            RoutingPolicy::CostAware,
        );
        for i in 0..5 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        let stats = pool.stats();
        let bargain = stats.iter().find(|s| s.id == "bargain").unwrap();
        assert_eq!(bargain.calls, 5, "all traffic should hit the cheap backend");
    }

    #[test]
    fn failover_skips_hard_down_backend() {
        let (model, pool) = pool_over(
            &[spec("down").failing(), spec("up")],
            RoutingPolicy::RoundRobin,
        );
        let resp = pool.complete(&CompletionRequest::new("hello")).unwrap();
        assert_eq!(resp.text, "m:hello");
        let stats = pool.stats();
        let down = stats.iter().find(|s| s.id == "down").unwrap();
        let up = stats.iter().find(|s| s.id == "up").unwrap();
        // The failing backend got 1 + retries attempts, all errors; the
        // healthy one served the request.
        assert_eq!(down.calls, 2);
        assert_eq!(down.errors, 2);
        assert_eq!(down.retries, 1);
        assert_eq!(up.calls, 1);
        assert_eq!(up.errors, 0);
        // The inner model saw exactly one completion: failed attempts never
        // reach it.
        assert_eq!(*model.calls.lock(), 1);
    }

    #[test]
    fn all_backends_down_returns_last_error() {
        let (model, pool) = pool_over(
            &[spec("d1").failing(), spec("d2").failing()],
            RoutingPolicy::RoundRobin,
        );
        let err = pool.complete(&CompletionRequest::new("x")).unwrap_err();
        assert!(err.to_string().contains("simulated endpoint error"));
        assert_eq!(*model.calls.lock(), 0);
        assert!(pool.stats().iter().all(|s| s.in_flight == 0));
    }

    #[test]
    fn transient_errors_are_deterministic() {
        let flaky = [spec("flaky").with_error_rate(0.5), spec("backup")];
        let trace = |prompts: &[&str]| -> Vec<BackendStats> {
            let (_, pool) = pool_over(&flaky, RoutingPolicy::RoundRobin);
            for p in prompts {
                pool.complete(&CompletionRequest::new(*p)).unwrap();
            }
            pool.stats()
        };
        let prompts = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let first = trace(&prompts);
        let second = trace(&prompts);
        assert_eq!(first, second, "retry/failover trace must be reproducible");
        assert!(
            first.iter().any(|s| s.errors > 0),
            "a 50% error rate over 8 prompts should produce at least one error: {first:?}"
        );
    }

    #[test]
    fn mismatched_fingerprints_are_rejected() {
        let a: Arc<dyn Backend> =
            Arc::new(DirectBackend::new("a", Arc::new(EchoModel::new("one"))));
        let b: Arc<dyn Backend> =
            Arc::new(DirectBackend::new("b", Arc::new(EchoModel::new("two"))));
        assert!(BackendPool::new(vec![a, b], RoutingPolicy::RoundRobin).is_err());
    }

    #[test]
    fn duplicate_ids_and_empty_pools_are_rejected() {
        let model = Arc::new(EchoModel::new("m"));
        let mk = || -> Arc<dyn Backend> {
            Arc::new(DirectBackend::new(
                "same",
                Arc::clone(&model) as Arc<dyn LanguageModel>,
            ))
        };
        assert!(BackendPool::new(vec![mk(), mk()], RoutingPolicy::RoundRobin).is_err());
        assert!(BackendPool::new(vec![], RoutingPolicy::RoundRobin).is_err());
    }

    #[test]
    fn per_backend_pricing_is_applied() {
        let pricey = LlmCostModel {
            usd_per_1k_prompt_tokens: 1.0,
            usd_per_1k_completion_tokens: 1.0,
            ..LlmCostModel::default()
        };
        let (_, pool) = pool_over(
            &[spec("pricey").with_cost_model(pricey)],
            RoutingPolicy::RoundRobin,
        );
        let resp = pool
            .complete(&CompletionRequest::new("prompt text here"))
            .unwrap();
        let want = pricey.request_cost_usd(resp.prompt_tokens, resp.completion_tokens);
        assert!((resp.cost_usd - want).abs() < 1e-12);
    }

    #[test]
    fn pool_name_and_fingerprint() {
        let (model, pool) = pool_over(&[spec("a"), spec("b")], RoutingPolicy::LeastInFlight);
        assert_eq!(pool.name(), "pool[least-in-flight](a,b)");
        assert_eq!(pool.fingerprint(), model.fingerprint());
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
    }

    #[test]
    fn prompt_hash_routing_is_a_pure_function_of_the_prompt() {
        // The same prompt set must produce the same per-backend counters
        // however the calls interleave: one at a time in order, or all 24 in
        // flight at once, submitted in reverse and resolved together.
        let specs = [
            spec("a").with_latency_ms(5.0),
            spec("b").with_latency_ms(5.0),
            spec("c").with_latency_ms(5.0),
        ];
        let prompts: Vec<String> = (0..24).map(|i| format!("prompt {i}")).collect();

        let (_, sequential) = pool_over(&specs, RoutingPolicy::PromptHash);
        let mut now = epoch(&sequential);
        for p in &prompts {
            let (resp, at) = send(&sequential, p, now);
            assert_eq!(resp.unwrap().text, format!("m:{p}"));
            assert_eq!(at, now + ms(5));
            now = at;
        }

        let (_, overlapped) = pool_over(&specs, RoutingPolicy::PromptHash);
        let t0 = epoch(&overlapped);
        let mut calls: Vec<PoolCall> = prompts
            .iter()
            .rev()
            .map(|p| {
                let mut call = overlapped.submit_call(&CompletionRequest::new(p.clone()));
                assert!(call.poll(t0).is_none());
                call
            })
            .collect();
        assert_eq!(
            overlapped.stats().iter().map(|s| s.in_flight).sum::<u64>(),
            24
        );
        for call in &mut calls {
            assert!(call.poll(t0 + ms(5)).unwrap().is_ok());
        }

        let seq: Vec<u64> = sequential.stats().iter().map(|s| s.calls).collect();
        let over: Vec<u64> = overlapped.stats().iter().map(|s| s.calls).collect();
        assert_eq!(seq, over, "physical trace depends on interleaving");
        assert!(
            seq.iter().filter(|&&c| c > 0).count() >= 2,
            "24 hashed prompts should spread over >= 2 of 3 backends: {seq:?}"
        );
    }

    #[test]
    fn breaker_opens_and_bounds_attempts_on_a_hard_down_backend() {
        let (_, pool) = pool_over(
            &[spec("down").failing(), spec("up")],
            RoutingPolicy::RoundRobin,
        );
        // Threshold 3, cooldown far beyond the test duration.
        let pool = pool.with_breaker(3, 60_000.0);
        for i in 0..50 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        let stats = pool.stats();
        let down = stats.iter().find(|s| s.id == "down").unwrap();
        // Without the breaker the down backend would absorb 2 attempts per
        // request routed to it (~50 total); with it, attempts stop at the
        // threshold and later requests short-circuit.
        assert_eq!(down.calls, 3, "attempts not bounded by threshold: {down:?}");
        assert!(down.breaker_open);
        assert!(
            down.short_circuits > 0,
            "open breaker never short-circuited: {down:?}"
        );
        let up = stats.iter().find(|s| s.id == "up").unwrap();
        assert_eq!(up.calls, 50);
    }

    #[test]
    fn breaker_half_open_probe_reopens_on_failure_and_closes_on_recovery() {
        /// A backend whose health is flipped by the test.
        struct FlakyBackend {
            inner: Arc<dyn LanguageModel>,
            healthy: std::sync::atomic::AtomicBool,
        }
        impl Backend for FlakyBackend {
            fn id(&self) -> &str {
                "flappy"
            }
            fn submit(
                &self,
                request: &CompletionRequest,
                _attempt: usize,
                _now: Instant,
            ) -> CallHandle {
                // ordering: Relaxed — test health flag; eventual visibility
                // is all the scenario needs.
                if self.healthy.load(Ordering::Relaxed) {
                    self.inner.submit(request)
                } else {
                    CallHandle::ready(Err(Error::llm("flappy is down")))
                }
            }
            fn fingerprint(&self) -> String {
                self.inner.fingerprint()
            }
        }

        let model = Arc::new(EchoModel::new("m"));
        let flaky = Arc::new(FlakyBackend {
            inner: Arc::clone(&model) as Arc<dyn LanguageModel>,
            healthy: std::sync::atomic::AtomicBool::new(false),
        });
        let backup: Arc<dyn Backend> = Arc::new(DirectBackend::new(
            "backup",
            Arc::clone(&model) as Arc<dyn LanguageModel>,
        ));
        // Cost-aware with equal prices degenerates to registration order, so
        // every request tries the flaky backend first — which keeps the
        // request-to-breaker-transition mapping exact.
        let pool = BackendPool::new(
            vec![Arc::clone(&flaky) as Arc<dyn Backend>, backup],
            RoutingPolicy::CostAware,
        )
        .unwrap()
        .with_retries(0)
        .with_backoff_base_ms(0.0)
        .with_breaker(2, 20.0);
        let t0 = epoch(&pool);

        // Two failures at t0 open the breaker until t0 + 20ms.
        send(&pool, "a", t0).0.unwrap();
        send(&pool, "b", t0).0.unwrap();
        assert!(pool.stats()[0].breaker_open);
        let attempts_when_opened = pool.stats()[0].calls;
        assert_eq!(attempts_when_opened, 2);

        // Inside the cooldown: short-circuited, no new attempts.
        send(&pool, "c", t0 + ms(19)).0.unwrap();
        assert_eq!(pool.stats()[0].calls, attempts_when_opened);

        // Once the cooldown has run, one probe goes through; the backend is
        // still down, so the probe fails and reopens the breaker until 45ms.
        send(&pool, "d", t0 + ms(25)).0.unwrap();
        let after_probe = pool.stats()[0].clone();
        assert_eq!(after_probe.calls, attempts_when_opened + 1);
        assert!(after_probe.breaker_open, "failed probe must reopen");
        send(&pool, "d2", t0 + ms(44)).0.unwrap();
        assert_eq!(
            pool.stats()[0].calls,
            after_probe.calls,
            "probed inside the window"
        );

        // Backend recovers; the next probe succeeds and closes the breaker.
        // ordering: Relaxed — test health flag, see FlakyBackend::submit.
        flaky.healthy.store(true, Ordering::Relaxed);
        send(&pool, "e", t0 + ms(45)).0.unwrap();
        let recovered = pool.stats()[0].clone();
        assert!(!recovered.breaker_open, "successful probe must close");
        // Closed again: requests flow to it normally.
        send(&pool, "f", t0 + ms(45)).0.unwrap();
        send(&pool, "g", t0 + ms(45)).0.unwrap();
        assert_eq!(pool.stats()[0].calls, recovered.calls + 2);
    }

    #[test]
    fn panicking_probe_does_not_wedge_the_half_open_state() {
        #[derive(PartialEq)]
        enum Mode {
            Err,
            Panic,
            Healthy,
        }
        struct MoodyBackend {
            inner: Arc<dyn LanguageModel>,
            mode: parking_lot::Mutex<Mode>,
        }
        impl Backend for MoodyBackend {
            fn id(&self) -> &str {
                "moody"
            }
            fn submit(
                &self,
                request: &CompletionRequest,
                _attempt: usize,
                _now: Instant,
            ) -> CallHandle {
                match *self.mode.lock() {
                    Mode::Err => CallHandle::ready(Err(Error::llm("moody is down"))),
                    Mode::Panic => panic!("moody panicked mid-probe"),
                    Mode::Healthy => self.inner.submit(request),
                }
            }
            fn fingerprint(&self) -> String {
                self.inner.fingerprint()
            }
        }

        let model = Arc::new(EchoModel::new("m"));
        let moody = Arc::new(MoodyBackend {
            inner: Arc::clone(&model) as Arc<dyn LanguageModel>,
            mode: parking_lot::Mutex::new(Mode::Err),
        });
        let backup: Arc<dyn Backend> = Arc::new(DirectBackend::new(
            "backup",
            Arc::clone(&model) as Arc<dyn LanguageModel>,
        ));
        let pool = BackendPool::new(
            vec![Arc::clone(&moody) as Arc<dyn Backend>, backup],
            RoutingPolicy::CostAware,
        )
        .unwrap()
        .with_retries(0)
        .with_backoff_base_ms(0.0)
        .with_breaker(1, 10.0);
        let t0 = epoch(&pool);

        // One error opens the breaker until t0 + 10ms.
        send(&pool, "a", t0).0.unwrap();
        assert!(pool.stats()[0].breaker_open);

        // The half-open probe panics. Without the unwind guard this would
        // leave the probe claim held forever, permanently short-circuiting
        // the backend.
        *moody.mode.lock() = Mode::Panic;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            send(&pool, "b", t0 + ms(15))
        }));
        assert!(panicked.is_err(), "probe should have panicked");
        assert_eq!(pool.stats()[0].in_flight, 0);

        // Backend recovers: the abandoned claim re-expired the cooldown, so the
        // very next request probes, succeeds and closes the breaker.
        *moody.mode.lock() = Mode::Healthy;
        let (resp, at) = send(&pool, "c", t0 + ms(15));
        assert_eq!(resp.unwrap().text, "m:c");
        assert_eq!(at, t0 + ms(15));
        assert!(
            !pool.stats()[0].breaker_open,
            "recovered backend stayed short-circuited: {:?}",
            pool.stats()[0]
        );
    }

    #[test]
    fn racing_admissions_claim_exactly_one_probe_per_window() {
        // The half-open race regression: N threads observe the expired
        // cooldown concurrently; the old two-word state (expiry + separate
        // `probing` bool) let a racer that passed the stale expiry check win
        // the flag CAS *after* a failed probe re-opened the breaker —
        // launching a second probe inside the fresh cooldown window. The
        // single-word encoding admits exactly one probe per window, however
        // many racers and however the probe resolves.
        use std::sync::Barrier;
        for round in 0..50 {
            let breaker = BreakerState::default();
            breaker.open(0, 10.0); // cooldown expires at t=10ms
            let threads = 8;
            let barrier = Barrier::new(threads);
            let probes = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let breaker = &breaker;
                    let barrier = &barrier;
                    let probes = &probes;
                    scope.spawn(move || {
                        barrier.wait();
                        if breaker.admission(20) == Admission::Probe {
                            // ordering: SeqCst — the race test counts exact
                            // probe admissions across threads; total order
                            // keeps the count unambiguous.
                            probes.fetch_add(1, Ordering::SeqCst);
                            // Half the rounds: the probe fails and re-opens
                            // the breaker — the window where the old race
                            // admitted a second probe. Other half: the probe
                            // stays in flight (sentinel held) while the
                            // remaining racers run their admission checks.
                            if (round + t) % 2 == 0 {
                                breaker.on_error(20, 1, 1_000.0, true);
                            }
                        }
                    });
                }
            });
            assert_eq!(
                // ordering: SeqCst — paired with the increments above.
                probes.load(Ordering::SeqCst),
                1,
                "round {round}: expired breaker must admit exactly one probe"
            );
        }
    }

    #[test]
    fn racing_pool_calls_send_exactly_one_probe_per_cooldown() {
        // Pool-level version of the race: a hard-down backend with an open
        // breaker, 8 calls released by a barrier at an instant past the
        // cooldown. Exactly one physical probe attempt may reach the backend
        // per cooldown window; everyone else short-circuits to the healthy
        // sibling.
        use std::sync::Barrier;
        let (_, pool) = pool_over(
            &[spec("down").failing(), spec("up")],
            RoutingPolicy::CostAware, // static order: down first
        );
        let pool = pool.with_retries(0).with_breaker(1, 10.0);
        let t0 = epoch(&pool);
        // Trip the breaker (one failed attempt, failover serves the call).
        send(&pool, "trip", t0).0.unwrap();
        let calls_when_opened = pool.stats()[0].calls;
        assert!(pool.stats()[0].breaker_open);

        // 15ms on, the cooldown has run: race 8 calls through the machine. The
        // probe fails at once and re-opens the breaker until 25ms, so the
        // window admits exactly one attempt.
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (pool, barrier) = (&pool, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let prompt = format!("r{i}");
                    let (resp, at) = send(pool, &prompt, t0 + ms(15));
                    assert_eq!(resp.unwrap().text, format!("m:{prompt}"));
                    assert_eq!(at, t0 + ms(15));
                });
            }
        });
        let down = &pool.stats()[0];
        assert_eq!(
            down.calls,
            calls_when_opened + 1,
            "more than one probe escaped the half-open window: {down:?}"
        );
        assert_eq!(
            down.short_circuits, 7,
            "racers that lost the probe claim must short-circuit: {down:?}"
        );
        assert!(down.breaker_open, "failed probe must re-open");
    }

    #[test]
    fn abandoned_probe_releases_the_claim_for_the_next_caller() {
        let breaker = BreakerState::default();
        breaker.open(0, 10.0);
        assert_eq!(breaker.admission(20), Admission::Probe);
        // While the probe is in flight every other caller skips.
        assert_eq!(breaker.admission(25), Admission::Skip);
        // The probe is abandoned (dropped handle): the claim is released and
        // the cooldown re-expires immediately.
        breaker.abort_probe();
        assert_eq!(breaker.admission(26), Admission::Probe);
        // A probe that already resolved is not disturbed by a late abort.
        breaker.on_success();
        breaker.abort_probe();
        assert_eq!(breaker.admission(27), Admission::Normal);
    }

    #[test]
    fn absurd_cooldowns_saturate_instead_of_overflowing() {
        // A finite-but-enormous cooldown passes config validation; the
        // breaker must pin the expiry at u64::MAX, not overflow (debug
        // panic / release wraparound that would silently re-close it).
        let (_, pool) = pool_over(&[spec("d").failing(), spec("up")], RoutingPolicy::CostAware);
        let pool = pool.with_breaker(1, 3.0e19);
        pool.complete(&CompletionRequest::new("x")).unwrap();
        pool.complete(&CompletionRequest::new("y")).unwrap();
        let down = &pool.stats()[0];
        assert_eq!(down.calls, 1, "breaker failed to hold open: {down:?}");
        assert!(down.breaker_open);
        assert!(down.short_circuits >= 1);
    }

    #[test]
    fn chaos_outage_fails_over_and_reproduces_identical_stats() {
        use llmsql_types::{ChaosFault, ChaosPlan};
        // One backend hard-down for half the virtual horizon, plus an error
        // burst on the other: failover still answers every prompt with the
        // correct text, and the physical trace is a pure function of the
        // seed (same plan + same prompts ⇒ identical BackendStats).
        let plan = ChaosPlan::new(11, 1_000)
            .with_window("a", ChaosFault::Outage, 0, 500)
            .with_window("b", ChaosFault::ErrorBurst { error_rate: 0.3 }, 250, 750);
        let trace = || -> Vec<BackendStats> {
            let model = Arc::new(EchoModel::new("m"));
            let pool = BackendPool::from_specs_with_chaos(
                model as Arc<dyn LanguageModel>,
                &[spec("a"), spec("b"), spec("c")],
                RoutingPolicy::PromptHash,
                7,
                Some(plan.clone()),
            )
            .unwrap()
            .with_backoff_base_ms(0.0);
            for i in 0..24 {
                let prompt = format!("prompt {i}");
                let resp = pool
                    .complete(&CompletionRequest::new(prompt.clone()))
                    .unwrap();
                assert_eq!(resp.text, format!("m:{prompt}"));
            }
            pool.stats()
        };
        let first = trace();
        let second = trace();
        assert_eq!(first, second, "chaos trace must reproduce run-to-run");
        let a = first.iter().find(|s| s.id == "a").unwrap();
        assert!(
            a.errors > 0,
            "an outage over half the horizon should fail some attempts on 'a': {first:?}"
        );
    }

    #[test]
    fn chaos_latency_storm_scales_wall_clock_but_not_reported_latency() {
        use llmsql_types::{ChaosFault, ChaosPlan};
        // The whole horizon is one latency storm: the round trip stretches
        // eightfold, but the *reported* latency (what metrics accumulate)
        // stays the spec's 5ms — accounting is chaos-independent.
        let plan = ChaosPlan::new(3, 1_000).with_window(
            "only",
            ChaosFault::LatencyStorm { factor: 8.0 },
            0,
            1_000,
        );
        let run_one = |plan: Option<ChaosPlan>| {
            let model = Arc::new(EchoModel::new("m"));
            let pool = BackendPool::from_specs_with_chaos(
                model as Arc<dyn LanguageModel>,
                &[spec("only").with_latency_ms(5.0)],
                RoutingPolicy::RoundRobin,
                7,
                plan,
            )
            .unwrap();
            let t0 = epoch(&pool);
            let (resp, at) = send(&pool, "p", t0);
            (resp.unwrap(), at - t0)
        };
        let (calm_resp, calm) = run_one(None);
        let (storm_resp, storm) = run_one(Some(plan));
        assert_eq!(calm, ms(5));
        assert_eq!(storm, ms(40), "an 8× storm on a 5ms backend takes 40ms");
        // Reported latency accounting is chaos-independent: storm and calm
        // runs report byte-identical responses.
        assert_eq!(storm_resp.latency_ms, calm_resp.latency_ms);
        assert_eq!(storm_resp.text, calm_resp.text);
    }

    #[test]
    fn all_breakers_open_is_a_clean_error() {
        let (_, pool) = pool_over(&[spec("d").failing()], RoutingPolicy::RoundRobin);
        let pool = pool.with_breaker(1, 60_000.0);
        // First request trips the breaker (and fails through the normal
        // path); subsequent requests fail fast with a breaker error.
        pool.complete(&CompletionRequest::new("x")).unwrap_err();
        let err = pool.complete(&CompletionRequest::new("y")).unwrap_err();
        assert!(
            err.to_string().contains("circuit-broken"),
            "unexpected error: {err}"
        );
        assert_eq!(pool.stats()[0].calls, 1, "fail-fast must cost no attempts");
    }

    #[test]
    fn latency_accounting_rounds_and_matches_reported_sums() {
        // Regression: `(latency_ms * 1000.0) as u64` truncated sub-µs
        // remainders, so a model reporting 0.6µs per call accumulated zero.
        // Rounding keeps the error within 0.5µs per call.
        struct TinyLatencyModel;
        impl LanguageModel for TinyLatencyModel {
            fn name(&self) -> String {
                "tiny".into()
            }
            fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
                Ok(CompletionResponse {
                    text: format!("r:{}", request.prompt),
                    prompt_tokens: 1,
                    completion_tokens: 1,
                    latency_ms: 0.0006, // 0.6µs
                    cost_usd: 0.0,
                })
            }
        }
        let backend: Arc<dyn Backend> =
            Arc::new(DirectBackend::new("tiny", Arc::new(TinyLatencyModel)));
        let pool = BackendPool::new(vec![backend], RoutingPolicy::RoundRobin).unwrap();
        const CALLS: usize = 1000;
        let mut reported_sum = 0.0;
        for i in 0..CALLS {
            let resp = pool
                .complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
            reported_sum += resp.latency_ms;
        }
        let accounted = pool.stats()[0].latency_ms;
        let tolerance_ms = CALLS as f64 * 0.0005; // 0.5µs per call
        assert!(
            (accounted - reported_sum).abs() <= tolerance_ms,
            "accounted {accounted}ms vs reported {reported_sum}ms drifts more than \
             0.5µs/call (truncation regression)"
        );
    }

    #[test]
    fn nan_and_negative_latencies_clamp_to_zero() {
        // A buggy/simulated endpoint reporting NaN or negative latency must
        // not poison (or wrap) the accumulator.
        struct NastyLatencyModel {
            latencies: Mutex<Vec<f64>>,
        }
        impl LanguageModel for NastyLatencyModel {
            fn name(&self) -> String {
                "nasty".into()
            }
            fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
                let latency_ms = self.latencies.lock().pop().unwrap_or(0.0);
                Ok(CompletionResponse {
                    text: format!("r:{}", request.prompt),
                    prompt_tokens: 1,
                    completion_tokens: 1,
                    latency_ms,
                    cost_usd: 0.0,
                })
            }
        }
        let backend: Arc<dyn Backend> = Arc::new(DirectBackend::new(
            "nasty",
            Arc::new(NastyLatencyModel {
                latencies: Mutex::new(vec![2.5, -5.0, f64::NAN]),
            }),
        ));
        let pool = BackendPool::new(vec![backend], RoutingPolicy::RoundRobin).unwrap();
        for i in 0..3 {
            pool.complete(&CompletionRequest::new(format!("p{i}")))
                .unwrap();
        }
        // NaN and -5.0 contribute nothing; only the 2.5ms call counts.
        assert!((pool.stats()[0].latency_ms - 2.5).abs() < 1e-9);
    }

    #[test]
    fn latency_aware_explores_cold_members_then_prefers_the_fastest() {
        let (_, pool) = pool_over(
            &[
                spec("slow").with_latency_ms(15.0),
                spec("fast").with_latency_ms(1.0),
            ],
            RoutingPolicy::LatencyAware,
        );
        let mut now = epoch(&pool);
        // Cold pool: sample-less backends sort first, so the first two
        // requests explore both members: 15ms, then 1ms.
        for (prompt, rtt) in [("a", 15), ("b", 1)] {
            let (_, at) = send(&pool, prompt, now);
            assert_eq!(at, now + ms(rtt), "{prompt}");
            now = at;
        }
        let warmup: Vec<u64> = pool.stats().iter().map(|s| s.calls).collect();
        assert_eq!(warmup, vec![1, 1], "cold pool must explore every member");
        // Steady state: everything routes to the measured-fastest backend.
        for i in 0..5 {
            let (_, at) = send(&pool, &format!("p{i}"), now);
            assert_eq!(at, now + ms(1));
            now = at;
        }
        let stats = pool.stats();
        assert_eq!(
            stats[0].calls, 1,
            "slow backend should see no steady-state traffic: {stats:?}"
        );
        assert_eq!(stats[1].calls, 6);
        let (slow, fast) = (
            ewma_at(&pool, 0, now).unwrap(),
            ewma_at(&pool, 1, now).unwrap(),
        );
        assert!(
            (slow - 15.0).abs() < 0.1 && (fast - 1.0).abs() < 1e-9,
            "slow={slow}ms fast={fast}ms"
        );
    }

    #[test]
    fn latency_aware_tries_a_hard_down_member_once_then_sorts_it_last() {
        // No breaker, no hedging: the health key alone must keep a member
        // that only ever fails out of the way. A latency EWMA samples
        // successes only, so an order by it alone retries `down` first on
        // every call (12 attempts over six calls).
        let (_, pool) = pool_over(
            &[spec("down").failing(), spec("up")],
            RoutingPolicy::LatencyAware,
        );
        let retries = pool.settings.retries as u64;
        let mut now = epoch(&pool);
        for i in 0..6 {
            let (resp, at) = send(&pool, &format!("p{i}"), now);
            assert_eq!(resp.unwrap().text, format!("m:p{i}"));
            now = at + ms(1);
        }
        let stats = pool.stats();
        assert_eq!(stats[0].calls, 1 + retries, "{stats:?}");
        assert_eq!(stats[1].calls, 6, "{stats:?}");
    }

    #[test]
    fn hedge_fires_on_a_late_primary_and_the_fast_sibling_wins() {
        // The slow member answers its warm-up in 2ms, so its estimate is
        // under the 3ms threshold when it stalls for 40: the pool cannot see
        // the stall coming, and only the hedge rescues the call.
        let (backends, pool) =
            adjustable_pool(&[("slow", 2), ("fast", 1)], RoutingPolicy::RoundRobin);
        let pool = pool.with_backoff_base_ms(0.0).with_hedging(3.0, 1.0);
        let t0 = epoch(&pool);
        // Warm-up: round robin alternates, giving both backends an EWMA
        // sample. No hedge can fire before any sample exists (lateness is
        // undefined), so these take the plain walk.
        let (_, t1) = send(&pool, "w0", t0); // -> slow
        let (_, t2) = send(&pool, "w1", t1); // -> fast
        assert_eq!((t1, t2), (t0 + ms(2), t0 + ms(3)));
        assert_eq!(total_hedges(&pool), 0);
        // This request starts on the slow backend, goes late at 3× the fast
        // EWMA and is hedged to the fast sibling, which answers 1ms later.
        // The completion text is identical either way (fingerprint equality),
        // so rows can never change.
        backends[0].set_delay(40);
        let (resp, at) = send(&pool, "p", t2);
        assert_eq!(resp.unwrap().text, "m:p");
        assert_eq!(at, t2 + ms(3) + ms(1));
        let stats = pool.stats();
        assert_eq!((stats[1].hedges, stats[1].hedges_won), (1, 1), "{stats:?}");
        assert!(stats.iter().all(|s| s.in_flight == 0), "{stats:?}");
    }

    #[test]
    fn hedge_gate_veto_and_permit_semantics() {
        // The pool's hedges fit into a real call-slot pool of one slot. The
        // slow member answers its warm-up in 2ms and then stalls for 30, so
        // each stall is unexpected: its estimate stays under the 3ms
        // threshold (a beaten flight adds a 4ms lower bound, no more).
        let (backends, pool) =
            adjustable_pool(&[("slow", 2), ("fast", 1)], RoutingPolicy::RoundRobin);
        let pool = pool.with_backoff_base_ms(0.0).with_hedging(3.0, 1.0);
        let slots = Arc::new(CallSlots::new(1));
        pool.set_hedge_slots(Some(Arc::clone(&slots)));
        let t0 = epoch(&pool);
        let (_, now) = send(&pool, "w0", t0); // -> slow
        let (_, now) = send(&pool, "w1", now); // -> fast
        backends[0].set_delay(30);

        // Free: the hedge takes the slot when it fires, holds it for its whole
        // flight and gives it back when the call resolves.
        let mut call = pool.submit_call(&CompletionRequest::new("hedged"));
        assert!(call.poll(now).is_none());
        assert_eq!(
            slots.in_use(),
            0,
            "a slot is taken only when the hedge fires"
        );
        assert!(call.poll(now + ms(3)).is_none());
        assert_eq!(slots.in_use(), 1, "the hedge holds a slot while in flight");
        let (resp, at) = run(&mut call, now + ms(3));
        assert_eq!(resp.unwrap().text, "m:hedged");
        assert_eq!(at, now + ms(4));
        assert_eq!(slots.in_use(), 0, "the hedge's slot outlived it");
        assert_eq!(total_hedges(&pool), 1);

        // Round-robin parity: this filler lands on the fast backend (no
        // hedge), so the next request starts on the slow one again.
        let (_, now) = send(&pool, "filler", at);

        // Saturated: the late primary is simply waited out; no hedge.
        let held = slots.try_acquire_owned().unwrap();
        let (resp, at) = send(&pool, "vetoed", now);
        assert_eq!(resp.unwrap().text, "m:vetoed");
        assert_eq!(at, now + ms(30), "a vetoed hedge must not shorten the call");
        assert_eq!(
            total_hedges(&pool),
            1,
            "a saturated pool must veto the hedge"
        );
        assert_eq!(slots.in_use(), 1);
        drop(held);
    }

    #[test]
    fn hedged_dispatch_still_fails_over_on_errors() {
        // Primary errors fast (before the hedge threshold): the request
        // fails over across the remaining candidates like the plain walk.
        let (_, pool) = pool_over(
            &[spec("down").failing(), spec("up").with_latency_ms(1.0)],
            RoutingPolicy::CostAware, // static order: down first
        );
        let pool = pool.with_hedging(3.0, 50.0);
        let t0 = epoch(&pool);
        // Warm the healthy backend so hedge planning has a sample (the first
        // request fails over to it through the plain walk).
        let (resp, t1) = send(&pool, "warm", t0);
        assert_eq!(resp.unwrap().text, "m:warm");
        assert_eq!(t1, t0 + ms(1));
        // Now hedged dispatch is viable; the primary still errors at once and
        // failover must still reach the healthy sibling.
        let (resp, t2) = send(&pool, "x", t1);
        assert_eq!(resp.unwrap().text, "m:x");
        assert_eq!(t2, t1 + ms(1));
        let down = &pool.stats()[0];
        assert_eq!(down.errors, 4);
        assert_eq!(total_hedges(&pool), 0);
    }

    #[test]
    fn failover_trace_matches_the_pinned_counters() {
        // A hard-down, a 50%-flaky and a healthy backend in static order:
        // every prompt is answered, and the per-backend physical counters
        // are the deterministic failover trace — pinned, so a change to the
        // walk (retry count, failover order, attempt numbering) shows up.
        let prompts: Vec<String> = (0..8).map(|i| format!("p{i}")).collect();
        let specs = [
            spec("down").failing(),
            spec("flaky").with_error_rate(0.5),
            spec("up"),
        ];
        let (_, pool) = pool_over(&specs, RoutingPolicy::CostAware);
        for p in &prompts {
            let resp = pool.complete(&CompletionRequest::new(p.clone())).unwrap();
            assert_eq!(resp.text, format!("m:{p}"));
        }
        let trace: Vec<(String, u64, u64, u64)> = pool
            .stats()
            .into_iter()
            .map(|s| {
                assert_eq!(s.in_flight, 0);
                (s.id, s.calls, s.errors, s.retries)
            })
            .collect();
        assert_eq!(
            trace,
            vec![
                ("down".to_string(), 16, 16, 8),
                ("flaky".to_string(), 10, 4, 2),
                ("up".to_string(), 2, 0, 0),
            ]
        );
    }

    #[test]
    fn timer_armed_hedge_rescues_a_one_off_stall() {
        // A usually-fast primary (EWMA well under the hedge threshold) stalls
        // once. Every hedgeable request arms a timer, so the stall is rescued
        // by the sibling: a parallelism-1 scan or the first wave of a ramp is
        // protected like any other request.
        let (backends, pool) = adjustable_pool(
            &[("a", 2), ("b", 2)],
            RoutingPolicy::CostAware, // static order: a is always primary
        );
        let pool = pool.with_backoff_base_ms(0.0).with_hedging(4.0, 1.0);
        let mut now = epoch(&pool);
        // Warm the primary (a 2ms EWMA; hedge threshold 8ms). A fast primary
        // that stays fast is never hedged: it resolves before its timer.
        for prompt in ["w0", "w1", "fastpath"] {
            let (_, at) = send(&pool, prompt, now);
            assert_eq!(at, now + ms(2));
            now = at;
        }
        assert_eq!(total_hedges(&pool), 0);

        // One-off stall: 60ms on a backend whose EWMA says 2ms. The call
        // resolves at first launch + hedge threshold + the sibling's RTT.
        backends[0].set_delay(60);
        let (resp, at) = send(&pool, "stall", now);
        assert_eq!(resp.unwrap().text, "m:stall");
        assert_eq!(at, now + ms(8) + ms(2), "stall was not hedged away");
        let stats = pool.stats();
        assert_eq!((stats[1].hedges, stats[1].hedges_won), (1, 1), "{stats:?}");
        assert!(
            stats.iter().all(|s| s.in_flight == 0),
            "gauge leak: {stats:?}"
        );
    }

    #[test]
    fn hedged_failover_lands_on_the_fastest_sibling_not_the_next_in_rotation() {
        // The primary is hard down and fails at once, before its hedge timer
        // fires; its rotation successor is 40× slower than the two others.
        // Failover must follow health, not registration order.
        let (_, pool) = pool_over(
            &[
                spec("b0").failing(),
                spec("b1").with_latency_ms(40.0),
                spec("b2").with_latency_ms(1.0),
                spec("b3").with_latency_ms(1.0),
            ],
            RoutingPolicy::CostAware, // static order: b0 is always primary
        );
        let pool = pool.with_hedging(3.0, 1.0);
        let t0 = epoch(&pool);
        for (slot, ms) in [(1, 40.0), (2, 1.0), (3, 1.0)] {
            warm(&pool, slot, ms, t0);
        }
        let (resp, at) = send(&pool, "x", t0);
        assert_eq!(resp.unwrap().text, "m:x");
        let calls: Vec<u64> = pool.stats().iter().map(|s| s.calls).collect();
        assert_eq!(
            calls,
            vec![2, 0, 1, 0],
            "failover skipped the fast siblings"
        );
        assert_eq!(at, t0 + ms(1), "failover landed on the slow backend");
    }

    #[test]
    fn the_hedge_goes_to_the_first_closed_candidate_of_the_sorted_walk() {
        // Registration order b0..b3; b2 is the fastest but breaker-open, b3
        // is faster than b1. The first poll keeps the primary and sorts the
        // rest: b0, b3, b1, b2 — and a stall on b0 is hedged to b3.
        let (_, pool) = adjustable_pool(
            &[("b0", 60), ("b1", 3), ("b2", 1), ("b3", 2)],
            RoutingPolicy::CostAware,
        );
        let pool = pool.with_breaker(3, 60_000.0).with_hedging(3.0, 1.0);
        let t0 = epoch(&pool);
        for (slot, ms) in [(0, 1.0), (1, 3.0), (2, 0.5), (3, 2.0)] {
            warm(&pool, slot, ms, t0);
        }
        trip(&pool, 2, t0);
        let mut call = pool.submit_call(&CompletionRequest::new("stall"));
        assert!(call.poll(t0).is_none());
        let walk: Vec<&str> = call.cands.iter().map(|c| c.member.backend.id()).collect();
        assert_eq!(walk, ["b0", "b3", "b1", "b2"]);
        // Late at 3 × the closed floor (b0's 1ms); b3 answers 2ms later.
        let (resp, at) = run(&mut call, t0);
        assert_eq!(resp.unwrap().text, "m:stall");
        assert_eq!(at, t0 + ms(3) + ms(2));
        let hedges: Vec<u64> = pool.stats().iter().map(|s| s.hedges).collect();
        assert_eq!(hedges, vec![0, 0, 0, 1], "{:?}", pool.stats());
    }

    #[test]
    fn a_known_late_primary_sends_its_one_attempt_to_the_healthiest_sibling() {
        // The primary's estimate (40ms) is already past the hedge threshold
        // (3 × b2's 1ms): launching it first would buy a doomed flight plus a
        // hedge. It takes its place in health order instead, and the call's
        // one attempt goes to b2, answered at b2's latency with no hedge.
        let (_, pool) = adjustable_pool(
            &[("b0", 40), ("b1", 3), ("b2", 1), ("b3", 2)],
            RoutingPolicy::CostAware, // static order: b0 is the primary
        );
        let pool = pool.with_hedging(3.0, 1.0);
        let t0 = epoch(&pool);
        for (slot, ms) in [(0, 40.0), (1, 3.0), (2, 1.0), (3, 2.0)] {
            warm(&pool, slot, ms, t0);
        }
        let mut call = pool.submit_call(&CompletionRequest::new("x"));
        assert!(call.poll(t0).is_none());
        let walk: Vec<&str> = call.cands.iter().map(|c| c.member.backend.id()).collect();
        assert_eq!(walk, ["b2", "b3", "b1", "b0"]);
        let (resp, at) = run(&mut call, t0);
        assert_eq!(resp.unwrap().text, "m:x");
        assert_eq!(at, t0 + ms(1), "the known-late primary launched first");
        let calls: Vec<u64> = pool.stats().iter().map(|s| s.calls).collect();
        assert_eq!(calls, [0, 0, 1, 0]);
        assert_eq!(total_hedges(&pool), 0);
    }

    #[test]
    fn a_fast_member_that_fails_three_attempts_in_four_sorts_behind_a_healthy_slower_one() {
        // `flaky` answers in 1ms but fails 3 attempts in 4, so a success
        // there is expected to take 1 / (1 − share) ms — more than `steady`'s
        // 2.5ms. The primary's breaker is open, so the call's first launch is
        // the head of the health order: `steady`, answered at 2.5ms.
        let (_, pool) = pool_over(
            &[
                spec("primary").with_latency_ms(1.0),
                spec("flaky").with_latency_ms(1.0),
                spec("steady").with_latency_ms(2.5),
            ],
            RoutingPolicy::CostAware, // static order: primary first
        );
        let pool = pool.with_breaker(3, 60_000.0).with_hedging(3.0, 1.0);
        let t0 = epoch(&pool);
        for (slot, ms) in [(0, 1.0), (1, 1.0), (2, 2.5)] {
            warm(&pool, slot, ms, t0);
        }
        let flaky = &pool.members[1];
        for _ in 0..4 {
            flaky.record_success(1.0, 1.0, 0);
            for _ in 0..3 {
                flaky.record_error(0, 0, 0.0, false);
            }
        }
        let expected = flaky.expected_ms(0).unwrap();
        assert!(expected > 2.5, "flaky expects {expected}ms per success");
        trip(&pool, 0, t0);
        let mut call = pool.submit_call(&CompletionRequest::new("x"));
        assert!(call.poll(t0).is_none());
        let walk: Vec<&str> = call.cands.iter().map(|c| c.member.backend.id()).collect();
        assert_eq!(walk, ["primary", "steady", "flaky"]);
        let (resp, at) = run(&mut call, t0);
        assert_eq!(resp.unwrap().text, "m:x");
        assert_eq!(at, t0 + Duration::from_micros(2_500));
        let calls: Vec<u64> = pool.stats().iter().map(|s| s.calls).collect();
        assert_eq!(calls, [0, 0, 1]);
    }

    #[test]
    fn a_diverted_primary_takes_its_prompts_back_once_its_estimate_decays() {
        // b0 once measured 12ms, past the 3ms threshold (3 × b1's 1ms), so
        // its prompts go to b1, which keeps sampling itself fresh. b0 gets no
        // samples while diverted, so its estimate halves every 2s; the first
        // call after it falls under the threshold launches on b0 again.
        let (_, pool) = adjustable_pool(&[("b0", 2), ("b1", 1)], RoutingPolicy::CostAware);
        let pool = pool.with_hedging(3.0, 1.0);
        let t0 = epoch(&pool);
        warm(&pool, 0, 12.0, t0);
        warm(&pool, 1, 1.0, t0);
        let (mut now, mut diverted) = (t0, 0);
        loop {
            let late = ewma_at(&pool, 0, now).unwrap() > 3.0 * ewma_at(&pool, 1, now).unwrap();
            let before = pool.stats()[0].calls;
            let prompt = format!("p{diverted}");
            let (resp, at) = send(&pool, &prompt, now);
            assert_eq!(resp.unwrap().text, format!("m:{prompt}"));
            let on_b0 = pool.stats()[0].calls > before;
            assert_eq!(on_b0, !late, "{prompt} at {:?}", now - t0);
            assert_eq!(at, now + ms(if on_b0 { 2 } else { 1 }));
            if on_b0 {
                break;
            }
            diverted += 1;
            now = at + ms(250);
        }
        // 12ms falls under 3 × b1's 250ms-idle 1ms (2.75ms) after 4.25s:
        // the 18th call, at 17 × 251ms.
        assert_eq!((diverted, now - t0), (17, ms(17 * 251)));
        // b0's sample replaced the stale estimate: the next call stays.
        let (_, at) = send(&pool, "again", now + ms(2 + 250));
        assert_eq!(at, now + ms(2 + 250 + 2));
        assert_eq!(total_hedges(&pool), 0);
    }

    #[test]
    fn a_short_circuited_primary_still_has_its_first_launch_hedged() {
        // The primary's breaker is open, so the walk's first launch is the
        // healthiest sibling — which stalls this once. The hedge timer must
        // cover that launch, not give up because the primary is skipped.
        let (_, pool) = adjustable_pool(
            &[("b0", 1), ("b1", 60), ("b2", 2)],
            RoutingPolicy::CostAware,
        );
        let pool = pool.with_breaker(3, 60_000.0).with_hedging(3.0, 1.0);
        let t0 = epoch(&pool);
        for (slot, ms) in [(0, 1.0), (1, 1.0), (2, 2.0)] {
            warm(&pool, slot, ms, t0);
        }
        trip(&pool, 0, t0);
        let (resp, at) = send(&pool, "stall", t0);
        assert_eq!(resp.unwrap().text, "m:stall");
        // Late at 3 × b1's 1ms; b2 answers 2ms later.
        assert_eq!(
            at,
            t0 + ms(3) + ms(2),
            "the stalled first launch was not hedged"
        );
        let stats = pool.stats();
        assert_eq!(stats[0].calls, 0, "{stats:?}");
        assert_eq!((stats[2].hedges, stats[2].hedges_won), (1, 1), "{stats:?}");
        assert!(stats.iter().all(|s| s.in_flight == 0), "{stats:?}");
    }

    #[test]
    fn a_flight_beaten_by_its_hedge_still_yields_a_latency_sample() {
        // Latency-aware routing explores an unsampled member first. If that
        // member is slow, its request is hedged away and cancelled — and were
        // the cancelled flight to leave no sample, the member would stay
        // unsampled and be explored first (and hedged away) forever.
        let (_, pool) = adjustable_pool(&[("fast", 2), ("slow", 60)], RoutingPolicy::LatencyAware);
        let pool = pool.with_hedging(4.0, 1.0);
        let t0 = epoch(&pool);
        // Cold pool: registration order, so `fast` is sampled first (2ms).
        let (_, t1) = send(&pool, "w0", t0);
        assert_eq!(t1, t0 + ms(2));
        // `slow` is explored, goes late at 8ms and loses to the hedge, which
        // answers at 10ms: the beaten flight had taken 10ms by then.
        let (_, t2) = send(&pool, "w1", t1);
        assert_eq!(t2, t1 + ms(10));
        let stats = pool.stats();
        assert_eq!((stats[1].calls, stats[0].hedges_won), (1, 1), "{stats:?}");
        let slow = ewma_at(&pool, 1, t2).unwrap();
        assert!((slow - 10.0).abs() < 1e-9, "beaten flight sampled {slow}ms");
        // Steady state: traffic now prefers the measured-fast member.
        let mut now = t2;
        for i in 0..3 {
            let (_, at) = send(&pool, &format!("p{i}"), now);
            assert_eq!(at, now + ms(2));
            now = at;
        }
        let stats = pool.stats();
        assert_eq!(
            stats[1].calls, 1,
            "slow member was explored again: {stats:?}"
        );
        assert!(stats.iter().all(|s| s.in_flight == 0), "{stats:?}");
    }

    #[test]
    fn hedge_timer_vs_primary_completion_races_stay_consistent() {
        // The primary's delay cycles 2..6ms around a 4ms threshold (the
        // floor), so across many calls some are won by the primary, some by
        // the hedge, and some timers fire at the very instant the primary
        // answers. Each call comes after 20s of idling, so every estimate
        // has decayed far below the threshold: the primary's lateness is
        // never expected, and it always launches first. Whatever happens:
        // the response text is always correct, no call outlasts its
        // primary, slots never leak, counters stay consistent and gauges
        // drain to zero.
        let (backends, pool) = adjustable_pool(&[("p", 2), ("s", 2)], RoutingPolicy::CostAware);
        let pool = pool.with_backoff_base_ms(0.0).with_hedging(1.0, 4.0);
        let slots = Arc::new(CallSlots::new(4));
        pool.set_hedge_slots(Some(Arc::clone(&slots)));
        let idle = ms(10 * 2_000);
        let mut now = epoch(&pool);
        for prompt in ["warm-p", "warm-s"] {
            now = send(&pool, prompt, now).1 + idle;
        }
        for i in 0..60u64 {
            let delay = 2 + (i % 5);
            backends[0].set_delay(delay);
            let prompt = format!("race-{i}");
            let (resp, at) = send(&pool, &prompt, now);
            assert_eq!(resp.unwrap().text, format!("m:{prompt}"));
            assert!(at <= now + ms(delay), "race-{i} outlasted its primary");
            assert_eq!(slots.in_use(), 0, "race-{i} leaked its hedge's slot");
            now = at + idle;
        }
        let stats = pool.stats();
        let hedges: u64 = stats.iter().map(|s| s.hedges).sum();
        let hedges_won: u64 = stats.iter().map(|s| s.hedges_won).sum();
        assert!(hedges_won >= 1 && hedges_won < hedges, "{stats:?}");
        assert_eq!(stats[0].calls, 2 + 60, "a primary was diverted: {stats:?}");
        assert!(
            stats.iter().all(|s| s.in_flight == 0),
            "gauge leak: {stats:?}"
        );
        assert!(stats.iter().all(|s| s.errors == 0));
    }

    #[test]
    fn dropping_a_pool_call_mid_flight_releases_gauges_and_probe_flags() {
        // Cancellation-by-drop: abandon calls at various stages and verify
        // nothing sticks — in-flight gauges, a hedge's call slot, probe claims.
        let in_flight =
            |pool: &BackendPool| -> Vec<u64> { pool.stats().iter().map(|s| s.in_flight).collect() };
        let (_, pool) = adjustable_pool(&[("slow", 50), ("fast", 50)], RoutingPolicy::CostAware);
        let pool = pool.with_hedging(1.0, 1.0);
        let slots = Arc::new(CallSlots::new(2));
        pool.set_hedge_slots(Some(Arc::clone(&slots)));
        let t0 = epoch(&pool);

        // In flight, never polled to completion — then dropped.
        let mut call = pool.submit_call(&CompletionRequest::new("abandoned"));
        assert!(call.poll(t0).is_none());
        assert_eq!(in_flight(&pool), [1, 0]);
        drop(call);
        assert_eq!(in_flight(&pool), [0, 0], "abandoned call leaked its gauge");

        // Walk and hedge both in flight, the hedge holding a call slot.
        warm(&pool, 1, 1.0, t0);
        let mut call = pool.submit_call(&CompletionRequest::new("hedged"));
        assert!(call.poll(t0).is_none());
        assert!(call.poll(t0 + ms(1)).is_none());
        assert_eq!(in_flight(&pool), [1, 1]);
        assert_eq!(slots.in_use(), 1);
        drop(call);
        assert_eq!(in_flight(&pool), [0, 0], "abandoned hedge leaked its gauge");
        assert_eq!(slots.in_use(), 0, "abandoned hedge leaked its call slot");

        // A half-open probe in flight: dropping it re-expires the cooldown, so
        // the next call probes at once instead of short-circuiting forever.
        let (_, pool) = adjustable_pool(&[("b0", 50), ("b1", 1)], RoutingPolicy::CostAware);
        let pool = pool.with_breaker(1, 10.0);
        let t0 = epoch(&pool);
        pool.members[0].breaker.open(0, 10.0);
        let mut probe = pool.submit_call(&CompletionRequest::new("probe"));
        assert!(probe.poll(t0 + ms(10)).is_none());
        assert_eq!(in_flight(&pool), [1, 0]);
        drop(probe);
        assert_eq!(in_flight(&pool), [0, 0]);
        let mut again = pool.submit_call(&CompletionRequest::new("again"));
        assert!(again.poll(t0 + ms(10)).is_none());
        assert_eq!(
            pool.stats()[0].calls,
            2,
            "the dropped probe wedged the breaker"
        );
    }

    #[test]
    fn latency_decay_lets_a_recovered_backend_reattract_traffic() {
        // The LatencyAware cold-trap regression: a backend that *was* slow
        // keeps a scary EWMA while it is fresh, so it receives no traffic and
        // cannot prove it recovered. Read-side decay lets its estimate drift
        // down while it idles; after a few half-lives routing re-probes it and
        // the fresh sample restores it to contention.
        let (backends, pool) = adjustable_pool(
            &[("was-slow", 30), ("steady", 2)],
            RoutingPolicy::LatencyAware,
        );
        let mut now = epoch(&pool);
        // Cold exploration samples both: was-slow 30ms, steady 2ms.
        for prompt in ["w0", "w1"] {
            now = send(&pool, prompt, now).1;
        }
        assert_eq!(pool.stats()[0].calls, 1);
        backends[0].set_delay(2);
        // While its 30ms estimate is fresh, the recovered backend is starved.
        for i in 0..10 {
            now = send(&pool, &format!("fresh{i}"), now).1;
        }
        assert_eq!(
            pool.stats()[0].calls,
            1,
            "a fresh estimate must still repel"
        );
        // The pool idles five half-lives: nothing refreshes either estimate,
        // and both decay. Steady's next sample is fresh; was-slow's decayed
        // 30ms now reads under it, so the request after that re-probes it.
        now += ms(5 * 2_000);
        for i in 0..10 {
            now = send(&pool, &format!("idle{i}"), now).1;
        }
        assert!(
            pool.stats()[0].calls >= 2,
            "recovered backend was never re-probed; decay must restore it to contention"
        );
        assert_eq!(ewma_at(&pool, 0, now).map(f64::round), Some(2.0));
    }

    #[test]
    fn least_in_flight_balances_under_concurrency() {
        // Two slow backends, four requests in flight at once: each is routed
        // when it is submitted, and its first poll (an event loop's admission)
        // launches it, so least-in-flight must use both — round robin would
        // too, but a broken policy sending all four to one backend is what
        // this guards against.
        let specs = [
            spec("s1").with_latency_ms(20.0),
            spec("s2").with_latency_ms(20.0),
        ];
        let (_, pool) = pool_over(&specs, RoutingPolicy::LeastInFlight);
        let t0 = epoch(&pool);
        let mut calls: Vec<PoolCall> = (0..4)
            .map(|i| {
                let mut call = pool.submit_call(&CompletionRequest::new(format!("p{i}")));
                assert!(call.poll(t0).is_none());
                call
            })
            .collect();
        for call in &mut calls {
            let (resp, at) = run(call, t0);
            assert!(resp.is_ok());
            assert_eq!(at, t0 + ms(20));
        }
        let stats = pool.stats();
        assert_eq!(
            stats.iter().map(|s| s.calls).collect::<Vec<_>>(),
            [2, 2],
            "least-in-flight left a backend idle: {stats:?}"
        );
        assert!(stats.iter().all(|s| s.latency_ms > 0.0));
    }

    /// One case of [`the_walk_keeps_its_invariants_on_synthetic_time`].
    #[derive(Debug)]
    struct WalkCase {
        /// `PromptHash` or `LatencyAware`.
        policy: RoutingPolicy,
        /// Per backend: round trip (ms) and error rate.
        backends: Vec<(u64, f64)>,
        retries: usize,
        breaker: bool,
        hedging: bool,
        /// `None`: hedges are not gated; `Some(saturated)`: a pool of one call
        /// slot, held by the test throughout when saturated.
        slots: Option<bool>,
        /// The call dropped, and after how many polls.
        dropped: (usize, usize),
    }

    impl WalkCase {
        const CALLS: usize = 6;

        fn draw(seed: u64) -> WalkCase {
            const ERROR_RATES: [f64; 4] = [0.0, 0.3, 0.6, 1.0];
            let mut rng = proptest::test_runner::TestRng::from_name(&format!("walk {seed}"));
            let backends = (0..2 + rng.below(3))
                .map(|_| (rng.below(6) as u64, ERROR_RATES[rng.below(4)]))
                .collect();
            // The policy is drawn last, so a `PromptHash` case is the case
            // its seed drew before there was a choice.
            WalkCase {
                backends,
                retries: rng.below(3),
                breaker: rng.below(2) == 1,
                hedging: rng.below(2) == 1,
                slots: [None, Some(false), Some(true)][rng.below(3)],
                dropped: (rng.below(Self::CALLS), rng.below(4)),
                policy: [RoutingPolicy::PromptHash, RoutingPolicy::LatencyAware][rng.below(2)],
            }
        }

        /// Run the case's calls one after another on synthetic time, checking
        /// the walk's invariants after every poll. Returns when each call
        /// resolved (`None`: dropped) relative to the pool's epoch, and the
        /// pool's counters at the end.
        fn run(&self) -> (Vec<Option<(bool, Duration)>>, Vec<BackendStats>) {
            let specs: Vec<BackendSpec> = self
                .backends
                .iter()
                .enumerate()
                .map(|(i, &(rtt, error_rate))| {
                    spec(&format!("b{i}"))
                        .with_latency_ms(rtt as f64)
                        .with_error_rate(error_rate)
                })
                .collect();
            let (_, mut pool) = pool_over(&specs, self.policy);
            pool = pool.with_retries(self.retries).with_backoff_base_ms(0.5);
            if self.breaker {
                pool = pool.with_breaker(2, 5.0);
            }
            if self.hedging {
                pool = pool.with_hedging(2.0, 1.0);
            }
            let slots = self.slots.map(|_| Arc::new(CallSlots::new(1)));
            pool.set_hedge_slots(slots.clone());
            let saturating = slots
                .as_ref()
                .filter(|_| self.slots == Some(true))
                .map(|slots| slots.try_acquire_owned().unwrap());
            let held = usize::from(saturating.is_some());
            // I4: nothing in flight and no slot but the test's own.
            let drained = |at: &str| {
                let stats = pool.stats();
                assert!(
                    stats.iter().all(|s| s.in_flight == 0),
                    "{self:?} {at}: {stats:?}"
                );
                if let Some(slots) = &slots {
                    assert_eq!(slots.in_use(), held, "{self:?} {at}");
                }
            };
            let some_backend_never_fails = self.backends.iter().any(|&(_, rate)| rate == 0.0);
            let max_attempts = (self.backends.len() * (1 + self.retries) + 1) as u64;

            let t0 = epoch(&pool);
            let mut now = t0;
            let mut resolved = Vec::new();
            for i in 0..Self::CALLS {
                let prompt = format!("p{i}");
                let mut call = pool.submit_call(&CompletionRequest::new(prompt.clone()));
                let policy_order = walk_of(&call);
                let head = walk_head(&pool, &call, now);
                let health = health_order(&pool, now);
                let mut outcome = None;
                for step in 0..10_000 {
                    if (i, step) == self.dropped {
                        break;
                    }
                    outcome = call.poll(now);
                    if step == 0 {
                        // The walk starts at the policy's primary unless
                        // hedging is on and the pool expects it to be late;
                        // with hedging off it is the policy's order verbatim.
                        // Latency-aware, it is the health order.
                        let walk = walk_of(&call);
                        assert_eq!(walk[0], head, "{self:?}: call {i}");
                        if self.policy == RoutingPolicy::LatencyAware {
                            assert_eq!(walk, health, "{self:?}: call {i}");
                        } else if !self.hedging {
                            assert_eq!(walk, policy_order, "{self:?}");
                        }
                    }
                    let (mut attempts, mut hedges, mut latency_ms) = (0, 0, 0.0);
                    call.backend_receipts(&mut |_, receipt| {
                        attempts += receipt.calls;
                        hedges += receipt.hedges;
                        latency_ms += receipt.latency_ms;
                    });
                    assert!(attempts <= max_attempts, "{self:?}: {attempts} attempts");
                    assert!(hedges <= 1, "{self:?}: {hedges} hedges");
                    // What `health_order` counts a success by.
                    if let Some(Ok(_)) = &outcome {
                        assert!(latency_ms > 0.0, "{self:?}: a success reported no latency");
                    }
                    if outcome.is_some() {
                        drained("at resolution");
                        break;
                    }
                    now = call.next_wakeup(now).map_or(now, |wake| now.max(wake));
                }
                drop(call);
                drained("after drop");
                match &outcome {
                    Some(Ok(response)) => assert_eq!(response.text, format!("m:{prompt}")),
                    Some(Err(err)) => assert!(!some_backend_never_fails, "{self:?}: {err}"),
                    None => {}
                }
                resolved.push(outcome.map(|result| (result.is_ok(), now - t0)));
                now += ms(1);
            }
            (resolved, pool.stats())
        }
    }

    /// The backends of `call`'s walk, in order.
    fn walk_of(call: &PoolCall) -> Vec<String> {
        call.cands
            .iter()
            .map(|c| c.member.backend.id().to_string())
            .collect()
    }

    /// The pool's members in health order at `now`: least (breaker open,
    /// expected time to a success, registration index) first, and a member
    /// without a success last — except that under `LatencyAware` one that no
    /// attempt has resolved on comes first. Which those are is read off the
    /// pool's public counters, not the failure share `Member::untried` reads:
    /// a failed attempt counts an error, and a successful one adds its
    /// reported latency, which is positive (`WalkCase::run` checks that every
    /// success's is).
    fn health_order(pool: &BackendPool, now: Instant) -> Vec<String> {
        let now_ms = pool.settings.ms(now);
        let explore = pool.settings.policy == RoutingPolicy::LatencyAware;
        let stats = pool.stats();
        let mut keyed: Vec<_> = pool
            .members
            .iter()
            .enumerate()
            .map(|(index, m)| {
                let expected_ms = m.expected_ms(now_ms);
                let resolved = stats[index].errors > 0 || stats[index].latency_ms > 0.0;
                let explored_first = explore && expected_ms.is_none() && !resolved;
                let key = (
                    !m.breaker_closed(),
                    !explored_first,
                    expected_ms.unwrap_or(f64::INFINITY),
                    index,
                );
                (key, m.backend.id().to_string())
            })
            .collect();
        keyed.sort_by(|(a, _), (b, _)| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(a.2.total_cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        keyed.into_iter().map(|(_, id)| id).collect()
    }

    /// Where `call`'s first poll at `now` must start its walk. Latency-aware:
    /// at the head of the health order. Otherwise at the policy's primary,
    /// unless it is known-late — hedging on, at least two closed members,
    /// one sampled, and the primary closed with an expected time past
    /// `multiplier × the lowest closed estimate` (floored at `min_ms`). Then
    /// the walk is in health order too.
    fn walk_head(pool: &BackendPool, call: &PoolCall, now: Instant) -> String {
        let settings = &pool.settings;
        let now_ms = settings.ms(now);
        let closed: Vec<&Member> = pool
            .members
            .iter()
            .filter(|m| m.breaker_closed())
            .map(|m| &**m)
            .collect();
        let floor_ms = closed
            .iter()
            .filter_map(|m| m.decayed_ewma(now_ms))
            .fold(f64::INFINITY, f64::min);
        let primary = &call.cands[0].member;
        let late = settings.hedge_multiplier > 0.0
            && closed.len() >= 2
            && floor_ms.is_finite()
            && primary.breaker_closed()
            && primary.expected_ms(now_ms).is_some_and(|expected_ms| {
                expected_ms > (settings.hedge_multiplier * floor_ms).max(settings.hedge_min_ms)
            });
        if settings.policy != RoutingPolicy::LatencyAware && !late {
            return primary.backend.id().to_string();
        }
        health_order(pool, now).swap_remove(0)
    }

    #[test]
    fn the_walk_keeps_its_invariants_on_synthetic_time() {
        // Seeded cases under `PromptHash` or `LatencyAware` over 2–4
        // backends with random round trips and error rates, 0–2 retries,
        // breaker and hedging on or off, hedges gated by a free or saturated
        // call slot or not at all, and one call dropped at a random poll.
        // Within a case: the first poll's walk is where `walk_head` says it
        // starts (and, latency-aware, the whole `health_order`); a call
        // answers with the model's text
        // whenever some backend cannot fail, spends at most
        // `backends × (1 + retries) + 1` attempts and one hedge, and leaves no
        // gauge or slot behind, resolved or dropped. Across two runs of a
        // case: every call resolves at the same instant, with identical
        // counters — time is the polls' and nothing else's.
        for seed in 0..384 {
            let case = WalkCase::draw(seed);
            let first = case.run();
            assert_eq!(first, case.run(), "{case:?} is not deterministic");
        }
    }
}
