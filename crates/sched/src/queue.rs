//! The scheduler's queue: plain data that three transitions change —
//! [`Queue::admit`], [`Queue::pick`] and [`Queue::finish`] — each at the
//! instant it is handed. It reads no clock, spawns no thread and takes no
//! lock; the shell (`scheduler.rs`) holds it under one mutex, and a test
//! drives it on synthetic instants. Every transition keeps the counters
//! exact: `rejected` counts the rejections handed out, `submitted` the
//! admissions, `completed` the jobs finished or cancelled, and `queued` the
//! admitted jobs not yet picked.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use llmsql_types::{AtomicEwmaMs, Error, Priority, Result, SchedConfig, SchedPolicy, TenantId};

use crate::ratelimit::TenantLimiter;
use crate::SchedStats;

/// A query asking to be admitted; `P` is what the shell runs it with.
pub(crate) struct Submission<P> {
    pub(crate) tenant: TenantId,
    pub(crate) priority: Priority,
    /// Per-query deadline in milliseconds from admission, when one was given.
    pub(crate) deadline_ms: Option<f64>,
    pub(crate) payload: P,
}

/// One admitted query, with its admission ordinal (the ticket id, the FIFO
/// key and every tiebreaker) and instant.
pub(crate) struct Job<P> {
    pub(crate) seq: u64,
    pub(crate) admitted: Instant,
    pub(crate) submission: Submission<P>,
}

/// What [`Queue::pick`] took off the queue, with the milliseconds it queued.
pub(crate) enum Pick<P> {
    /// Run the job, within what is left of its deadline if it has one.
    Run(Job<P>, f64, Option<f64>),
    /// The job's deadline passed while it queued: it was finished unexecuted
    /// with this error, as this completion ordinal.
    Cancelled(Job<P>, f64, Error, u64),
}

/// The admission queue and everything the scheduler counts about it.
pub(crate) struct Queue<P> {
    config: SchedConfig,
    /// Origin of the token buckets' millisecond clock.
    epoch: Instant,
    /// Admitted jobs in admission order (`seq` ascending).
    jobs: VecDeque<Job<P>>,
    /// Queued jobs per tenant, for the per-tenant cap.
    queued_per_tenant: BTreeMap<TenantId, usize>,
    /// Token buckets of the tenants with a rate limit, built at first sight.
    limiters: BTreeMap<TenantId, TenantLimiter>,
    /// EWMA of completed-query run time, milliseconds.
    run_ewma: AtomicEwmaMs,
    /// Every counter. `tenant_calls` doubles as the weighted-fair deficit:
    /// the calls charged to each tenant so far.
    stats: SchedStats,
}

impl<P> Queue<P> {
    /// An empty queue whose token buckets count milliseconds from `now`.
    pub(crate) fn new(config: SchedConfig, now: Instant) -> Self {
        Queue {
            config,
            epoch: now,
            jobs: VecDeque::new(),
            queued_per_tenant: BTreeMap::new(),
            limiters: BTreeMap::new(),
            run_ewma: AtomicEwmaMs::new(),
            stats: SchedStats {
                submitted: 0,
                rejected: 0,
                completed: 0,
                queued: 0,
                slot_capacity: 0,
                peak_slots_in_use: 0,
                total_slot_wait_ms: 0.0,
                tenant_calls: BTreeMap::new(),
                deadline_rejected: 0,
                deadline_expired: 0,
                shed: 0,
                throttled: 0,
                coalesced_calls: 0,
                batched_rows: 0,
            },
        }
    }

    /// The counters as of the last transition; the slot fields are the
    /// shell's to fill.
    pub(crate) fn stats(&self) -> SchedStats {
        SchedStats {
            queued: self.jobs.len(),
            ..self.stats.clone()
        }
    }

    /// Admit `submission` at `now` and return its admission ordinal, or
    /// reject it by the first rule that applies: the tenant's rate limit, the
    /// global queue cap, load shedding, the deadline projection, the tenant's
    /// queue cap. A rejection changes nothing but the counters.
    pub(crate) fn admit(&mut self, submission: Submission<P>, now: Instant) -> Result<u64> {
        let (tenant, priority) = (&submission.tenant, submission.priority);
        // Per-tenant token buckets: the query axis pre-pays one token, the
        // LLM-call axis must hold credit. They are charged on a copy that is
        // kept only if the query is admitted, so a rejection spends nothing.
        let now_ms = self.now_ms(now);
        let mut limiter = self.limiter(tenant, now_ms).cloned();
        if let Some(Err(retry_after_ms)) = limiter.as_mut().map(|l| l.admit(now_ms)) {
            self.stats.throttled += 1;
            let message = format!("tenant '{tenant}' is over its rate limit");
            return self.reject(Error::overloaded(retry_after_ms, message), retry_after_ms);
        }
        let (queued, cap) = (self.jobs.len(), self.config.max_queue_depth);
        let hint = self.retry_hint_ms(queued);
        if queued >= cap {
            let message = format!("admission queue full ({queued} queued, cap {cap})");
            return self.reject(Error::scheduler(message), hint);
        }
        // Deployment-wide load shedding: past either watermark (queue depth,
        // or projected wait), a submission that ranks below the
        // highest-priority queued query is shed.
        let (depth_mark, wait_mark) = (
            self.config.shed_queue_watermark,
            self.config.shed_wait_watermark_ms,
        );
        let wait = self.projected_wait_ms(queued);
        if (depth_mark > 0 && queued >= depth_mark) || (wait_mark > 0.0 && wait >= wait_mark) {
            let top = self.jobs.iter().map(|job| job.submission.priority).max();
            if let Some(top) = top.filter(|&top| priority < top) {
                self.stats.shed += 1;
                let message = format!(
                    "shed at admission: {priority} ranks below the highest queued {top} with \
                     {queued} queued past the load watermark"
                );
                return self.reject(Error::overloaded(hint, message), hint);
            }
        }
        // Queue-aware admission: reject a deadline the projected queue wait
        // alone dooms. Only jobs the policy would surely run first count as
        // ahead — all under FIFO, higher-or-equal priorities under Priority,
        // none under WeightedFair — so no feasible query is rejected.
        if let Some(deadline) = submission.deadline_ms {
            let jobs_ahead = match self.config.policy {
                SchedPolicy::Fifo => queued,
                SchedPolicy::Priority => {
                    let ahead = |job: &&Job<P>| job.submission.priority >= priority;
                    self.jobs.iter().filter(ahead).count()
                }
                SchedPolicy::WeightedFair => 0,
            };
            let wait = self.projected_wait_ms(jobs_ahead);
            if wait > deadline {
                self.stats.deadline_rejected += 1;
                let message = format!(
                    "rejected at admission: projected queue wait {wait:.1}ms ({jobs_ahead} job(s) \
                     ahead over {} workers at ~{:.1}ms per query) exceeds the {deadline:.0}ms \
                     deadline (0 LLM calls issued)",
                    self.config.workers,
                    self.per_query_ms()
                );
                let hint = self.retry_hint_ms(jobs_ahead);
                return self.reject(Error::deadline_exceeded(message), hint);
            }
        }
        let (tenant_queued, cap) = (
            self.queued_per_tenant.get(tenant).copied().unwrap_or(0),
            self.config.tenant_queue_cap,
        );
        if tenant_queued >= cap {
            let message =
                format!("tenant '{tenant}' queue full ({tenant_queued} queued, cap {cap})");
            return self.reject(Error::scheduler(message), self.retry_hint_ms(tenant_queued));
        }
        self.queued_per_tenant
            .insert(tenant.clone(), tenant_queued + 1);
        if let Some(limiter) = limiter {
            self.limiters.insert(tenant.clone(), limiter);
        }
        self.stats.submitted += 1;
        let seq = self.stats.submitted;
        self.jobs.push_back(Job {
            seq,
            admitted: now,
            submission,
        });
        Ok(seq)
    }

    /// Take the next job by the configured policy at `now`; `None` when the
    /// queue is empty. A job whose deadline passed while it queued is not
    /// run: it counts as completed, charges its tenant 1 and comes back
    /// [`Pick::Cancelled`].
    pub(crate) fn pick(&mut self, now: Instant) -> Option<Pick<P>> {
        let jobs = &self.jobs;
        let index = match self.config.policy {
            SchedPolicy::Fifo => 0,
            // Highest priority wins, admission order within a level. This
            // scans the whole queue, so a tenant's later urgent query
            // overtakes its own earlier low-priority ones too.
            SchedPolicy::Priority => {
                let key = |&i: &usize| (jobs[i].submission.priority, Reverse(jobs[i].seq));
                (0..jobs.len()).max_by_key(key)?
            }
            // Deficit scheduling: serve the tenant with the smallest
            // weight-normalized charge (ties by name), its earliest job first.
            SchedPolicy::WeightedFair => {
                let deficit = |tenant: &str| {
                    self.stats.tenant_calls.get(tenant).copied().unwrap_or(0) as f64
                        / self.config.weight_of(tenant) as f64
                };
                (0..jobs.len()).min_by(|&a, &b| {
                    let (a, b) = (&jobs[a].submission.tenant, &jobs[b].submission.tenant);
                    deficit(a).total_cmp(&deficit(b)).then(a.cmp(b))
                })?
            }
        };
        let job = self.jobs.remove(index)?;
        if let Some(queued) = self.queued_per_tenant.get_mut(&job.submission.tenant) {
            *queued -= 1;
        }
        let queue_ms = now.saturating_duration_since(job.admitted).as_secs_f64() * 1000.0;
        match job.submission.deadline_ms {
            Some(deadline_ms) if queue_ms >= deadline_ms => {
                self.stats.deadline_expired += 1;
                let finish_seq = self.complete(&job.submission.tenant, 0);
                let error = Error::deadline_exceeded(format!(
                    "cancelled unexecuted: queued {queue_ms:.1}ms past its {deadline_ms:.0}ms \
                     deadline (0 LLM calls issued)"
                ));
                Some(Pick::Cancelled(job, queue_ms, error, finish_seq))
            }
            deadline_ms => Some(Pick::Run(job, queue_ms, deadline_ms.map(|d| d - queue_ms))),
        }
    }

    /// Record that `job` ran for `run_ms` and issued `calls` logical LLM
    /// calls (`coalesced` of them served by another query's request,
    /// `batched` of them packed), finishing at `now`. Returns its completion
    /// ordinal.
    pub(crate) fn finish(
        &mut self,
        job: &Job<P>,
        calls: u64,
        run_ms: f64,
        coalesced: u64,
        batched: u64,
        now: Instant,
    ) -> u64 {
        self.run_ewma.observe(run_ms);
        self.stats.coalesced_calls += coalesced;
        self.stats.batched_rows += batched;
        // Post-paid rate limiting: the tenant's call bucket is debited with
        // the calls actually consumed; an overdrawn bucket holds its next
        // admissions until the debt drains.
        let now_ms = self.now_ms(now);
        if let Some(limiter) = self.limiter(&job.submission.tenant, now_ms) {
            limiter.charge_calls(now_ms, calls);
        }
        self.complete(&job.submission.tenant, calls)
    }

    /// Count one completion and charge `tenant`'s deficit with `calls`; a
    /// call-free query is charged 1, so spinning cheap queries cannot
    /// monopolize the fair-share rotation for free.
    fn complete(&mut self, tenant: &str, calls: u64) -> u64 {
        *self.stats.tenant_calls.entry(tenant.into()).or_insert(0) += calls.max(1);
        self.stats.completed += 1;
        self.stats.completed
    }

    /// Count a rejection and hand out `error` with its retry-after hint.
    fn reject(&mut self, error: Error, retry_after_ms: u64) -> Result<u64> {
        self.stats.rejected += 1;
        Err(error.with_retry_after(retry_after_ms))
    }

    /// The run-time EWMA, milliseconds; 0 until a query finished (there is
    /// nothing to project from yet).
    fn per_query_ms(&self) -> f64 {
        self.run_ewma.get().unwrap_or(0.0)
    }

    /// Projected time for `jobs` queued jobs to drain: the run-time EWMA ×
    /// jobs over workers.
    fn projected_wait_ms(&self, jobs: usize) -> f64 {
        self.per_query_ms() * (jobs as f64 / self.config.workers as f64)
    }

    /// Retry-after hint for a rejection with `jobs` ahead: the projected
    /// wait rounded up, at least 1 ms.
    fn retry_hint_ms(&self, jobs: usize) -> u64 {
        self.projected_wait_ms(jobs).ceil().max(1.0) as u64
    }

    fn now_ms(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch).as_millis() as u64
    }

    /// `tenant`'s rate limiter, if the configuration gives it one.
    fn limiter(&mut self, tenant: &str, now_ms: u64) -> Option<&mut TenantLimiter> {
        let limit = *self.config.rate_limit_of(tenant)?;
        let fresh = || TenantLimiter::new(limit, now_ms);
        Some(self.limiters.entry(tenant.into()).or_insert_with(fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::{clock, ErrorKind, TenantRateLimit};
    use std::time::Duration;

    /// `ms` milliseconds after `t0`.
    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    fn sub(tenant: &str, priority: Priority) -> Submission<()> {
        Submission {
            tenant: tenant.to_string(),
            priority,
            deadline_ms: None,
            payload: (),
        }
    }

    fn with_deadline(tenant: &str, priority: Priority, deadline_ms: f64) -> Submission<()> {
        Submission {
            deadline_ms: Some(deadline_ms),
            ..sub(tenant, priority)
        }
    }

    /// One worker's step: pick the next job at `now` and finish it there
    /// with `calls` calls after `run_ms`. Returns the job, its queue time and
    /// its completion ordinal.
    fn step(q: &mut Queue<()>, now: Instant, calls: u64, run_ms: f64) -> (Job<()>, f64, u64) {
        match q.pick(now) {
            Some(Pick::Run(job, queue_ms, _)) => {
                let finish_seq = q.finish(&job, calls, run_ms, 0, 0, now);
                (job, queue_ms, finish_seq)
            }
            Some(Pick::Cancelled(job, ..)) => panic!("job {} was cancelled", job.seq),
            None => panic!("nothing to pick"),
        }
    }

    /// The tenants of the next `n` steps, each charged `calls`.
    fn run_order(q: &mut Queue<()>, now: Instant, n: usize, calls: u64) -> Vec<TenantId> {
        (0..n)
            .map(|_| step(q, now, calls, 1.0).0.submission.tenant)
            .collect()
    }

    fn one_worker() -> SchedConfig {
        SchedConfig::default().with_workers(1)
    }

    #[test]
    fn fifo_completes_in_admission_order() {
        let t0 = clock::now();
        let mut q = Queue::new(one_worker(), t0);
        for i in 0..6u64 {
            let tenant = format!("tenant-{}", i % 3);
            assert_eq!(
                q.admit(sub(&tenant, Priority::NORMAL), at(t0, i)).unwrap(),
                i + 1
            );
        }
        for i in 1..=6u64 {
            let (job, queue_ms, finish_seq) = step(&mut q, at(t0, 10), 0, 1.0);
            assert_eq!((job.seq, finish_seq), (i, i), "FIFO order violated");
            assert_eq!(queue_ms, (11 - i) as f64);
        }
        let stats = q.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queued, 0);
        let charged: Vec<u64> = stats.tenant_calls.values().copied().collect();
        assert_eq!(charged, [2, 2, 2], "a call-free query is charged 1");
    }

    #[test]
    fn priority_flood_cannot_starve_a_high_priority_query() {
        // A flood of low-priority queries is admitted first; one
        // high-priority query admitted after them runs before the flood.
        let t0 = clock::now();
        let mut q = Queue::new(one_worker().with_policy(SchedPolicy::Priority), t0);
        for _ in 0..20 {
            q.admit(sub("bulk", Priority::LOW), t0).unwrap();
        }
        assert_eq!(q.admit(sub("interactive", Priority::HIGH), t0).unwrap(), 21);
        let (job, _, finish_seq) = step(&mut q, t0, 0, 1.0);
        assert_eq!((job.seq, finish_seq), (21, 1), "starved behind the flood");
        for seq in 1..=20 {
            let (job, _, finish_seq) = step(&mut q, t0, 0, 1.0);
            assert_eq!((job.seq, finish_seq), (seq, seq + 1));
        }
        assert!(q.pick(t0).is_none());
    }

    #[test]
    fn equal_priorities_keep_admission_order() {
        let t0 = clock::now();
        let mut q = Queue::new(one_worker().with_policy(SchedPolicy::Priority), t0);
        for _ in 0..5 {
            q.admit(sub("t", Priority::NORMAL), t0).unwrap();
        }
        for seq in 1..=5 {
            let (job, _, finish_seq) = step(&mut q, t0, 0, 1.0);
            assert_eq!((job.seq, finish_seq), (seq, seq));
        }
    }

    #[test]
    fn admission_rejects_beyond_global_and_tenant_caps() {
        let t0 = clock::now();
        let config = one_worker()
            .with_max_queue_depth(4)
            .with_tenant_queue_cap(2);
        let mut q = Queue::new(config, t0);
        // Tenant cap: the third submission from one tenant is rejected.
        q.admit(sub("a", Priority::NORMAL), t0).unwrap();
        q.admit(sub("a", Priority::NORMAL), t0).unwrap();
        assert_eq!(
            q.admit(sub("a", Priority::NORMAL), t0).unwrap_err(),
            Error::scheduler("tenant 'a' queue full (2 queued, cap 2)").with_retry_after(1)
        );
        // Global cap: other tenants fill the queue to 4, then everyone is
        // rejected.
        q.admit(sub("b", Priority::NORMAL), t0).unwrap();
        q.admit(sub("c", Priority::NORMAL), t0).unwrap();
        assert_eq!(
            q.admit(sub("d", Priority::NORMAL), t0).unwrap_err(),
            Error::scheduler("admission queue full (4 queued, cap 4)").with_retry_after(1)
        );
        let stats = q.stats();
        assert_eq!((stats.submitted, stats.rejected, stats.queued), (4, 2, 4));
    }

    #[test]
    fn rate_limited_tenant_is_throttled_with_retry_after() {
        let t0 = clock::now();
        let config =
            one_worker().with_tenant_rate_limit("metered", TenantRateLimit::queries(1.0, 2.0));
        let mut q = Queue::new(config, t0);
        // Burst of 2 admits, then the bucket is dry for 1 s.
        q.admit(sub("metered", Priority::NORMAL), t0).unwrap();
        q.admit(sub("metered", Priority::NORMAL), at(t0, 1))
            .unwrap();
        let err = q
            .admit(sub("metered", Priority::NORMAL), at(t0, 1))
            .unwrap_err();
        assert_eq!(
            err,
            Error::overloaded(1000, "tenant 'metered' is over its rate limit")
        );
        // Unmetered tenants are unaffected.
        q.admit(sub("free", Priority::NORMAL), at(t0, 1)).unwrap();
        let stats = q.stats();
        assert_eq!((stats.throttled, stats.shed, stats.rejected), (1, 0, 1));
        // The hint is honest: a token is back exactly then, not a ms before.
        assert!(q
            .admit(sub("metered", Priority::NORMAL), at(t0, 1000))
            .is_err());
        q.admit(sub("metered", Priority::NORMAL), at(t0, 1001))
            .unwrap();
        assert_eq!(q.stats().submitted, 4);
    }

    #[test]
    fn shedding_drops_only_lower_priority_past_the_watermark() {
        let t0 = clock::now();
        let config = one_worker()
            .with_policy(SchedPolicy::Priority)
            .with_shed_queue_watermark(2);
        let mut q = Queue::new(config, t0);
        // Below the watermark everything is admitted.
        q.admit(sub("t", Priority::NORMAL), t0).unwrap();
        q.admit(sub("t", Priority::NORMAL), t0).unwrap();
        // Past it, lower-priority work is shed with a structured rejection...
        assert_eq!(
            q.admit(sub("bulk", Priority::LOW), t0).unwrap_err(),
            Error::overloaded(
                1,
                "shed at admission: p0 ranks below the highest queued p10 with 2 queued \
                 past the load watermark"
            )
        );
        // ...while equal- and higher-priority submissions still get in.
        q.admit(sub("t", Priority::NORMAL), t0).unwrap();
        q.admit(sub("vip", Priority::HIGH), t0).unwrap();
        // A NORMAL submission is now shed too, behind the queued HIGH one.
        let err = q.admit(sub("t", Priority::NORMAL), t0).unwrap_err();
        assert_eq!(
            err.message,
            "shed at admission: p10 ranks below the highest queued p20 with 4 queued past \
             the load watermark"
        );
        let stats = q.stats();
        assert_eq!((stats.shed, stats.throttled, stats.rejected), (2, 0, 2));
    }

    #[test]
    fn queue_full_and_tenant_cap_rejections_carry_retry_after() {
        let t0 = clock::now();
        let config = one_worker()
            .with_max_queue_depth(2)
            .with_tenant_queue_cap(1);
        let mut q = Queue::new(config, t0);
        // One 30 ms query sets the run-time EWMA the hints project from.
        q.admit(sub("warm", Priority::NORMAL), t0).unwrap();
        step(&mut q, at(t0, 30), 0, 30.0);
        q.admit(sub("a", Priority::NORMAL), t0).unwrap();
        // Tenant cap rejection: the hint projects the tenant's own backlog.
        assert_eq!(
            q.admit(sub("a", Priority::NORMAL), t0).unwrap_err(),
            Error::scheduler("tenant 'a' queue full (1 queued, cap 1)").with_retry_after(30)
        );
        q.admit(sub("b", Priority::NORMAL), t0).unwrap();
        // Global queue-full rejection: same shape, the whole backlog.
        let err = q.admit(sub("c", Priority::NORMAL), t0).unwrap_err();
        assert_eq!(
            err,
            Error::scheduler("admission queue full (2 queued, cap 2)").with_retry_after(60)
        );
        assert_eq!(err.kind, ErrorKind::Scheduler);
    }

    #[test]
    fn throttled_tenant_cannot_starve_others_fair_share() {
        // A tenant hammering a tight rate limit hurts only itself: its
        // rejections are loss-less and every other tenant's query is
        // admitted and completes.
        let t0 = clock::now();
        let config =
            one_worker().with_tenant_rate_limit("greedy", TenantRateLimit::queries(1.0, 1.0));
        let mut q = Queue::new(config, t0);
        let mut greedy_throttled = 0u64;
        for i in 0..10 {
            match q.admit(sub("greedy", Priority::NORMAL), at(t0, i)) {
                Ok(_) => {}
                Err(err) => {
                    assert!(err.is_overloaded(), "{err}");
                    greedy_throttled += 1;
                }
            }
            q.admit(sub("polite", Priority::NORMAL), at(t0, i)).unwrap();
            step(&mut q, at(t0, i), 0, 1.0);
        }
        assert_eq!(greedy_throttled, 9, "burst 1 at 1 qps over 10 ms");
        while q.stats().queued > 0 {
            step(&mut q, at(t0, 10), 0, 1.0);
        }
        let stats = q.stats();
        assert_eq!((stats.throttled, stats.rejected), (9, 9));
        assert_eq!((stats.submitted, stats.completed), (11, 11));
        assert_eq!(stats.tenant_calls["polite"], 10);
    }

    #[test]
    fn a_rejected_submission_spends_no_rate_limit_token() {
        // Two submissions turned away by a full queue leave tenant x's
        // two-token burst whole: once the queue drains, x is admitted.
        let t0 = clock::now();
        let config = one_worker()
            .with_max_queue_depth(1)
            .with_tenant_rate_limit("x", TenantRateLimit::queries(0.001, 2.0));
        let mut q = Queue::new(config, t0);
        q.admit(sub("y", Priority::NORMAL), t0).unwrap();
        for _ in 0..2 {
            let err = q.admit(sub("x", Priority::NORMAL), t0).unwrap_err();
            assert_eq!(err.message, "admission queue full (1 queued, cap 1)");
        }
        step(&mut q, t0, 0, 1.0);
        assert_eq!(q.admit(sub("x", Priority::NORMAL), t0), Ok(2));
        let stats = q.stats();
        assert_eq!((stats.throttled, stats.rejected), (0, 2));
    }

    #[test]
    fn weighted_fair_serves_tenants_by_weight() {
        // Weights 3:1 on one worker, every query 2 calls: the first 8
        // completions follow the weights (6:2), not the alternating
        // admission order.
        let t0 = clock::now();
        let config = one_worker()
            .with_policy(SchedPolicy::WeightedFair)
            .with_tenant_weight("gold", 3)
            .with_tenant_weight("bronze", 1);
        let mut q = Queue::new(config, t0);
        for _ in 0..8 {
            q.admit(sub("gold", Priority::NORMAL), t0).unwrap();
            q.admit(sub("bronze", Priority::NORMAL), t0).unwrap();
        }
        let order = run_order(&mut q, t0, 8, 2);
        let expected = [
            "bronze", "gold", "gold", "gold", "bronze", "gold", "gold", "gold",
        ];
        assert_eq!(order, expected);
        run_order(&mut q, t0, 8, 2);
        let calls: Vec<u64> = q.stats().tenant_calls.values().copied().collect();
        assert_eq!(calls, [16, 16]);
    }

    #[test]
    fn unknown_tenants_under_weighted_fair_schedule_cleanly() {
        // The weight-normalized deficit divides by `weight_of(tenant)`;
        // tenants absent from the weight map get the default weight, finite
        // deficits and a sane order, not inf/NaN.
        let t0 = clock::now();
        let config = one_worker()
            .with_policy(SchedPolicy::WeightedFair)
            .with_tenant_weight("known", 3);
        let mut q = Queue::new(config, t0);
        for _ in 0..4 {
            for tenant in ["known", "stranger", "drifter"] {
                q.admit(sub(tenant, Priority::NORMAL), t0).unwrap();
            }
        }
        let order = run_order(&mut q, t0, 12, 0);
        let initials: String = order.iter().map(|t| &t[..1]).collect();
        assert_eq!(initials, "dkskkdksdsds");
        let stats = q.stats();
        assert_eq!(stats.completed, 12);
        // Every tenant, mapped or not, was served and charged.
        let charged: Vec<u64> = stats.tenant_calls.values().copied().collect();
        assert_eq!(charged, [4, 4, 4]);
    }

    #[test]
    fn expired_deadline_cancels_queued_query_without_executing() {
        // A query whose deadline passes while it queues is cancelled at
        // pick, never run.
        let t0 = clock::now();
        let mut q = Queue::new(one_worker(), t0);
        q.admit(with_deadline("t", Priority::NORMAL, 15.0), t0)
            .unwrap();
        q.admit(sub("t", Priority::NORMAL), t0).unwrap();
        match q.pick(at(t0, 30)) {
            Some(Pick::Cancelled(job, queue_ms, error, finish_seq)) => {
                assert_eq!((job.seq, queue_ms, finish_seq), (1, 30.0, 1));
                assert_eq!(
                    error,
                    Error::deadline_exceeded(
                        "cancelled unexecuted: queued 30.0ms past its 15ms deadline \
                         (0 LLM calls issued)"
                    )
                );
            }
            _ => panic!("the expired job must be cancelled"),
        }
        assert_eq!(q.run_ewma.get(), None, "a cancelled job sets no run time");
        // The deadline-free companion is unaffected.
        let (job, queue_ms, finish_seq) = step(&mut q, at(t0, 30), 3, 1.0);
        assert_eq!((job.seq, queue_ms, finish_seq), (2, 30.0, 2));
        let stats = q.stats();
        assert_eq!((stats.deadline_expired, stats.deadline_rejected), (1, 0));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.tenant_calls["t"], 4, "the cancelled job is charged 1");
    }

    #[test]
    fn queue_aware_admission_rejects_hopeless_deadlines() {
        let t0 = clock::now();
        let mut q = Queue::new(one_worker(), t0);
        // No projection is possible before a query finished.
        q.admit(with_deadline("t", Priority::NORMAL, 1.0), t0)
            .unwrap();
        step(&mut q, t0, 3, 30.0);
        // A backlog of 5 at 30 ms each on one worker, then a 1 ms deadline:
        // rejected at admission, never queued.
        for _ in 0..5 {
            q.admit(sub("t", Priority::NORMAL), t0).unwrap();
        }
        let err = q
            .admit(with_deadline("t", Priority::NORMAL, 1.0), t0)
            .unwrap_err();
        assert_eq!(
            err,
            Error::deadline_exceeded(
                "rejected at admission: projected queue wait 150.0ms (5 job(s) ahead over 1 \
                 workers at ~30.0ms per query) exceeds the 1ms deadline (0 LLM calls issued)"
            )
            .with_retry_after(150)
        );
        let stats = q.stats();
        assert_eq!(
            (stats.deadline_rejected, stats.rejected, stats.queued),
            (1, 1, 5)
        );
        // A deadline the projection allows is admitted.
        q.admit(with_deadline("t", Priority::NORMAL, 150.0), t0)
            .unwrap();
    }

    #[test]
    fn priority_aware_projection_admits_urgent_deadlines() {
        // Under Priority the urgent query overtakes the low-priority flood,
        // so the flood does not count as ahead of it: a FIFO-position
        // estimate (8 × 30 ms = 240 ms) would falsely reject a 150 ms
        // deadline.
        let t0 = clock::now();
        let mut q = Queue::new(one_worker().with_policy(SchedPolicy::Priority), t0);
        q.admit(sub("t", Priority::NORMAL), t0).unwrap();
        step(&mut q, t0, 3, 30.0);
        for _ in 0..8 {
            q.admit(sub("bulk", Priority::LOW), t0).unwrap();
        }
        let urgent = with_deadline("vip", Priority::HIGH, 150.0);
        assert_eq!(q.admit(urgent, t0).unwrap(), 10);
        // It runs next, with what is left of its deadline.
        match q.pick(at(t0, 5)) {
            Some(Pick::Run(job, queue_ms, budget_ms)) => {
                assert_eq!((job.seq, queue_ms, budget_ms), (10, 5.0, Some(145.0)))
            }
            _ => panic!("the urgent job must run"),
        }
        assert_eq!(q.stats().deadline_rejected, 0);
    }

    /// A deterministic generator for the seeded property (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    const TENANTS: [&str; 4] = ["a", "b", "c", "d"];

    /// A random configuration: policy, workers, caps, watermarks, weights
    /// and rate limits.
    fn random_config(rng: &mut Rng) -> SchedConfig {
        let policy = [
            SchedPolicy::Fifo,
            SchedPolicy::Priority,
            SchedPolicy::WeightedFair,
        ][rng.below(3) as usize];
        let mut config = SchedConfig::default()
            .with_policy(policy)
            .with_workers(1 + rng.below(3) as usize)
            .with_max_queue_depth(1 + rng.below(10) as usize)
            .with_tenant_queue_cap(1 + rng.below(5) as usize)
            .with_shed_queue_watermark(rng.below(6) as usize)
            .with_shed_wait_watermark_ms([0.0, 20.0, 80.0][rng.below(3) as usize]);
        for tenant in TENANTS {
            config = config.with_tenant_weight(tenant, 1 + rng.below(4) as u32);
            let limit = match rng.below(3) {
                0 => continue,
                1 => {
                    TenantRateLimit::queries(1.0 + rng.below(50) as f64, 1.0 + rng.below(3) as f64)
                }
                _ => TenantRateLimit::llm_calls(
                    1.0 + rng.below(100) as f64,
                    1.0 + rng.below(8) as f64,
                ),
            };
            config = config.with_tenant_rate_limit(tenant, limit);
        }
        config
    }

    /// Run 200 random transitions from `seed`, asserting the counters after
    /// each, and return what every transition returned plus the final stats.
    fn simulate(seed: u64, t0: Instant) -> (Vec<String>, SchedStats) {
        let mut rng = Rng(seed);
        let config = random_config(&mut rng);
        let workers = config.workers;
        let mut q = Queue::new(config.clone(), t0);
        let mut now = t0;
        let mut running: VecDeque<Job<()>> = VecDeque::new();
        let (mut admitted, mut rejected, mut picked, mut finished) = (0u64, 0u64, 0u64, 0u64);
        let mut trace = Vec::new();
        for _ in 0..200 {
            now += Duration::from_micros(rng.below(20_000));
            match rng.below(3) {
                0 => {
                    let tenant = TENANTS[rng.below(4) as usize];
                    let priority = Priority(rng.below(3) as u8 * 10);
                    let submission = match rng.below(3) {
                        0 => with_deadline(tenant, priority, 1.0 + rng.below(100) as f64),
                        _ => sub(tenant, priority),
                    };
                    let verdict = q.admit(submission, now);
                    match &verdict {
                        Ok(_) => admitted += 1,
                        Err(_) => rejected += 1,
                    }
                    trace.push(format!("{verdict:?}"));
                }
                1 if running.len() < workers => match q.pick(now) {
                    Some(Pick::Run(job, _, budget_ms)) => {
                        picked += 1;
                        trace.push(format!("run {} {budget_ms:?}", job.seq));
                        running.push_back(job);
                    }
                    Some(Pick::Cancelled(job, _, _, finish_seq)) => {
                        (picked, finished) = (picked + 1, finished + 1);
                        trace.push(format!("cancel {} as {finish_seq}", job.seq));
                    }
                    None => trace.push("idle".into()),
                },
                _ => {
                    if let Some(job) = running.pop_front() {
                        let (calls, run_ms) = (rng.below(9), rng.below(60) as f64);
                        let finish_seq = q.finish(&job, calls, run_ms, 0, 0, now);
                        finished += 1;
                        trace.push(format!("finish {} as {finish_seq}", job.seq));
                    }
                }
            }
            let stats = q.stats();
            assert_eq!(stats.rejected, rejected, "seed {seed}");
            assert!(stats.throttled + stats.shed + stats.deadline_rejected <= stats.rejected);
            assert_eq!(stats.submitted, admitted, "seed {seed}");
            assert_eq!(stats.queued as u64, admitted - picked, "seed {seed}");
            assert_eq!(stats.completed, finished, "seed {seed}");
            assert!(stats.queued <= config.max_queue_depth, "seed {seed}");
            for tenant in TENANTS {
                let queued = q
                    .jobs
                    .iter()
                    .filter(|j| j.submission.tenant == tenant)
                    .count();
                assert!(queued <= config.tenant_queue_cap, "seed {seed}");
                assert_eq!(
                    q.queued_per_tenant.get(tenant).copied().unwrap_or(0),
                    queued
                );
            }
        }
        (trace, q.stats())
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under weighted fair share with sustained backlog, the
            /// completed-call shares of any completion prefix track the
            /// configured weights: the deficit counters keep
            /// |calls_a/w_a - calls_b/w_b| within one query's cost.
            #[test]
            fn weighted_fair_shares_converge_to_weights(
                weight_a in 1u32..5,
                weight_b in 1u32..5,
                calls in 0u64..8,
            ) {
                let per_tenant = 12usize;
                let t0 = clock::now();
                let config = one_worker()
                    .with_policy(SchedPolicy::WeightedFair)
                    .with_tenant_weight("a", weight_a)
                    .with_tenant_weight("b", weight_b);
                let mut q = Queue::new(config, t0);
                for _ in 0..per_tenant {
                    q.admit(sub("a", Priority::NORMAL), t0).unwrap();
                    q.admit(sub("b", Priority::NORMAL), t0).unwrap();
                }
                let cost = calls.max(1);
                // Prefix short enough that both tenants still had backlog
                // throughout with margin (the heavier tenant drains first at
                // ~prefix * max_w / (w_a + w_b) completions; keep that well
                // under per_tenant).
                let max_w = weight_a.max(weight_b) as usize;
                let prefix = per_tenant * (weight_a + weight_b) as usize * 3 / (4 * max_w);
                let order = run_order(&mut q, t0, prefix, calls);
                let calls_in_prefix = |tenant: &str| {
                    order.iter().filter(|t| *t == tenant).count() as u64 * cost
                };
                let (calls_a, calls_b) = (calls_in_prefix("a"), calls_in_prefix("b"));
                // Deficit bound: weight-normalized charges never drift apart
                // by more than one query's cost.
                let norm_a = calls_a as f64 / weight_a as f64;
                let norm_b = calls_b as f64 / weight_b as f64;
                prop_assert!(
                    (norm_a - norm_b).abs() <= cost as f64 + 1e-9,
                    "shares diverged from weights: a={} (w={}), b={} (w={}), prefix={}",
                    calls_a, weight_a, calls_b, weight_b, prefix
                );
            }

            /// The same bound with a different cost per query: while both
            /// tenants have backlog, one worker alternating pick and finish
            /// keeps the weight-normalized charges within the dearest
            /// query's cost over the lighter weight.
            #[test]
            fn weighted_fair_bound_holds_under_non_uniform_costs(
                weight_a in 1u32..5,
                weight_b in 1u32..5,
                costs in proptest::collection::vec(0u64..9, 24..25),
            ) {
                let t0 = clock::now();
                let config = one_worker()
                    .with_policy(SchedPolicy::WeightedFair)
                    .with_tenant_weight("a", weight_a)
                    .with_tenant_weight("b", weight_b);
                let mut q = Queue::new(config, t0);
                for _ in 0..12 {
                    q.admit(sub("a", Priority::NORMAL), t0).unwrap();
                    q.admit(sub("b", Priority::NORMAL), t0).unwrap();
                }
                let bound = 8.0 / weight_a.min(weight_b) as f64;
                for calls in costs {
                    if q.queued_per_tenant.values().any(|&queued| queued == 0) {
                        break;
                    }
                    step(&mut q, t0, calls, 1.0);
                    let charged = &q.stats.tenant_calls;
                    let norm = |t: &str, w: u32| {
                        charged.get(t).copied().unwrap_or(0) as f64 / w as f64
                    };
                    let gap = (norm("a", weight_a) - norm("b", weight_b)).abs();
                    prop_assert!(gap <= bound + 1e-9, "gap {} over bound {}", gap, bound);
                }
            }

            /// Random admit / pick / finish sequences under every policy keep
            /// every counter exact after every step, and replay identically.
            #[test]
            fn random_transitions_keep_the_counters_exact(seed in any::<u64>()) {
                let t0 = clock::now();
                let first = simulate(seed, t0);
                prop_assert_eq!(first, simulate(seed, t0), "seed {} did not replay", seed);
            }
        }
    }
}
