//! Cross-query scheduling types: tenants, priorities, scheduling policies
//! and the [`SchedConfig`] consumed by `llmsql-sched`'s `QueryScheduler`.
//!
//! These live in `llmsql-types` (like [`crate::EngineConfig`]) so every layer
//! can talk about tenants and scheduling without depending on the scheduler
//! runtime itself.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{Error, Result};

/// Identifies the tenant (user, team, API key) a query is submitted under.
/// Quotas and fair-share weights are tracked per tenant.
pub type TenantId = String;

/// Query priority: higher values run first under [`SchedPolicy::Priority`].
///
/// Ordering is total (`u8` semantics); ties are broken by admission order, so
/// equal-priority queries never reorder relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// Background / best-effort work.
    pub const LOW: Priority = Priority(0);
    /// The default for interactive queries.
    pub const NORMAL: Priority = Priority(10);
    /// Latency-sensitive work that should jump the queue.
    pub const HIGH: Priority = Priority(20);
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// How the scheduler picks the next admitted query to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Strict admission order across all tenants.
    #[default]
    Fifo,
    /// Highest [`Priority`] first; admission order within a priority level.
    Priority,
    /// Weighted fair share across tenants via per-tenant deficit counters:
    /// every completed query charges its tenant's counter by the LLM calls it
    /// consumed, and the scheduler always serves the tenant with the smallest
    /// weight-normalized charge. Under sustained backlog, completed-call
    /// shares converge to the configured [`SchedConfig::tenant_weights`].
    WeightedFair,
}

impl SchedPolicy {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Priority => "priority",
            SchedPolicy::WeightedFair => "weighted-fair",
        }
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Per-tenant token-bucket rate limits, enforced at admission. Each axis is
/// independent; a `0` rate disables that axis (unlimited).
///
/// The query axis is pre-paid: a submission takes one token or is rejected
/// with [`crate::ErrorKind::Overloaded`]. The LLM-call axis is post-paid
/// (a query's call count is only known at completion): admission requires
/// positive call credit and completion debits the actual calls consumed, so
/// a burst can overdraw the bucket once but the tenant then waits out the
/// debt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRateLimit {
    /// Sustained admissions per second (0 = unlimited).
    pub queries_per_sec: f64,
    /// Burst capacity of the query bucket, in queries (≥ 1 when the axis is
    /// enabled).
    pub query_burst: f64,
    /// Sustained LLM calls per second (0 = unlimited).
    pub llm_calls_per_sec: f64,
    /// Burst capacity of the call bucket, in calls (≥ 1 when the axis is
    /// enabled).
    pub call_burst: f64,
}

impl TenantRateLimit {
    /// A limit on admissions per second only (call axis unlimited).
    pub fn queries(per_sec: f64, burst: f64) -> Self {
        TenantRateLimit {
            queries_per_sec: per_sec,
            query_burst: burst,
            llm_calls_per_sec: 0.0,
            call_burst: 0.0,
        }
    }

    /// A limit on LLM calls per second only (query axis unlimited).
    pub fn llm_calls(per_sec: f64, burst: f64) -> Self {
        TenantRateLimit {
            queries_per_sec: 0.0,
            query_burst: 0.0,
            llm_calls_per_sec: per_sec,
            call_burst: burst,
        }
    }

    /// Whether any axis is enabled.
    pub fn is_enabled(&self) -> bool {
        self.queries_per_sec > 0.0 || self.llm_calls_per_sec > 0.0
    }

    /// Validate the limit.
    pub fn validate(&self) -> Result<()> {
        for (name, rate, burst) in [
            ("queries", self.queries_per_sec, self.query_burst),
            ("llm_calls", self.llm_calls_per_sec, self.call_burst),
        ] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(Error::config(format!(
                    "{name}_per_sec must be finite and >= 0, got {rate}"
                )));
            }
            if !burst.is_finite() || burst < 0.0 {
                return Err(Error::config(format!(
                    "{name} burst must be finite and >= 0, got {burst}"
                )));
            }
            if rate > 0.0 && burst < 1.0 {
                return Err(Error::config(format!(
                    "{name} burst must be >= 1 when the axis is enabled, got {burst}"
                )));
            }
        }
        Ok(())
    }
}

/// Configuration of the cross-query scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedConfig {
    /// Global pool of LLM-call slots shared by every running query: at most
    /// this many model requests are in flight across the whole deployment,
    /// regardless of how many queries run or what `parallelism` each uses.
    pub llm_slots: usize,
    /// Worker threads executing admitted queries (queries running at once).
    pub workers: usize,
    /// Hard cap on queries queued (admitted but not yet running) across all
    /// tenants; submissions beyond it are rejected at admission.
    pub max_queue_depth: usize,
    /// Per-tenant cap on queued queries, so one tenant cannot fill the whole
    /// admission queue.
    pub tenant_queue_cap: usize,
    /// How the next query is picked from the admission queue.
    pub policy: SchedPolicy,
    /// Fair-share weights per tenant ([`SchedPolicy::WeightedFair`] only).
    /// Tenants absent from the map get [`SchedConfig::default_weight`].
    pub tenant_weights: BTreeMap<TenantId, u32>,
    /// Weight for tenants without an explicit entry in `tenant_weights`.
    pub default_weight: u32,
    /// Start with the workers paused: submissions queue up but nothing runs
    /// until `QueryScheduler::resume` is called. Lets tests (and batch
    /// loads) build a backlog so the policy, not arrival order, decides the
    /// run order.
    pub start_paused: bool,
    /// Rate limit applied to tenants without an explicit entry in
    /// [`SchedConfig::tenant_rate_limits`] (`None` = unlimited).
    pub default_rate_limit: Option<TenantRateLimit>,
    /// Per-tenant token-bucket rate limits, enforced at admission with
    /// structured [`crate::ErrorKind::Overloaded`] rejections.
    pub tenant_rate_limits: BTreeMap<TenantId, TenantRateLimit>,
    /// Load-shedding watermark on queue depth: once this many queries are
    /// queued, an incoming submission with lower priority than the highest
    /// currently queued is shed with [`crate::ErrorKind::Overloaded`]
    /// (0 = disabled). Shedding is loss-less: the query never started.
    pub shed_queue_watermark: usize,
    /// Load-shedding watermark on *projected* queue wait in milliseconds
    /// (run-time EWMA × backlog / workers): same shed-lowest-priority-first
    /// rule as the depth watermark (0.0 = disabled).
    pub shed_wait_watermark_ms: f64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            llm_slots: 8,
            workers: 4,
            max_queue_depth: 256,
            tenant_queue_cap: 64,
            policy: SchedPolicy::Fifo,
            tenant_weights: BTreeMap::new(),
            default_weight: 1,
            start_paused: false,
            default_rate_limit: None,
            tenant_rate_limits: BTreeMap::new(),
            shed_queue_watermark: 0,
            shed_wait_watermark_ms: 0.0,
        }
    }
}

impl SchedConfig {
    /// Builder-style: set the global LLM-call slot pool size.
    pub fn with_llm_slots(mut self, llm_slots: usize) -> Self {
        self.llm_slots = llm_slots;
        self
    }
    /// Builder-style: set the number of query worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
    /// Builder-style: set the global admission-queue depth.
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }
    /// Builder-style: set the per-tenant queued-query cap.
    pub fn with_tenant_queue_cap(mut self, cap: usize) -> Self {
        self.tenant_queue_cap = cap;
        self
    }
    /// Builder-style: set the scheduling policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }
    /// Builder-style: set one tenant's fair-share weight.
    pub fn with_tenant_weight(mut self, tenant: impl Into<TenantId>, weight: u32) -> Self {
        self.tenant_weights.insert(tenant.into(), weight);
        self
    }
    /// Builder-style: start paused (see [`SchedConfig::start_paused`]).
    pub fn paused(mut self) -> Self {
        self.start_paused = true;
        self
    }
    /// Builder-style: set one tenant's token-bucket rate limit.
    pub fn with_tenant_rate_limit(
        mut self,
        tenant: impl Into<TenantId>,
        limit: TenantRateLimit,
    ) -> Self {
        self.tenant_rate_limits.insert(tenant.into(), limit);
        self
    }
    /// Builder-style: set the rate limit for tenants without an explicit one.
    pub fn with_default_rate_limit(mut self, limit: TenantRateLimit) -> Self {
        self.default_rate_limit = Some(limit);
        self
    }
    /// Builder-style: enable shed-lowest-priority-first past a queue depth.
    pub fn with_shed_queue_watermark(mut self, depth: usize) -> Self {
        self.shed_queue_watermark = depth;
        self
    }
    /// Builder-style: enable shedding past a projected queue wait.
    pub fn with_shed_wait_watermark_ms(mut self, wait_ms: f64) -> Self {
        self.shed_wait_watermark_ms = wait_ms;
        self
    }

    /// The rate limit applying to a tenant, if any.
    pub fn rate_limit_of(&self, tenant: &str) -> Option<&TenantRateLimit> {
        self.tenant_rate_limits
            .get(tenant)
            .or(self.default_rate_limit.as_ref())
            .filter(|l| l.is_enabled())
    }

    /// The fair-share weight of a tenant. Never returns zero, even for a
    /// configuration built by struct literal that skipped
    /// [`SchedConfig::validate`]: a zero weight would turn the scheduler's
    /// weight-normalized deficits into `inf`/`NaN` and silently break
    /// ordering, so the accessor clamps defensively.
    pub fn weight_of(&self, tenant: &str) -> u32 {
        self.tenant_weights
            .get(tenant)
            .copied()
            .unwrap_or(self.default_weight)
            .max(1)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.llm_slots == 0 {
            return Err(Error::config("llm_slots must be at least 1"));
        }
        if self.workers == 0 {
            return Err(Error::config("workers must be at least 1"));
        }
        if self.max_queue_depth == 0 {
            return Err(Error::config("max_queue_depth must be at least 1"));
        }
        if self.tenant_queue_cap == 0 {
            return Err(Error::config("tenant_queue_cap must be at least 1"));
        }
        if self.default_weight == 0 {
            return Err(Error::config("default_weight must be at least 1"));
        }
        for (tenant, weight) in &self.tenant_weights {
            if *weight == 0 {
                return Err(Error::config(format!(
                    "tenant '{tenant}' has weight 0; weights must be at least 1"
                )));
            }
        }
        if let Some(limit) = &self.default_rate_limit {
            limit.validate()?;
        }
        for limit in self.tenant_rate_limits.values() {
            limit.validate()?;
        }
        if !self.shed_wait_watermark_ms.is_finite() || self.shed_wait_watermark_ms < 0.0 {
            return Err(Error::config(
                "shed_wait_watermark_ms must be finite and >= 0",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_and_labels() {
        assert!(Priority::HIGH > Priority::NORMAL);
        assert!(Priority::NORMAL > Priority::LOW);
        assert_eq!(Priority::default(), Priority::NORMAL);
        assert_eq!(Priority(7).to_string(), "p7");
    }

    #[test]
    fn policy_parsing_round_trips() {
        for p in [
            SchedPolicy::Fifo,
            SchedPolicy::Priority,
            SchedPolicy::WeightedFair,
        ] {
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fifo);
    }

    #[test]
    fn config_builders_and_weights() {
        let cfg = SchedConfig::default()
            .with_llm_slots(3)
            .with_workers(2)
            .with_max_queue_depth(10)
            .with_tenant_queue_cap(5)
            .with_policy(SchedPolicy::WeightedFair)
            .with_tenant_weight("gold", 4)
            .paused();
        assert_eq!(cfg.llm_slots, 3);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.weight_of("gold"), 4);
        assert_eq!(cfg.weight_of("anonymous"), 1);
        assert!(cfg.start_paused);
        cfg.validate().unwrap();
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        assert!(SchedConfig::default().with_llm_slots(0).validate().is_err());
        assert!(SchedConfig::default().with_workers(0).validate().is_err());
        assert!(SchedConfig::default()
            .with_max_queue_depth(0)
            .validate()
            .is_err());
        assert!(SchedConfig::default()
            .with_tenant_queue_cap(0)
            .validate()
            .is_err());
        assert!(SchedConfig::default()
            .with_tenant_weight("t", 0)
            .validate()
            .is_err());
        let zero_default = SchedConfig {
            default_weight: 0,
            ..SchedConfig::default()
        };
        assert!(zero_default.validate().is_err());
    }

    #[test]
    fn rate_limit_lookup_and_validation() {
        let cfg = SchedConfig::default()
            .with_default_rate_limit(TenantRateLimit::queries(10.0, 5.0))
            .with_tenant_rate_limit("gold", TenantRateLimit::llm_calls(100.0, 50.0))
            .with_shed_queue_watermark(16)
            .with_shed_wait_watermark_ms(500.0);
        cfg.validate().unwrap();
        assert_eq!(cfg.rate_limit_of("gold").unwrap().llm_calls_per_sec, 100.0);
        assert_eq!(cfg.rate_limit_of("anyone").unwrap().queries_per_sec, 10.0);
        // An explicitly disabled per-tenant limit means "unlimited", even
        // with a default configured.
        let cfg = cfg.with_tenant_rate_limit(
            "free",
            TenantRateLimit {
                queries_per_sec: 0.0,
                query_burst: 0.0,
                llm_calls_per_sec: 0.0,
                call_burst: 0.0,
            },
        );
        assert!(cfg.rate_limit_of("free").is_none());

        // Enabled axes need burst >= 1; rates/bursts must be finite.
        assert!(TenantRateLimit::queries(10.0, 0.5).validate().is_err());
        assert!(TenantRateLimit::queries(-1.0, 5.0).validate().is_err());
        assert!(TenantRateLimit::llm_calls(f64::NAN, 5.0)
            .validate()
            .is_err());
        assert!(TenantRateLimit::queries(10.0, 1.0).validate().is_ok());
        let bad =
            SchedConfig::default().with_tenant_rate_limit("t", TenantRateLimit::queries(5.0, 0.0));
        assert!(bad.validate().is_err());
        let bad_wait = SchedConfig {
            shed_wait_watermark_ms: f64::NAN,
            ..SchedConfig::default()
        };
        assert!(bad_wait.validate().is_err());
    }

    #[test]
    fn weight_of_never_returns_zero() {
        // Validation rejects zero weights, but a struct-literal config can
        // skip validation; the accessor must still never hand the scheduler
        // a divide-by-zero.
        let cfg = SchedConfig {
            default_weight: 0,
            ..SchedConfig::default()
        };
        assert_eq!(cfg.weight_of("anyone"), 1);
        let mut cfg = SchedConfig::default();
        cfg.tenant_weights.insert("broken".to_string(), 0);
        assert_eq!(cfg.weight_of("broken"), 1);
    }
}
