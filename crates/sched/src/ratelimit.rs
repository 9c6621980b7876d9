//! Per-tenant token buckets for admission-time overload shedding.
//!
//! Plain data on an explicit millisecond clock (`now_ms`): the queue passes
//! milliseconds since its epoch, and tests drive any schedule of arrivals
//! deterministically — including the property test below, which checks the
//! core token-bucket invariant (admissions never exceed burst + elapsed ×
//! rate) over arbitrary arrival schedules. Nothing here reads a clock or
//! takes a lock.

use llmsql_types::TenantRateLimit;

/// A token bucket: `capacity` burst tokens, refilled continuously at
/// `refill_per_ms`. Behaviour is a pure function of the call schedule.
#[derive(Debug, Clone)]
struct TokenBucket {
    capacity: f64,
    refill_per_ms: f64,
    /// Current token balance. May go negative on the post-paid call axis.
    tokens: f64,
    /// Clock of the last refill, milliseconds.
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket holding `burst` tokens, refilled at `rate_per_sec`, starting
    /// full at clock `now_ms`.
    fn new(rate_per_sec: f64, burst: f64, now_ms: u64) -> TokenBucket {
        TokenBucket {
            capacity: burst,
            refill_per_ms: rate_per_sec / 1000.0,
            tokens: burst,
            last_ms: now_ms,
        }
    }

    /// Credit the time elapsed since the last refill, clamped to capacity
    /// (a debt balance climbs back through zero at the refill rate).
    fn refill(&mut self, now_ms: u64) {
        let elapsed_ms = now_ms.saturating_sub(self.last_ms) as f64;
        self.last_ms = self.last_ms.max(now_ms);
        self.tokens = (self.tokens + elapsed_ms * self.refill_per_ms).min(self.capacity);
    }

    /// How long until `need` tokens have dripped in, rounded up, ≥ 1 ms.
    fn eta_ms(&self, need: f64) -> u64 {
        (need / self.refill_per_ms).ceil().max(1.0) as u64
    }

    /// Take `cost` tokens at clock `now_ms`, or report how many milliseconds
    /// until the balance would cover the cost.
    fn try_take(&mut self, now_ms: u64, cost: f64) -> Result<(), u64> {
        self.refill(now_ms);
        if self.tokens >= cost {
            self.tokens -= cost;
            Ok(())
        } else {
            Err(self.eta_ms(cost - self.tokens))
        }
    }

    /// Require a positive balance (the post-paid axis: the exact cost is
    /// only known at completion). `Err` carries the milliseconds until the
    /// balance turns positive again.
    fn check_credit(&mut self, now_ms: u64) -> Result<(), u64> {
        self.refill(now_ms);
        if self.tokens > 0.0 {
            Ok(())
        } else {
            // +1ms so the hinted wait leaves a strictly positive balance
            // even when the debt divides the refill rate exactly.
            Err(self.eta_ms(-self.tokens).saturating_add(1))
        }
    }

    /// Charge `amount` tokens at completion. The balance may go negative —
    /// a burst overdraws once, then [`TokenBucket::check_credit`] holds the
    /// tenant until the debt is repaid at the refill rate.
    fn debit(&mut self, now_ms: u64, amount: f64) {
        self.refill(now_ms);
        self.tokens -= amount;
    }
}

/// One tenant's admission limiter: a pre-paid query bucket and a post-paid
/// LLM-call bucket, each optional (a zero rate disables the axis).
#[derive(Debug, Clone)]
pub(crate) struct TenantLimiter {
    queries: Option<TokenBucket>,
    calls: Option<TokenBucket>,
}

impl TenantLimiter {
    /// Build the limiter from its configured [`TenantRateLimit`], with both
    /// buckets full at clock `now_ms`.
    pub(crate) fn new(limit: TenantRateLimit, now_ms: u64) -> TenantLimiter {
        let bucket = |rate: f64, burst: f64| {
            (rate > 0.0).then(|| TokenBucket::new(rate, burst.max(1.0), now_ms))
        };
        TenantLimiter {
            queries: bucket(limit.queries_per_sec, limit.query_burst),
            calls: bucket(limit.llm_calls_per_sec, limit.call_burst),
        }
    }

    /// Admit one query at clock `now_ms`: the call axis must hold credit
    /// (checked first, so a rejection never burns a query token) and the
    /// query axis is charged one token. `Err` is the retry-after hint in
    /// milliseconds.
    pub(crate) fn admit(&mut self, now_ms: u64) -> Result<(), u64> {
        if let Some(calls) = &mut self.calls {
            calls.check_credit(now_ms)?;
        }
        if let Some(queries) = &mut self.queries {
            queries.try_take(now_ms, 1.0)?;
        }
        Ok(())
    }

    /// Charge the LLM calls a completed query actually consumed.
    pub(crate) fn charge_calls(&mut self, now_ms: u64, calls: u64) {
        if let Some(bucket) = &mut self.calls {
            bucket.debit(now_ms, calls as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TokenBucket {
        /// The balance at clock `now_ms`.
        fn balance(&mut self, now_ms: u64) -> f64 {
            self.refill(now_ms);
            self.tokens
        }
    }

    #[test]
    fn burst_then_sustained_rate() {
        // 2-token burst, 1 token/sec.
        let mut bucket = TokenBucket::new(1.0, 2.0, 0);
        assert!(bucket.try_take(0, 1.0).is_ok());
        assert!(bucket.try_take(0, 1.0).is_ok());
        let retry = bucket.try_take(0, 1.0).unwrap_err();
        assert_eq!(retry, 1000, "1 token at 1/s is 1000ms away");
        // The hint is honest: waiting exactly that long succeeds.
        assert!(bucket.try_take(retry, 1.0).is_ok());
        // ...and not a millisecond earlier.
        assert!(bucket.try_take(retry + retry - 1, 1.0).is_err());
    }

    #[test]
    fn refill_clamps_to_capacity() {
        let mut bucket = TokenBucket::new(100.0, 3.0, 0);
        // An hour idle does not bank more than the burst.
        assert_eq!(bucket.balance(3_600_000), 3.0);
        for _ in 0..3 {
            assert!(bucket.try_take(3_600_000, 1.0).is_ok());
        }
        assert!(bucket.try_take(3_600_000, 1.0).is_err());
    }

    #[test]
    fn post_paid_debt_blocks_credit_until_repaid() {
        // 10 calls/sec, burst 5.
        let mut bucket = TokenBucket::new(10.0, 5.0, 0);
        assert!(bucket.check_credit(0).is_ok());
        // A big query overdraws: balance goes negative, credit is refused
        // until the debt drains at the refill rate.
        bucket.debit(0, 25.0);
        assert_eq!(bucket.balance(0), -20.0);
        let retry = bucket.check_credit(0).unwrap_err();
        assert_eq!(retry, 2001, "20 tokens at 10/s, plus the >0 epsilon");
        assert!(bucket.check_credit(1000).is_err());
        assert!(bucket.check_credit(retry).is_ok());
    }

    #[test]
    fn limiter_checks_credit_before_spending_a_query_token() {
        let limit = TenantRateLimit {
            queries_per_sec: 10.0,
            query_burst: 1.0,
            llm_calls_per_sec: 10.0,
            call_burst: 5.0,
        };
        let mut limiter = TenantLimiter::new(limit, 0);
        assert!(limiter.admit(0).is_ok());
        limiter.charge_calls(0, 50); // deep in debt
        let retry = limiter.admit(200).unwrap_err();
        assert!(retry > 1000, "call debt dominates: {retry}");
        // The failed admission did not burn the (refilled) query token.
        assert!(limiter.queries.as_mut().unwrap().balance(200) > 1e-9);
    }

    #[test]
    fn disabled_axes_never_reject() {
        let mut limiter = TenantLimiter::new(TenantRateLimit::queries(0.0, 0.0), 0);
        for t in 0..100 {
            assert!(limiter.admit(t).is_ok());
            limiter.charge_calls(t, 1_000_000);
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The token-bucket invariant: for ANY arrival schedule, the
            /// number of accepted unit-cost takes never exceeds the burst
            /// plus what the elapsed time could have refilled.
            #[test]
            fn accepted_never_exceeds_burst_plus_refill(
                rate_per_sec in 0.5f64..50.0,
                burst in 1.0f64..10.0,
                gaps_ms in proptest::collection::vec(0u64..400, 1..80),
            ) {
                let mut bucket = TokenBucket::new(rate_per_sec, burst, 0);
                let mut now_ms = 0u64;
                let mut accepted = 0u64;
                for gap in &gaps_ms {
                    now_ms += gap;
                    if bucket.try_take(now_ms, 1.0).is_ok() {
                        accepted += 1;
                    }
                }
                let ceiling = burst + now_ms as f64 * rate_per_sec / 1000.0;
                prop_assert!(
                    (accepted as f64) <= ceiling + 1e-6,
                    "accepted {} takes but burst {} + {}ms at {}/s only covers {:.3}",
                    accepted, burst, now_ms, rate_per_sec, ceiling
                );
            }

            /// The retry-after hint is always sufficient: waiting exactly
            /// the hinted time makes the next take succeed.
            #[test]
            fn retry_after_hint_is_sufficient(
                rate_per_sec in 0.5f64..50.0,
                burst in 1.0f64..10.0,
                drains in 1u32..20,
            ) {
                let mut bucket = TokenBucket::new(rate_per_sec, burst, 0);
                for _ in 0..drains {
                    let _ = bucket.try_take(0, 1.0);
                }
                if let Err(retry) = bucket.try_take(0, 1.0) {
                    prop_assert!(retry >= 1);
                    prop_assert!(bucket.try_take(retry, 1.0).is_ok(),
                        "waiting the hinted {retry}ms must cover the take");
                }
            }
        }
    }
}
