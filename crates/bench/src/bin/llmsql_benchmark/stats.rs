//! Estimators: percentiles, the median of block values, quartiles for the
//! noise study, and the interval-union attribution of one query's wall time.

/// Nearest-rank percentile of an unsorted sample (`q` in `(0, 1]`). With 100
/// samples `q = 0.9` leaves ten samples beyond the reported one. Empty
/// samples report 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so the noise study prints the spread
/// the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Where one query's wall time went, seen from outside: the union of its
/// model-request intervals against the query's own start and end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Query start → return.
    pub wall_ms: f64,
    /// Time with at least one request in flight (union of the intervals).
    pub inflight_ms: f64,
    /// Query start → first request submitted.
    pub first_request_ms: f64,
    /// Gaps between consecutive disjoint in-flight intervals, summed.
    pub gaps_ms: f64,
    /// Last request ready → query return.
    pub tail_ms: f64,
    /// Number of disjoint in-flight intervals (dispatch rounds).
    pub rounds: usize,
    /// Most requests in flight at one instant.
    pub peak_in_flight: usize,
}

impl Attribution {
    /// Time the engine was on the critical path with nothing in flight.
    pub fn idle_ms(&self) -> f64 {
        self.first_request_ms + self.gaps_ms + self.tail_ms
    }
}

/// Attribute the query interval `[start, end]` (ms on any common clock) to
/// its request intervals. Requests are clipped to the query: an abandoned
/// hedge loser may be ready after the query has returned.
pub fn attribute(start: f64, end: f64, requests: &[(f64, f64)]) -> Attribution {
    let mut clipped: Vec<(f64, f64)> = requests
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = Attribution {
        wall_ms: end - start,
        ..Attribution::default()
    };
    let Some(&(first_start, first_end)) = clipped.first() else {
        out.tail_ms = out.wall_ms;
        return out;
    };
    out.first_request_ms = first_start - start;
    out.rounds = 1;
    let mut current_end = first_end;
    let mut current_start = first_start;
    for &(s, e) in &clipped[1..] {
        if s > current_end {
            out.inflight_ms += current_end - current_start;
            out.gaps_ms += s - current_end;
            out.rounds += 1;
            current_start = s;
            current_end = e;
        } else {
            current_end = current_end.max(e);
        }
    }
    out.inflight_ms += current_end - current_start;
    out.tail_ms = end - current_end;

    // Peak overlap: sweep the endpoints, closing before opening at a tie so
    // back-to-back requests do not count as concurrent.
    let mut edges: Vec<(f64, i32)> = clipped
        .iter()
        .flat_map(|&(s, e)| [(s, 1), (e, -1)])
        .collect();
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut live = 0i32;
    for (_, step) in edges {
        live += step;
        out.peak_in_flight = out.peak_in_flight.max(live.max(0) as usize);
    }
    // A zero-length request closes before it opens in the sweep above.
    if out.peak_in_flight == 0 {
        out.peak_in_flight = 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.9), 90.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn median_of_blocks_ignores_one_noisy_block() {
        assert_eq!(median(&[0.16, 0.17, 0.22, 0.16, 0.17]), 0.17);
        assert_eq!(median(&[1.0, 9.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
    }

    #[test]
    fn attribution_parts_sum_to_the_wall_time() {
        // Query [0, 30]: a probe page, then an overlapping pair, then a
        // hedge loser that outlives the query.
        let requests = [
            (1.0, 6.0),
            (7.0, 12.0),
            (7.5, 13.0),
            (20.0, 25.0),
            (21.0, 40.0),
        ];
        let a = attribute(0.0, 30.0, &requests);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.peak_in_flight, 2);
        assert!((a.first_request_ms - 1.0).abs() < 1e-12);
        assert!((a.inflight_ms - (5.0 + 6.0 + 10.0)).abs() < 1e-12);
        assert!((a.gaps_ms - (1.0 + 7.0)).abs() < 1e-12);
        assert!(a.tail_ms.abs() < 1e-12);
        assert!((a.inflight_ms + a.idle_ms() - a.wall_ms).abs() < 1e-9);
    }

    #[test]
    fn attribution_without_requests_is_all_idle() {
        let a = attribute(5.0, 7.0, &[]);
        assert_eq!(a.rounds, 0);
        assert!((a.idle_ms() - 2.0).abs() < 1e-12 && a.inflight_ms == 0.0);
        // Zero-length requests (a zero-latency model) are rounds of no width.
        let a = attribute(0.0, 1.0, &[(0.2, 0.2), (0.5, 0.5)]);
        assert_eq!((a.rounds, a.peak_in_flight), (2, 1));
        assert!((a.inflight_ms + a.idle_ms() - 1.0).abs() < 1e-12);
    }
}
