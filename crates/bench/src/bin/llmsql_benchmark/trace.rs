//! The outside-in trace: spans recorded in the benchmark's own code around
//! its calls into the engine, kept in memory and written as JSON lines when
//! the run ends. Nothing inside the engine is instrumented.
//!
//! Span names: `query` (root, one per query), `sched.submit`, `sched.wait`,
//! `core.execute`, `model.request` (submit → answer ready, recorded by the
//! replayed model) and `probe.<layer>` (one per probe batch). Every span has
//! an id, a parent id (or null), a query id (or null) and start/end in
//! microseconds since the trace epoch.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::replay::RequestSpan;
use crate::run::QuerySample;
use crate::stats::{attribute, Attribution};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub query: Option<usize>,
}

/// All spans of one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span; its index is its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        query: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let optional = |id: Option<usize>| id.map_or("null".to_string(), |id| id.to_string());
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"query\":{},\
                 \"start_us\":{:.1},\"end_us\":{:.1}}}",
                span.name,
                optional(span.parent),
                optional(span.query),
                self.micros(span.start),
                self.micros(span.end),
            )?;
        }
        out.flush()
    }

    /// Spans of one traced closed-loop block: per query a `query` root, the
    /// `core.execute` call under it, and the model requests submitted while
    /// it ran. Returns the attribution of every succeeded query.
    pub fn add_closed_loop(
        &mut self,
        samples: &[QuerySample],
        requests: &[RequestSpan],
    ) -> Vec<Attribution> {
        let mut attributions = Vec::with_capacity(samples.len());
        let mut next = 0usize;
        for (id, sample) in samples.iter().enumerate() {
            let root = self.push("query", sample.start, sample.end, None, Some(id));
            let execute = self.push(
                "core.execute",
                sample.start,
                sample.end,
                Some(root),
                Some(id),
            );
            // One client: a request belongs to the query running when it was
            // submitted. Requests are in submit order.
            while next < requests.len() && requests[next].submit < sample.start {
                next += 1;
            }
            let first = next;
            while next < requests.len() && requests[next].submit <= sample.end {
                let r = &requests[next];
                self.push(
                    "model.request",
                    r.submit,
                    r.ready_at,
                    Some(execute),
                    Some(id),
                );
                next += 1;
            }
            if sample.ok {
                let intervals: Vec<(f64, f64)> = requests[first..next]
                    .iter()
                    .map(|r| (self.micros(r.submit) / 1e3, self.micros(r.ready_at) / 1e3))
                    .collect();
                attributions.push(attribute(
                    self.micros(sample.start) / 1e3,
                    self.micros(sample.end) / 1e3,
                    &intervals,
                ));
            }
        }
        attributions
    }

    /// Spans of one traced open-loop phase: per query `query` (due time →
    /// rows) with `sched.submit`, `sched.wait` and `core.execute` under it.
    /// Model requests are shared between coalesced queries, so they hang
    /// under no query.
    pub fn add_open_loop(&mut self, samples: &[QuerySample], requests: &[RequestSpan]) {
        for (id, sample) in samples.iter().enumerate() {
            let root = self.push("query", sample.start, sample.end, None, Some(id));
            let Some(sched) = &sample.sched else { continue };
            self.push(
                "sched.submit",
                sched.submit_start,
                sched.submit_end,
                Some(root),
                Some(id),
            );
            if sched.rejected {
                continue;
            }
            let wait = self.push(
                "sched.wait",
                sched.submit_end,
                sample.end,
                Some(root),
                Some(id),
            );
            let run = Duration::from_secs_f64(sched.run_ms.max(0.0) / 1000.0);
            let run_start = sample.end.checked_sub(run).unwrap_or(sched.submit_end);
            self.push("core.execute", run_start, sample.end, Some(wait), Some(id));
        }
        for r in requests {
            self.push("model.request", r.submit, r.ready_at, None, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_spans_nest_and_attribute_requests_to_their_query() {
        let mut trace = Trace::new();
        let t = |ms: u64| trace.epoch + Duration::from_millis(ms);
        let sample = |query, start, end| QuerySample {
            query,
            start: t(start),
            end: t(end),
            ok: true,
            sched: None,
        };
        let request = |submit, ready| RequestSpan {
            submit: t(submit),
            ready_at: t(ready),
        };
        let samples = [sample(0, 10, 30), sample(1, 40, 50)];
        let requests = [
            request(11, 16),
            request(17, 22),
            request(18, 29),
            request(41, 46),
        ];
        let attributions = trace.add_closed_loop(&samples, &requests);
        assert_eq!(attributions.len(), 2);
        assert_eq!((attributions[0].rounds, attributions[1].rounds), (2, 1));
        for a in &attributions {
            assert!((a.inflight_ms + a.idle_ms() - a.wall_ms).abs() < 1e-6);
        }
        // 2 × (query + core.execute) + 4 requests.
        assert_eq!(trace.len(), 8);
        let parents: Vec<_> = trace.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(parents[0], ("query", None));
        assert_eq!(parents[1], ("core.execute", Some(0)));
        assert_eq!(parents[2], ("model.request", Some(1)));
        assert_eq!(parents[7], ("model.request", Some(6)));

        let dir = std::env::temp_dir().join(format!("llmsql-trace-test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        trace.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 8);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
        assert!(text.contains(
            "{\"id\":2,\"name\":\"model.request\",\"parent\":1,\"query\":0,\
             \"start_us\":11000.0,\"end_us\":16000.0}"
        ));
    }
}
