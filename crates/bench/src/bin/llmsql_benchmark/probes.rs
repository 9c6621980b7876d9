//! Per-layer probes: each layer's public functions timed from outside, on
//! inputs captured from the workload (its distinct SQL, the prompts its
//! queries send, the answers they get, its tables' rows).
//!
//! A probe runs batches for a fixed small budget and reports the median
//! per-operation time over the batches. Probes only call functions that the
//! roadmap's single-dispatch-path refactor keeps; the blocking twins
//! (`route*`, `complete_gated`, `par_map`) are never touched.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llmsql_core::Engine;
use llmsql_exec::{aggregate_rows, drive, join_rows, sort_rows, CallSlots, Completion, TimerWheel};
use llmsql_llm::prompt::TaskSpec;
use llmsql_llm::{
    pack_prompts, parse_pipe_rows, parse_task, split_response, BackendPool, CallMachine, Claim,
    CompletionRequest, CompletionResponse, LanguageModel, LlmClient, PromptCache, PromptCoalescer,
    BATCH_SEPARATOR,
};
use llmsql_plan::{cost_plan, BoundExpr, CostParams, SortKey};
use llmsql_sched::QueryScheduler;
use llmsql_sql::ast::{AggregateFunc, BinaryOp, JoinKind, Statement};
use llmsql_sql::parse_statement;
use llmsql_types::{
    BackendSpec, DataType, EngineConfig, ExecutionMode, Priority, RoutingPolicy, Schema,
};

use crate::replay::ReplayLlm;
use crate::stats::median;
use crate::trace::Trace;
use crate::workload::{Failure, Prepared, Workload};

/// Wall-clock budget of one probe.
const PROBE_BUDGET: Duration = Duration::from_millis(100);
/// Batches per probe: at least / at most.
const MIN_BATCHES: usize = 3;
const MAX_BATCHES: usize = 400;
/// Captured prompts a probe walks per batch.
const CAPTURE_LIMIT: usize = 256;

/// A `Completion` that is ready the first time it is polled: what `drive`
/// costs per operation when nothing has to wait.
struct ReadyOp;

impl Completion for ReadyOp {
    fn poll(&mut self, _now: Instant) -> bool {
        true
    }

    fn next_wakeup(&self, _now: Instant) -> Option<Instant> {
        None
    }
}

fn fail(context: &str, error: impl std::fmt::Display) -> Failure {
    format!("probe {context}: {error}")
}

/// Times probe batches and leaves one span per batch, named by the first
/// argument of `sample` / `measure` (`probe.<layer>`).
struct Timer<'a> {
    trace: &'a mut Trace,
    quick: bool,
}

pub struct Probes<'a> {
    prepared: &'a Prepared,
    timer: Timer<'a>,
    /// Captured unpacked prompts with their answers, sorted by prompt.
    captured: Vec<(String, CompletionResponse)>,
    results: Vec<(&'static str, f64)>,
}

impl<'a> Probes<'a> {
    pub fn new(prepared: &'a Prepared, trace: &'a mut Trace, quick: bool) -> Probes<'a> {
        let mut captured: Vec<(String, CompletionResponse)> = prepared
            .model
            .answers()
            .iter()
            .filter(|(prompt, _)| !llmsql_llm::is_packed(prompt))
            .map(|(prompt, response)| (prompt.clone(), response.clone()))
            .collect();
        captured.sort_by(|a, b| a.0.cmp(&b.0));
        captured.truncate(if quick { 8 } else { CAPTURE_LIMIT });
        Probes {
            prepared,
            timer: Timer { trace, quick },
            captured,
            results: Vec::new(),
        }
    }
}

impl Timer<'_> {
    /// Run `batch` until the budget is spent; it times what it measures
    /// itself and returns nanoseconds per operation. Returns the median over
    /// the batches.
    fn sample(&mut self, span: &'static str, mut batch: impl FnMut() -> f64) -> f64 {
        batch(); // discarded: faults code and data in
        let deadline = Instant::now() + PROBE_BUDGET;
        let (min, max) = if self.quick {
            (2, 2)
        } else {
            (MIN_BATCHES, MAX_BATCHES)
        };
        let mut per_op = Vec::new();
        while per_op.len() < min || (per_op.len() < max && Instant::now() < deadline) {
            let start = Instant::now();
            per_op.push(batch());
            self.trace.push(span, start, Instant::now(), None, None);
        }
        median(&per_op)
    }

    /// Time `run` (`ops` operations per batch).
    fn time(&mut self, span: &'static str, ops: usize, mut run: impl FnMut()) -> f64 {
        self.measure(span, ops, || (), |()| run())
    }

    /// Time `run` on a fresh `setup()` value per batch (`ops` operations per
    /// batch); only `run` is timed.
    fn measure<S>(
        &mut self,
        span: &'static str,
        ops: usize,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S),
    ) -> f64 {
        self.sample(span, || {
            let input = setup();
            let start = Instant::now();
            run(input);
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
    }
}

impl Probes<'_> {
    fn record(&mut self, name: &'static str, value: f64) {
        self.results.push((name, value));
    }

    /// Run every probe; the result is `(metric name, value)` pairs.
    pub fn run(mut self) -> Result<Vec<(&'static str, f64)>, Failure> {
        self.sql_and_plan()?;
        self.prompt_and_parse()?;
        self.batch();
        self.cache();
        self.coalesce();
        self.model_and_backend()?;
        self.simulator();
        self.reactor_and_slots();
        self.executor()?;
        self.scheduler()?;
        self.store();
        Ok(self.results)
    }

    fn sql_and_plan(&mut self) -> Result<(), Failure> {
        let sqls: Vec<String> = self
            .prepared
            .queries
            .iter()
            .map(|q| q.sql.clone())
            .collect();
        let parse_ns = self.timer.time("probe.sql", sqls.len(), || {
            for sql in &sqls {
                black_box(parse_statement(black_box(sql)).is_ok());
            }
        });
        self.record("sql.parse_us", parse_ns / 1e3);

        let prepared = self.prepared;
        let engine = prepared.target.engine();
        let mut selects = Vec::with_capacity(sqls.len());
        for sql in &sqls {
            match parse_statement(sql).map_err(|e| fail("parse", e))? {
                Statement::Select(select) => selects.push(*select),
                _ => return Err(fail("parse", "workload SQL is not a SELECT")),
            }
        }
        let plan_ns = self.timer.time("probe.plan", selects.len(), || {
            for select in &selects {
                black_box(engine.plan_select(black_box(select)).is_ok());
            }
        });
        self.record("plan.bind_optimize_us", plan_ns / 1e3);

        let plans = selects
            .iter()
            .map(|select| engine.plan_select(select))
            .collect::<llmsql_types::Result<Vec<_>>>()
            .map_err(|e| fail("plan", e))?;
        let params = CostParams::from_config(engine.config());
        let cost_ns = self.timer.time("probe.plan", plans.len(), || {
            for plan in &plans {
                black_box(cost_plan(black_box(plan), &params).total.llm_calls);
            }
        });
        self.record("plan.cost_us", cost_ns / 1e3);
        Ok(())
    }

    /// Task specs recovered from the captured prompts, with the schema each
    /// was rendered against.
    fn specs(&self) -> Result<Vec<(TaskSpec, Schema)>, Failure> {
        let catalog = self.prepared.target.engine().catalog();
        self.captured
            .iter()
            .map(|(prompt, _)| {
                let spec = parse_task(prompt).map_err(|e| fail("recover task spec", e))?;
                let table = spec.table().unwrap_or_default().to_string();
                let schema = catalog
                    .schema_of(&table)
                    .map_err(|e| fail("schema of captured prompt", e))?;
                Ok((spec, schema))
            })
            .collect()
    }

    fn prompt_and_parse(&mut self) -> Result<(), Failure> {
        let specs = self.specs()?;
        let build_ns = self.timer.time("probe.llm.prompt", specs.len(), || {
            for (spec, schema) in &specs {
                black_box(spec.to_prompt(Some(schema)).len());
            }
        });
        self.record("llm.prompt.build_ns", build_ns);

        // Answers that are pipe rows, with the column types they parse to.
        let answers: Vec<(&str, Vec<DataType>)> = specs
            .iter()
            .zip(&self.captured)
            .filter_map(|((spec, schema), (_, response))| {
                let columns = match spec {
                    TaskSpec::RowBatch { columns, .. } | TaskSpec::Lookup { columns, .. } => {
                        columns
                    }
                    _ => return None,
                };
                let types = columns
                    .iter()
                    .map(|name| schema.column(name).map(|c| c.data_type))
                    .collect::<llmsql_types::Result<Vec<_>>>()
                    .ok()?;
                Some((response.text.as_str(), types))
            })
            .collect();
        let rows: usize = answers
            .iter()
            .map(|(text, types)| parse_pipe_rows(text, types).rows.len())
            .sum();
        let parse_ns = self.timer.time("probe.llm.parse", rows, || {
            for (text, types) in &answers {
                black_box(parse_pipe_rows(black_box(text), types).rows.len());
            }
        });
        self.record("llm.parse.ns_per_row", parse_ns);
        Ok(())
    }

    fn batch(&mut self) {
        const MEMBERS: usize = 4;
        let groups: Vec<(Vec<String>, CompletionResponse)> = self
            .captured
            .chunks_exact(MEMBERS)
            .map(|chunk| {
                let prompts = chunk.iter().map(|(p, _)| p.clone()).collect();
                let texts: Vec<&str> = chunk.iter().map(|(_, r)| r.text.as_str()).collect();
                let combined = CompletionResponse {
                    text: texts.join(&format!("\n{BATCH_SEPARATOR}\n")),
                    prompt_tokens: chunk.iter().map(|(_, r)| r.prompt_tokens).sum(),
                    completion_tokens: chunk.iter().map(|(_, r)| r.completion_tokens).sum(),
                    latency_ms: 0.0,
                    cost_usd: 0.0,
                };
                (prompts, combined)
            })
            .collect();
        let ns = self
            .timer
            .time("probe.llm.batch", groups.len() * MEMBERS, || {
                for (prompts, combined) in &groups {
                    black_box(pack_prompts(black_box(prompts)).len());
                    black_box(split_response(black_box(combined), MEMBERS).len());
                }
            });
        self.record("llm.batch.pack_split_ns", ns);
    }

    /// Cache keys the way the client composes them: fingerprint, request
    /// parameters, prompt.
    fn cache_keys(&self) -> Vec<String> {
        let fingerprint = self.prepared.model.fingerprint();
        self.captured
            .iter()
            .map(|(prompt, _)| format!("{fingerprint}\u{1f}2048\u{1f}0\u{1f}{prompt}"))
            .collect()
    }

    fn cache(&mut self) {
        let keys = self.cache_keys();
        let responses: Vec<CompletionResponse> =
            self.captured.iter().map(|(_, r)| r.clone()).collect();
        let warm = PromptCache::new();
        for (key, response) in keys.iter().zip(&responses) {
            warm.put(key.clone(), response.clone());
        }
        let hit_ns = self.timer.time("probe.llm.cache", keys.len(), || {
            for key in &keys {
                black_box(warm.get(black_box(key)).is_some());
            }
        });
        self.record("llm.cache.hit_ns", hit_ns);
        let miss_put_ns =
            self.timer
                .measure("probe.llm.cache", keys.len(), PromptCache::new, |cold| {
                    for (key, response) in keys.iter().zip(&responses) {
                        black_box(cold.get(black_box(key)).is_none());
                        cold.put(key.clone(), response.clone());
                    }
                });
        self.record("llm.cache.miss_put_ns", miss_put_ns);
    }

    fn coalesce(&mut self) {
        let keys = self.cache_keys();
        let outcomes: Vec<llmsql_types::Result<CompletionResponse>> =
            self.captured.iter().map(|(_, r)| Ok(r.clone())).collect();
        let coalescer = Arc::new(PromptCoalescer::new());
        let ns = self.timer.time("probe.llm.coalesce", keys.len(), || {
            for (key, outcome) in keys.iter().zip(&outcomes) {
                if let Claim::Leader(guard) = coalescer.claim(black_box(key)) {
                    guard.publish(outcome);
                }
            }
        });
        self.record("llm.coalesce.claim_publish_ns", ns);
    }

    fn model_and_backend(&mut self) -> Result<(), Failure> {
        let model = Arc::new(ReplayLlm::new(
            Arc::clone(&self.prepared.sim),
            self.prepared.model.answers().clone(),
            0.0,
        ));
        let requests: Vec<CompletionRequest> = self
            .captured
            .iter()
            .map(|(prompt, _)| CompletionRequest::new(prompt.as_str()))
            .collect();
        // Each batch times the replayed model alone and then the layer over
        // it, back to back, and reports the difference: what the layer adds
        // to a request, with the lookup and most common-mode noise gone.
        let ops = requests.len().max(1) as f64;
        let lookup = |requests: &[CompletionRequest]| {
            let start = Instant::now();
            for request in requests {
                let mut handle = model.submit(black_box(request));
                black_box(handle.poll(Instant::now()).is_some());
            }
            start.elapsed().as_nanos() as f64
        };

        let client = LlmClient::without_cache(Arc::clone(&model) as Arc<dyn LanguageModel>);
        let mut grant = || Some(Box::new(()) as Box<dyn std::any::Any + Send>);
        let client_ns = self.timer.sample("probe.llm.model", || {
            let owned = requests.clone();
            let lookup_ns = lookup(&requests);
            let start = Instant::now();
            for request in owned {
                let mut call = client.start_call(request);
                while call.poll(Instant::now(), &mut grant).is_none() {}
            }
            (start.elapsed().as_nanos() as f64 - lookup_ns) / ops
        });
        self.record("llm.model.call_ns", client_ns);

        let specs: Vec<BackendSpec> = (0..3)
            .map(|i| BackendSpec::new(format!("probe-{i}")).with_latency_ms(0.0))
            .collect();
        let pool = BackendPool::from_specs(
            Arc::clone(&model) as Arc<dyn LanguageModel>,
            &specs,
            RoutingPolicy::RoundRobin,
            42,
        )
        .map_err(|e| fail("backend pool", e))?;
        let pool_ns = self.timer.sample("probe.llm.backend", || {
            let lookup_ns = lookup(&requests);
            let start = Instant::now();
            for request in &requests {
                let mut call = pool.submit_call(black_box(request));
                while call.poll(Instant::now()).is_none() {}
            }
            (start.elapsed().as_nanos() as f64 - lookup_ns) / ops
        });
        self.record("llm.backend.poolcall_ns", pool_ns);
        Ok(())
    }

    fn simulator(&mut self) {
        let sim = Arc::clone(&self.prepared.sim);
        let requests: Vec<CompletionRequest> = self
            .captured
            .iter()
            .take(if self.timer.quick { 4 } else { 64 })
            .map(|(prompt, _)| CompletionRequest::new(prompt.as_str()))
            .collect();
        let ns = self.timer.time("probe.llm.sim", requests.len(), || {
            for request in &requests {
                black_box(sim.complete(black_box(request)).is_ok());
            }
        });
        self.record("llm.sim.complete_us", ns / 1e3);
    }

    fn reactor_and_slots(&mut self) {
        const TIMERS: usize = 256;
        let timer_ns = self.timer.measure(
            "probe.exec.reactor",
            TIMERS,
            TimerWheel::new,
            |mut wheel| {
                let now = Instant::now();
                for i in 0..TIMERS {
                    wheel.arm(now + Duration::from_micros(1_000 + 10 * i as u64));
                }
                black_box(wheel.advance(now + Duration::from_millis(20)).len());
            },
        );
        self.record("exec.reactor.timer_ns", timer_ns);

        const OPS: usize = 64;
        let drive_ns = self.timer.measure(
            "probe.exec.reactor",
            OPS,
            || (0..OPS).map(|_| ReadyOp).collect::<Vec<_>>(),
            |mut ops| {
                black_box(drive(&mut ops, None));
            },
        );
        self.record("exec.reactor.drive_ns_per_op", drive_ns);

        const ACQUIRES: usize = 1024;
        let slots = CallSlots::new(32);
        let acquire_ns = self.timer.time("probe.exec.slots", ACQUIRES, || {
            for _ in 0..ACQUIRES {
                let (guard, waited_ms) = slots.acquire();
                black_box(waited_ms);
                drop(guard);
            }
        });
        self.record("exec.slots.acquire_ns", acquire_ns);
    }

    /// Operator functions over the rows of the workload's first relation:
    /// a self equi-join on the key, a grouped count, a sort.
    fn executor(&mut self) -> Result<(), Failure> {
        let rows = self
            .prepared
            .data
            .rows("countries")
            .map_err(|e| fail("rows", e))?;
        let schema = self
            .prepared
            .data
            .catalog
            .schema_of("countries")
            .map_err(|e| fail("schema", e))?;
        let arity = schema.arity();
        let column = |index: usize, offset: usize| {
            let c = &schema.columns[index];
            BoundExpr::col(index + offset, &c.name, c.data_type)
        };
        let on = BoundExpr::Binary {
            left: Box::new(column(0, 0)),
            op: BinaryOp::Eq,
            right: Box::new(column(0, arity)),
        };
        let join_ns = self.timer.time("probe.exec.executor", 2 * rows.len(), || {
            let joined = join_rows(&rows, &rows, arity, arity, JoinKind::Inner, Some(&on));
            black_box(joined.map(|r| r.len()).unwrap_or(0));
        });
        self.record("exec.executor.join_ns_per_row", join_ns);

        let group = vec![column(1, 0)];
        let aggregates = vec![BoundExpr::Aggregate {
            func: AggregateFunc::Count,
            arg: None,
            distinct: false,
        }];
        let aggregate_ns = self.timer.time("probe.exec.executor", rows.len(), || {
            let groups = aggregate_rows(&rows, &group, &aggregates);
            black_box(groups.map(|r| r.len()).unwrap_or(0));
        });
        self.record("exec.executor.aggregate_ns_per_row", aggregate_ns);

        let keys = vec![SortKey {
            expr: column(arity - 1, 0),
            ascending: true,
        }];
        let sort_ns = self.timer.measure(
            "probe.exec.executor",
            rows.len(),
            || rows.clone(),
            |mut unsorted| {
                black_box(sort_rows(&mut unsorted, &keys).is_ok());
            },
        );
        self.record("exec.executor.sort_ns_per_row", sort_ns);
        Ok(())
    }

    /// An idle scheduler's round trip for a query the cache answers, against
    /// the same query executed directly: what admission, queueing, hand-off
    /// and the ticket cost when nothing else runs.
    fn scheduler(&mut self) -> Result<(), Failure> {
        let mut config = self.prepared.workload.config();
        config.backends.clear();
        config.chaos = None;
        config.hedge_multiplier = 0.0;
        config.enable_prompt_cache = true;
        let catalog = self
            .prepared
            .data
            .catalog
            .deep_clone()
            .map_err(|e| fail("clone catalog", e))?;
        let mut engine = Engine::with_catalog(catalog, config);
        let model = Arc::new(ReplayLlm::new(
            Arc::clone(&self.prepared.sim),
            self.prepared.model.answers().clone(),
            0.0,
        ));
        engine
            .attach_model(model as Arc<dyn LanguageModel>)
            .map_err(|e| fail("attach model", e))?;
        let sql = self.prepared.queries[0].sql.clone();
        engine
            .execute(&sql)
            .map_err(|e| fail("warm the cache", e))?;

        // Direct execution first (the scheduler then takes the engine over).
        let round_trips = if self.timer.quick { 4 } else { 32 };
        let direct_ns = self.timer.time("probe.sched", round_trips, || {
            for _ in 0..round_trips {
                black_box(engine.execute(black_box(&sql)).is_ok());
            }
        });
        let scheduler = QueryScheduler::new(engine, Workload::sched_config())
            .map_err(|e| fail("start scheduler", e))?;
        let mut submit_ns = Vec::new();
        let scheduled_ns = self.timer.time("probe.sched", round_trips, || {
            for _ in 0..round_trips {
                let start = Instant::now();
                let ticket = scheduler.submit("probe", Priority::NORMAL, sql.as_str());
                submit_ns.push(start.elapsed().as_nanos() as f64);
                black_box(ticket.map(|t| t.wait().result.is_ok()).unwrap_or(false));
            }
        });
        self.record(
            "sched.dispatch_overhead_us",
            (scheduled_ns - direct_ns) / 1e3,
        );
        self.record("sched.submit_us", median(&submit_ns) / 1e3);
        Ok(())
    }

    fn store(&mut self) {
        let oracle = Engine::with_catalog(
            self.prepared.data.catalog.clone(),
            EngineConfig::default().with_mode(ExecutionMode::Traditional),
        );
        let sqls: Vec<&str> = self
            .prepared
            .queries
            .iter()
            .map(|q| q.sql.as_str())
            .collect();
        let ns = self.timer.time("probe.store", sqls.len(), || {
            for sql in &sqls {
                black_box(oracle.execute(black_box(sql)).is_ok());
            }
        });
        self.record("store.oracle_us_per_query", ns / 1e3);
    }
}
