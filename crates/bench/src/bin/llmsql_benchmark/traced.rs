//! The traced run: the per-layer metrics of one workload.
//!
//! Untraced and traced blocks alternate over the same inputs (the difference
//! of their medians is the tracing overhead); the traced blocks' spans give
//! the outside-in attribution of each query's wall time; then the probes
//! time each layer's public functions on the inputs the workload captured.
//! End-to-end metrics are never taken from this run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::metrics::PER_LAYER;
use crate::probes::Probes;
use crate::report::{self, Metric, RunResult};
use crate::run::Phase;
use crate::stats::{mean, median, percentile, Attribution};
use crate::trace::Trace;
use crate::workload::{self, Prepared, Target, Workload};
use crate::Options;

/// Which blocks of a traced run record spans: untraced, traced, traced,
/// untraced, so a drift over the run (clock frequency, neighbours) falls on
/// both kinds alike. The `--quick` pass runs the first two.
const TRACED_BLOCKS: [bool; 4] = [false, true, true, false];

/// Share of `--seconds` the alternating blocks take; the probes get the
/// rest (their budgets are fixed, so they do not grow with it).
const BLOCKS_SHARE: f64 = 0.6;

/// Samples below which a 99th percentile has fewer than ten beyond it.
const P99_MIN_SAMPLES: usize = 1000;

/// Where the span file of `workload` goes: next to the build output the
/// running binary came from (`<target>/llmsql_benchmark/`), which `git`
/// ignores; `target/` under the current directory if that cannot be found.
pub fn trace_path(workload: Workload) -> PathBuf {
    let target = std::env::current_exe().ok().and_then(|exe| {
        exe.ancestors()
            .find(|dir| {
                dir.file_name()
                    .is_some_and(|name| name == "release" || name == "debug")
            })
            .and_then(|profile| profile.parent().map(PathBuf::from))
    });
    target
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("llmsql_benchmark")
        .join(format!("trace-{}.jsonl", workload.name()))
}

/// Counters of the layers under the engine, read before and after the
/// blocks.
#[derive(Debug, Clone, Copy, Default)]
struct LayerCounters {
    cache_hits: u64,
    client_calls: u64,
    attempts: u64,
    retries: u64,
    hedges: u64,
    hedges_won: u64,
    short_circuits: u64,
    coalesced: u64,
}

impl LayerCounters {
    fn read(prepared: &Prepared) -> LayerCounters {
        let mut counters = LayerCounters::default();
        if let Some(client) = prepared.target.engine().client() {
            let usage = client.usage();
            counters.cache_hits = usage.cache_hits;
            counters.client_calls = usage.calls;
            for backend in client.backend_stats().unwrap_or_default() {
                counters.attempts += backend.calls;
                counters.retries += backend.retries;
                counters.hedges += backend.hedges;
                counters.hedges_won += backend.hedges_won;
                counters.short_circuits += backend.short_circuits;
            }
        }
        if let Target::Scheduled(scheduler) = &prepared.target {
            counters.coalesced = scheduler.stats().coalesced_calls;
        }
        counters
    }

    fn since(&self, earlier: &LayerCounters) -> LayerCounters {
        LayerCounters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            client_calls: self.client_calls - earlier.client_calls,
            attempts: self.attempts - earlier.attempts,
            retries: self.retries - earlier.retries,
            hedges: self.hedges - earlier.hedges,
            hedges_won: self.hedges_won - earlier.hedges_won,
            short_circuits: self.short_circuits - earlier.short_circuits,
            coalesced: self.coalesced - earlier.coalesced,
        }
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Whether the model's request spans cover the requests' whole round trips.
/// With latency on the pool's backends the model sees a request only after
/// the backend's own delay has been decided, so its spans have no width and
/// the interval attribution would call all in-flight time idle.
fn attributable(workload: Workload) -> bool {
    !workload.open_loop()
        && workload
            .config()
            .backends
            .iter()
            .all(|backend| backend.latency_ms == 0.0)
}

pub fn run(workload: Workload, options: &Options) -> Result<RunResult, String> {
    let prepared = workload::prepare(workload, options.seed, options.quick)?;
    let setup_misses = prepared.model.counters().misses;
    let mut trace = Trace::new();
    let order = &TRACED_BLOCKS[..if options.quick {
        2
    } else {
        TRACED_BLOCKS.len()
    }];
    let phase_s = options.seconds * BLOCKS_SHARE / order.len() as f64;

    let mut untraced: Vec<Phase> = Vec::new();
    let mut traced: Vec<Phase> = Vec::new();
    let mut attributions: Vec<Attribution> = Vec::new();
    let layers_before = LayerCounters::read(&prepared);
    for &is_traced in order {
        if is_traced {
            prepared.model.start_tracing();
        }
        let phase = report::measure(
            &prepared,
            options.seed,
            phase_s,
            1,
            options.quick,
            is_traced,
        );
        if !is_traced {
            untraced.push(phase?);
            continue;
        }
        let requests = prepared.model.stop_tracing();
        let phase = phase?;
        if workload.open_loop() {
            trace.add_open_loop(&phase.samples, &requests);
        } else {
            let found = trace.add_closed_loop(&phase.samples, &requests);
            if attributable(workload) {
                attributions.extend(found);
            }
        }
        traced.push(phase);
    }
    let layers = LayerCounters::read(&prepared).since(&layers_before);

    // Probe values first; a run-derived value of the same name (the open
    // loop's in-situ `sched.submit_us`) replaces the idle probe's.
    let mut values: BTreeMap<&'static str, f64> = Probes::new(&prepared, &mut trace, options.quick)
        .run()?
        .into_iter()
        .collect();
    let mut set = |name: &'static str, value: f64| {
        values.insert(name, value);
    };

    // Run-derived metrics ---------------------------------------------------
    let samples: Vec<_> = traced.iter().flat_map(|p| p.samples.iter()).collect();
    let succeeded: Vec<_> = samples.iter().filter(|s| s.ok).collect();
    let all_phases = || untraced.iter().chain(&traced);
    let logical_calls: u64 = all_phases().map(Phase::logical_calls).sum();
    let succeeded_queries: u64 = all_phases().map(Phase::succeeded).sum();
    let wall_s: f64 = all_phases().map(Phase::wall_s).sum();
    set(
        "llm.cache.hit_ratio",
        ratio(layers.cache_hits, layers.cache_hits + layers.client_calls),
    );
    set(
        "llm.coalesce.follower_share",
        ratio(layers.coalesced, logical_calls),
    );
    set(
        "llm.backend.attempts_per_call",
        ratio(layers.attempts, logical_calls),
    );
    set(
        "llm.backend.retry_share",
        ratio(layers.retries, layers.attempts),
    );
    set(
        "llm.backend.hedge_share",
        ratio(layers.hedges, layers.attempts),
    );
    set(
        "llm.backend.hedge_win_ratio",
        ratio(layers.hedges_won, layers.hedges),
    );
    set(
        "llm.backend.short_circuit_share",
        ratio(layers.short_circuits, logical_calls),
    );

    // Outside-in attribution of the closed-loop queries' wall time.
    let config = workload.config();
    let rtt_ms = prepared.model.rtt_ms();
    let of = |value: &dyn Fn(&Attribution) -> f64| {
        median(&attributions.iter().map(value).collect::<Vec<_>>())
    };
    let ideal_of = |query: usize| {
        let calls = prepared.expected[query].logical_calls as usize;
        calls.div_ceil(config.parallelism.max(1)) as f64 * rtt_ms
    };
    // One ideal per attributed query, in the same order (none when the
    // workload's requests cannot be attributed: every median is then 0).
    let ideals: Vec<f64> = if attributions.is_empty() {
        Vec::new()
    } else {
        succeeded.iter().map(|s| ideal_of(s.query)).collect()
    };
    let ideal_ms = median(&ideals);
    set("exec.scan.ideal_ms", ideal_ms);
    set("exec.scan.inflight_ms", of(&|a| a.inflight_ms));
    set("exec.scan.policy_ms", of(&|a| a.inflight_ms) - ideal_ms);
    set("exec.scan.idle_ms", of(&|a| a.idle_ms()));
    set(
        "exec.scan.rtt_efficiency",
        median(
            &attributions
                .iter()
                .zip(&ideals)
                .map(|(a, ideal)| ideal / a.wall_ms.max(1e-9))
                .collect::<Vec<_>>(),
        ),
    );
    set("exec.scan.dispatch_rounds", of(&|a| a.rounds as f64));
    set(
        "exec.scan.round_gap_us",
        of(&|a| a.gaps_ms * 1e3 / a.rounds.saturating_sub(1).max(1) as f64),
    );
    set("exec.scan.peak_in_flight", of(&|a| a.peak_in_flight as f64));
    set("core.first_request_us", of(&|a| a.first_request_ms * 1e3));
    set("core.tail_us", of(&|a| a.tail_ms * 1e3));
    set(
        "core.logical_calls_per_query",
        ratio(logical_calls, succeeded_queries),
    );
    set(
        "core.logical_calls_per_s",
        logical_calls as f64 / wall_s.max(1e-9),
    );
    // The parts must sum to the wall time of every query.
    let attribution_error_pct = attributions
        .iter()
        .map(|a| (a.inflight_ms + a.idle_ms() - a.wall_ms).abs() / a.wall_ms.max(1e-9) * 100.0)
        .fold(0.0, f64::max);
    set("trace.attribution_error_pct", attribution_error_pct);

    // The scheduler, seen through the open-loop queries.
    let sched: Vec<_> = samples.iter().filter_map(|s| s.sched.as_ref()).collect();
    let admitted: Vec<_> = sched.iter().filter(|s| !s.rejected).collect();
    let column = |value: &dyn Fn(&crate::run::SchedSample) -> f64| {
        admitted.iter().map(|s| value(s)).collect::<Vec<_>>()
    };
    if !sched.is_empty() {
        let submit_us: Vec<f64> = sched
            .iter()
            .map(|s| (s.submit_end - s.submit_start).as_secs_f64() * 1e6)
            .collect();
        set("sched.submit_us", median(&submit_us));
    }
    set(
        "sched.queue_ms_p50",
        percentile(&column(&|s| s.queue_ms), 0.5),
    );
    set(
        "sched.queue_ms_p90",
        percentile(&column(&|s| s.queue_ms), 0.9),
    );
    set("sched.run_ms_p50", percentile(&column(&|s| s.run_ms), 0.5));
    set(
        "sched.rejected_share",
        ratio((sched.len() - admitted.len()) as u64, sched.len() as u64),
    );
    set(
        "exec.slots.wait_ms_per_query",
        mean(&column(&|s| s.slot_wait_ms)),
    );
    set(
        "exec.slots.peak_in_use",
        match &prepared.target {
            Target::Scheduled(scheduler) => scheduler.stats().peak_slots_in_use as f64,
            Target::Direct(_) => 0.0,
        },
    );

    // The harness itself.
    let replay_misses = setup_misses + all_phases().map(Phase::replay_misses).sum::<u64>();
    set("model.replay_misses", replay_misses as f64);
    let late: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.late_us.iter().copied())
        .collect();
    set("gen.late_p90_us", percentile(&late, 0.9));
    let p50 =
        |phases: &[Phase]| median(&phases.iter().map(Phase::query_p50_ms).collect::<Vec<_>>());
    set(
        "trace.overhead_pct",
        (p50(&traced) / p50(&untraced).max(1e-9) - 1.0) * 100.0,
    );
    set(
        "proc.ctx_switches_per_query",
        ratio(
            untraced.iter().map(|p| p.context_switches).sum(),
            untraced.iter().map(Phase::succeeded).sum(),
        ),
    );
    let pooled: Vec<f64> = untraced
        .iter()
        .flat_map(Phase::pooled_latencies_ms)
        .collect();
    set(
        "client.query_p99_ms",
        if pooled.len() >= P99_MIN_SAMPLES {
            percentile(&pooled, 0.99)
        } else {
            0.0
        },
    );

    let path = trace_path(workload);
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "llmsql_benchmark: {} spans written to {}",
        trace.len(),
        path.display()
    );

    let mut result = RunResult {
        attempted: all_phases().map(Phase::attempted).sum(),
        failed: all_phases().map(Phase::failed).sum(),
        ..RunResult::default()
    };
    for phase in all_phases() {
        for reason in report::validity(phase, workload.open_loop(), options.quick) {
            if !result.invalid.contains(&reason) {
                result.invalid.push(reason);
            }
        }
    }
    if attribution_error_pct > 1.0 {
        result.invalid.push(format!(
            "the outside-in attribution misses the wall time by {attribution_error_pct:.2} %"
        ));
    }
    for def in &PER_LAYER {
        let value = *values
            .get(def.name)
            .ok_or_else(|| format!("no value for per-layer metric {}", def.name))?;
        if !value.is_finite() {
            result
                .invalid
                .push(format!("{} measured as {value}", def.name));
        }
        result.metrics.push(Metric {
            name: def.name,
            unit: def.unit,
            value,
        });
    }
    Ok(result)
}
