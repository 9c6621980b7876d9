//! The names the benchmark fixes: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root is
//! [`manifest`]'s output; a unit test holds the two together.

/// Seconds one run measures (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 18;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// Why each workload exists, in one line; the README has the long form.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "scan_rtt",
        why: "One client, 20-page scans over a 5 ms model, cache off: timer-bound, so wave \
              policy and reactor wake-ups set the latency and engine CPU barely shows.",
    },
    WorkloadDef {
        name: "cpu_stack",
        why: "One client, 201 logical calls per query through a zero-latency 3-backend pool, \
              cache emptied per query: all wall time is engine CPU through the whole stack.",
    },
    WorkloadDef {
        name: "cached_analytics",
        why: "72 joins, aggregates, sorts and selections over four relations that fit the \
              prompt cache, refreshed every 25 passes: parser, planner, cache hits and \
              operators dominate.",
    },
    WorkloadDef {
        name: "tenants_open",
        why: "Open loop: 190 queries/s from 4 tenants through the scheduler at about 60 % of \
              capacity, bursts of identical queries: admission, queueing, slots and \
              coalescing do the work.",
    },
    WorkloadDef {
        name: "tail_faulty",
        why: "One client over four backends under a seeded outage, latency storm and error \
              burst: failover, retries, breaker and hedging decide the tail.",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every workload, in this order, never zero. One bound per
/// metric has to serve all five workloads, so each is set by the noisiest of
/// them on a shared two-core host: about three times the widest
/// inter-quartile spread ten seeds showed in a quiet period, and above the
/// widest a disturbed period showed (see the README's noise study).
pub const END_TO_END: [EndToEndDef; 8] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEndDef {
        name: "query_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEndDef {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEndDef {
        name: "model_requests_per_query",
        unit: "count",
        better: "lower",
        bound: 0.05,
    },
    EndToEndDef {
        name: "model_tokens_per_query",
        unit: "tokens",
        better: "lower",
        bound: 0.05,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayerDef {
    PerLayerDef { name, unit, better }
}

/// Reported by every workload's traced run, in this order. A workload whose
/// inputs never reach a layer reports 0 for that layer's run-derived
/// metrics (the README lists which).
pub const PER_LAYER: [PerLayerDef; 52] = [
    layer("sql.parse_us", "us", "lower"),
    layer("plan.bind_optimize_us", "us", "lower"),
    layer("plan.cost_us", "us", "lower"),
    layer("llm.prompt.build_ns", "ns", "lower"),
    layer("llm.parse.ns_per_row", "ns", "lower"),
    layer("llm.batch.pack_split_ns", "ns", "lower"),
    layer("llm.cache.hit_ns", "ns", "lower"),
    layer("llm.cache.miss_put_ns", "ns", "lower"),
    layer("llm.cache.hit_ratio", "ratio", "higher"),
    layer("llm.coalesce.claim_publish_ns", "ns", "lower"),
    layer("llm.coalesce.follower_share", "ratio", "higher"),
    layer("llm.model.call_ns", "ns", "lower"),
    layer("llm.backend.poolcall_ns", "ns", "lower"),
    layer("llm.backend.attempts_per_call", "ratio", "lower"),
    layer("llm.backend.retry_share", "ratio", "lower"),
    layer("llm.backend.hedge_share", "ratio", "lower"),
    layer("llm.backend.hedge_win_ratio", "ratio", "higher"),
    layer("llm.backend.short_circuit_share", "ratio", "higher"),
    layer("llm.sim.complete_us", "us", "lower"),
    layer("exec.scan.ideal_ms", "ms", "lower"),
    layer("exec.scan.inflight_ms", "ms", "lower"),
    layer("exec.scan.policy_ms", "ms", "lower"),
    layer("exec.scan.idle_ms", "ms", "lower"),
    layer("exec.scan.rtt_efficiency", "ratio", "higher"),
    layer("exec.scan.dispatch_rounds", "count", "lower"),
    layer("exec.scan.round_gap_us", "us", "lower"),
    layer("exec.scan.peak_in_flight", "count", "higher"),
    layer("exec.reactor.timer_ns", "ns", "lower"),
    layer("exec.reactor.drive_ns_per_op", "ns", "lower"),
    layer("exec.slots.acquire_ns", "ns", "lower"),
    layer("exec.slots.wait_ms_per_query", "ms", "lower"),
    layer("exec.slots.peak_in_use", "count", "lower"),
    layer("exec.executor.join_ns_per_row", "ns", "lower"),
    layer("exec.executor.aggregate_ns_per_row", "ns", "lower"),
    layer("exec.executor.sort_ns_per_row", "ns", "lower"),
    layer("core.first_request_us", "us", "lower"),
    layer("core.tail_us", "us", "lower"),
    layer("core.logical_calls_per_query", "count", "lower"),
    layer("core.logical_calls_per_s", "1/s", "higher"),
    layer("sched.submit_us", "us", "lower"),
    layer("sched.queue_ms_p50", "ms", "lower"),
    layer("sched.queue_ms_p90", "ms", "lower"),
    layer("sched.run_ms_p50", "ms", "lower"),
    layer("sched.dispatch_overhead_us", "us", "lower"),
    layer("sched.rejected_share", "ratio", "lower"),
    layer("store.oracle_us_per_query", "us", "lower"),
    layer("model.replay_misses", "count", "lower"),
    layer("gen.late_p90_us", "us", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.attribution_error_pct", "%", "lower"),
    layer("proc.ctx_switches_per_query", "count", "lower"),
    layer("client.query_p99_ms", "ms", "lower"),
];

/// The command the driver runs from the root of a checkout.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/llmsql_benchmark/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
const PATHS: [&str; 1] = ["crates/bench/src/bin/llmsql_benchmark"];

/// `BENCHMARK.json`, hand-written: the offline workspace has no serde.
pub fn manifest() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|item| format!("\"{item}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = Vec::new();
        for (def, workload) in WORKLOADS.iter().zip(Workload::ALL) {
            assert_eq!(def.name, workload.name());
            assert!(
                def.why.len() <= 200 && !def.why.contains('\n'),
                "{}",
                def.name
            );
            assert!(!def.why.contains('"') && !def.why.contains('\\'));
            names.push(def.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            names.push(m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        assert!((1..=128).contains(&PER_LAYER.len()) && END_TO_END.len() <= 16);
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|part| part.len() <= 200));
        assert!(manifest().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` is this build's manifest, byte for byte. Skipped when
    /// the file is not in reach (the benchmark directory copied elsewhere).
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file());
        if let Some(root) = root {
            let committed = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
            assert_eq!(
                committed,
                manifest(),
                "regenerate with: llmsql_benchmark --manifest > BENCHMARK.json"
            );
        }
    }
}
