//! The untraced run and its output: the end-to-end metrics of one workload,
//! the result line the driver reads, and the all-workloads / noise-study
//! orchestration that runs each workload in a child process of its own (so
//! CPU time and peak memory are that workload's alone).

use std::process::{Command, Stdio};

use crate::metrics::END_TO_END;
use crate::procfs;
use crate::queries::arrival_schedule;
use crate::rng::Rng;
use crate::run::{self, BlockSize, Phase, BLOCKS};
use crate::speed;
use crate::stats::{median, percentile, quartiles};
use crate::workload::{self, Prepared, Workload};
use crate::Options;

/// Times set-up runs in an untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Kernel runs of the speed reading before and after each set-up.
const SETUP_SPEED_RUNS: usize = 9;

/// Queries per block of the `--quick` smoke pass.
const QUICK_BLOCK_QUERIES: usize = 20;

/// The generator may run this late at its 90th percentile before an
/// open-loop run stops being one.
const MAX_LATE_P90_US: f64 = 1000.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Reasons the run's numbers cannot be trusted (replay misses, a late
    /// generator, a growing backlog, …). Empty for a valid run.
    pub invalid: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// The one-line JSON object the driver reads (hand-written: the offline
    /// workspace has no serde). Values print with all their digits.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read a line written by [`RunResult::to_json`] back (metric names and
    /// units are matched against the fixed tables).
    pub fn from_json(line: &str) -> Option<RunResult> {
        let number_after = |key: &str| -> Option<&str> {
            let rest = &line[line.find(key)? + key.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim())
        };
        let correct = number_after("\"correct\": ")? == "true";
        let mut result = RunResult {
            attempted: number_after("\"attempted\": ")?.parse().ok()?,
            failed: number_after("\"failed\": ")?.parse().ok()?,
            ..RunResult::default()
        };
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(crate::metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            if let Some(value) = number_after(&format!("\"{name}\": {{\"value\": ")) {
                result.metrics.push(Metric {
                    name,
                    unit,
                    value: value.parse().ok()?,
                });
            }
        }
        if !correct && result.failed == 0 {
            result.invalid.push("reported as not correct".to_string());
        }
        Some(result)
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "{workload}: attempted {} succeeded {} failed {}\n",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        for m in &self.metrics {
            out.push_str(&format!("  {:<38} {:>14.4} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

/// Times an open-loop phase is measured before a disturbed one is reported.
const OPEN_LOOP_ATTEMPTS: usize = 3;

/// Seconds of schedule the `--quick` pass of the open-loop workload runs.
const QUICK_OPEN_LOOP_S: f64 = 0.15;

/// Run the measured phase of `prepared` for about `seconds`.
pub fn measure(
    prepared: &Prepared,
    seed: u64,
    seconds: f64,
    blocks: usize,
    quick: bool,
    keep_samples: bool,
) -> Result<Phase, String> {
    if prepared.workload.open_loop() {
        let (seconds, blocks) = if quick {
            (QUICK_OPEN_LOOP_S, 1)
        } else {
            (seconds, blocks)
        };
        let schedule = arrival_schedule(
            &Rng::new(seed),
            Workload::ARRIVAL_EVENTS_PER_S,
            seconds,
            prepared.queries.len(),
        );
        // A host that stalls this process for milliseconds at a time makes
        // the generator late and, at 60 % utilisation, tips the queue over:
        // such a phase measures the host. It is measured again.
        let mut attempt = 1;
        loop {
            let phase = run::open_loop(prepared, &schedule, seconds, blocks, keep_samples)?;
            let disturbed = validity(&phase, true, quick);
            if disturbed.is_empty() || attempt == OPEN_LOOP_ATTEMPTS {
                return Ok(phase);
            }
            eprintln!(
                "llmsql_benchmark: open-loop phase {attempt} of {OPEN_LOOP_ATTEMPTS} was                  disturbed ({}); measuring again",
                disturbed.join("; ")
            );
            attempt += 1;
        }
    } else if quick {
        run::closed_loop(
            prepared,
            1,
            BlockSize::Queries(QUICK_BLOCK_QUERIES),
            keep_samples,
        )
    } else {
        let size = BlockSize::Timed {
            seconds: seconds / blocks as f64,
            period: prepared.workload.mix_period(prepared.queries.len()),
        };
        run::closed_loop(prepared, blocks, size, keep_samples)
    }
}

/// Reasons a phase's numbers cannot be trusted. The timing checks are
/// skipped for the `--quick` pass, which runs in debug builds next to other
/// tests.
pub fn validity(phase: &Phase, open_loop: bool, quick: bool) -> Vec<String> {
    let mut invalid = Vec::new();
    if phase.replay_misses() > 0 {
        invalid.push(format!(
            "{} request(s) were not in the recording",
            phase.replay_misses()
        ));
    }
    if open_loop && !quick {
        let late = percentile(&phase.late_us, 0.9);
        if late > MAX_LATE_P90_US {
            invalid.push(format!(
                "the generator ran {late:.0} us late at p90 (limit {MAX_LATE_P90_US:.0})"
            ));
        }
        let (first, second) = phase.queue_depth_halves;
        if second > first * 1.5 + 2.0 {
            invalid.push(format!(
                "the backlog grew: mean queue depth {first:.1} in the first half, \
                 {second:.1} in the second"
            ));
        }
    }
    invalid
}

/// The untraced run: set up [`SETUPS`] times (the last one is measured),
/// run the measured phase, report the end-to-end metrics.
pub fn end_to_end(workload: Workload, options: &Options) -> Result<RunResult, String> {
    let setups = if options.quick { 1 } else { SETUPS };
    let mut setup_times = Vec::with_capacity(setups);
    let mut prepared = None;
    for _ in 0..setups {
        drop(prepared.take()); // one set-up's memory at a time
        let speed_before = speed::spot_index(SETUP_SPEED_RUNS);
        let next = workload::prepare(workload, options.seed, options.quick)?;
        let index = (speed_before + speed::spot_index(SETUP_SPEED_RUNS)) / 2.0;
        // Building is all CPU and read at nominal machine speed; the warm-up
        // is, too, where the workload is CPU-bound, and round trips elsewhere.
        let warm_index = if workload.cpu_bound() { index } else { 1.0 };
        setup_times.push(next.build_s / index + next.warm_s / warm_index);
        prepared = Some(next);
    }
    let prepared = prepared.ok_or("no set-up ran")?;
    let phase = measure(
        &prepared,
        options.seed,
        options.seconds,
        BLOCKS,
        options.quick,
        false,
    )?;
    for (i, block) in phase.blocks.iter().enumerate() {
        eprintln!(
            "block {i}: {} queries in {:.3} s, p50 {:.4} ms, p90 {:.4} ms, speed index {:.3}",
            block.attempted,
            block.wall_s,
            percentile(&block.latencies_ms, 0.5),
            percentile(&block.latencies_ms, 0.9),
            block.speed.index
        );
    }
    if workload.open_loop() {
        eprintln!(
            "generator late p90 {:.0} us, mean queue depth {:.2} then {:.2}",
            percentile(&phase.late_us, 0.9),
            phase.queue_depth_halves.0,
            phase.queue_depth_halves.1
        );
    }
    let peak_rss_mb = procfs::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let values = [
        median(&setup_times),
        phase.query_p50_ms(),
        phase.query_p90_ms(),
        phase.queries_per_s(),
        phase.cpu_ms_per_query(),
        phase.model_requests_per_query(),
        phase.model_tokens_per_query(),
        peak_rss_mb,
    ];
    let mut result = RunResult {
        attempted: phase.attempted(),
        failed: phase.failed(),
        invalid: validity(&phase, workload.open_loop(), options.quick),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(def, value)| Metric {
                name: def.name,
                unit: def.unit,
                value,
            })
            .collect(),
    };
    if let Some(bad) = result
        .metrics
        .iter()
        .find(|m| !m.value.is_finite() || (m.value <= 0.0 && !options.quick))
    {
        result
            .invalid
            .push(format!("{} measured as {}", bad.name, bad.value));
    }
    Ok(result)
}

/// Run `workload` in a child process and read its result line.
fn run_child(workload: Workload, options: &Options, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(RunResult::from_json)
        .ok_or_else(|| format!("the {} child printed no result", workload.name()))?;
    if !output.status.success() && result.correct() {
        return Err(format!(
            "the {} child exited with {}",
            workload.name(),
            output.status
        ));
    }
    Ok(result)
}

/// Every workload (or the one named), each run in a process of its own; with
/// `--repeat n`, n runs per workload on consecutive seeds and a table of median, quartiles and
/// inter-quartile spread per (workload, metric). Returns whether every run
/// was correct.
pub fn run_children(options: &Options) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows = Vec::new();
    let workloads = options
        .workload
        .map_or(Workload::ALL.to_vec(), |only| vec![only]);
    for workload in workloads {
        let mut runs = Vec::with_capacity(options.repeat);
        for repeat in 0..options.repeat {
            let seed = options.seed + repeat as u64;
            let result = run_child(workload, options, seed)?;
            if options.repeat == 1 {
                print!("{}", result.table(workload.name()));
            } else {
                eprintln!(
                    "{} seed {seed}: attempted {} failed {} correct {}",
                    workload.name(),
                    result.attempted,
                    result.failed,
                    result.correct()
                );
            }
            all_correct &= result.correct();
            runs.push(result);
        }
        if options.repeat > 1 {
            for (i, first) in runs[0].metrics.iter().enumerate() {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.get(i))
                    .map(|m| m.value)
                    .collect();
                let (q1, q3) = quartiles(&values);
                let mid = median(&values);
                let spread = if mid == 0.0 {
                    0.0
                } else {
                    (q3 - q1) / mid.abs()
                };
                rows.push(format!(
                    "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2} % |",
                    workload.name(),
                    first.name,
                    first.unit,
                    mid,
                    q1,
                    q3,
                    spread * 100.0
                ));
            }
        }
    }
    if options.repeat > 1 {
        println!(
            "| workload | metric | unit | median | q1 | q3 | spread (q3-q1)/median |\n\
             |---|---|---|---|---|---|---|"
        );
        for row in rows {
            println!("{row}");
        }
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contracts_shape_and_reads_back() {
        let result = RunResult {
            attempted: 1000,
            failed: 0,
            invalid: Vec::new(),
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.8127,
                },
                Metric {
                    name: "query_p50_ms",
                    unit: "ms",
                    value: 27.301_234_567_89,
                },
            ],
        };
        let line = result.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"query_p50_ms\": {\"value\": 27.30123456789, \"unit\": \"ms\"}}}"
        );
        let back = RunResult::from_json(&line).unwrap();
        assert_eq!(back.metrics, result.metrics);
        assert!(back.correct());

        let failed = RunResult {
            attempted: 10,
            failed: 2,
            ..RunResult::default()
        };
        assert!(failed
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2"));
        assert!(!RunResult::from_json(&failed.to_json()).unwrap().correct());
        assert!(RunResult::from_json("cargo noise").is_none());
    }
}
