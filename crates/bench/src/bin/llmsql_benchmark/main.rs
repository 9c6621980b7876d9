#![forbid(unsafe_code)]
//! `llmsql_benchmark`: the repository's benchmark.
//!
//! Five workloads drive the engine's public API with a replayed model, each
//! reporting the same end-to-end metrics, every result checked against an
//! oracle; a separate traced run times each layer from outside. `README.md`
//! in this directory explains the workloads, the metrics and how to read
//! them; `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! llmsql_benchmark --workload scan_rtt --seed 1 --seconds 18 --trace 0
//! llmsql_benchmark --seed 1                 # every workload, own process each
//! llmsql_benchmark --seed 1 --repeat 10     # the noise study
//! ```

mod data;
mod metrics;
mod probes;
mod procfs;
mod queries;
mod replay;
mod report;
mod rng;
mod run;
mod speed;
mod stats;
mod trace;
mod traced;
mod workload;

use std::process::ExitCode;

use report::RunResult;
use workload::Workload;

/// What one invocation was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// `None` runs every workload, each in its own child process.
    pub workload: Option<Workload>,
    pub seed: u64,
    /// Seconds the measured phase aims for.
    pub seconds: f64,
    /// Produce the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Runs per workload with consecutive seeds, each in a child process
    /// (the noise study).
    pub repeat: usize,
    /// One block of 20 queries, one set-up: the unit tests' smoke pass.
    pub quick: bool,
    /// Print `BENCHMARK.json` as this build defines it, and exit.
    pub manifest: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workload: None,
            seed: 1,
            seconds: f64::from(metrics::RUN_SECONDS),
            trace: false,
            repeat: 1,
            quick: false,
            manifest: false,
        }
    }
}

const USAGE: &str = "usage: llmsql_benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace [0|1]] [--repeat <n>] [--quick] [--manifest]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&str, String> {
        *i += 1;
        args.get(*i)
            .map(String::as_str)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                options.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                options.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // `--trace 0|1` for the driver; a bare `--trace` means 1.
                options.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                options.repeat = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if options.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--quick" => options.quick = true,
            "--manifest" => options.manifest = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 1;
    }
    Ok(options)
}

/// One workload in this process: the driver's entry point.
fn run_one(workload: Workload, options: &Options) -> Result<RunResult, String> {
    if options.trace {
        traced::run(workload, options)
    } else {
        report::end_to_end(workload, options)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("llmsql_benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if options.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    // Every workload, or a noise study: each run in a child process.
    let (Some(workload), 1) = (options.workload, options.repeat) else {
        return match report::run_children(&options) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("llmsql_benchmark: {message}");
                ExitCode::FAILURE
            }
        };
    };
    match run_one(workload, &options) {
        Ok(result) => {
            // Anything that depends on threads is read against this.
            let cores = std::thread::available_parallelism().map_or(0, usize::from);
            println!("available parallelism: {cores}");
            print!("{}", result.table(workload.name()));
            println!("{}", result.to_json());
            if result.invalid.is_empty() {
                ExitCode::SUCCESS
            } else {
                for reason in &result.invalid {
                    eprintln!("llmsql_benchmark: invalid run: {reason}");
                }
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("llmsql_benchmark: {}: {message}", workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let options = parse_args(&args(
            "--workload tail_faulty --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(options.workload, Some(Workload::TailFaulty));
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (7, 12.0, true)
        );
        let options = parse_args(&args("--trace 0 --workload scan_rtt")).unwrap();
        assert_eq!(
            (options.trace, options.workload),
            (false, Some(Workload::ScanRtt))
        );
        let options = parse_args(&args("--seed 2 --trace --repeat 10 --quick")).unwrap();
        assert!(options.trace && options.quick && options.workload.is_none());
        assert_eq!((options.repeat, options.seed), (10, 2));
        assert_eq!(parse_args(&[]).unwrap(), Options::default());
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--repeat 0",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// The smoke pass of one workload: untraced and traced, every probe and
    /// the trace writer, end to end on tiny inputs. One test per workload so
    /// the harness runs them side by side (most of their time is timers).
    fn quick_pass(workload: Workload) {
        let mut options = Options {
            workload: Some(workload),
            quick: true,
            seed: 3,
            ..Options::default()
        };
        let result = run_one(workload, &options).unwrap();
        assert_eq!(result.failed, 0, "{:?}", result.invalid);
        assert!(result.correct(), "{:?}", result.invalid);
        assert!(result.attempted >= 20);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        // CPU time may read 0 ticks over so short a run; nothing else may.
        assert!(
            result
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && (m.value > 0.0 || m.name == "cpu_ms_per_query")),
            "{:?}",
            result.metrics
        );

        options.trace = true;
        let result = run_one(workload, &options).unwrap();
        assert!(result.correct(), "{:?}", result.invalid);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert_eq!(value("model.replay_misses"), Some(0.0));
        assert!(value("sql.parse_us") > Some(0.0));
        assert!(value("trace.attribution_error_pct") <= Some(1.0));
        let text = std::fs::read_to_string(traced::trace_path(workload)).unwrap();
        for span in [
            "\"query\"",
            "\"core.execute\"",
            "\"model.request\"",
            "\"probe.sql\"",
        ] {
            assert!(text.contains(span), "no {span} span");
        }
        // Round trip through the line the driver reads.
        let parsed = RunResult::from_json(&result.to_json()).unwrap();
        assert_eq!(parsed.metrics, result.metrics);
        assert_eq!(
            (parsed.attempted, parsed.failed),
            (result.attempted, result.failed)
        );
    }

    #[test]
    fn quick_pass_scan_rtt() {
        quick_pass(Workload::ScanRtt);
    }

    #[test]
    fn quick_pass_cpu_stack() {
        quick_pass(Workload::CpuStack);
    }

    #[test]
    fn quick_pass_cached_analytics() {
        quick_pass(Workload::CachedAnalytics);
    }

    #[test]
    fn quick_pass_tenants_open() {
        quick_pass(Workload::TenantsOpen);
    }

    #[test]
    fn quick_pass_tail_faulty() {
        quick_pass(Workload::TailFaulty);
    }
}
