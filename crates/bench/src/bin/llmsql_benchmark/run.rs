//! The measured phase: the closed-loop client, the open-loop generator, and
//! the per-block numbers both produce.
//!
//! A run measures five equal blocks. Every end-to-end metric is computed per
//! block and the median of the block values is reported, so one block hit by
//! a noisy neighbour does not move the result. CPU time is taken over the
//! whole phase because `/proc` counts it in 10 ms ticks.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use llmsql_sched::{QueryOutcome, QueryTicket};
use llmsql_types::Priority;

use crate::procfs;
use crate::queries::Arrival;
use crate::replay::ModelCounters;
use crate::speed::{Speed, SpeedMeter};
use crate::stats::{median, percentile};
use crate::workload::{tenant_name, CacheClear, Failure, Prepared, Target};

/// Blocks per measured phase.
pub const BLOCKS: usize = 5;

/// One executed query as the client saw it.
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// Index into the workload's distinct queries.
    pub query: usize,
    /// Closed loop: just before `execute`. Open loop: the due time.
    pub start: Instant,
    /// When the rows were available.
    pub end: Instant,
    pub ok: bool,
    /// Open loop only: what the scheduler reported for this query.
    pub sched: Option<SchedSample>,
}

/// Scheduler-side view of one open-loop query.
#[derive(Debug, Clone)]
pub struct SchedSample {
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub queue_ms: f64,
    pub run_ms: f64,
    pub slot_wait_ms: f64,
    pub rejected: bool,
}

/// One block of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub attempted: u64,
    pub failed: u64,
    /// Logical calls the succeeded queries asked for.
    pub logical_calls: u64,
    /// Latencies of the succeeded queries, ms — on a CPU-bound workload each
    /// already divided by the machine's speed index at the time it ran.
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    /// Requests, tokens and replay misses the model saw during the block.
    pub model: ModelCounters,
    /// Machine speed over the block (see `speed.rs`).
    pub speed: Speed,
}

impl Block {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    fn per_query(&self, total: u64) -> f64 {
        total as f64 / self.succeeded().max(1) as f64
    }
}

/// The measured phase of one run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// The workload is CPU-bound: every millisecond of a query scales with
    /// the machine, so latencies and throughput are brought to nominal speed.
    /// Timer-bound latencies do not scale, and stay as measured.
    pub calibrate_time: bool,
    pub blocks: Vec<Block>,
    /// Process CPU seconds (all threads) over the whole phase.
    pub cpu_s: f64,
    pub context_switches: u64,
    /// Open loop: how late each arrival event was submitted, µs.
    pub late_us: Vec<f64>,
    /// Open loop: mean scheduler queue depth over the first and second half
    /// of the schedule (a growing backlog shows in the second).
    pub queue_depth_halves: (f64, f64),
    /// Every query of the phase, when the caller asked to keep them.
    pub samples: Vec<QuerySample>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.blocks.iter().map(|b| b.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.blocks.iter().map(|b| b.failed).sum()
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted() - self.failed()
    }

    pub fn logical_calls(&self) -> u64 {
        self.blocks.iter().map(|b| b.logical_calls).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.wall_s).sum()
    }

    pub fn replay_misses(&self) -> u64 {
        self.blocks.iter().map(|b| b.model.misses).sum()
    }

    fn block_median(&self, value: impl Fn(&Block) -> f64) -> f64 {
        median(&self.blocks.iter().map(value).collect::<Vec<_>>())
    }

    pub fn query_p50_ms(&self) -> f64 {
        self.block_median(|b| percentile(&b.latencies_ms, 0.5))
    }

    pub fn query_p90_ms(&self) -> f64 {
        self.block_median(|b| percentile(&b.latencies_ms, 0.9))
    }

    /// Succeeded queries per second of the block, the meter's own time out;
    /// at nominal machine speed on a CPU-bound workload.
    pub fn queries_per_s(&self) -> f64 {
        self.block_median(|b| {
            let index = if self.calibrate_time {
                b.speed.index
            } else {
                1.0
            };
            b.succeeded() as f64 * index / (b.wall_s - b.speed.kernel_s).max(1e-9)
        })
    }

    /// CPU per succeeded query at nominal machine speed, the meter's own CPU
    /// out. CPU time scales with the machine on every workload; it is only
    /// known for the whole phase (10 ms ticks), so each block's queries are
    /// weighted by the block's speed index: `cpu = c · Σ queries_b · index_b`.
    pub fn cpu_ms_per_query(&self) -> f64 {
        let kernel_s: f64 = self.blocks.iter().map(|b| b.speed.kernel_s).sum();
        let weighted_queries: f64 = self
            .blocks
            .iter()
            .map(|b| b.succeeded() as f64 * b.speed.index)
            .sum();
        (self.cpu_s - kernel_s).max(0.0) * 1000.0 / weighted_queries.max(1e-9)
    }

    pub fn model_requests_per_query(&self) -> f64 {
        self.block_median(|b| b.per_query(b.model.requests))
    }

    pub fn model_tokens_per_query(&self) -> f64 {
        self.block_median(|b| b.per_query(b.model.tokens))
    }

    /// All succeeded latencies of the phase, pooled.
    pub fn pooled_latencies_ms(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.latencies_ms.iter().copied())
            .collect()
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1000.0
}

/// Wrap a phase body with the process-wide CPU and context-switch readings.
fn with_process_counters(body: impl FnOnce() -> Result<Phase, Failure>) -> Result<Phase, Failure> {
    let read = || {
        procfs::cpu_seconds()
            .zip(procfs::context_switches())
            .ok_or_else(|| "cannot read /proc/self: CPU time is unmeasurable here".to_string())
    };
    let (cpu_before, ctx_before) = read()?;
    let mut phase = body()?;
    let (cpu_after, ctx_after) = read()?;
    phase.cpu_s = cpu_after - cpu_before;
    phase.context_switches = ctx_after.saturating_sub(ctx_before);
    Ok(phase)
}

/// How long one closed-loop block runs.
#[derive(Debug, Clone, Copy)]
pub enum BlockSize {
    /// Whole mix periods of `period` queries until `seconds` have passed:
    /// every block asks for the same mix of work, and no estimate of the
    /// query time is needed to fit the time budget.
    Timed { seconds: f64, period: usize },
    /// Exactly this many queries (the `--quick` pass).
    Queries(usize),
}

/// Closed loop, one client: `blocks` blocks walking the cycle (all passes
/// over the distinct queries, in their seeded order), each continuing where
/// the one before stopped. The cache is emptied where the workload says so and the speed meter runs,
/// both outside the latency timer; each result is checked right after the
/// timer stops.
pub fn closed_loop(
    prepared: &Prepared,
    blocks: usize,
    size: BlockSize,
    keep_samples: bool,
) -> Result<Phase, Failure> {
    let distinct = prepared.queries.len();
    let cycle = distinct * prepared.workload.passes_per_cycle();
    let clear = prepared.workload.cache_clear();
    let calibrate_time = prepared.workload.cpu_bound();
    with_process_counters(|| {
        let mut phase = Phase {
            calibrate_time,
            ..Phase::default()
        };
        let mut meter = SpeedMeter::new();
        let mut position = 0usize;
        for _ in 0..blocks {
            let mut block = Block::default();
            let model_before = prepared.model.counters();
            let block_started = Instant::now();
            loop {
                let done = match size {
                    BlockSize::Queries(n) => block.attempted >= n as u64,
                    BlockSize::Timed { seconds, period } => {
                        block.attempted > 0
                            && block.attempted.is_multiple_of(period as u64)
                            && block_started.elapsed().as_secs_f64() >= seconds
                    }
                };
                if done {
                    break;
                }
                meter.tick();
                if clear == CacheClear::EveryQuery
                    || (clear == CacheClear::EveryCycle && position.is_multiple_of(cycle))
                {
                    prepared.clear_cache();
                }
                let query = position % distinct;
                position += 1;
                let start = Instant::now();
                let result = prepared
                    .target
                    .engine()
                    .execute(&prepared.queries[query].sql);
                let end = Instant::now();
                let ok = match &result {
                    Ok(result) => prepared.judge(query, result.rows(), result.metrics.llm_calls()),
                    Err(_) => false,
                };
                block.attempted += 1;
                if ok {
                    block.logical_calls += prepared.expected[query].logical_calls;
                    let index = if calibrate_time {
                        meter.local_index()
                    } else {
                        1.0
                    };
                    block.latencies_ms.push(ms(end - start) / index);
                } else {
                    block.failed += 1;
                }
                if keep_samples {
                    phase.samples.push(QuerySample {
                        query,
                        start,
                        end,
                        ok,
                        sched: None,
                    });
                }
            }
            block.wall_s = block_started.elapsed().as_secs_f64();
            block.model = prepared.model.counters().since(&model_before);
            block.speed = meter.take();
            phase.blocks.push(block);
        }
        Ok(phase)
    })
}

/// The generator runs the speed meter only when the next event is at least
/// this far off, microseconds (the kernel takes about 150).
const METER_GAP_US: u64 = 1_000;

/// How long before a due time the generator stops sleeping and spins: the
/// kernel may wake a sleeper this much late.
const SPIN_MARGIN: Duration = Duration::from_micros(200);

fn wait_until(due: Instant) {
    let now = Instant::now();
    if let Some(sleep) = due
        .checked_duration_since(now)
        .and_then(|left| left.checked_sub(SPIN_MARGIN))
    {
        std::thread::sleep(sleep);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// What the generator hands the collector for each submitted query.
struct Submitted {
    query: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    /// `None` when admission rejected the query.
    ticket: Option<QueryTicket>,
}

/// Open loop: one generator thread (this one) submits the schedule at its
/// due times whatever the scheduler's state; one collector thread takes the
/// outcomes. Latency is counted from the *due* time, so a stalled generator
/// or a growing queue shows as latency on the queries it delayed. The
/// schedule is cut into `blocks` equal windows of due time.
pub fn open_loop(
    prepared: &Prepared,
    schedule: &[Arrival],
    duration_s: f64,
    blocks: usize,
    keep_samples: bool,
) -> Result<Phase, Failure> {
    let Target::Scheduled(scheduler) = &prepared.target else {
        return Err("the open-loop phase needs the scheduler".to_string());
    };
    with_process_counters(|| {
        let (sender, receiver) = mpsc::channel::<Submitted>();
        let window_us = (duration_s * 1e6 / blocks as f64).max(1.0);
        let block_of = |due_us: u64| ((due_us as f64 / window_us) as usize).min(blocks - 1);
        let epoch = Instant::now() + Duration::from_millis(5);
        let due_us_of = |due: Instant| due.saturating_duration_since(epoch).as_micros() as u64;

        std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let mut per_block: Vec<Block> = vec![Block::default(); blocks];
                let mut samples = Vec::new();
                for mut submitted in receiver {
                    let block = &mut per_block[block_of(due_us_of(submitted.due))];
                    block.attempted += 1;
                    let outcome = submitted.ticket.take().map(QueryTicket::wait);
                    let held_at = Instant::now();
                    let (ok, end, sched) = judge_outcome(prepared, &submitted, outcome.as_ref());
                    // Tickets are awaited in submission order, so `held_at`
                    // can be long after an earlier-finished query completed;
                    // it still bounds the completion from above.
                    let end = end.min(held_at);
                    if ok {
                        block.logical_calls += prepared.expected[submitted.query].logical_calls;
                        block.latencies_ms.push(ms(end - submitted.due));
                    } else {
                        block.failed += 1;
                    }
                    if keep_samples {
                        samples.push(QuerySample {
                            query: submitted.query,
                            start: submitted.due,
                            end,
                            ok,
                            sched: Some(sched),
                        });
                    }
                }
                (per_block, samples)
            });

            let mut phase = Phase::default();
            let mut meter = SpeedMeter::new();
            let mut speeds = Vec::with_capacity(blocks);
            let mut boundaries = vec![prepared.model.counters()];
            let mut depth_sums = [(0.0f64, 0usize); 2];
            for (i, arrival) in schedule.iter().enumerate() {
                let due = epoch + Duration::from_micros(arrival.due_us);
                wait_until(due);
                // The first event of a window reads the model's counters: the
                // closest this thread comes to the window's boundary.
                while boundaries.len() <= block_of(arrival.due_us) {
                    boundaries.push(prepared.model.counters());
                    speeds.push(meter.take());
                }
                phase.late_us.push(ms(Instant::now() - due) * 1000.0);
                for copy in 0..arrival.copies {
                    let submit_start = Instant::now();
                    let ticket = scheduler
                        .submit(
                            tenant_name(arrival.tenant + copy),
                            Priority::NORMAL,
                            prepared.queries[arrival.query].sql.as_str(),
                        )
                        .ok();
                    let submitted = Submitted {
                        query: arrival.query,
                        due,
                        submit_start,
                        submit_end: Instant::now(),
                        ticket,
                    };
                    if sender.send(submitted).is_err() {
                        break; // the collector died; its panic surfaces at join
                    }
                }
                let half = usize::from(arrival.due_us as f64 >= duration_s * 0.5e6);
                depth_sums[half].0 += scheduler.stats().queued as f64;
                depth_sums[half].1 += 1;
                // The speed meter runs in the gaps, never into a due time.
                let next_due_us = schedule.get(i + 1).map_or(u64::MAX, |next| next.due_us);
                if next_due_us.saturating_sub(arrival.due_us) > METER_GAP_US
                    && epoch + Duration::from_micros(next_due_us - METER_GAP_US) > Instant::now()
                {
                    meter.tick();
                }
            }
            drop(sender);
            let (mut per_block, samples) = collector
                .join()
                .map_err(|_| "the open-loop collector panicked".to_string())?;
            // Everything has drained: the last window's requests are all in.
            while boundaries.len() <= blocks {
                boundaries.push(prepared.model.counters());
                speeds.push(meter.take());
            }
            for (i, block) in per_block.iter_mut().enumerate() {
                block.wall_s = window_us / 1e6;
                block.model = boundaries[i + 1].since(&boundaries[i]);
                // The generator's meter time is not the workers': the
                // window's wall time stays whole.
                block.speed = Speed {
                    kernel_s: 0.0,
                    ..speeds[i]
                };
            }
            phase.blocks = per_block;
            phase.samples = samples;
            let mean = |(sum, n): (f64, usize)| sum / n.max(1) as f64;
            phase.queue_depth_halves = (mean(depth_sums[0]), mean(depth_sums[1]));
            Ok(phase)
        })
    })
}

/// Judge one open-loop outcome and place its completion on the client's
/// clock: admission time plus the queue and run times the scheduler reports.
fn judge_outcome(
    prepared: &Prepared,
    submitted: &Submitted,
    outcome: Option<&QueryOutcome>,
) -> (bool, Instant, SchedSample) {
    let mut sched = SchedSample {
        submit_start: submitted.submit_start,
        submit_end: submitted.submit_end,
        queue_ms: 0.0,
        run_ms: 0.0,
        slot_wait_ms: 0.0,
        rejected: outcome.is_none(),
    };
    let Some(outcome) = outcome else {
        return (false, submitted.submit_end, sched);
    };
    sched.queue_ms = outcome.queue_ms;
    sched.run_ms = outcome.run_ms;
    sched.slot_wait_ms = outcome.slot_wait_ms;
    let end = submitted.submit_end
        + Duration::from_secs_f64((outcome.queue_ms + outcome.run_ms).max(0.0) / 1000.0);
    let ok = match &outcome.result {
        Ok(result) => prepared.judge(submitted.query, result.rows(), outcome.llm_calls),
        Err(_) => false,
    };
    (ok, end, sched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(latencies: &[f64], failed: u64, requests: u64) -> Block {
        Block {
            attempted: latencies.len() as u64 + failed,
            failed,
            logical_calls: 20 * latencies.len() as u64,
            latencies_ms: latencies.to_vec(),
            wall_s: 2.0,
            model: ModelCounters {
                requests,
                tokens: requests * 100,
                misses: 0,
            },
            speed: Speed::default(),
        }
    }

    #[test]
    fn phase_reports_the_median_of_its_block_values() {
        let phase = Phase {
            blocks: vec![
                block(&[1.0, 2.0, 3.0, 4.0], 0, 80),
                block(&[10.0, 20.0, 30.0, 40.0], 0, 40),
                block(&[2.0, 3.0, 4.0, 5.0], 1, 120),
            ],
            cpu_s: 0.022,
            ..Phase::default()
        };
        assert_eq!(phase.query_p50_ms(), 3.0);
        assert_eq!(phase.query_p90_ms(), 5.0);
        assert_eq!(phase.queries_per_s(), 2.0);
        assert_eq!((phase.attempted(), phase.failed()), (13, 1));
        assert_eq!(phase.model_requests_per_query(), 20.0);
        assert_eq!(phase.model_tokens_per_query(), 2000.0);
        assert!((phase.cpu_ms_per_query() - 22.0 / 12.0).abs() < 1e-12);
        assert_eq!(phase.pooled_latencies_ms().len(), 12);
    }

    #[test]
    fn a_slowed_machine_reads_the_same_at_nominal_speed() {
        // The same work on a machine that is 1.5x slower in the second block:
        // wall time and CPU stretch, the calibrated metrics do not. (The
        // closed loop has already divided each latency by the local index.)
        let quiet = block(&[1.0, 2.0, 3.0, 4.0], 0, 80);
        let mut slowed = quiet.clone();
        slowed.wall_s = 3.0;
        slowed.speed = Speed {
            index: 1.5,
            kernel_s: 0.0,
        };
        let mut phase = Phase {
            calibrate_time: true,
            blocks: vec![quiet.clone(), slowed.clone(), quiet],
            cpu_s: 0.002 * (4.0 + 6.0 + 4.0),
            ..Phase::default()
        };
        assert_eq!(phase.queries_per_s(), 2.0);
        assert!((phase.cpu_ms_per_query() - 2.0).abs() < 1e-12);
        // Timer-bound workloads keep their throughput as measured; only CPU
        // time is brought to nominal speed.
        phase.calibrate_time = false;
        phase.blocks = vec![slowed.clone(), slowed.clone(), slowed];
        assert!((phase.queries_per_s() - 4.0 / 3.0).abs() < 1e-12);
        // The meter's own time is not the workload's.
        phase.blocks[0].speed.kernel_s = 1.0;
        phase.cpu_s = 1.0 + 0.003 * 12.0;
        assert!((phase.cpu_ms_per_query() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wait_until_never_returns_early() {
        for micros in [0u64, 50, 400, 1500] {
            let due = Instant::now() + Duration::from_micros(micros);
            wait_until(due);
            assert!(Instant::now() >= due);
        }
    }
}
