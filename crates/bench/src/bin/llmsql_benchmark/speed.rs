//! The machine-speed meter.
//!
//! On a shared host the same CPU-bound work takes 30 % longer from one
//! minute to the next (neighbours on the sibling hyperthread and in the
//! cache), which is far more than any bound the benchmark wants to hold. The
//! slowdown is common to everything the core runs: a small fixed kernel of
//! the same kind of work the engine does (formatting strings, filling and
//! probing a hash map, sorting) tracks it closely — over one-second windows
//! its time and the `cpu_stack` query latency correlated at 0.998 while both
//! doubled. So the measured loop runs the kernel every 20 ms, outside every
//! timer. The **speed index** is a median kernel time divided by a nominal
//! constant: over the last seven runs (140 ms) for the latency of the query
//! that follows, over the whole block for the block's throughput and CPU
//! time. CPU-bound metrics are divided by the index: they read in
//! milliseconds of a machine on which the kernel takes its nominal time. The kernel is the benchmark's own code and depends on
//! no engine crate, so it is the same on both sides of any comparison and
//! the constant cancels.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Kernel time on the machine the first numbers were taken on, when quiet.
const NOMINAL_KERNEL_NS: f64 = 145_000.0;

/// The kernel runs at most this often, so it costs under 1 % of a core.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Kernel runs the local index is the median of: enough to shrug off one
/// odd run, few enough to follow a slowdown that lasts a fraction of a second.
const LOCAL_WINDOW: usize = 7;

/// A fixed piece of allocation-, hash- and compare-heavy work.
fn kernel() -> usize {
    let mut map: HashMap<String, usize> = HashMap::with_capacity(600);
    let mut keys = Vec::with_capacity(600);
    for i in 0..600usize {
        let key = format!("key-{}-{i}", i * 7919 % 1000);
        map.insert(key.clone(), i);
        keys.push(key);
    }
    let hits = keys.iter().filter(|key| map.contains_key(*key)).count();
    keys.sort_unstable();
    hits + keys.len()
}

/// The speed index from `runs` kernel runs back to back: for work too short
/// to interleave the meter with, measured before and after it.
pub fn spot_index(runs: usize) -> f64 {
    let samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) / NOMINAL_KERNEL_NS
}

/// What the meter saw over one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Median kernel time over nominal: above 1 on a slowed machine.
    pub index: f64,
    /// Wall time the kernel runs took, to be taken out of the block's.
    pub kernel_s: f64,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed {
            index: 1.0,
            kernel_s: 0.0,
        }
    }
}

pub struct SpeedMeter {
    last: Instant,
    /// Kernel times since the last [`SpeedMeter::take`].
    samples_ns: Vec<f64>,
    /// The last [`LOCAL_WINDOW`] kernel times, and the index they give.
    recent_ns: VecDeque<f64>,
    local_index: f64,
}

impl SpeedMeter {
    pub fn new() -> SpeedMeter {
        SpeedMeter {
            last: Instant::now(),
            samples_ns: Vec::new(),
            recent_ns: VecDeque::with_capacity(LOCAL_WINDOW + 1),
            local_index: 1.0,
        }
    }

    /// Run the kernel once if the last run is old enough. Call between
    /// queries, outside any timer.
    pub fn tick(&mut self) {
        let start = Instant::now();
        if start.duration_since(self.last) < SAMPLE_EVERY {
            return;
        }
        black_box(kernel());
        let end = Instant::now();
        let kernel_ns = (end - start).as_nanos() as f64;
        self.samples_ns.push(kernel_ns);
        self.recent_ns.push_back(kernel_ns);
        if self.recent_ns.len() > LOCAL_WINDOW {
            self.recent_ns.pop_front();
        }
        self.local_index = median(self.recent_ns.make_contiguous()) / NOMINAL_KERNEL_NS;
        self.last = end;
    }

    /// The speed index right now: median of the last few kernel runs over
    /// nominal (1 before the first run).
    pub fn local_index(&self) -> f64 {
        self.local_index
    }

    /// Close a block: its speed, and start collecting for the next one.
    pub fn take(&mut self) -> Speed {
        let samples = std::mem::take(&mut self.samples_ns);
        if samples.is_empty() {
            return Speed::default();
        }
        Speed {
            index: median(&samples) / NOMINAL_KERNEL_NS,
            kernel_s: samples.iter().sum::<f64>() / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_samples_at_its_own_pace_and_reports_a_positive_index() {
        let mut meter = SpeedMeter::new();
        meter.tick(); // too soon after construction
        assert_eq!(meter.take(), Speed::default());
        assert_eq!(meter.local_index(), 1.0);
        std::thread::sleep(SAMPLE_EVERY);
        meter.tick();
        meter.tick(); // too soon after the first
        assert_eq!(meter.samples_ns.len(), 1);
        let local = meter.local_index();
        let speed = meter.take();
        assert!(speed.index > 0.0 && speed.kernel_s > 0.0);
        assert_eq!(local, speed.index);
        assert!(meter.samples_ns.is_empty());
        assert_eq!(kernel(), 1200);
        assert!(spot_index(3) > 0.0);
    }
}
