//! Per-run accounting: attempts, failures, latencies and set-up times,
//! folded into the end-to-end metrics.
//!
//! Every set-up and every timed region is a [`Window`] that also counts
//! the CPU time the hypervisor stole from this machine meanwhile. Windows
//! in which more than [`STEAL_SHARE`] of the machine's CPU time was
//! stolen are disturbed: the metrics come from the undisturbed ones, so a
//! neighbour's burst of load does not read as a change in the program.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::Range;
use std::time::Instant;

use crate::stats::{self, Percentile};

/// Failure descriptions kept for the report (the count is exact).
const KEPT_NOTES: usize = 8;

/// Share of the machine's CPU time that, once stolen within a window,
/// marks the window disturbed.
pub const STEAL_SHARE: f64 = 0.02;

/// Undisturbed blocks a run needs before its metrics ignore the
/// disturbed ones.
const MIN_UNDISTURBED: usize = 3;

/// A stretch of wall time, with the steal counter at its start.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    started: Instant,
    steal: u64,
}

impl Window {
    /// Starts a window now.
    pub fn open() -> Self {
        // Read the counter first so the read stays outside the window.
        let steal = crate::steal_ticks();
        Window { started: Instant::now(), steal }
    }

    /// Seconds since the start, and whether the window stayed undisturbed.
    fn close(self) -> (f64, bool) {
        let secs = self.started.elapsed().as_secs_f64();
        (secs, undisturbed(secs, crate::steal_ticks().saturating_sub(self.steal)))
    }
}

/// Whether `steal` clock ticks over `secs` of wall time stay within
/// [`STEAL_SHARE`] of the machine's CPU time.
pub fn undisturbed(secs: f64, steal: u64) -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    steal as f64 <= STEAL_SHARE * secs * crate::TICKS_PER_S * cpus
}

/// One timed region (one deployment's load).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStat {
    /// Operations completed in it.
    pub completed: u64,
    /// Its wall time (seconds).
    pub secs: f64,
    /// Peak resident set of the block's deployment and load (KiB).
    pub peak_kib: f64,
    /// Its latency samples, as a range of the run's samples.
    pub lat: Range<usize>,
    /// Whether the hypervisor left it undisturbed.
    pub undisturbed: bool,
}

/// Everything one run of a workload observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// One entry per deployment made: seconds, and whether undisturbed.
    pub setups: Vec<(f64, bool)>,
    /// Per-operation latency of completed operations (µs).
    pub lat_us: Vec<f64>,
    /// Wall time inside timed regions (seconds).
    pub timed_s: f64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations completed with the expected outcome.
    pub completed: u64,
    /// Operations that errored, were refused, or broke an oracle.
    pub failed: u64,
    /// Delivered events that carried a continuation.
    pub events: u64,
    /// Continuation wire bytes of those events.
    pub wire_bytes: u64,
    /// Resident-set growth inside timed regions (KiB).
    pub rss_growth_kib: f64,
    /// One entry per timed region.
    pub blocks: Vec<BlockStat>,
    /// Layer counters summed over the run (per-layer report only).
    pub counters: BTreeMap<&'static str, f64>,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Accounts one issued operation from its start to its outcome.
    pub fn record<T, E: Display>(&mut self, started: Instant, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => {
                self.completed += 1;
                self.lat_us.push(started.elapsed().as_secs_f64() * 1e6);
                Some(v)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// An issued operation that failed or was refused.
    pub fn fail_attempt(&mut self, why: impl Display) {
        self.attempted += 1;
        self.fail(why);
    }

    /// A completed operation whose output broke an oracle: it no longer
    /// counts as completed.
    pub fn mismatch(&mut self, why: impl Display) {
        self.completed = self.completed.saturating_sub(1);
        self.fail(why);
    }

    /// A run-level oracle (exactly-once count, orphan sweep) that failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    fn fail(&mut self, why: impl Display) {
        self.failed += 1;
        if self.notes.len() < KEPT_NOTES {
            self.notes.push(why.to_string());
        }
    }

    /// Adds to a layer counter.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// Records one deployment's set-up time.
    pub fn setup(&mut self, w: Window) {
        self.setups.push(w.close());
    }

    /// Closes one timed region: everything completed since the previous
    /// region closed belongs to it.
    pub fn timed(&mut self, w: Window) {
        let (secs, undisturbed) = w.close();
        let done: u64 = self.blocks.iter().map(|b| b.completed).sum();
        let from = self.blocks.last().map_or(0, |b| b.lat.end);
        self.blocks.push(BlockStat {
            completed: self.completed - done,
            secs,
            peak_kib: crate::peak_rss_kib(),
            lat: from..self.lat_us.len(),
            undisturbed,
        });
        self.timed_s += secs;
    }

    /// Wall time of the undisturbed timed regions so far.
    pub fn undisturbed_s(&self) -> f64 {
        self.blocks.iter().filter(|b| b.undisturbed).map(|b| b.secs).sum()
    }

    /// The blocks the metrics come from: the undisturbed ones, or all of
    /// them when too few were undisturbed to stand alone.
    pub fn measured(&self) -> Vec<&BlockStat> {
        let quiet: Vec<&BlockStat> = self.blocks.iter().filter(|b| b.undisturbed).collect();
        if quiet.len() >= MIN_UNDISTURBED {
            quiet
        } else {
            self.blocks.iter().collect()
        }
    }

    /// Share of attempted operations that failed.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// Whether every operation and oracle passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Median set-up time over the undisturbed deployments (all of them
    /// when none was).
    pub fn setup_s(&self) -> f64 {
        let quiet: Vec<f64> = self.setups.iter().filter(|s| s.1).map(|s| s.0).collect();
        match quiet.is_empty() {
            true => stats::median(&self.setups.iter().map(|s| s.0).collect::<Vec<_>>()),
            false => stats::median(&quiet),
        }
    }

    /// Latency percentile `p` over the measured blocks' operations, if at
    /// least ten samples lie beyond it.
    pub fn latency(&self, p: f64) -> Option<Percentile> {
        let lat: Vec<f64> = self
            .measured()
            .iter()
            .flat_map(|b| self.lat_us[b.lat.clone()].iter().copied())
            .collect();
        stats::percentile(&stats::sorted(lat), p)
    }

    /// Median over the measured blocks of a per-block figure. A block
    /// slowed by a burst that steal accounting missed moves this by one
    /// rank, not by its share of the run.
    pub fn block_median(&self, f: impl Fn(&BlockStat) -> f64) -> f64 {
        stats::median(&self.measured().into_iter().map(f).collect::<Vec<_>>())
    }

    /// Median over the measured blocks of completed operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.block_median(|b| b.completed as f64 / b.secs.max(1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_and_failed_operations_count_in_failed_ratio() {
        let mut t = Tally::default();
        let now = Instant::now();
        assert_eq!(t.record::<u32, String>(now, Ok(1)), Some(1));
        assert_eq!(t.record::<u32, String>(now, Err("shed: ingress queue full".into())), None);
        t.fail_attempt("refused before it was issued");
        assert_eq!(t.record::<u32, String>(now, Ok(2)), Some(2));
        t.mismatch("digest differs from the reference");
        assert_eq!((t.attempted, t.completed, t.failed), (4, 1, 3));
        assert_eq!(t.failed_ratio(), 0.75);
        assert!(!t.correct());
        assert_eq!(t.lat_us.len(), 2, "only completed calls carry a latency");
    }

    #[test]
    fn a_failed_run_level_oracle_is_a_failure() {
        let mut t = Tally::default();
        t.record::<(), String>(Instant::now(), Ok(()));
        assert!(t.correct());
        t.check(true, || unreachable!());
        t.check(false, || "2 orphaned slots".into());
        assert_eq!(t.failed, 1);
        assert!(!t.correct());
        assert_eq!(t.notes, vec!["2 orphaned slots".to_string()]);
    }

    fn block(completed: u64, secs: f64, lat: Range<usize>, undisturbed: bool) -> BlockStat {
        BlockStat { completed, secs, peak_kib: 1.0, lat, undisturbed }
    }

    #[test]
    fn timed_regions_split_the_operations_and_samples_into_blocks() {
        let mut t = Tally { completed: 2000, lat_us: vec![1.0; 2000], ..Tally::default() };
        t.timed(Window::open());
        t.completed += 1000;
        t.lat_us.extend([2.0; 1000]);
        t.timed(Window::open());
        let split: Vec<(u64, Range<usize>)> =
            t.blocks.iter().map(|b| (b.completed, b.lat.clone())).collect();
        assert_eq!(split, vec![(2000, 0..2000), (1000, 2000..3000)]);
    }

    #[test]
    fn disturbed_blocks_are_left_out_once_enough_blocks_are_undisturbed() {
        let mut t = Tally {
            lat_us: (1..=4000).map(f64::from).collect(),
            blocks: vec![
                block(1000, 1.0, 0..1000, true),
                block(100, 1.0, 1000..2000, false),
                block(2000, 1.0, 2000..3000, true),
            ],
            ..Tally::default()
        };
        // Two undisturbed blocks are too few: every block counts.
        assert_eq!(t.ops_per_s(), 1000.0);
        assert_eq!(t.latency(50.0).map(|q| q.samples), Some(3000));
        t.blocks.push(block(3000, 1.0, 3000..4000, true));
        assert_eq!(t.ops_per_s(), 2000.0, "median of 1000, 2000 and 3000 ops/s");
        let p50 = t.latency(50.0).unwrap();
        assert_eq!((p50.samples, p50.value), (3000, 2500.0));
        assert_eq!(t.undisturbed_s(), 3.0);
    }

    #[test]
    fn steal_above_its_share_of_cpu_time_disturbs_a_window() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let allowed = (STEAL_SHARE * 10.0 * crate::TICKS_PER_S * cpus) as u64;
        assert!(undisturbed(10.0, 0));
        assert!(undisturbed(10.0, allowed));
        assert!(!undisturbed(10.0, allowed + 1));
    }

    #[test]
    fn setup_time_is_the_median_of_undisturbed_deployments() {
        let mut t =
            Tally { setups: vec![(1.0, true), (9.0, false), (3.0, true)], ..Tally::default() };
        assert_eq!(t.setup_s(), 2.0);
        t.setups = vec![(1.0, false), (9.0, false), (3.0, false)];
        assert_eq!(t.setup_s(), 3.0);
    }

    #[test]
    fn a_run_with_nothing_attempted_is_not_correct() {
        let t = Tally::default();
        assert!(!t.correct());
        assert_eq!(t.failed_ratio(), 1.0);
    }
}
