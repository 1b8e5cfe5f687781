//! Per-processor execution time breakdowns and event counters.
//!
//! The six buckets mirror the paper's figures exactly (Figure 3 caption):
//! Compute, Data Wait, Lock Wait, Barrier Wait, Handler Compute, and
//! CPU-Cache Stall time. Times are virtual cycles. Each bucket is also
//! recorded per application *phase* so harnesses can report statements like
//! "tree building takes 43% of the time under SVM".

/// Maximum number of application phases tracked per run.
pub const MAX_PHASES: usize = 8;

/// Execution time categories, matching the paper's breakdown figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Bucket {
    /// Time executing application instructions.
    Compute = 0,
    /// Time waiting for data at remote faults / misses (communication).
    DataWait = 1,
    /// Time waiting at lock acquires, including protocol overhead.
    LockWait = 2,
    /// Time waiting at barriers, including protocol overhead.
    BarrierWait = 3,
    /// Time spent in protocol processing (twins, diffs, request service).
    HandlerCompute = 4,
    /// Time stalled on local cache misses.
    CacheStall = 5,
}

impl Bucket {
    /// All buckets in display order.
    pub const ALL: [Bucket; 6] = [
        Bucket::Compute,
        Bucket::DataWait,
        Bucket::LockWait,
        Bucket::BarrierWait,
        Bucket::HandlerCompute,
        Bucket::CacheStall,
    ];

    /// Short label used by the figure harness.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Compute => "Compute",
            Bucket::DataWait => "DataWait",
            Bucket::LockWait => "LockWait",
            Bucket::BarrierWait => "BarrierWait",
            Bucket::HandlerCompute => "HandlerCompute",
            Bucket::CacheStall => "CacheStall",
        }
    }
}

/// Event counters useful for diagnosing protocol behaviour (the paper's
/// discussion of "number of pages fetched is balanced but cost is not" is
/// made checkable through these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    /// Remote page faults serviced (SVM) or remote L2 misses (hardware).
    pub remote_fetches: u64,
    /// Local cache misses (any level causing stall).
    pub cache_misses: u64,
    /// Lock acquires performed.
    pub lock_acquires: u64,
    /// Barrier episodes participated in.
    pub barriers: u64,
    /// Diffs created (SVM only).
    pub diffs_created: u64,
    /// Diffs applied at this node's homes (SVM only).
    pub diffs_applied: u64,
    /// Twins created (SVM only).
    pub twins_created: u64,
    /// Bytes moved over the interconnect on behalf of this processor.
    pub bytes_transferred: u64,
    /// Write notices received and applied (SVM only).
    pub invalidations: u64,
    /// Shared loads+stores issued.
    pub accesses: u64,
}

impl Counter {
    fn add(&mut self, o: &Counter) {
        self.remote_fetches += o.remote_fetches;
        self.cache_misses += o.cache_misses;
        self.lock_acquires += o.lock_acquires;
        self.barriers += o.barriers;
        self.diffs_created += o.diffs_created;
        self.diffs_applied += o.diffs_applied;
        self.twins_created += o.twins_created;
        self.bytes_transferred += o.bytes_transferred;
        self.invalidations += o.invalidations;
        self.accesses += o.accesses;
    }
}

/// Statistics for one simulated processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcStats {
    buckets: [u64; 6],
    per_phase: [[u64; 6]; MAX_PHASES],
    phase: usize,
    phase_overflows: u64,
    /// Protocol/communication event counters.
    pub counters: Counter,
}

impl Default for ProcStats {
    fn default() -> Self {
        Self {
            buckets: [0; 6],
            per_phase: [[0; 6]; MAX_PHASES],
            phase: 0,
            phase_overflows: 0,
            counters: Counter::default(),
        }
    }
}

impl ProcStats {
    /// Add `cycles` to `bucket` (and the current phase's copy).
    #[inline]
    pub fn add(&mut self, bucket: Bucket, cycles: u64) {
        self.buckets[bucket as usize] += cycles;
        self.per_phase[self.phase][bucket as usize] += cycles;
    }

    /// Set the current application phase. Phases at or beyond
    /// [`MAX_PHASES`] saturate into the last ("overflow") phase and bump
    /// [`ProcStats::phase_overflows`] instead of aborting the run — this is
    /// reachable from application code via `Proc::set_phase`, and a bad
    /// phase index should mislabel accounting, not kill a simulation.
    #[inline]
    pub fn set_phase(&mut self, phase: usize) {
        if phase >= MAX_PHASES {
            self.phase_overflows += 1;
            self.phase = MAX_PHASES - 1;
        } else {
            self.phase = phase;
        }
    }

    /// Current phase index.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Number of `set_phase` calls that saturated because the requested
    /// phase was `>= MAX_PHASES` (their time is accounted to the last
    /// phase).
    pub fn phase_overflows(&self) -> u64 {
        self.phase_overflows
    }

    /// Cycles recorded in `bucket`.
    pub fn get(&self, bucket: Bucket) -> u64 {
        self.buckets[bucket as usize]
    }

    /// Cycles recorded in `bucket` during `phase`.
    pub fn get_phase(&self, phase: usize, bucket: Bucket) -> u64 {
        self.per_phase[phase][bucket as usize]
    }

    /// Total cycles across all buckets for `phase`.
    pub fn phase_total(&self, phase: usize) -> u64 {
        self.per_phase[phase].iter().sum()
    }

    /// Sum of all buckets (this processor's busy+wait time).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Reset all times and counters (used by `start_timing`). Keeps the
    /// current phase.
    pub fn reset(&mut self) {
        let phase = self.phase;
        *self = ProcStats::default();
        self.phase = phase;
    }
}

/// The result of a simulated run: per-processor breakdowns plus final
/// virtual clocks.
///
/// Derives `PartialEq` so replay tests can assert bit-identical runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Per-processor time breakdowns.
    pub procs: Vec<ProcStats>,
    /// Final virtual clock of each processor (cycles in the timed region).
    pub clocks: Vec<u64>,
    /// Race reports, when the run was configured with
    /// [`crate::RunConfig::detect_races`] (empty otherwise). One report per
    /// racy word, capped; see [`crate::detector`].
    pub races: Vec<crate::detector::RaceReport>,
    /// Per-page sharing profile, when the run was configured with
    /// [`crate::RunConfig::with_sharing_profile`] (`None` otherwise, keeping
    /// the off path bit-identical to builds without the profiler). Empty on
    /// platforms that are not page-based. See [`crate::sharing`].
    pub sharing: Option<crate::sharing::SharingProfile>,
    /// Virtual-time event trace with per-proc wait-latency histograms, when
    /// the run was configured with [`crate::RunConfig::with_trace`] (`None`
    /// otherwise; traced runs are bit-identical apart from this field). See
    /// [`crate::trace`].
    pub trace: Option<crate::trace::RunTrace>,
    /// Virtual-time interval metrics report, when the run was configured
    /// with [`crate::RunConfig::with_metrics`] (`None` otherwise; metrics
    /// runs are bit-identical apart from this field). See
    /// [`crate::metrics`].
    pub metrics: Option<crate::metrics::MetricsReport>,
    /// Application-registered phase names
    /// ([`crate::RunConfig::with_phase_names`]); empty when the app
    /// registered none. Present on traced and untraced runs alike so figure
    /// harnesses can label per-phase breakdowns.
    pub phase_names: Vec<String>,
}

impl RunStats {
    /// Number of distinct racy words reported (0 unless the run enabled
    /// race detection and the program raced).
    pub fn races(&self) -> usize {
        self.races.len()
    }

    /// Render all race reports, one per line (empty string if none).
    pub fn race_summary(&self) -> String {
        crate::util::joined(&self.races, "\n")
    }

    /// Execution time of the run: the maximum final clock.
    pub fn total_cycles(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Aggregate a bucket across processors.
    pub fn sum(&self, bucket: Bucket) -> u64 {
        self.procs.iter().map(|p| p.get(bucket)).sum()
    }

    /// Aggregate counters across processors.
    pub fn sum_counters(&self) -> Counter {
        let mut c = Counter::default();
        for p in &self.procs {
            c.add(&p.counters);
        }
        c
    }

    /// Human name for phase `i`: the app-registered name when present
    /// ("tree-build"), otherwise "phase i".
    pub fn phase_name(&self, i: usize) -> String {
        self.phase_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("phase {i}"))
    }

    /// Fraction of total (summed-over-processors) time spent in `phase`.
    pub fn phase_fraction(&self, phase: usize) -> f64 {
        let phase_sum: u64 = self.procs.iter().map(|p| p.phase_total(phase)).sum();
        let total: u64 = self.procs.iter().map(|p| p.total()).sum();
        if total == 0 {
            0.0
        } else {
            phase_sum as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_accumulation_and_phases() {
        let mut s = ProcStats::default();
        s.add(Bucket::Compute, 10);
        s.set_phase(2);
        s.add(Bucket::Compute, 5);
        s.add(Bucket::LockWait, 7);
        assert_eq!(s.get(Bucket::Compute), 15);
        assert_eq!(s.get_phase(0, Bucket::Compute), 10);
        assert_eq!(s.get_phase(2, Bucket::Compute), 5);
        assert_eq!(s.get_phase(2, Bucket::LockWait), 7);
        assert_eq!(s.phase_total(2), 12);
        assert_eq!(s.total(), 22);
    }

    #[test]
    fn reset_clears_but_keeps_phase() {
        let mut s = ProcStats::default();
        s.set_phase(3);
        s.add(Bucket::DataWait, 100);
        s.counters.remote_fetches = 4;
        s.reset();
        assert_eq!(s.total(), 0);
        assert_eq!(s.counters.remote_fetches, 0);
        assert_eq!(s.phase(), 3);
    }

    #[test]
    fn run_stats_totals() {
        let mut a = ProcStats::default();
        a.add(Bucket::Compute, 50);
        let mut b = ProcStats::default();
        b.add(Bucket::BarrierWait, 20);
        let rs = RunStats {
            procs: vec![a, b],
            clocks: vec![50, 70],
            races: Vec::new(),
            sharing: None,
            trace: None,
            metrics: None,
            phase_names: Vec::new(),
        };
        assert_eq!(rs.total_cycles(), 70);
        assert_eq!(rs.sum(Bucket::Compute), 50);
    }

    #[test]
    fn phase_out_of_range_saturates() {
        let mut s = ProcStats::default();
        s.set_phase(MAX_PHASES);
        assert_eq!(s.phase(), MAX_PHASES - 1);
        assert_eq!(s.phase_overflows(), 1);
        s.set_phase(MAX_PHASES + 100);
        assert_eq!(s.phase(), MAX_PHASES - 1);
        assert_eq!(s.phase_overflows(), 2);
        // Time keeps accumulating (in the overflow phase) instead of the
        // run aborting.
        s.add(Bucket::Compute, 5);
        assert_eq!(s.get_phase(MAX_PHASES - 1, Bucket::Compute), 5);
        // A valid phase still works afterwards.
        s.set_phase(1);
        assert_eq!(s.phase(), 1);
        assert_eq!(s.phase_overflows(), 2);
    }
}
