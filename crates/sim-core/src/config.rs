//! Run-wide configuration: [`RunConfig`] and its builders.

#[cfg(doc)]
use crate::{Platform, Proc, RunStats};

/// Run-wide configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Run-ahead quantum in cycles: a processor voluntarily yields when its
    /// clock exceeds the minimum runnable clock by more than this. Smaller
    /// values tighten virtual-time ordering at the cost of more hand-offs.
    pub quantum: u64,
    /// Check the run for data races by happens-before analysis; the races
    /// found are [`RunStats::races`]. Off by default: an undiagnosed run's
    /// fast path then pays only one probe test per access, and timing
    /// statistics are bit-identical either way.
    pub detect_races: bool,
    /// Diagnostic name for this run (e.g. `"LU/Alg"`), attached to race
    /// reports.
    pub label: String,
    /// Use the bulk fast path for the slice operations
    /// ([`Proc::load_slice`] and friends). On by default; turning it off
    /// replays every slice word-at-a-time through [`Proc::load`] /
    /// [`Proc::store`] in the same order — the reference the equivalence
    /// tests compare against, and the "before" side of the perf benchmarks.
    pub bulk: bool,
    /// Gather a per-page [`crate::sharing::SharingProfile`] on page-based
    /// platforms (word-granularity write footprints, writer/reader sets,
    /// true-vs-false sharing classification), attached as
    /// [`RunStats::sharing`]. Off by default. Timing statistics are
    /// bit-identical either way.
    pub sharing_profile: bool,
    /// Record a virtual-time event trace ([`crate::trace`]) of the timed
    /// region, attached as [`RunStats::trace`]. Off by default. Timing
    /// statistics are bit-identical either way.
    pub trace: bool,
    /// Application phase names for figures and traces ("tree-build" instead
    /// of "phase 3"); indexed by phase id, may be shorter than the number of
    /// phases used.
    pub phase_names: Vec<String>,
    /// Host parallelism for the run. `1` (the default) selects the
    /// sequential engine — the oracle. `n > 1` selects the pipelined
    /// generate/replay engine (DESIGN.md §2b) with up to `n` application
    /// threads generating concurrently; the resulting [`RunStats`] are
    /// bit-identical to `shards = 1` for data-race-free programs (asserted
    /// by `tests/shard_equivalence.rs`). Platforms that do not report a
    /// [`Platform::min_cross_node_latency`] fall back to the sequential
    /// engine.
    pub shards: usize,
    /// Replay engine for sharded runs (`shards > 1`). `true` (the default)
    /// is the fused engine (DESIGN.md §2c), the only one left: every
    /// processor's replay is a stackless state machine driven by one host
    /// thread's virtual-time event loop. The classic replay side that
    /// `false` selected was removed, so a sharded run with `false` panics
    /// when it starts.
    pub shard_fused: bool,
    /// Descriptors per channel message in the sharded engine: the
    /// granularity at which generation threads hand operation streams to
    /// replay. Bigger batches amortize channel costs; smaller ones start
    /// replay earlier and tighten the event-bounded lookahead window
    /// (capacity is counted in batches). Defaults to the engine's
    /// `DEFAULT_BATCH` (512). Must be in `1..=`[`MAX_SHARD_BATCH`]; a
    /// sharded run checks it when it starts. Invisible in the statistics
    /// (asserted across values by `tests/shard_equivalence.rs`).
    pub shard_batch: usize,
    /// Interval metrics sampling period in virtual cycles (see
    /// [`crate::metrics`]). `0` (the default) disables the metrics engine;
    /// a nonzero value snapshots per-proc/page/lock counter series every
    /// that many cycles of virtual time (plus forced samples at phase and
    /// barrier boundaries), attached as [`RunStats::metrics`]. Timing
    /// statistics are bit-identical either way.
    pub metrics: u64,
    /// A limit on every diagnostic buffer (trace events per processor,
    /// each metrics collection, race reports): each holds at most
    /// its default or this, whichever is lower, and counts what it drops.
    /// `None` (the default) keeps every default.
    pub diag_cap: Option<usize>,
}

/// Largest accepted [`RunConfig::shard_batch`]: past ~a million descriptors
/// per message the channel stops being a pipeline at all.
pub const MAX_SHARD_BATCH: usize = 1 << 20;

/// The one range check on [`RunConfig::shard_batch`], shared by its
/// builder and the sharded engine's start (the field is public).
pub(crate) fn check_shard_batch(n: usize) {
    assert!(
        (1..=MAX_SHARD_BATCH).contains(&n),
        "shard_batch must be in 1..={MAX_SHARD_BATCH}, got {n}"
    );
}

impl RunConfig {
    /// Default configuration for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        Self {
            nprocs,
            quantum: 2_000,
            detect_races: false,
            label: String::new(),
            bulk: true,
            sharing_profile: false,
            trace: false,
            phase_names: Vec::new(),
            shards: 1,
            shard_fused: true,
            shard_batch: crate::shard::DEFAULT_BATCH,
            metrics: 0,
            diag_cap: None,
        }
    }

    /// Select the engine: `1` = the sequential scheduler (the oracle the
    /// differential tests compare against); `n > 1` = the pipelined
    /// parallel engine with up to `n` concurrently generating application
    /// threads.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Select the replay side of the sharded engine. Only `true`, the
    /// fused event loop and the default, is left; a sharded run with
    /// `false` panics when it starts (see [`RunConfig::shard_fused`]). No
    /// effect when `shards = 1`.
    pub fn with_shard_fused(mut self, fused: bool) -> Self {
        self.shard_fused = fused;
        self
    }

    /// Override the sharded engine's descriptor batch size (descriptors per
    /// channel message).
    ///
    /// # Panics
    /// If `n` is zero or exceeds [`MAX_SHARD_BATCH`].
    pub fn with_shard_batch(mut self, n: usize) -> Self {
        check_shard_batch(n);
        self.shard_batch = n;
        self
    }

    /// Disable the bulk fast path: every slice operation degrades to the
    /// word-at-a-time scalar path. Timing must be bit-identical either way;
    /// `tests/equivalence.rs` sweeps this against the default.
    pub fn scalar_reference(mut self) -> Self {
        self.bulk = false;
        self
    }

    /// Enable happens-before race detection for this run.
    pub fn with_race_detection(mut self) -> Self {
        self.detect_races = true;
        self
    }

    /// Enable the per-page sharing profiler for this run (see
    /// [`crate::sharing`]).
    pub fn with_sharing_profile(mut self) -> Self {
        self.sharing_profile = true;
        self
    }

    /// Record a virtual-time event trace for this run (see [`crate::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enable the virtual-time interval metrics engine for this run (see
    /// [`crate::metrics`]), sampling every `interval_cycles` of each
    /// processor's virtual clock.
    ///
    /// # Panics
    /// If `interval_cycles` is zero (zero means "off"; use the default
    /// configuration for that).
    pub fn with_metrics(mut self, interval_cycles: u64) -> Self {
        assert!(
            interval_cycles > 0,
            "metrics interval must be nonzero (it is the sampling period)"
        );
        self.metrics = interval_cycles;
        self
    }

    /// Hold every diagnostic buffer to at most `cap` entries (at least
    /// one; see [`RunConfig::diag_cap`]).
    pub fn with_diag_cap(mut self, cap: usize) -> Self {
        self.diag_cap = Some(cap.max(1));
        self
    }

    /// Register application phase names (indexed by phase id) so figures
    /// and traces print "tree-build" instead of "phase 3".
    pub fn with_phase_names<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.phase_names = names.into_iter().map(Into::into).collect();
        self
    }

    /// Name this run (race reports and diagnostics quote the label).
    pub fn named(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}
