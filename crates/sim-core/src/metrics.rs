//! Virtual-time interval metrics: time-series diagnostics (layer 4).
//!
//! The three earlier diagnostic layers (sharing profile, protocol traces,
//! critical path) are whole-run aggregates. This layer samples the same
//! counters *over virtual time*: when a run is configured with
//! [`crate::RunConfig::with_metrics`], the scheduler snapshots per-processor
//! cycle breakdowns every `interval_cycles` of that processor's own virtual
//! clock (plus forced samples at phase transitions, barrier releases and
//! `stop_timing`), the page-based platforms bin page fetch / diff /
//! invalidation activity and per-interval *writer footprints* into the same
//! interval grid, the hardware platforms bin remote-miss line activity, the
//! scheduler bins lock handoffs, and applications can contribute named
//! event counters (e.g. KV requests served) via `Proc::metric_add`.
//!
//! On top of the per-interval writer footprints the module classifies each
//! page's sharing *trajectory* ([`PageTrajectory`]): a page whose writers
//! take turns across intervals is **migratory** — a single coherence
//! hand-off per turn, fixable by aligning data with its current writer —
//! while a page with several concurrent writers every interval is under
//! **steady** false (disjoint words) or true (overlapping words) sharing.
//! The whole-run [`crate::sharing::SharingClass`] cannot tell these apart;
//! the ROADMAP's optimization advisor needs the distinction.
//!
//! All of it arrives as [`ProtoEvent`]s through the run's
//! [`crate::probe::Probe`]; `MetricsSink::on_event` is the only entry.
//!
//! Like every other diagnostic layer, metrics are **off by default** and
//! **invisible** (the argument is in [`crate::probe`]): a metrics-on run
//! produces a `RunStats` bit-identical to the metrics-off run apart from
//! the [`crate::RunStats::metrics`] field, and — because samples are taken
//! inside the shared step API at virtual times both engines reproduce
//! exactly — reports are identical across the sequential and fused
//! engines (asserted in `tests/metrics.rs`). All buffers are
//! fixed-capacity and drop-counted.

use std::fmt::Write as _;

use crate::probe::ProtoEvent;
use crate::util::{insert_sorted, joined, json_escape, json_rows, Capped, FxMap};

/// Default sampling interval in virtual cycles
/// ([`crate::RunConfig::with_metrics`] takes an explicit one; figure
/// harnesses and tests use this).
pub const DEFAULT_INTERVAL: u64 = 1 << 16;

/// Default per-collection capacity (samples per proc, intervals per page,
/// pages, locks, event names). Lower it with
/// [`crate::RunConfig::with_diag_cap`].
pub const DEFAULT_SERIES_CAP: usize = 1 << 12;

/// One cumulative per-processor snapshot. Consecutive samples differenced
/// give per-interval rates; keeping the raw cumulative values makes the
/// series cap-robust (a dropped sample widens one delta instead of losing
/// counts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// Interval index: `ts / interval`.
    pub interval: u64,
    /// The processor's virtual clock when the sample was taken.
    pub ts: u64,
    /// Cumulative compute cycles ([`crate::Bucket::Compute`]).
    pub compute: u64,
    /// Cumulative data-wait (fetch) cycles ([`crate::Bucket::DataWait`]).
    pub data_wait: u64,
    /// Cumulative lock-wait cycles ([`crate::Bucket::LockWait`]).
    pub lock_wait: u64,
    /// Cumulative barrier-wait cycles ([`crate::Bucket::BarrierWait`]).
    pub barrier_wait: u64,
    /// Cumulative remote fetches (pages on SVM, lines on hardware).
    pub remote_fetches: u64,
}

/// The finished sample series of one processor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcSeries {
    /// Samples in ascending `ts` order (first is the all-zero sample at
    /// `start_timing`).
    pub samples: Vec<ProcSample>,
    /// Samples discarded because the per-proc cap was reached.
    pub dropped: u64,
}

/// Page (or cache-line) protocol activity binned into one virtual-time
/// interval.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageInterval {
    /// Interval index (`ts / interval` of the acting processor).
    pub interval: u64,
    /// Remote fetches of this page/line completed in the interval.
    pub fetches: u64,
    /// Diff words flushed for this page in the interval (SVM only).
    pub diff_words: u64,
    /// Invalidations applied to copies of this page in the interval.
    pub invalidations: u64,
    /// Nodes that diffed the page in this interval, ascending — the
    /// *per-interval writer footprint* the trajectory classifier reads.
    pub writers: Vec<u16>,
}

/// How a page's sharing behaviour evolved over the run — the
/// interval-aware upgrade of the whole-run
/// [`crate::sharing::SharingClass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageTrajectory {
    /// No node ever diffed the page.
    ReadShared,
    /// Exactly one node diffed the page over the whole run.
    SingleWriter,
    /// Several nodes diffed the page, but (almost) never in the same
    /// interval: ownership migrates — a hand-off, not a fight.
    Migratory,
    /// Several nodes diff the page concurrently interval after interval,
    /// on disjoint words: steady false sharing, an artifact of page
    /// granularity.
    SteadyFalse,
    /// Several nodes diff the page concurrently, touching common words:
    /// genuine steady communication through the page.
    SteadyTrue,
    /// The page alternates between single-writer and multi-writer regimes
    /// across the run (e.g. per-phase ownership changes).
    PhaseShifting,
}

impl PageTrajectory {
    /// Short label used by reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            PageTrajectory::ReadShared => "read-shared",
            PageTrajectory::SingleWriter => "single-writer",
            PageTrajectory::Migratory => "migratory",
            PageTrajectory::SteadyFalse => "steady-false",
            PageTrajectory::SteadyTrue => "steady-true",
            PageTrajectory::PhaseShifting => "phase-shifting",
        }
    }

    /// Severity rank for deterministic tie-breaking when aggregating
    /// (higher = more costly to leave unfixed).
    pub fn rank(self) -> u8 {
        match self {
            PageTrajectory::ReadShared => 0,
            PageTrajectory::SingleWriter => 1,
            PageTrajectory::Migratory => 2,
            PageTrajectory::SteadyFalse => 3,
            PageTrajectory::SteadyTrue => 4,
            PageTrajectory::PhaseShifting => 5,
        }
    }
}

/// Classify a page's trajectory from its interval summary: `nwriters`
/// distinct writers over the run, `single`/`multi` intervals that saw
/// exactly-one / two-or-more writers, and whether two writers ever touched
/// the same word within one interval.
pub fn classify(nwriters: usize, single: u64, multi: u64, overlap: bool) -> PageTrajectory {
    if nwriters == 0 {
        PageTrajectory::ReadShared
    } else if nwriters == 1 {
        PageTrajectory::SingleWriter
    } else if multi == 0 {
        PageTrajectory::Migratory
    } else if single > 0 && 4 * single.min(multi) >= single + multi {
        // Both regimes substantially present (the minority regime is at
        // least a quarter of the write intervals).
        PageTrajectory::PhaseShifting
    } else if multi >= single {
        if overlap {
            PageTrajectory::SteadyTrue
        } else {
            PageTrajectory::SteadyFalse
        }
    } else {
        // Mostly single-writer with a rare concurrent blip: still
        // migratory for the advisor's purposes.
        PageTrajectory::Migratory
    }
}

/// The finished interval series of one page (SVM) or cache line
/// (hardware; fetch counts only, no writer footprints).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSeries {
    /// First byte address of the page/line.
    pub page_base: u64,
    /// Label of the allocation containing the page (empty if unlabeled).
    pub label: &'static str,
    /// Interval bins in ascending interval order (only intervals with
    /// activity are stored).
    pub intervals: Vec<PageInterval>,
    /// Interval bins discarded because the per-page cap was reached.
    pub dropped: u64,
    /// Distinct writer nodes over the run, ascending.
    pub writers: Vec<u16>,
    /// Intervals in which exactly one node diffed the page.
    pub single_intervals: u64,
    /// Intervals in which two or more nodes diffed the page.
    pub multi_intervals: u64,
    /// Two writers touched the same word within one interval.
    pub overlap: bool,
    /// The interval-aware classification.
    pub trajectory: PageTrajectory,
}

impl PageSeries {
    /// Total diff words across all stored intervals.
    pub fn total_diff_words(&self) -> u64 {
        self.intervals.iter().map(|i| i.diff_words).sum()
    }

    /// Total fetches across all stored intervals.
    pub fn total_fetches(&self) -> u64 {
        self.intervals.iter().map(|i| i.fetches).sum()
    }
}

/// The finished lock hand-off series of one lock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockSeries {
    /// The application lock id.
    pub lock: u32,
    /// `(interval, handoffs)` pairs in ascending interval order.
    pub intervals: Vec<(u64, u64)>,
    /// Interval bins discarded because the per-lock cap was reached.
    pub dropped: u64,
}

impl LockSeries {
    /// Total hand-offs across all stored intervals.
    pub fn total(&self) -> u64 {
        self.intervals.iter().map(|&(_, n)| n).sum()
    }
}

/// A named application event counter (`Proc::metric_add`), binned per
/// processor per interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventSeries {
    /// The event name the application registered.
    pub name: &'static str,
    /// Per-processor `(interval, count)` pairs in ascending interval order.
    pub procs: Vec<Vec<(u64, u64)>>,
    /// Interval bins discarded because a cap was reached.
    pub dropped: u64,
}

impl EventSeries {
    /// Total count across all processors and intervals.
    pub fn total(&self) -> u64 {
        self.procs
            .iter()
            .map(|p| p.iter().map(|&(_, n)| n).sum::<u64>())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The live sink.

struct PageState {
    ivals: Capped<FxMap<u64, PageInterval>>,
    // word index -> (last writer, last interval): within-interval overlap
    // detection. Bounded by words-per-page.
    words: FxMap<u32, (u16, u64)>,
    overlap: bool,
    writers: Vec<u16>,
}

struct EventState {
    name: &'static str,
    procs: Vec<Capped<FxMap<u64, u64>>>,
}

struct SinkProc {
    samples: Capped<Vec<ProcSample>>,
    last_iv: u64,
}

/// Mutable metrics state while a run is in flight: one instance per
/// metrics-on run, owned by the run's [`crate::probe::Probe`].
pub(crate) struct MetricsSink {
    interval: u64,
    cap: usize,
    procs: Vec<SinkProc>,
    pages: Capped<FxMap<u64, PageState>>,
    locks: Capped<FxMap<u32, Capped<FxMap<u64, u64>>>>,
    events: Capped<Vec<EventState>>,
}

impl MetricsSink {
    /// Create a sink for `nprocs` processors sampling every `interval`
    /// virtual cycles, with per-collection capacity `cap`.
    pub(crate) fn new(nprocs: usize, interval: u64, cap: usize) -> Self {
        assert!(interval > 0, "metrics interval must be nonzero");
        Self {
            interval,
            cap,
            procs: (0..nprocs)
                .map(|_| SinkProc {
                    samples: Capped::new(cap),
                    last_iv: 0,
                })
                .collect(),
            pages: Capped::new(cap),
            locks: Capped::new(cap),
            events: Capped::new(cap),
        }
    }

    /// Clear all series (called at `start_timing` so the series cover
    /// exactly the timed region).
    pub(crate) fn reset(&mut self) {
        for p in &mut self.procs {
            p.samples.reset();
            p.last_iv = 0;
        }
        self.pages.reset();
        self.locks.reset();
        self.events.reset();
    }

    /// Record a cumulative snapshot for `s.ts`'s processor. Non-`forced`
    /// calls only materialize a sample when the clock has crossed into a
    /// new interval since the last one; `forced` calls (phase transitions,
    /// barrier releases, timing boundaries) always do. A forced sample at
    /// the same virtual instant as the previous sample replaces it (the
    /// counters may have advanced at equal `ts`).
    fn sample_proc(&mut self, pid: usize, mut s: ProcSample, forced: bool) {
        let iv = s.ts / self.interval;
        s.interval = iv;
        let p = &mut self.procs[pid];
        if let Some(last) = p.samples.items_mut().last_mut() {
            // One sample per interval: a newer snapshot for the interval
            // already at the tail (a forced boundary sample, or the same
            // timestamp re-offered) replaces it in place, keeping the
            // latest cumulative counts for that interval.
            if last.interval == iv && (forced || last.ts == s.ts) {
                *last = s;
                p.last_iv = iv;
                return;
            }
        }
        if !forced && !p.samples.items().is_empty() && iv <= p.last_iv {
            return;
        }
        p.samples.push(s);
        p.last_iv = iv;
    }

    /// The interval bin of `page` at virtual time `now`, if both fit their
    /// caps.
    fn page_ival(&mut self, now: u64, page: u64) -> Option<&mut PageInterval> {
        let (iv, cap) = (now / self.interval, self.cap);
        self.pages
            .entry(page, || new_page(cap))?
            .ivals
            .entry(iv, || PageInterval {
                interval: iv,
                ..PageInterval::default()
            })
    }

    /// Record a completed remote fetch of `page` at virtual time `now`.
    pub(crate) fn page_fetch(&mut self, now: u64, page: u64) {
        if let Some(e) = self.page_ival(now, page) {
            e.fetches += 1;
        }
    }

    /// Record a diff of `page` flushed by `writer` at virtual time `now`,
    /// carrying the given within-page word indices.
    fn page_diff(
        &mut self,
        now: u64,
        page: u64,
        writer: u16,
        words: impl IntoIterator<Item = u32>,
    ) {
        let (iv, cap) = (now / self.interval, self.cap);
        let Some(st) = self.pages.entry(page, || new_page(cap)) else {
            return;
        };
        insert_sorted(&mut st.writers, writer);
        let mut nwords = 0u64;
        for w in words {
            nwords += 1;
            match st.words.get_mut(&w) {
                Some(prev) => {
                    if prev.0 != writer && prev.1 == iv {
                        st.overlap = true;
                    }
                    *prev = (writer, iv);
                }
                None => {
                    st.words.insert(w, (writer, iv));
                }
            }
        }
        if let Some(e) = self.page_ival(now, page) {
            e.diff_words += nwords;
            insert_sorted(&mut e.writers, writer);
        }
    }

    /// Record an invalidation applied to a copy of `page` at virtual time
    /// `now`.
    fn page_inval(&mut self, now: u64, page: u64) {
        if let Some(e) = self.page_ival(now, page) {
            e.invalidations += 1;
        }
    }

    /// Record one hand-off of `lock` (a grant enabled by another
    /// processor's release) at the grantee's virtual time `now`.
    fn lock_handoff(&mut self, now: u64, lock: u32) {
        let (iv, cap) = (now / self.interval, self.cap);
        let ivals = self.locks.entry(lock, || Capped::new(cap));
        if let Some(n) = ivals.and_then(|st| st.entry(iv, || 0)) {
            *n += 1;
        }
    }

    /// Record `n` occurrences of the named application event on `pid` at
    /// virtual time `now`.
    pub(crate) fn event(&mut self, name: &'static str, pid: usize, now: u64, n: u64) {
        let (iv, cap) = (now / self.interval, self.cap);
        let held = self.events.items().iter().position(|e| e.name == name);
        let st = match held {
            Some(i) => Some(&mut self.events.items_mut()[i]),
            None => {
                let procs = (0..self.procs.len()).map(|_| Capped::new(cap)).collect();
                self.events.push(EventState { name, procs })
            }
        };
        if let Some(c) = st.and_then(|st| st.procs[pid].entry(iv, || 0)) {
            *c += n;
        }
    }

    /// Consume one protocol event: page and line activity, lock
    /// hand-offs, per-processor samples and application counters. Called
    /// by the probe only while the timed region is active.
    pub(crate) fn on_event(&mut self, ev: &ProtoEvent<'_>) {
        use ProtoEvent as P;
        match *ev {
            P::PageFetch { page, t1, .. } => self.page_fetch(t1, page),
            P::RemoteMiss { line, at, .. } => self.page_fetch(at, line),
            P::DiffCreated {
                writer_node,
                page,
                at,
                word_runs,
                ..
            } => {
                let words = word_runs.iter().flat_map(|&(w, n)| w..w + n);
                self.page_diff(at, page, writer_node as u16, words);
            }
            P::Invalidation { page, at, .. } => self.page_inval(at, page),
            P::LockGrant {
                pid, lock, t1, src, ..
            } if src != pid => self.lock_handoff(t1, lock),
            P::ProcSample {
                pid,
                sample,
                forced,
            } => self.sample_proc(pid, sample, forced),
            P::AppCount { pid, name, at, n } => self.event(name, pid, at, n),
            _ => {}
        }
    }

    /// Freeze into a [`MetricsReport`], attributing page addresses to
    /// allocation labels via `label_of`.
    pub(crate) fn into_report(self, label_of: impl Fn(u64) -> &'static str) -> MetricsReport {
        let (pages, pages_dropped) = self.pages.into_parts();
        let mut pages: Vec<PageSeries> = pages
            .into_iter()
            .map(|(base, st)| {
                let (ivals, dropped) = st.ivals.into_parts();
                let mut intervals: Vec<PageInterval> = ivals.into_values().collect();
                intervals.sort_by_key(|i| i.interval);
                let single = intervals.iter().filter(|i| i.writers.len() == 1).count() as u64;
                let multi = intervals.iter().filter(|i| i.writers.len() >= 2).count() as u64;
                PageSeries {
                    page_base: base,
                    label: label_of(base),
                    trajectory: classify(st.writers.len(), single, multi, st.overlap),
                    intervals,
                    dropped,
                    writers: st.writers,
                    single_intervals: single,
                    multi_intervals: multi,
                    overlap: st.overlap,
                }
            })
            .collect();
        pages.sort_by_key(|p| p.page_base);
        let (locks, locks_dropped) = self.locks.into_parts();
        let mut locks: Vec<LockSeries> = locks
            .into_iter()
            .map(|(lock, st)| {
                let (ivals, dropped) = st.into_parts();
                let mut intervals: Vec<(u64, u64)> = ivals.into_iter().collect();
                intervals.sort_by_key(|&(iv, _)| iv);
                LockSeries {
                    lock,
                    intervals,
                    dropped,
                }
            })
            .collect();
        locks.sort_by_key(|l| l.lock);
        let (events, events_dropped) = self.events.into_parts();
        let mut events: Vec<EventSeries> = events
            .into_iter()
            .map(|st| EventSeries {
                name: st.name,
                // One drop count per event name, over all processors.
                dropped: st.procs.iter().map(Capped::dropped).sum(),
                procs: st
                    .procs
                    .into_iter()
                    .map(|m| {
                        let mut v: Vec<(u64, u64)> = m.into_parts().0.into_iter().collect();
                        v.sort_by_key(|&(iv, _)| iv);
                        v
                    })
                    .collect(),
            })
            .collect();
        events.sort_by_key(|e| e.name);
        MetricsReport {
            interval: self.interval,
            procs: self
                .procs
                .into_iter()
                .map(|p| {
                    let (samples, dropped) = p.samples.into_parts();
                    ProcSeries { samples, dropped }
                })
                .collect(),
            pages,
            pages_dropped,
            locks,
            locks_dropped,
            events,
            events_dropped,
        }
    }
}

/// A page's state before its first interval bin.
fn new_page(cap: usize) -> PageState {
    PageState {
        ivals: Capped::new(cap),
        words: FxMap::default(),
        overlap: false,
        writers: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// The frozen report.

/// The finished interval metrics of one run, attached to
/// [`crate::RunStats::metrics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsReport {
    /// Sampling interval in virtual cycles.
    pub interval: u64,
    /// Per-processor cumulative sample series, indexed by pid.
    pub procs: Vec<ProcSeries>,
    /// Per-page (SVM) or per-line (hardware) activity series, ascending by
    /// address.
    pub pages: Vec<PageSeries>,
    /// Page records discarded because the page cap was reached.
    pub pages_dropped: u64,
    /// Per-lock hand-off series, ascending by lock id.
    pub locks: Vec<LockSeries>,
    /// Hand-off records discarded because the lock cap was reached.
    pub locks_dropped: u64,
    /// Named application event series, ascending by name.
    pub events: Vec<EventSeries>,
    /// Event records discarded because the name cap was reached.
    pub events_dropped: u64,
}

impl MetricsReport {
    /// Highest interval index appearing anywhere in the report.
    pub fn max_interval(&self) -> u64 {
        let mut m = 0u64;
        for p in &self.procs {
            if let Some(s) = p.samples.last() {
                m = m.max(s.interval);
            }
        }
        for p in &self.pages {
            if let Some(i) = p.intervals.last() {
                m = m.max(i.interval);
            }
        }
        for l in &self.locks {
            if let Some(&(iv, _)) = l.intervals.last() {
                m = m.max(iv);
            }
        }
        for p in self.events.iter().flat_map(|e| &e.procs) {
            if let Some(&(iv, _)) = p.last() {
                m = m.max(iv);
            }
        }
        m
    }

    /// Total samples/bins discarded across every collection (0 unless a
    /// cap was hit).
    pub fn total_dropped(&self) -> u64 {
        self.procs.iter().map(|p| p.dropped).sum::<u64>()
            + self.pages.iter().map(|p| p.dropped).sum::<u64>()
            + self.pages_dropped
            + self.locks.iter().map(|l| l.dropped).sum::<u64>()
            + self.locks_dropped
            + self.events.iter().map(|e| e.dropped).sum::<u64>()
            + self.events_dropped
    }

    /// The series for one page base address, if it saw activity.
    pub fn page(&self, page_base: u64) -> Option<&PageSeries> {
        self.pages
            .binary_search_by_key(&page_base, |p| p.page_base)
            .ok()
            .map(|i| &self.pages[i])
    }

    /// The dominant trajectory of an allocation label: the trajectory
    /// carrying the most diff words among the label's pages (falling back
    /// to fetches, then severity rank, for read-mostly labels). `None`
    /// when no page of the label saw activity.
    pub fn label_trajectory(&self, label: &str) -> Option<PageTrajectory> {
        let mut weights: Vec<(PageTrajectory, u64, u64)> = Vec::new();
        for p in self.pages.iter().filter(|p| p.label == label) {
            let (dw, f) = (p.total_diff_words(), p.total_fetches());
            match weights.iter_mut().find(|(t, _, _)| *t == p.trajectory) {
                Some(w) => {
                    w.1 += dw;
                    w.2 += f;
                }
                None => weights.push((p.trajectory, dw, f)),
            }
        }
        weights
            .into_iter()
            .max_by_key(|&(t, dw, f)| (dw, f, t.rank()))
            .map(|(t, _, _)| t)
    }

    /// Machine-readable JSON (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"interval\": {},", self.interval);
        let _ = writeln!(s, "  \"total_dropped\": {},", self.total_dropped());
        s.push_str("  \"procs\": ");
        json_rows(&mut s, self.procs.iter().enumerate(), |s, (pid, p)| {
            let samples = joined(
                p.samples.iter().map(|x| {
                    format!(
                        "[{},{},{},{},{},{},{}]",
                        x.interval,
                        x.ts,
                        x.compute,
                        x.data_wait,
                        x.lock_wait,
                        x.barrier_wait,
                        x.remote_fetches
                    )
                }),
                ", ",
            );
            let _ = write!(
                s,
                "{{\"pid\": {pid}, \"dropped\": {}, \"samples\": [{samples}]}}",
                p.dropped
            );
        });
        s.push_str(",\n  \"pages\": ");
        json_rows(&mut s, &self.pages, |s, p| {
            let ivals = joined(
                p.intervals.iter().map(|x| {
                    let w = joined(&x.writers, ",");
                    let (iv, f, dw, inv) = (x.interval, x.fetches, x.diff_words, x.invalidations);
                    format!("[{iv},{f},{dw},{inv},[{w}]]")
                }),
                ", ",
            );
            let _ = write!(
                s,
                "{{\"page_base\": {}, \"label\": \"{}\", \"trajectory\": \"{}\", \
                 \"single_intervals\": {}, \"multi_intervals\": {}, \"overlap\": {}, \
                 \"writers\": [{}], \"dropped\": {}, \"intervals\": [{ivals}]}}",
                p.page_base,
                json_escape(p.label),
                p.trajectory.label(),
                p.single_intervals,
                p.multi_intervals,
                p.overlap,
                joined(&p.writers, ", "),
                p.dropped,
            );
        });
        s.push_str(",\n  \"locks\": ");
        json_rows(&mut s, &self.locks, |s, l| {
            let _ = write!(
                s,
                "{{\"lock\": {}, \"total\": {}, \"dropped\": {}, \"intervals\": [{}]}}",
                l.lock,
                l.total(),
                l.dropped,
                joined(
                    l.intervals.iter().map(|&(iv, n)| format!("[{iv},{n}]")),
                    ", "
                ),
            );
        });
        s.push_str(",\n  \"events\": ");
        json_rows(&mut s, &self.events, |s, e| {
            let procs = joined(
                e.procs.iter().map(|p| {
                    let v = joined(p.iter().map(|&(iv, n)| format!("[{iv},{n}]")), ",");
                    format!("[{v}]")
                }),
                ", ",
            );
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"total\": {}, \"dropped\": {}, \"procs\": [{procs}]}}",
                json_escape(e.name),
                e.total(),
                e.dropped,
            );
        });
        s.push_str("\n}\n");
        s
    }
}

/// Render `vals` as a one-line unicode sparkline of `width` columns
/// (values are max-pooled into columns, then scaled to eight block
/// heights). Empty input renders as `"(empty)"`.
pub fn sparkline(vals: &[u64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if vals.is_empty() {
        return "(empty)".to_string();
    }
    let width = width.max(1).min(vals.len());
    let mut cols = vec![0u64; width];
    for (i, &v) in vals.iter().enumerate() {
        let c = i * width / vals.len();
        cols[c] = cols[c].max(v);
    }
    let top = cols.iter().copied().max().unwrap_or(0).max(1);
    cols.iter()
        .map(|&v| BLOCKS[((v * 7).div_ceil(top) as usize).min(7)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_trajectories() {
        use PageTrajectory::*;
        assert_eq!(classify(0, 0, 0, false), ReadShared);
        assert_eq!(classify(1, 10, 0, false), SingleWriter);
        assert_eq!(classify(4, 12, 0, false), Migratory);
        assert_eq!(classify(4, 0, 12, false), SteadyFalse);
        assert_eq!(classify(4, 0, 12, true), SteadyTrue);
        assert_eq!(classify(4, 10, 10, false), PhaseShifting);
        assert_eq!(classify(4, 6, 12, true), PhaseShifting);
        // Rare concurrent blip on a migratory page stays migratory.
        assert_eq!(classify(4, 100, 1, true), Migratory);
        // Rare solo blip on a steady page stays steady.
        assert_eq!(classify(4, 1, 100, false), SteadyFalse);
    }

    #[test]
    fn proc_sampling_rolls_over_and_forces() {
        let mut s = MetricsSink::new(1, 100, 16);
        let snap = |ts, compute| ProcSample {
            ts,
            compute,
            ..ProcSample::default()
        };
        s.sample_proc(0, snap(0, 0), true); // start_timing baseline
        s.sample_proc(0, snap(50, 50), false); // same interval: skipped
        s.sample_proc(0, snap(150, 150), false); // rollover: kept
        s.sample_proc(0, snap(160, 160), false); // same interval: skipped
        s.sample_proc(0, snap(160, 161), true); // forced, same ts: replaces
        s.sample_proc(0, snap(420, 400), false); // skips intervals 2..3: kept
        let r = s.into_report(|_| "");
        let ivs: Vec<(u64, u64, u64)> = r.procs[0]
            .samples
            .iter()
            .map(|x| (x.interval, x.ts, x.compute))
            .collect();
        assert_eq!(ivs, vec![(0, 0, 0), (1, 160, 161), (4, 420, 400)]);
        assert_eq!(r.procs[0].dropped, 0);
    }

    #[test]
    fn proc_sampling_caps_and_counts() {
        let mut s = MetricsSink::new(1, 10, 3);
        for i in 0..6u64 {
            s.sample_proc(
                0,
                ProcSample {
                    ts: i * 10,
                    ..ProcSample::default()
                },
                true,
            );
        }
        let r = s.into_report(|_| "");
        assert_eq!(r.procs[0].samples.len(), 3);
        assert_eq!(r.procs[0].dropped, 3);
        assert_eq!(r.total_dropped(), 3);
    }

    #[test]
    fn page_series_footprints_and_overlap() {
        let mut s = MetricsSink::new(2, 100, 64);
        // Interval 0: writer 0 alone; interval 1: writers 0 and 1 on
        // disjoint words; interval 2: writer 1 re-touches writer 0's word.
        s.page_diff(10, 0x1000, 0, [0u32, 1]);
        s.page_diff(110, 0x1000, 0, [0u32]);
        s.page_diff(120, 0x1000, 1, [5u32]);
        assert!(!s.pages.items()[&0x1000].overlap);
        s.page_diff(210, 0x1000, 0, [7u32]);
        s.page_diff(220, 0x1000, 1, [7u32]);
        s.page_fetch(15, 0x1000);
        s.page_inval(115, 0x1000);
        let r = s.into_report(|a| if a == 0x1000 { "grid" } else { "" });
        let p = r.page(0x1000).unwrap();
        assert_eq!(p.label, "grid");
        assert_eq!(p.writers, vec![0, 1]);
        assert_eq!(p.single_intervals, 1);
        assert_eq!(p.multi_intervals, 2);
        assert!(p.overlap);
        assert_eq!(p.intervals.len(), 3);
        assert_eq!(p.intervals[0].fetches, 1);
        assert_eq!(p.intervals[0].writers, vec![0]);
        assert_eq!(p.intervals[1].invalidations, 1);
        assert_eq!(p.intervals[1].writers, vec![0, 1]);
        assert_eq!(p.trajectory, PageTrajectory::PhaseShifting);
    }

    #[test]
    fn lock_and_event_series() {
        let mut s = MetricsSink::new(2, 100, 8);
        s.lock_handoff(10, 7);
        s.lock_handoff(20, 7);
        s.lock_handoff(150, 7);
        s.event("kv_requests", 1, 10, 4);
        s.event("kv_requests", 1, 20, 2);
        s.event("kv_requests", 0, 250, 1);
        let r = s.into_report(|_| "");
        assert_eq!(r.locks.len(), 1);
        assert_eq!(r.locks[0].intervals, vec![(0, 2), (1, 1)]);
        assert_eq!(r.locks[0].total(), 3);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].name, "kv_requests");
        assert_eq!(r.events[0].procs[0], vec![(2, 1)]);
        assert_eq!(r.events[0].procs[1], vec![(0, 6)]);
        assert_eq!(r.events[0].total(), 7);
    }

    #[test]
    fn caps_are_enforced_everywhere() {
        let mut s = MetricsSink::new(1, 10, 2);
        for p in 0..4u64 {
            s.page_fetch(5, p * 0x1000);
        }
        for iv in 0..4u64 {
            s.page_fetch(iv * 10, 0);
        }
        for l in 0..4u32 {
            s.lock_handoff(5, l);
        }
        let r = s.into_report(|_| "");
        assert_eq!(r.pages.len(), 2);
        assert_eq!(r.pages_dropped, 2);
        assert_eq!(r.pages[0].intervals.len(), 2);
        assert_eq!(r.pages[0].dropped, 2);
        assert_eq!(r.locks.len(), 2);
        assert_eq!(r.locks_dropped, 2);
        assert!(r.total_dropped() >= 6);
    }

    #[test]
    fn label_trajectory_weighs_diff_words() {
        let mut s = MetricsSink::new(2, 100, 64);
        // Page A (label g): heavy steady-false traffic.
        for iv in 0..4u64 {
            s.page_diff(iv * 100, 0x1000, 0, [0u32, 1, 2, 3]);
            s.page_diff(iv * 100 + 1, 0x1000, 1, [8u32, 9, 10, 11]);
        }
        // Page B (label g): light single-writer traffic.
        s.page_diff(10, 0x2000, 0, [0u32]);
        let r = s.into_report(|a| if a < 0x3000 { "g" } else { "" });
        assert_eq!(r.label_trajectory("g"), Some(PageTrajectory::SteadyFalse));
        assert_eq!(r.label_trajectory("absent"), None);
    }

    #[test]
    fn json_escapes_labels_and_event_names() {
        const LABEL: &str = "a\"b\\c\u{1}";
        let mut s = MetricsSink::new(1, 100, 8);
        s.page_fetch(10, 0x1000);
        s.event(LABEL, 0, 10, 1);
        let json = s.into_report(|_| LABEL).to_json();
        // The page's label and the event's name.
        assert_eq!(json.matches("\"a\\\"b\\\\c\\u0001\"").count(), 2, "{json}");
        assert!(!json.contains(LABEL));
    }

    #[test]
    fn json_shape_and_sparkline() {
        let mut s = MetricsSink::new(1, 100, 8);
        s.sample_proc(0, ProcSample::default(), true);
        s.page_diff(10, 0x1000, 0, [0u32]);
        s.lock_handoff(10, 1);
        s.event("reqs", 0, 10, 2);
        let r = s.into_report(|_| "psi");
        let json = r.to_json();
        assert!(json.contains("\"interval\": 100"));
        assert!(json.contains("\"trajectory\": \"single-writer\""));
        assert!(json.contains("\"label\": \"psi\""));
        assert!(json.contains("\"name\": \"reqs\""));
        // Balanced braces/brackets outside strings.
        let (mut depth, mut in_str) = (0i64, false);
        for c in json.chars() {
            match c {
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);

        assert_eq!(sparkline(&[], 8), "(empty)");
        let line = sparkline(&[0, 1, 2, 3, 4, 5, 6, 7], 8);
        assert_eq!(line.chars().count(), 8);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
        assert_eq!(sparkline(&[5], 8).chars().count(), 1);
    }
}
