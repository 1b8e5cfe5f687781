//! Virtual-time protocol event tracing.
//!
//! When a run is configured with [`crate::RunConfig::with_trace`], every
//! simulated processor records virtual-time-stamped [`Event`]s into one
//! bounded buffer: phase transitions, lock and barrier episodes, page
//! fetches, diffs, invalidations, hardware misses and the final settle.
//! The tracer is a consumer of the protocol event stream ([`crate::probe`]):
//! `TraceSink::on_event` turns each [`ProtoEvent`] into trace events and a
//! wait sample. An event that ends a wait carries its start and, if another
//! processor enabled it, which one and when: [`crate::critpath`] reads every
//! stall from this one record. All timestamps are virtual cycles — no host
//! clocks — so traces are bit-identical across repeated runs.
//!
//! Tracing is **off by default** and **invisible**: a traced run produces a
//! `RunStats` identical to the untraced run apart from the
//! [`crate::RunStats::trace`] field (asserted in `tests/trace.rs`). Buffers
//! grow on demand up to a per-processor cap; events past the cap are counted
//! in [`ProcTrace::dropped`] rather than reallocating unbounded. The
//! wait-latency histograms are fixed-size and always complete, even when
//! the event buffer overflows.
//!
//! The finished trace ([`RunTrace`]) renders as Chrome/Perfetto
//! `trace_event` JSON ([`RunTrace::to_chrome_json`] — load in
//! <https://ui.perfetto.dev> or `chrome://tracing`) or as an ASCII timeline
//! for terminals ([`RunTrace::ascii_timeline`]). Both consume one walk over
//! each processor's events, the one place begin and end events are paired
//! into spans.

use std::cmp::Reverse;
use std::fmt::{self, Write as _};

use crate::probe::ProtoEvent;
use crate::util::{joined, json_escape as esc, Capped, FxMap};

/// Default per-processor event-buffer capacity (events beyond this are
/// counted, not stored). Lower it with [`crate::RunConfig::with_diag_cap`].
/// Buffers grow on demand up to it: reserved up front, a short run would
/// leave 3.5 MiB per processor of never-touched heap behind.
pub const DEFAULT_EVENT_CAP: usize = 1 << 16;

/// Number of log2 latency buckets (bucket `i` holds waits with bit-length
/// `i`, i.e. `2^(i-1) <= wait < 2^i`; bucket 0 holds zero-cycle waits, and
/// the last bucket is open-ended: every wait of `2^(HIST_BUCKETS - 2)`
/// cycles or more).
pub const HIST_BUCKETS: usize = 40;

/// A traced protocol or synchronization event. Addresses (`page`, `line`)
/// are byte base addresses in the simulated address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The processor entered application phase `phase`.
    PhaseBegin { phase: usize },
    /// The processor left application phase `phase`.
    PhaseEnd { phase: usize },
    /// Lock acquire requested (queueing may follow).
    LockAcquireStart { lock: u64 },
    /// Lock acquire granted after waiting over `(t0, ts]`; `from` is the
    /// releaser and the instant on its timeline that enabled the grant (a
    /// hand-off iff that is another processor). The wait is also recorded
    /// in the lock-wait histogram.
    LockAcquireGranted {
        lock: u64,
        t0: u64,
        from: (usize, u64),
    },
    /// Lock released.
    LockRelease { lock: u64 },
    /// Arrived at a barrier.
    BarrierEnter { barrier: u64 },
    /// Released from a barrier after waiting over `(t0, ts]`; `from` is
    /// the last arriver and the instant on its timeline that enabled the
    /// release.
    BarrierExit {
        barrier: u64,
        t0: u64,
        from: (usize, u64),
    },
    /// Remote page fetch initiated (SVM platforms).
    PageFetchStart { page: u64, home: usize, bytes: u64 },
    /// Remote page fetch begun at `t0` complete; latency also recorded in
    /// the fetch-wait histogram.
    PageFetchDone {
        page: u64,
        home: usize,
        bytes: u64,
        t0: u64,
    },
    /// A diff was computed for `page` (SVM platforms), charged to this
    /// processor over `(t0, ts]` (empty when a write notice forced the
    /// flush and the grant absorbed it).
    DiffCreated { page: u64, t0: u64 },
    /// A diff was applied for `page` (at the HLRC home, or archived at the
    /// writer under TreadMarks-LRC).
    DiffApplied { page: u64 },
    /// A write notice invalidated the local copy of `page`.
    Invalidation { page: u64 },
    /// A hardware miss that stalled the processor for `stall` cycles,
    /// served by `home`'s side. `traced` marks the remote ones — serviced
    /// by the directory (CC-NUMA) or cache-to-cache over the bus (SMP) —
    /// and only those are drawn; every miss is in the fetch-wait histogram.
    RemoteMiss {
        line: u64,
        home: usize,
        stall: u64,
        traced: bool,
    },
    /// `stop_timing` settled the processor from `t0` to the clock of the
    /// overall straggler `straggler` (the event's time).
    Settle { t0: u64, straggler: usize },
}

/// One trace record: virtual timestamp, global sequence number (total order
/// across processors for same-timestamp events), and the event itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual time (cycles since `start_timing`) at which the event fired.
    pub ts: u64,
    /// Global emission sequence number (deterministic tie-breaker).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// One labeled allocation span in the simulated address space (byte
/// addresses, inclusive), snapshotted from the global allocator so post-hoc
/// analysis can attribute page/line addresses to data structures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSpan {
    /// First byte of the span.
    pub first: u64,
    /// Last byte of the span (inclusive).
    pub last: u64,
    /// The allocation label ("" when the app gave none).
    pub label: &'static str,
}

/// Log2-bucketed wait-latency histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitHist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for WaitHist {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl WaitHist {
    /// Record one wait of `cycles` (zero-cycle waits land in bucket 0).
    #[inline]
    pub fn record(&mut self, cycles: u64) {
        let idx = (64 - cycles.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(cycles);
        self.max = self.max.max(cycles);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded waits, in cycles.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded wait, in cycles.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean wait in cycles (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples in log2 bucket `i` (see [`HIST_BUCKETS`]).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Upper bound (exclusive) of bucket `i` in cycles: `2^i` (bucket 0 is
    /// exactly zero; the open-ended last bucket, and any index past it, is
    /// bounded only by `u64::MAX`).
    pub fn bucket_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            i if i >= HIST_BUCKETS - 1 => u64::MAX,
            i => 1 << i,
        }
    }

    /// Approximate quantile: the upper bound of the first bucket at which
    /// the cumulative count reaches `q * count`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target.max(1) {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HIST_BUCKETS - 1)
    }

    /// Fold another histogram into this one (the populations need not
    /// match: counts and sums add, the max is the max of the two).
    pub fn merge(&mut self, other: &WaitHist) {
        for i in 0..HIST_BUCKETS {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Machine-readable JSON object: count/sum/max/mean plus the non-empty
    /// buckets as `[bit_length, count]` pairs (each cell's `wait_hists` in
    /// `figures report --json`).
    pub fn to_json(&self) -> String {
        let buckets = joined(self.nonempty().map(|(i, b)| format!("[{i},{b}]")), ",");
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.1},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.max,
            self.mean(),
            buckets
        )
    }

    /// One-line summary, e.g. `n=12 mean=4032 p50~4096 max=8122`.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} mean={:.0} p50~{} p90~{} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.9),
            self.max
        )
    }

    /// Render the non-empty buckets as `<2^k:count` pairs (`>=2^k:count`
    /// for the open-ended last bucket).
    pub fn dist_line(&self) -> String {
        let mut s = joined(
            self.nonempty().map(|(i, b)| match i {
                0 => format!("0:{b}"),
                i if i == HIST_BUCKETS - 1 => format!(">=2^{}:{b}", i - 1),
                i => format!("<2^{i}:{b}"),
            }),
            " ",
        );
        if s.is_empty() {
            s.push_str("(empty)");
        }
        s
    }

    /// `(bucket, count)` of each non-empty bucket, ascending.
    fn nonempty(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (self.buckets.iter().enumerate()).filter_map(|(i, &b)| (b > 0).then_some((i, b)))
    }
}

/// Mutable trace state while a run is in flight. One instance per traced
/// run, owned by the run's [`crate::probe::Probe`].
#[derive(Debug)]
pub(crate) struct TraceSink {
    seq: u64,
    procs: Vec<SinkProc>,
}

#[derive(Debug)]
struct SinkProc {
    events: Capped<Vec<Event>>,
    fetch: WaitHist,
    lock: WaitHist,
    barrier: WaitHist,
}

impl TraceSink {
    /// Create a sink for `nprocs` processors with a per-proc event cap of
    /// `cap` (the buffers grow on demand up to it).
    pub(crate) fn new(nprocs: usize, cap: usize) -> Self {
        Self {
            seq: 0,
            procs: (0..nprocs)
                .map(|_| SinkProc {
                    events: Capped::new(cap),
                    fetch: WaitHist::default(),
                    lock: WaitHist::default(),
                    barrier: WaitHist::default(),
                })
                .collect(),
        }
    }

    /// Append an event to `pid`'s buffer (counted as dropped past the cap).
    #[inline]
    pub(crate) fn push(&mut self, pid: usize, ts: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.procs[pid].events.push(Event { ts, seq, kind });
    }

    /// Consume one protocol event: the trace events and wait-histogram
    /// sample it stands for. Called by the probe only while the timed
    /// region is active.
    pub(crate) fn on_event(&mut self, ev: &ProtoEvent<'_>) {
        use EventKind as K;
        use ProtoEvent as P;
        match *ev {
            P::PageFetch {
                pid,
                page,
                home,
                bytes,
                t0,
                t1,
                ..
            } => {
                self.push(pid, t0, K::PageFetchStart { page, home, bytes });
                let done = K::PageFetchDone {
                    page,
                    home,
                    bytes,
                    t0,
                };
                self.push(pid, t1, done);
                self.procs[pid].fetch.record(t1 - t0);
            }
            P::DiffCreated {
                pid,
                page,
                at,
                span,
                ..
            } => {
                let (t0, t1) = span.unwrap_or((at, at));
                self.push(pid, t1, K::DiffCreated { page, t0 });
            }
            P::DiffApplied { pid, page, at } => self.push(pid, at, K::DiffApplied { page }),
            P::Invalidation { pid, page, at } => self.push(pid, at, K::Invalidation { page }),
            P::RemoteMiss {
                pid,
                line,
                src,
                at,
                stall,
                traced,
            } => {
                let miss = K::RemoteMiss {
                    line,
                    home: src,
                    stall,
                    traced,
                };
                self.push(pid, at, miss);
                self.procs[pid].fetch.record(stall);
            }
            P::PhaseBegin { pid, at, phase } => self.push(pid, at, K::PhaseBegin { phase }),
            P::PhaseEnd { pid, at, phase } => self.push(pid, at, K::PhaseEnd { phase }),
            P::LockRequest { pid, lock, at } => {
                self.push(pid, at, K::LockAcquireStart { lock: lock as u64 })
            }
            P::LockGrant {
                pid,
                lock,
                t0,
                t1,
                src,
                src_ts,
            } => {
                let (lock, from) = (lock as u64, (src, src_ts));
                self.push(pid, t1, K::LockAcquireGranted { lock, t0, from });
                self.procs[pid].lock.record(t1 - t0);
            }
            P::LockRelease { pid, lock, at } => {
                self.push(pid, at, K::LockRelease { lock: lock as u64 })
            }
            P::BarrierEnter { pid, barrier, at } => {
                let barrier = barrier as u64;
                self.push(pid, at, K::BarrierEnter { barrier })
            }
            P::BarrierExit {
                pid,
                barrier,
                t0,
                t1,
                last,
                last_ts,
            } => {
                let (barrier, from) = (barrier as u64, (last, last_ts));
                self.push(pid, t1, K::BarrierExit { barrier, t0, from });
                self.procs[pid].barrier.record(t1 - t0);
            }
            P::Settle {
                pid,
                t0,
                t1,
                straggler,
            } => self.push(pid, t1, K::Settle { t0, straggler }),
            // Not traced: geometry and samples feed other consumers, and
            // accesses and rendezvous joins feed the race detector.
            P::PageGeometry { .. }
            | P::ProcSample { .. }
            | P::AppCount { .. }
            | P::Access { .. }
            | P::Join => {}
        }
    }

    /// Clear all buffers and histograms (called at `start_timing` so the
    /// trace covers exactly the timed region).
    pub(crate) fn reset(&mut self) {
        self.seq = 0;
        for p in &mut self.procs {
            p.events.reset();
            p.fetch = WaitHist::default();
            p.lock = WaitHist::default();
            p.barrier = WaitHist::default();
        }
    }

    /// Freeze into a [`RunTrace`]. `clocks` are the final per-proc virtual
    /// clocks (used to close the per-proc track); `allocs` is the labeled
    /// allocation-span snapshot for address attribution.
    pub(crate) fn into_trace(
        self,
        label: String,
        phase_names: Vec<String>,
        clocks: &[u64],
        allocs: Vec<AllocSpan>,
    ) -> RunTrace {
        RunTrace {
            label,
            phase_names,
            allocs,
            procs: self
                .procs
                .into_iter()
                .enumerate()
                .map(|(pid, p)| {
                    let (mut events, dropped) = p.events.into_parts();
                    // Per-proc buffers are appended in emission order, which
                    // is monotone for a proc's own activity but not for
                    // events posted to it by others (grants, home-side diff
                    // application); (ts, seq) sorting restores a
                    // deterministic timeline.
                    events.sort_by_key(|e| (e.ts, e.seq));
                    ProcTrace {
                        end: clocks.get(pid).copied().unwrap_or(0),
                        events,
                        dropped,
                        fetch_wait: p.fetch,
                        lock_wait: p.lock,
                        barrier_wait: p.barrier,
                    }
                })
                .collect(),
        }
    }
}

/// The finished event trace of one simulated processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcTrace {
    /// Events in (ts, seq) order.
    pub events: Vec<Event>,
    /// Events discarded because the buffer cap was reached.
    pub dropped: u64,
    /// This processor's final virtual clock (cycles in the timed region).
    pub end: u64,
    /// Latency histogram of remote page fetches / remote miss service.
    pub fetch_wait: WaitHist,
    /// Latency histogram of lock-acquire waits.
    pub lock_wait: WaitHist,
    /// Latency histogram of barrier waits.
    pub barrier_wait: WaitHist,
}

/// The finished trace of a run: one [`ProcTrace`] per simulated processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTrace {
    /// The run label (from [`crate::RunConfig::named`]).
    pub label: String,
    /// Application-registered phase names
    /// ([`crate::RunConfig::with_phase_names`]); may be shorter than the
    /// number of phases used.
    pub phase_names: Vec<String>,
    /// Per-processor traces, indexed by pid.
    pub procs: Vec<ProcTrace>,
    /// Labeled allocation spans (sorted by first byte) for attributing
    /// page/line addresses to data structures.
    pub allocs: Vec<AllocSpan>,
}

impl RunTrace {
    /// Total events captured across all processors.
    pub fn total_events(&self) -> usize {
        self.procs.iter().map(|p| p.events.len()).sum()
    }

    /// Total events dropped (0 unless a buffer hit its cap).
    pub fn dropped_events(&self) -> u64 {
        self.procs.iter().map(|p| p.dropped).sum()
    }

    /// Human name for phase `i` ("phase i" when the app registered none).
    pub fn phase_name(&self, i: usize) -> String {
        self.phase_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("phase {i}"))
    }

    /// End of the run in virtual cycles (max per-proc clock).
    pub fn end(&self) -> u64 {
        self.procs.iter().map(|p| p.end).max().unwrap_or(0)
    }

    /// The allocation label covering byte address `addr`, or `""` when the
    /// address falls outside every labeled span.
    pub fn label_of(&self, addr: u64) -> &'static str {
        let i = self.allocs.partition_point(|s| s.first <= addr);
        if i > 0 && addr <= self.allocs[i - 1].last {
            self.allocs[i - 1].label
        } else {
            ""
        }
    }

    /// Merged wait histograms across processors:
    /// `(fetch, lock, barrier)`.
    pub fn merged_hists(&self) -> (WaitHist, WaitHist, WaitHist) {
        let mut f = WaitHist::default();
        let mut l = WaitHist::default();
        let mut b = WaitHist::default();
        for p in &self.procs {
            f.merge(&p.fetch_wait);
            l.merge(&p.lock_wait);
            b.merge(&p.barrier_wait);
        }
        (f, l, b)
    }

    /// Render as Chrome `trace_event` JSON (the format accepted by
    /// <https://ui.perfetto.dev> and `chrome://tracing`): one track (tid)
    /// per simulated processor, phases and synchronization waits as
    /// duration events, protocol events as instants, and lock handoffs as
    /// flow arrows from the releasing to the granted processor.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_json_with(None)
    }

    /// [`RunTrace::to_chrome_json`], plus counter tracks (`"ph":"C"`
    /// events) rendered from an interval-metrics report taken in the same
    /// run: per-processor cycle-breakdown rates, activity of the hottest
    /// pages, and per-lock hand-off rates, all on the shared virtual-time
    /// axis so the time-series line up under the duration events.
    pub fn to_chrome_json_with(&self, metrics: Option<&crate::metrics::MetricsReport>) -> String {
        // Every record after the first is appended as `,\n {...}`.
        let mut out = String::with_capacity(4096 + self.total_events() * 96);
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n {{\"name\":\"process_name\",\
             \"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"sim: {}\"}}}}",
            esc(&self.label)
        );
        for pid in 0..self.procs.len() {
            let _ = write!(
                out,
                ",\n {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pid},\
                 \"args\":{{\"name\":\"proc {pid}\"}}}}"
            );
        }

        let o = &mut out;
        for (pid, p) in self.procs.iter().enumerate() {
            span(o, pid, "timed region", "run", 0, p.end);
            p.walk(|step| match step {
                Step::Event(e) => instant(e.kind, |name, cat, args| {
                    let _ = write!(
                        o,
                        ",\n {{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":0,\"tid\":{pid},\"ts\":{},\"args\":{{{args}}}}}",
                        e.ts
                    );
                }),
                Step::Span(Span::Phase(ph), t0, t1) => {
                    span(o, pid, esc(&self.phase_name(ph)), "phase", t0, t1)
                }
                Step::Span(Span::Lock(id), t0, t1) => {
                    span(o, pid, format_args!("lock {id} wait"), "lock", t0, t1)
                }
                Step::Span(Span::Barrier(id), t0, t1) => {
                    span(o, pid, format_args!("barrier {id}"), "barrier", t0, t1)
                }
                Step::Span(Span::Fetch, ..) => {}
            });
        }

        // Lock handoffs as flow arrows: a release followed (in global
        // virtual-time order) by the next grant of the same lock on any
        // processor.
        let mut all: Vec<(usize, &Event)> = (self.procs.iter().enumerate())
            .flat_map(|(pid, p)| p.events.iter().map(move |e| (pid, e)))
            .collect();
        all.sort_by_key(|(_, e)| (e.ts, e.seq));
        let mut last_release: FxMap<u64, (usize, u64)> = FxMap::default();
        let mut flow_id = 0u64;
        for (pid, e) in all {
            if let EventKind::LockRelease { lock } = e.kind {
                last_release.insert(lock, (pid, e.ts));
            }
            let EventKind::LockAcquireGranted { lock, .. } = e.kind else {
                continue;
            };
            let Some((rpid, rts)) = last_release.remove(&lock) else {
                continue;
            };
            let _ = write!(
                out,
                ",\n {{\"name\":\"lock {lock} handoff\",\"cat\":\"handoff\",\"ph\":\"s\",\
                 \"id\":{flow_id},\"pid\":0,\"tid\":{rpid},\"ts\":{rts}}},\n {{\"name\":\
                 \"lock {lock} handoff\",\"cat\":\"handoff\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{flow_id},\"pid\":0,\"tid\":{pid},\"ts\":{}}}",
                e.ts
            );
            flow_id += 1;
        }

        // Counter tracks from the interval-metrics report: Perfetto draws
        // one stacked area chart per distinct counter name.
        if let Some(m) = metrics {
            let (o, ivlen) = (&mut out, m.interval.max(1));
            for (pid, p) in m.procs.iter().enumerate() {
                let mut prev = crate::metrics::ProcSample::default();
                for s in &p.samples {
                    let args = format_args!(
                        "\"compute\":{},\"data_wait\":{},\"lock_wait\":{},\"barrier_wait\":{}",
                        s.compute.saturating_sub(prev.compute),
                        s.data_wait.saturating_sub(prev.data_wait),
                        s.lock_wait.saturating_sub(prev.lock_wait),
                        s.barrier_wait.saturating_sub(prev.barrier_wait),
                    );
                    counter(o, format_args!("proc {pid} cycles"), pid, s.ts, args);
                    let fetches = s.remote_fetches.saturating_sub(prev.remote_fetches);
                    let name = format_args!("proc {pid} fetches");
                    counter(o, name, pid, s.ts, format_args!("\"fetches\":{fetches}"));
                    prev = *s;
                }
            }
            // The hottest pages by protocol activity, so a big grid does
            // not explode the trace (a stable sort: ties stay in address
            // order).
            let mut hot: Vec<&crate::metrics::PageSeries> = m.pages.iter().collect();
            hot.sort_by_key(|p| Reverse(p.total_diff_words() + p.total_fetches()));
            for p in hot.into_iter().take(8) {
                let label = match p.label {
                    "" => String::new(),
                    l => format!(" ({})", esc(l)),
                };
                let name = format!("page {:#x}{label} [{}]", p.page_base, p.trajectory.label());
                for iv in &p.intervals {
                    let args = format_args!(
                        "\"fetches\":{},\"diff_words\":{},\"invalidations\":{},\"writers\":{}",
                        iv.fetches,
                        iv.diff_words,
                        iv.invalidations,
                        iv.writers.len(),
                    );
                    counter(o, &name, 0, iv.interval * ivlen, args);
                }
            }
            for l in &m.locks {
                for &(iv, n) in &l.intervals {
                    let name = format_args!("lock {} handoffs", l.lock);
                    counter(o, name, 0, iv * ivlen, format_args!("\"handoffs\":{n}"));
                }
            }
            for e in &m.events {
                // Aggregate an application event across processors into one
                // per-interval series.
                let mut byiv: std::collections::BTreeMap<u64, u64> = Default::default();
                for &(iv, n) in e.procs.iter().flatten() {
                    *byiv.entry(iv).or_insert(0) += n;
                }
                let name = esc(e.name);
                for (iv, n) in byiv {
                    counter(o, &name, 0, iv * ivlen, format_args!("\"count\":{n}"));
                }
            }
        }

        out.push_str("\n]}\n");
        out
    }

    /// ASCII timeline: one row per processor, `width` columns over the
    /// timed region. `B` = barrier wait, `L` = lock wait, `F` = page fetch
    /// in flight, `.` = everything else, `|` = phase transition.
    pub fn ascii_timeline(&self, width: usize) -> String {
        let width = width.max(16);
        let total = self.end().max(1);
        let col =
            |ts: u64| (((ts as u128 * width as u128) / total as u128) as usize).min(width - 1);
        let mut out = String::new();
        let per_col = total / width as u64;
        let _ = writeln!(
            out,
            "timeline [{}]: {total} cycles, {width} cols ({per_col} cycles/col)",
            self.label
        );
        for (pid, p) in self.procs.iter().enumerate() {
            let mut row = vec![b'.'; width];
            // Paint `ch` over `[a, b]` unless a higher-ranked mark
            // (`|` > `B` > `L` > `F`) is already there.
            let mut rank = vec![0u8; width];
            let mut paint = |a: u64, b: u64, ch: u8, r: u8| {
                for c in col(a)..=col(b.max(a)) {
                    if r >= rank[c] {
                        row[c] = ch;
                        rank[c] = r;
                    }
                }
            };
            p.walk(|step| match step {
                Step::Event(e) => match e.kind {
                    EventKind::PhaseBegin { .. } => paint(e.ts, e.ts, b'|', 4),
                    EventKind::RemoteMiss { traced: true, .. } => paint(e.ts, e.ts, b'F', 1),
                    _ => {}
                },
                Step::Span(Span::Barrier(_), t0, t1) => paint(t0, t1, b'B', 3),
                Step::Span(Span::Lock(_), t0, t1) => paint(t0, t1, b'L', 2),
                Step::Span(Span::Fetch, t0, t1) => paint(t0, t1, b'F', 1),
                Step::Span(Span::Phase(_), ..) => {}
            });
            let _ = write!(out, "p{pid:<3} {}", String::from_utf8(row).unwrap());
            if p.dropped > 0 {
                let _ = write!(out, "  ({} dropped)", p.dropped);
            }
            out.push('\n');
        }
        out.push_str(
            "legend: B=barrier wait  L=lock wait  F=fetch/miss  |=phase begin  .=compute\n",
        );
        out
    }

    /// Per-proc wait-latency report: one line per processor plus merged
    /// totals and log2 distributions — the "pages fetched are balanced but
    /// cost is not" check as a one-line-per-proc table.
    pub fn wait_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "wait-latency histograms [{}] (cycles):", self.label);
        for (pid, p) in self.procs.iter().enumerate() {
            let _ = writeln!(
                out,
                "  p{pid:<3} fetch[{}]  lock[{}]  barrier[{}]",
                p.fetch_wait.summary(),
                p.lock_wait.summary(),
                p.barrier_wait.summary()
            );
        }
        let (f, l, b) = self.merged_hists();
        let _ = writeln!(
            out,
            "  all  fetch[{}]  lock[{}]  barrier[{}]",
            f.summary(),
            l.summary(),
            b.summary()
        );
        let _ = writeln!(out, "  fetch dist:   {}", f.dist_line());
        let _ = writeln!(out, "  lock dist:    {}", l.dist_line());
        let _ = writeln!(out, "  barrier dist: {}", b.dist_line());
        out
    }
}

/// A span [`ProcTrace::walk`] pairs from a begin and an end event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Span {
    Phase(usize),
    Lock(u64),
    Barrier(u64),
    Fetch,
}

/// What [`ProcTrace::walk`] yields.
enum Step<'a> {
    /// An event, in `(ts, seq)` order.
    Event(&'a Event),
    /// A span over `[t0, t1]`, right after the event that closes it; a
    /// phase still open after the last event closes at the track's end.
    Span(Span, u64, u64),
}

impl ProcTrace {
    /// One pass over the events: the one place begin and end events are
    /// paired, so every renderer draws the same spans. Phases nest (an
    /// end closes the innermost open phase of its id; the ones left open
    /// close at `end`, innermost first). A lock, barrier or fetch wait is
    /// open at most once per id: a second begin restarts it, and an end
    /// with no begin, or a wait still open at the end, draws nothing.
    fn walk(&self, mut f: impl FnMut(Step<'_>)) {
        let mut open: Vec<(Span, u64)> = Vec::new();
        for e in &self.events {
            f(Step::Event(e));
            let (span, begins) = match e.kind {
                EventKind::PhaseBegin { phase } => (Span::Phase(phase), true),
                EventKind::PhaseEnd { phase } => (Span::Phase(phase), false),
                EventKind::LockAcquireStart { lock } => (Span::Lock(lock), true),
                EventKind::LockAcquireGranted { lock, .. } => (Span::Lock(lock), false),
                EventKind::BarrierEnter { barrier } => (Span::Barrier(barrier), true),
                EventKind::BarrierExit { barrier, .. } => (Span::Barrier(barrier), false),
                EventKind::PageFetchStart { .. } => (Span::Fetch, true),
                EventKind::PageFetchDone { .. } => (Span::Fetch, false),
                _ => continue,
            };
            let at = open.iter().rposition(|&(s, _)| s == span);
            match (begins, at) {
                (true, Some(i)) if !matches!(span, Span::Phase(_)) => open[i].1 = e.ts,
                (true, _) => open.push((span, e.ts)),
                (false, Some(i)) => f(Step::Span(span, open.remove(i).1, e.ts)),
                (false, None) => {}
            }
        }
        for (span, t0) in open.into_iter().rev() {
            if let Span::Phase(_) = span {
                f(Step::Span(span, t0, self.end));
            }
        }
    }
}

/// The instant a protocol event draws on its Chrome track, handed to `f`
/// as `(name, cat, args)`. The begin/end events that [`ProcTrace::walk`]
/// pairs into spans draw none.
fn instant(kind: EventKind, f: impl FnOnce(fmt::Arguments, &str, fmt::Arguments)) {
    use EventKind as K;
    match kind {
        K::LockRelease { lock } => f(
            format_args!("release lock {lock}"),
            "lock",
            format_args!(""),
        ),
        K::PageFetchStart { page, home, bytes } => f(
            format_args!("fetch {page:#x}"),
            "fetch",
            format_args!("\"page\":\"{page:#x}\",\"home\":{home},\"bytes\":{bytes}"),
        ),
        K::PageFetchDone {
            page, home, bytes, ..
        } => f(
            format_args!("fetched {page:#x}"),
            "fetch",
            format_args!("\"page\":\"{page:#x}\",\"home\":{home},\"bytes\":{bytes}"),
        ),
        K::DiffCreated { page, .. } => f(
            format_args!("diff created {page:#x}"),
            "diff",
            format_args!("\"page\":\"{page:#x}\""),
        ),
        K::DiffApplied { page } => f(
            format_args!("diff applied {page:#x}"),
            "diff",
            format_args!("\"page\":\"{page:#x}\""),
        ),
        K::Invalidation { page } => f(
            format_args!("invalidate {page:#x}"),
            "inval",
            format_args!("\"page\":\"{page:#x}\""),
        ),
        K::RemoteMiss {
            line,
            home,
            traced: true,
            ..
        } => f(
            format_args!("remote miss {line:#x}"),
            "miss",
            format_args!("\"line\":\"{line:#x}\",\"home\":{home}"),
        ),
        _ => {}
    }
}

/// Append a Chrome counter record (`"ph":"C"`) at `ts` on track `tid`.
fn counter(out: &mut String, name: impl fmt::Display, tid: usize, ts: u64, args: fmt::Arguments) {
    let _ = write!(
        out,
        ",\n {{\"name\":\"{name}\",\"cat\":\"metrics\",\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\
         \"ts\":{ts},\"args\":{{{args}}}}}"
    );
}

/// Append a Chrome duration record for `[t0, t1]` on track `pid`.
fn span(out: &mut String, pid: usize, name: impl fmt::Display, cat: &str, t0: u64, t1: u64) {
    let _ = write!(
        out,
        ",\n {{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\"tid\":{pid},\
         \"ts\":{t0},\"dur\":{}}}",
        t1.saturating_sub(t0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_and_quantiles() {
        let mut h = WaitHist::default();
        h.record(0);
        h.record(1);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1004);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket(0), 1); // the zero
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 1); // 3
        assert_eq!(h.bucket(10), 1); // 1000 (512..1024)
        assert_eq!(h.quantile(1.0), 1 << 10);
        let mut m = WaitHist::default();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(), 8);
        assert_eq!(m.max(), 1000);
    }

    #[test]
    fn hist_edge_cases() {
        // Quantiles and mean on an empty histogram are all zero.
        let h = WaitHist::default();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(
            h.to_json(),
            "{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0.0,\"buckets\":[]}"
        );

        // bucket_bound is strictly monotone, and the open-ended last
        // bucket (and any index past it) is bounded only by u64::MAX.
        for i in 1..HIST_BUCKETS {
            assert!(WaitHist::bucket_bound(i) > WaitHist::bucket_bound(i - 1));
        }
        assert_eq!(WaitHist::bucket_bound(HIST_BUCKETS - 1), u64::MAX);
        assert_eq!(WaitHist::bucket_bound(100), u64::MAX);

        // Merge with mismatched populations: counts and sums add, max is
        // the max of the two, and merging an empty histogram is identity.
        let mut a = WaitHist::default();
        a.record(5);
        a.record(7);
        a.record(100);
        let mut b = WaitHist::default();
        b.record(0);
        b.merge(&a);
        assert_eq!(b.count(), 4);
        assert_eq!(b.sum(), 112);
        assert_eq!(b.max(), 100);
        let before = a.clone();
        a.merge(&WaitHist::default());
        assert_eq!(a, before);

        // Saturating counts: huge samples clamp the sum at u64::MAX
        // instead of overflowing; max and mean stay meaningful.
        let mut s = WaitHist::default();
        s.record(u64::MAX);
        s.record(u64::MAX);
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum(), u64::MAX);
        assert_eq!(s.max(), u64::MAX);
        assert!(s.mean() > 0.0);
        assert_eq!(s.bucket(HIST_BUCKETS - 1), 2);
    }

    #[test]
    fn last_bucket_is_open_ended() {
        // A wait past the last bucket's lower bound is clamped into it; the
        // quantile and the distribution must not report it as bounded.
        let mut h = WaitHist::default();
        h.record(1 << 45);
        assert_eq!(h.bucket(HIST_BUCKETS - 1), 1);
        assert!(h.quantile(1.0) >= 1 << 45);
        assert_eq!(h.dist_line(), format!(">=2^{}:1", HIST_BUCKETS - 2));
    }

    #[test]
    fn alloc_labels_resolve_by_address() {
        let s = TraceSink::new(1, 8);
        let allocs = vec![
            AllocSpan {
                first: 0x1000,
                last: 0x1fff,
                label: "psi",
            },
            AllocSpan {
                first: 0x4000,
                last: 0x5fff,
                label: "work",
            },
        ];
        let tr = s.into_trace("t".into(), vec![], &[0], allocs);
        assert_eq!(tr.label_of(0x1000), "psi");
        assert_eq!(tr.label_of(0x1fff), "psi");
        assert_eq!(tr.label_of(0x2000), "");
        assert_eq!(tr.label_of(0x4abc), "work");
        assert_eq!(tr.label_of(0x0), "");
    }

    #[test]
    fn sink_caps_and_counts_drops() {
        let mut s = TraceSink::new(2, 3);
        for i in 0..5 {
            s.push(0, i, EventKind::DiffCreated { page: i, t0: i });
        }
        s.push(1, 9, EventKind::DiffApplied { page: 9 });
        let tr = s.into_trace("t".into(), vec![], &[10, 10], vec![]);
        assert_eq!(tr.procs[0].events.len(), 3);
        assert_eq!(tr.procs[0].dropped, 2);
        assert_eq!(tr.procs[1].events.len(), 1);
        assert_eq!(tr.dropped_events(), 2);
        // Sequence numbers are global and strictly increasing.
        assert!(tr.procs[0].events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn chrome_json_shape() {
        let mut s = TraceSink::new(2, 64);
        s.push(0, 0, EventKind::PhaseBegin { phase: 0 });
        s.push(0, 5, EventKind::LockAcquireStart { lock: 1 });
        let granted = |t0, from| EventKind::LockAcquireGranted { lock: 1, t0, from };
        s.push(0, 9, granted(5, (0, 5)));
        s.push(0, 20, EventKind::LockRelease { lock: 1 });
        s.push(1, 22, granted(22, (0, 20)));
        s.push(0, 30, EventKind::PhaseEnd { phase: 0 });
        let tr = s.into_trace("unit \"q\"".into(), vec!["init".into()], &[30, 30], vec![]);
        let json = tr.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"init\""));
        assert!(json.contains("\\\"q\\\""));
        // One handoff flow pair (release on p0 -> grant on p1).
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        // Balanced braces/brackets outside strings.
        let (mut depth, mut in_str, mut escn) = (0i64, false, false);
        for c in json.chars() {
            if escn {
                escn = false;
                continue;
            }
            match c {
                '\\' if in_str => escn = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn chrome_json_escapes_labels_and_event_names() {
        const LABEL: &str = "a\"b\\c\u{1}";
        let mut m = crate::metrics::MetricsSink::new(1, 100, 8);
        m.page_fetch(10, 0x1000);
        m.event(LABEL, 0, 10, 1);
        let metrics = m.into_report(|_| LABEL);
        let tr = TraceSink::new(1, 8).into_trace(LABEL.into(), vec![], &[20], vec![]);
        let json = tr.to_chrome_json_with(Some(&metrics));
        let escaped = "a\\\"b\\\\c\\u0001";
        // The run label, the page's label and the event name.
        assert_eq!(json.matches(escaped).count(), 3, "{json}");
        assert!(!json.contains(LABEL));
    }
}
