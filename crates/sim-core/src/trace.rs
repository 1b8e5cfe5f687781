//! Virtual-time protocol event tracing.
//!
//! When a run is configured with [`crate::RunConfig::with_trace`], every
//! simulated processor records virtual-time-stamped [`Event`]s into a
//! bounded per-proc buffer: phase transitions, lock and barrier episodes,
//! page fetches, diff creation/application, invalidations and remote
//! misses. The tracer is a consumer of the protocol event stream
//! ([`crate::probe`]): `TraceSink::on_event` turns each
//! [`ProtoEvent`] the scheduler and the platform crates report into trace
//! events, a dependency edge and a wait sample. All timestamps are virtual
//! cycles — no host clocks — so traces are bit-identical across repeated
//! runs.
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
//! for terminals ([`RunTrace::ascii_timeline`]).

use std::fmt::Write as _;

use crate::probe::ProtoEvent;
use crate::util::{json_escape as esc, Capped};

/// Default per-processor event-buffer capacity (events beyond this are
/// counted, not stored). Lower it with [`crate::RunConfig::with_diag_cap`].
/// Buffers grow on demand up to it: reserved up front, a short run would
/// leave 3.5 MiB per processor of never-touched heap behind.
pub const DEFAULT_EVENT_CAP: usize = 1 << 16;

/// Default run-wide dependency-edge capacity (edges beyond this are counted
/// in [`RunTrace::edges_dropped`], not stored). Lower it with
/// [`crate::RunConfig::with_diag_cap`]. The buffer grows on demand up to
/// this cap rather than preallocating it.
pub const DEFAULT_EDGE_CAP: usize = 1 << 20;

/// Number of log2 latency buckets (bucket `i` holds waits with bit-length
/// `i`, i.e. `2^(i-1) <= wait < 2^i`; bucket 0 holds zero-cycle waits).
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
    /// Lock acquire granted; the wait since `LockAcquireStart` is also
    /// recorded in the lock-wait histogram.
    LockAcquireGranted { lock: u64 },
    /// Lock released.
    LockRelease { lock: u64 },
    /// Arrived at a barrier.
    BarrierEnter { barrier: u64 },
    /// Released from a barrier.
    BarrierExit { barrier: u64 },
    /// Remote page fetch initiated (SVM platforms).
    PageFetchStart { page: u64, home: usize, bytes: u64 },
    /// Remote page fetch complete; latency also recorded in the fetch-wait
    /// histogram.
    PageFetchDone { page: u64, home: usize, bytes: u64 },
    /// A diff was computed for `page` (SVM platforms).
    DiffCreated { page: u64 },
    /// A diff was applied for `page` (at the HLRC home, or archived at the
    /// writer under TreadMarks-LRC).
    DiffApplied { page: u64 },
    /// A write notice invalidated the local copy of `page`.
    Invalidation { page: u64 },
    /// A hardware coherence miss serviced remotely (directory CC-NUMA) or
    /// cache-to-cache over the bus (SMP).
    RemoteMiss { line: u64, home: usize },
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

/// The kind of a dependency edge — the provenance of one stall interval on
/// a processor's timeline. *Cross* kinds (lock handoffs, barrier releases,
/// the final settle) name the remote processor whose progress enabled this
/// one to resume; *intrinsic* kinds (page fetches, diffs, remote misses)
/// are protocol service intervals whose `src` is provenance only (the
/// server is a node resource, not a processor timeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    /// Lock handoff: the releaser's unlock enabled this acquire.
    LockHandoff { lock: u64 },
    /// Barrier release: the last arriver enabled this exit.
    BarrierRelease { barrier: u64 },
    /// End-of-run settle at `stop_timing`: the overall straggler enabled
    /// everyone else's final clock.
    Settle,
    /// Remote page fetch service (SVM platforms). `page` is the byte base
    /// address, `bytes` the wire traffic.
    PageFetch { page: u64, bytes: u64 },
    /// Diff creation/application work charged at interval close (SVM).
    Diff { page: u64 },
    /// Remote miss service (directory CC-NUMA, or any bus-serviced miss on
    /// SMP). `line` is the byte base address.
    RemoteMiss { line: u64 },
}

impl DepKind {
    /// True for edges whose `src`/`src_ts` name an enabling point on
    /// another processor's timeline (see [`DepKind`]).
    pub fn is_cross(&self) -> bool {
        matches!(
            self,
            DepKind::LockHandoff { .. } | DepKind::BarrierRelease { .. } | DepKind::Settle
        )
    }
}

/// One dependency edge: processor `dst` was stalled over `(t0, t1]` of its
/// own timeline, and (for cross kinds) could not have resumed before
/// `src_ts` on processor `src`'s timeline. Edges with `t1 <= t0` are never
/// recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// What kind of dependence this is.
    pub kind: DepKind,
    /// The stalled (resuming) processor.
    pub dst: usize,
    /// Start of the stall on `dst`'s timeline (virtual cycles).
    pub t0: u64,
    /// End of the stall on `dst`'s timeline (resume point).
    pub t1: u64,
    /// The enabling processor (cross kinds) or serving node's proc-0
    /// (intrinsic kinds, provenance only).
    pub src: usize,
    /// The enabling instant on `src`'s timeline (cross kinds).
    pub src_ts: u64,
    /// Global emission sequence number (deterministic tie-breaker).
    pub seq: u64,
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
    /// exactly zero).
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i.min(63)
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
        let mut buckets = String::new();
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > 0 {
                if !buckets.is_empty() {
                    buckets.push(',');
                }
                let _ = write!(buckets, "[{i},{b}]");
            }
        }
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

    /// Render the non-empty buckets as `2^k:count` pairs.
    pub fn dist_line(&self) -> String {
        let mut s = String::new();
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > 0 {
                if !s.is_empty() {
                    s.push(' ');
                }
                if i == 0 {
                    let _ = write!(s, "0:{b}");
                } else {
                    let _ = write!(s, "<2^{i}:{b}");
                }
            }
        }
        if s.is_empty() {
            s.push_str("(empty)");
        }
        s
    }
}

/// Mutable trace state while a run is in flight. One instance per traced
/// run, owned by the run's [`crate::probe::Probe`].
#[derive(Debug)]
pub(crate) struct TraceSink {
    seq: u64,
    procs: Vec<SinkProc>,
    eseq: u64,
    edges: Capped<Vec<DepEdge>>,
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
    /// `cap` and a run-wide dependency-edge cap of `edge_cap` (all buffers
    /// grow on demand up to their caps).
    pub(crate) fn new(nprocs: usize, cap: usize, edge_cap: usize) -> Self {
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
            eseq: 0,
            edges: Capped::new(edge_cap),
        }
    }

    /// Append an event to `pid`'s buffer (counted as dropped past the cap).
    #[inline]
    pub(crate) fn push(&mut self, pid: usize, ts: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.procs[pid].events.push(Event { ts, seq, kind });
    }

    /// Record a dependency edge (counted as dropped past the edge cap;
    /// edges with `t1 <= t0` are silently skipped — no stall, no edge).
    #[inline]
    pub(crate) fn push_edge(
        &mut self,
        kind: DepKind,
        dst: usize,
        t0: u64,
        t1: u64,
        src: usize,
        src_ts: u64,
    ) {
        if t1 <= t0 {
            return;
        }
        let seq = self.eseq;
        self.eseq += 1;
        self.edges.push(DepEdge {
            kind,
            dst,
            t0,
            t1,
            src,
            src_ts,
            seq,
        });
    }

    /// Consume one protocol event: the trace events, dependency edge and
    /// wait-histogram sample it stands for. Called by the probe only while
    /// the timed region is active.
    pub(crate) fn on_event(&mut self, ev: &ProtoEvent<'_>) {
        use ProtoEvent as P;
        match *ev {
            P::PageFetch {
                pid,
                page,
                home,
                src,
                bytes,
                t0,
                t1,
                ..
            } => {
                self.push(pid, t0, EventKind::PageFetchStart { page, home, bytes });
                self.push(pid, t1, EventKind::PageFetchDone { page, home, bytes });
                self.procs[pid].fetch.record(t1 - t0);
                // The serving node's stand-in processor is provenance only.
                self.push_edge(DepKind::PageFetch { page, bytes }, pid, t0, t1, src, t0);
            }
            P::DiffCreated {
                pid,
                page,
                at,
                span,
                ..
            } => {
                let (t0, t1) = span.unwrap_or((at, at));
                self.push_edge(DepKind::Diff { page }, pid, t0, t1, pid, t0);
                self.push(pid, t1, EventKind::DiffCreated { page });
            }
            P::DiffApplied { pid, page, at } => self.push(pid, at, EventKind::DiffApplied { page }),
            P::Invalidation { pid, page, at } => {
                self.push(pid, at, EventKind::Invalidation { page })
            }
            P::RemoteMiss {
                pid,
                line,
                src,
                at,
                stall,
                traced,
            } => {
                if traced {
                    self.push(pid, at, EventKind::RemoteMiss { line, home: src });
                }
                self.procs[pid].fetch.record(stall);
                // The caller charges `stall` from `at`.
                self.push_edge(DepKind::RemoteMiss { line }, pid, at, at + stall, src, at);
            }
            P::PhaseBegin { pid, at, phase } => self.push(pid, at, EventKind::PhaseBegin { phase }),
            P::PhaseEnd { pid, at, phase } => self.push(pid, at, EventKind::PhaseEnd { phase }),
            P::LockRequest { pid, lock, at } => {
                self.push(pid, at, EventKind::LockAcquireStart { lock: lock as u64 })
            }
            P::LockGrant {
                pid,
                lock,
                t0,
                t1,
                src,
                src_ts,
            } => {
                let lock = lock as u64;
                self.push_edge(DepKind::LockHandoff { lock }, pid, t0, t1, src, src_ts);
                self.push(pid, t1, EventKind::LockAcquireGranted { lock });
                self.procs[pid].lock.record(t1 - t0);
            }
            P::LockRelease { pid, lock, at } => {
                self.push(pid, at, EventKind::LockRelease { lock: lock as u64 })
            }
            P::BarrierEnter { pid, barrier, at } => self.push(
                pid,
                at,
                EventKind::BarrierEnter {
                    barrier: barrier as u64,
                },
            ),
            P::BarrierExit {
                pid,
                barrier,
                t0,
                t1,
                last,
                last_ts,
            } => {
                let barrier = barrier as u64;
                self.push(pid, t1, EventKind::BarrierExit { barrier });
                self.procs[pid].barrier.record(t1 - t0);
                self.push_edge(
                    DepKind::BarrierRelease { barrier },
                    pid,
                    t0,
                    t1,
                    last,
                    last_ts,
                );
            }
            P::Settle {
                pid,
                t0,
                t1,
                straggler,
            } => self.push_edge(DepKind::Settle, pid, t0, t1, straggler, t1),
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
        self.eseq = 0;
        self.edges.reset();
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
        let (mut edges, edges_dropped) = self.edges.into_parts();
        // Edges arrive in emission order; (t1, seq) sorting gives the
        // deterministic resume-time order the critical-path DP needs.
        edges.sort_by_key(|e| (e.t1, e.seq));
        RunTrace {
            label,
            phase_names,
            edges,
            edges_dropped,
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
    /// Dependency edges in (resume time, seq) order — the provenance the
    /// critical-path analyzer ([`crate::critpath`]) walks.
    pub edges: Vec<DepEdge>,
    /// Edges discarded because the run-wide edge cap was reached.
    pub edges_dropped: u64,
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
        let mut out = String::with_capacity(4096 + self.total_events() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push(' ');
            out.push_str(&ev);
        };

        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                 \"args\":{{\"name\":\"sim: {}\"}}}}",
                esc(&self.label)
            ),
        );
        for pid in 0..self.procs.len() {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pid},\
                     \"args\":{{\"name\":\"proc {pid}\"}}}}"
                ),
            );
        }

        for (pid, p) in self.procs.iter().enumerate() {
            // Whole-track span for the timed region.
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"timed region\",\"cat\":\"run\",\"ph\":\"X\",\
                     \"pid\":0,\"tid\":{pid},\"ts\":0,\"dur\":{}}}",
                    p.end
                ),
            );
            // Match begin/end pairs into duration events; close unmatched
            // begins at the end of the track.
            let mut phase_stack: Vec<(usize, u64)> = Vec::new();
            let mut lock_start: crate::util::FxMap<u64, u64> = crate::util::FxMap::default();
            let mut barrier_enter: crate::util::FxMap<u64, u64> = crate::util::FxMap::default();
            for e in &p.events {
                match e.kind {
                    EventKind::PhaseBegin { phase } => phase_stack.push((phase, e.ts)),
                    EventKind::PhaseEnd { phase } => {
                        if let Some(pos) = phase_stack.iter().rposition(|&(ph, _)| ph == phase) {
                            let (_, t0) = phase_stack.remove(pos);
                            push(
                                &mut out,
                                &mut first,
                                self.span(pid, &self.phase_name(phase), "phase", t0, e.ts),
                            );
                        }
                    }
                    EventKind::LockAcquireStart { lock } => {
                        lock_start.insert(lock, e.ts);
                    }
                    EventKind::LockAcquireGranted { lock } => {
                        if let Some(t0) = lock_start.remove(&lock) {
                            push(
                                &mut out,
                                &mut first,
                                self.span(pid, &format!("lock {lock} wait"), "lock", t0, e.ts),
                            );
                        }
                    }
                    EventKind::BarrierEnter { barrier } => {
                        barrier_enter.insert(barrier, e.ts);
                    }
                    EventKind::BarrierExit { barrier } => {
                        if let Some(t0) = barrier_enter.remove(&barrier) {
                            push(
                                &mut out,
                                &mut first,
                                self.span(pid, &format!("barrier {barrier}"), "barrier", t0, e.ts),
                            );
                        }
                    }
                    EventKind::LockRelease { lock } => {
                        push(
                            &mut out,
                            &mut first,
                            instant(pid, e.ts, &format!("release lock {lock}"), "lock", ""),
                        );
                    }
                    EventKind::PageFetchStart { page, home, bytes } => {
                        push(
                            &mut out,
                            &mut first,
                            instant(
                                pid,
                                e.ts,
                                &format!("fetch {page:#x}"),
                                "fetch",
                                &format!(
                                    "\"page\":\"{page:#x}\",\"home\":{home},\"bytes\":{bytes}"
                                ),
                            ),
                        );
                    }
                    EventKind::PageFetchDone { page, home, bytes } => {
                        push(
                            &mut out,
                            &mut first,
                            instant(
                                pid,
                                e.ts,
                                &format!("fetched {page:#x}"),
                                "fetch",
                                &format!(
                                    "\"page\":\"{page:#x}\",\"home\":{home},\"bytes\":{bytes}"
                                ),
                            ),
                        );
                    }
                    EventKind::DiffCreated { page } => {
                        push(
                            &mut out,
                            &mut first,
                            instant(
                                pid,
                                e.ts,
                                &format!("diff created {page:#x}"),
                                "diff",
                                &format!("\"page\":\"{page:#x}\""),
                            ),
                        );
                    }
                    EventKind::DiffApplied { page } => {
                        push(
                            &mut out,
                            &mut first,
                            instant(
                                pid,
                                e.ts,
                                &format!("diff applied {page:#x}"),
                                "diff",
                                &format!("\"page\":\"{page:#x}\""),
                            ),
                        );
                    }
                    EventKind::Invalidation { page } => {
                        push(
                            &mut out,
                            &mut first,
                            instant(
                                pid,
                                e.ts,
                                &format!("invalidate {page:#x}"),
                                "inval",
                                &format!("\"page\":\"{page:#x}\""),
                            ),
                        );
                    }
                    EventKind::RemoteMiss { line, home } => {
                        push(
                            &mut out,
                            &mut first,
                            instant(
                                pid,
                                e.ts,
                                &format!("remote miss {line:#x}"),
                                "miss",
                                &format!("\"line\":\"{line:#x}\",\"home\":{home}"),
                            ),
                        );
                    }
                }
            }
            while let Some((phase, t0)) = phase_stack.pop() {
                push(
                    &mut out,
                    &mut first,
                    self.span(pid, &self.phase_name(phase), "phase", t0, p.end),
                );
            }
        }

        // Lock handoffs as flow arrows: a release followed (in global
        // virtual-time order) by the next grant of the same lock on any
        // processor.
        let mut all: Vec<(usize, &Event)> = Vec::new();
        for (pid, p) in self.procs.iter().enumerate() {
            for e in &p.events {
                all.push((pid, e));
            }
        }
        all.sort_by_key(|(_, e)| (e.ts, e.seq));
        let mut last_release: crate::util::FxMap<u64, (usize, u64)> = crate::util::FxMap::default();
        let mut flow_id = 0u64;
        for (pid, e) in all {
            match e.kind {
                EventKind::LockRelease { lock } => {
                    last_release.insert(lock, (pid, e.ts));
                }
                EventKind::LockAcquireGranted { lock } => {
                    if let Some((rpid, rts)) = last_release.remove(&lock) {
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"name\":\"lock {lock} handoff\",\"cat\":\"handoff\",\
                                 \"ph\":\"s\",\"id\":{flow_id},\"pid\":0,\"tid\":{rpid},\
                                 \"ts\":{rts}}}"
                            ),
                        );
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"name\":\"lock {lock} handoff\",\"cat\":\"handoff\",\
                                 \"ph\":\"f\",\"bp\":\"e\",\"id\":{flow_id},\"pid\":0,\
                                 \"tid\":{pid},\"ts\":{}}}",
                                e.ts
                            ),
                        );
                        flow_id += 1;
                    }
                }
                _ => {}
            }
        }

        // Counter tracks from the interval-metrics report: Perfetto draws
        // one stacked area chart per distinct counter name.
        if let Some(m) = metrics {
            let ivlen = m.interval.max(1);
            for (pid, p) in m.procs.iter().enumerate() {
                let mut prev = crate::metrics::ProcSample::default();
                for s in &p.samples {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"proc {pid} cycles\",\"cat\":\"metrics\",\
                             \"ph\":\"C\",\"pid\":0,\"tid\":{pid},\"ts\":{},\
                             \"args\":{{\"compute\":{},\"data_wait\":{},\
                             \"lock_wait\":{},\"barrier_wait\":{}}}}}",
                            s.ts,
                            s.compute.saturating_sub(prev.compute),
                            s.data_wait.saturating_sub(prev.data_wait),
                            s.lock_wait.saturating_sub(prev.lock_wait),
                            s.barrier_wait.saturating_sub(prev.barrier_wait),
                        ),
                    );
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"proc {pid} fetches\",\"cat\":\"metrics\",\
                             \"ph\":\"C\",\"pid\":0,\"tid\":{pid},\"ts\":{},\
                             \"args\":{{\"fetches\":{}}}}}",
                            s.ts,
                            s.remote_fetches.saturating_sub(prev.remote_fetches),
                        ),
                    );
                    prev = *s;
                }
            }
            // The hottest pages by protocol activity, so a big grid does
            // not explode the trace.
            let mut hot: Vec<&crate::metrics::PageSeries> = m.pages.iter().collect();
            hot.sort_by_key(|p| {
                (
                    std::cmp::Reverse(p.total_diff_words() + p.total_fetches()),
                    p.page_base,
                )
            });
            for p in hot.into_iter().take(8) {
                let name = if p.label.is_empty() {
                    format!("page {:#x} [{}]", p.page_base, p.trajectory.label())
                } else {
                    format!(
                        "page {:#x} ({}) [{}]",
                        p.page_base,
                        esc(p.label),
                        p.trajectory.label()
                    )
                };
                for iv in &p.intervals {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"{name}\",\"cat\":\"metrics\",\"ph\":\"C\",\
                             \"pid\":0,\"tid\":0,\"ts\":{},\
                             \"args\":{{\"fetches\":{},\"diff_words\":{},\
                             \"invalidations\":{},\"writers\":{}}}}}",
                            iv.interval * ivlen,
                            iv.fetches,
                            iv.diff_words,
                            iv.invalidations,
                            iv.writers.len(),
                        ),
                    );
                }
            }
            for l in &m.locks {
                for &(iv, n) in &l.intervals {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"lock {} handoffs\",\"cat\":\"metrics\",\
                             \"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{},\
                             \"args\":{{\"handoffs\":{n}}}}}",
                            l.lock,
                            iv * ivlen,
                        ),
                    );
                }
            }
            for e in &m.events {
                // Aggregate an application event across processors into one
                // per-interval series.
                let mut byiv: crate::util::FxMap<u64, u64> = crate::util::FxMap::default();
                for p in &e.procs {
                    for &(iv, n) in p {
                        *byiv.entry(iv).or_insert(0) += n;
                    }
                }
                let mut ivs: Vec<(u64, u64)> = byiv.into_iter().collect();
                ivs.sort_by_key(|&(iv, _)| iv);
                for (iv, n) in ivs {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"metrics\",\"ph\":\"C\",\
                             \"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\"count\":{n}}}}}",
                            esc(e.name),
                            iv * ivlen,
                        ),
                    );
                }
            }
        }

        out.push_str("\n]}\n");
        out
    }

    fn span(&self, pid: usize, name: &str, cat: &str, t0: u64, t1: u64) -> String {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\"tid\":{pid},\
             \"ts\":{t0},\"dur\":{}}}",
            esc(name),
            t1.saturating_sub(t0)
        )
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
        let _ = writeln!(
            out,
            "timeline [{}]: {} cycles, {} cols ({} cycles/col)",
            self.label,
            total,
            width,
            total / width as u64
        );
        for (pid, p) in self.procs.iter().enumerate() {
            let mut row = vec![b'.'; width];
            let mut rank = vec![0u8; width];
            let paint = |row: &mut Vec<u8>, rank: &mut Vec<u8>, a: u64, b: u64, ch: u8, r: u8| {
                for c in col(a)..=col(b.max(a)) {
                    if r >= rank[c] {
                        row[c] = ch;
                        rank[c] = r;
                    }
                }
            };
            let mut lock_start: crate::util::FxMap<u64, u64> = crate::util::FxMap::default();
            let mut barrier_enter: crate::util::FxMap<u64, u64> = crate::util::FxMap::default();
            let mut fetch_start: u64 = 0;
            for e in &p.events {
                match e.kind {
                    EventKind::PhaseBegin { .. } => {
                        let c = col(e.ts);
                        row[c] = b'|';
                        rank[c] = 4;
                    }
                    EventKind::LockAcquireStart { lock } => {
                        lock_start.insert(lock, e.ts);
                    }
                    EventKind::LockAcquireGranted { lock } => {
                        if let Some(t0) = lock_start.remove(&lock) {
                            paint(&mut row, &mut rank, t0, e.ts, b'L', 2);
                        }
                    }
                    EventKind::BarrierEnter { barrier } => {
                        barrier_enter.insert(barrier, e.ts);
                    }
                    EventKind::BarrierExit { barrier } => {
                        if let Some(t0) = barrier_enter.remove(&barrier) {
                            paint(&mut row, &mut rank, t0, e.ts, b'B', 3);
                        }
                    }
                    EventKind::PageFetchStart { .. } => fetch_start = e.ts,
                    EventKind::PageFetchDone { .. } => {
                        paint(&mut row, &mut rank, fetch_start, e.ts, b'F', 1);
                    }
                    EventKind::RemoteMiss { .. } => {
                        paint(&mut row, &mut rank, e.ts, e.ts, b'F', 1);
                    }
                    _ => {}
                }
            }
            let _ = writeln!(
                out,
                "p{pid:<3} {}{}",
                String::from_utf8(row).unwrap(),
                if p.dropped > 0 {
                    format!("  ({} dropped)", p.dropped)
                } else {
                    String::new()
                }
            );
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

fn instant(pid: usize, ts: u64, name: &str, cat: &str, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
         \"tid\":{pid},\"ts\":{ts},\"args\":{{{args}}}}}",
        esc(name)
    )
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

        // bucket_bound is monotone, strictly so below the u64 saturation
        // point, and saturates instead of overflowing past it.
        for i in 1..HIST_BUCKETS {
            assert!(WaitHist::bucket_bound(i) >= WaitHist::bucket_bound(i - 1));
            if i < 63 {
                assert!(WaitHist::bucket_bound(i) > WaitHist::bucket_bound(i - 1));
            }
        }
        assert_eq!(WaitHist::bucket_bound(63), 1u64 << 63);
        assert_eq!(WaitHist::bucket_bound(100), 1u64 << 63);

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
    fn sink_records_and_caps_edges() {
        let mut s = TraceSink::new(2, 8, 2);
        // Zero-length edges are skipped outright.
        s.push_edge(DepKind::Settle, 0, 5, 5, 1, 5);
        s.push_edge(DepKind::LockHandoff { lock: 1 }, 1, 4, 9, 0, 8);
        s.push_edge(DepKind::PageFetch { page: 0, bytes: 64 }, 0, 1, 3, 1, 1);
        // Past the cap: counted, not stored.
        s.push_edge(DepKind::Diff { page: 0 }, 0, 10, 12, 0, 10);
        let tr = s.into_trace("t".into(), vec![], &[12, 12], vec![]);
        assert_eq!(tr.edges.len(), 2);
        assert_eq!(tr.edges_dropped, 1);
        // Sorted by resume time, not emission order.
        assert_eq!(tr.edges[0].t1, 3);
        assert_eq!(tr.edges[1].t1, 9);
        assert!(tr.edges[0].kind == DepKind::PageFetch { page: 0, bytes: 64 });
        assert!(tr.edges[1].kind.is_cross());
        assert!(!tr.edges[0].kind.is_cross());
    }

    #[test]
    fn alloc_labels_resolve_by_address() {
        let s = TraceSink::new(1, 8, 8);
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
        let mut s = TraceSink::new(2, 3, DEFAULT_EDGE_CAP);
        for i in 0..5 {
            s.push(0, i, EventKind::DiffCreated { page: i });
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
        let mut s = TraceSink::new(2, 64, DEFAULT_EDGE_CAP);
        s.push(0, 0, EventKind::PhaseBegin { phase: 0 });
        s.push(0, 5, EventKind::LockAcquireStart { lock: 1 });
        s.push(0, 9, EventKind::LockAcquireGranted { lock: 1 });
        s.push(0, 20, EventKind::LockRelease { lock: 1 });
        s.push(1, 22, EventKind::LockAcquireGranted { lock: 1 });
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
        let tr = TraceSink::new(1, 8, 8).into_trace(LABEL.into(), vec![], &[20], vec![]);
        let json = tr.to_chrome_json_with(Some(&metrics));
        let escaped = "a\\\"b\\\\c\\u0001";
        // The run label, the page's label and the event name.
        assert_eq!(json.matches(escaped).count(), 3, "{json}");
        assert!(!json.contains(LABEL));
    }
}
