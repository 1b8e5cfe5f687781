//! The protocol event stream: one typed [`ProtoEvent`] per protocol action,
//! one [`Probe`] that fans it out to every diagnostic consumer.
//!
//! The platform crates and the scheduler *report* what happened — a page
//! was fetched, a diff was created, a lock changed hands, a word was
//! loaded — exactly once, in one vocabulary, and know nothing about who
//! listens. The consumers (the event tracer in [`crate::trace`], the
//! interval metrics in [`crate::metrics`], the sharing tracker in
//! [`crate::sharing`], the race detector in [`crate::detector`]) each
//! implement `on_event` and pick the variants they care about. Adding a
//! diagnostic that needs only existing events is therefore one `on_event`
//! in its own module plus one field in `Sinks` and one line in
//! [`Probe::emit`] — no edit in any platform crate or in the scheduler.
//!
//! ## The gate
//!
//! [`Probe::emit`] takes the caller's `timing_on` flag and applies the one
//! rule every layer follows: the tracer and the metrics engine see an event
//! only while the timed region is active, so warm-up and verification
//! traffic stays out of traces and series. Two exceptions are offered
//! every event: the sharing tracker, whose window runs from `start_timing`
//! to the end of the run (DESIGN.md §8) and which `Probe::reset` clears,
//! and the race detector, whose window is the whole run (a race during
//! warm-up is still a race) and which nothing resets. The per-operation
//! events, [`ProtoEvent::Access`] and [`ProtoEvent::ProcSample`], are
//! built only when their reader, the detector or the metrics engine, is
//! on.
//!
//! ## Invisibility
//!
//! A diagnosed run must produce the same timed statistics as an
//! undiagnosed one. That holds by construction, and is argued here once
//! for every layer, platform and engine: an event is a plain value carrying
//! copies of numbers the emitter had already computed; it holds no
//! `&mut Timing`, no clock, no `ProcStats`, so no consumer can charge a
//! cycle, move a clock or bump a counter. `emit` returns nothing, so no
//! emitter can branch on what a consumer did. And events are emitted from
//! inside the shared step API and the platform pricing paths, which all
//! three engines execute at identical virtual times, so consumers see the
//! same stream on every engine.

use std::sync::{Arc, Mutex};

use crate::addr::Addr;
use crate::detector::{RaceDetector, MAX_REPORTS};
use crate::metrics::{MetricsSink, ProcSample, DEFAULT_SERIES_CAP};
use crate::sched::RunConfig;
use crate::sharing::SharingTracker;
use crate::trace::{TraceSink, DEFAULT_EDGE_CAP, DEFAULT_EVENT_CAP};

/// One protocol or scheduler action. `pid`s are processor ids, `*_node`s
/// are protocol node ids (they differ when nodes host several processors);
/// `page` and `line` are byte base addresses; times are virtual cycles on
/// the acting processor's clock.
#[derive(Clone, Copy, Debug)]
pub enum ProtoEvent<'a> {
    /// The platform runs a page-based protocol with pages of this size
    /// (emitted once, when the probe is installed).
    PageGeometry { page_bytes: u64 },
    /// `pid` (on `reader_node`) faulted `page` in over `(t0, t1]`, moving
    /// `bytes` over the wire. `home` is the serving node and `src` the
    /// processor standing in for it on the critical path.
    PageFetch {
        pid: usize,
        reader_node: usize,
        page: u64,
        home: usize,
        src: usize,
        bytes: u64,
        t0: u64,
        t1: u64,
    },
    /// `writer_node` diffed `page` against its twin: `word_runs` are the
    /// `(first word, words)` runs that changed, `wire_bytes` what the diff
    /// cost on the interconnect (0 when it is archived locally). `at` is
    /// the time the diff is attributed to; `span` is the interval `pid`
    /// spent creating it when that was charged to its own clock (absent
    /// when a write notice forced the flush and the grant absorbed it).
    DiffCreated {
        pid: usize,
        writer_node: usize,
        page: u64,
        at: u64,
        span: Option<(u64, u64)>,
        word_runs: &'a [(u32, u32)],
        wire_bytes: u64,
    },
    /// A diff of `page` was applied (at the HLRC home, attributed to its
    /// first processor) or archived (TreadMarks) at `at`.
    DiffApplied { pid: usize, page: u64, at: u64 },
    /// A write notice dropped `pid`'s node's copy of `page` at `at`.
    Invalidation { pid: usize, page: u64, at: u64 },
    /// A hardware miss on `line` stalled `pid` for `stall` cycles from
    /// `at`, served by `src` (home directory, supplying cache, or `pid`
    /// itself for memory). `traced` marks the misses that count as remote
    /// (every directory miss reported; cache-to-cache only on the bus).
    RemoteMiss {
        pid: usize,
        line: u64,
        src: usize,
        at: u64,
        stall: u64,
        traced: bool,
    },
    /// `pid` entered application phase `phase`.
    PhaseBegin { pid: usize, at: u64, phase: usize },
    /// `pid` left application phase `phase`.
    PhaseEnd { pid: usize, at: u64, phase: usize },
    /// `pid` requested `lock`.
    LockRequest { pid: usize, lock: u32, at: u64 },
    /// `pid` was granted `lock` after waiting over `(t0, t1]`, enabled at
    /// `src_ts` on `src`'s timeline. `src != pid` means ownership moved
    /// between processors (a hand-off).
    LockGrant {
        pid: usize,
        lock: u32,
        t0: u64,
        t1: u64,
        src: usize,
        src_ts: u64,
    },
    /// `pid` released `lock`.
    LockRelease { pid: usize, lock: u32, at: u64 },
    /// `pid` arrived at `barrier`.
    BarrierEnter { pid: usize, barrier: u32, at: u64 },
    /// `pid` left `barrier` after waiting over `(t0, t1]`; the last
    /// arriver `last` (at `last_ts` on its timeline) enabled the release.
    BarrierExit {
        pid: usize,
        barrier: u32,
        t0: u64,
        t1: u64,
        last: usize,
        last_ts: u64,
    },
    /// `pid` accessed `words` words of `len` bytes at `base + i*stride`, in
    /// order (one load or store, or one chunk of a bulk one); `write` for
    /// stores. The scheduler hands accesses over in batches: one may reach
    /// the consumers after a later platform event, never after a later
    /// scheduler event.
    Access {
        pid: usize,
        base: Addr,
        stride: u64,
        len: u8,
        words: usize,
        write: bool,
    },
    /// Every processor met at a full-membership rendezvous: a barrier
    /// released (after its exits), or `start_timing`/`stop_timing`.
    Join,
    /// `stop_timing` settled `pid` from `t0` to the straggler's clock `t1`.
    Settle {
        pid: usize,
        t0: u64,
        t1: u64,
        straggler: usize,
    },
    /// A cumulative counter snapshot of `pid`. Unforced samples are offered
    /// after every operation that moves a clock, and kept only when the
    /// clock has rolled into a new interval; `forced` ones (phase, barrier
    /// and timing boundaries) are always kept.
    ProcSample {
        pid: usize,
        sample: ProcSample,
        forced: bool,
    },
    /// The application counted `n` occurrences of `name` on `pid` at `at`.
    AppCount {
        pid: usize,
        name: &'static str,
        at: u64,
        n: u64,
    },
}

/// The consumers of one run's event stream, named after the `RunStats`
/// fields they become; each is present iff its `RunConfig` layer is on.
#[derive(Default)]
pub(crate) struct Sinks {
    pub(crate) trace: Option<TraceSink>,
    pub(crate) metrics: Option<MetricsSink>,
    pub(crate) sharing: Option<SharingTracker>,
    pub(crate) races: Option<RaceDetector>,
}

/// The fan-out point, shared by the scheduler and the platform for the
/// duration of one run. The mutex is uncontended (everything already runs
/// on the turn-holding processor or on the fused engine's single thread)
/// and exists only to make the handle `Send`.
pub struct Probe {
    /// The race detector is installed: per-operation
    /// [`ProtoEvent::Access`]es have a consumer.
    pub(crate) accesses: bool,
    /// The metrics engine is installed: per-operation
    /// [`ProtoEvent::ProcSample`]s have a consumer.
    pub(crate) sampling: bool,
    sinks: Mutex<Sinks>,
}

/// Handle through which the scheduler and the platform emit events.
pub type ProbeHandle = Arc<Probe>;

impl Probe {
    /// The probe for a run configured by `cfg`, or `None` when no
    /// diagnostic layer is on (undiagnosed runs emit nothing). Every
    /// buffer holds at most its default capacity, or `cfg.diag_cap` when
    /// that is lower.
    pub(crate) fn for_run(cfg: &RunConfig) -> Option<ProbeHandle> {
        let n = cfg.nprocs;
        let cap = |default: usize| cfg.diag_cap.map_or(default, |c| c.min(default));
        let sinks = Sinks {
            trace: cfg
                .trace
                .then(|| TraceSink::new(n, cap(DEFAULT_EVENT_CAP), cap(DEFAULT_EDGE_CAP))),
            metrics: (cfg.metrics > 0)
                .then(|| MetricsSink::new(n, cfg.metrics, cap(DEFAULT_SERIES_CAP))),
            sharing: cfg.sharing_profile.then(SharingTracker::default),
            races: cfg
                .detect_races
                .then(|| RaceDetector::new(n, cfg.label.clone(), cap(MAX_REPORTS))),
        };
        let (accesses, sampling) = (cfg.detect_races, cfg.metrics > 0);
        (accesses || sampling || cfg.trace || cfg.sharing_profile).then(|| {
            Arc::new(Probe {
                accesses,
                sampling,
                sinks: Mutex::new(sinks),
            })
        })
    }

    fn sinks(&self) -> std::sync::MutexGuard<'_, Sinks> {
        self.sinks
            .lock()
            .expect("a consumer panicked while holding the probe")
    }

    /// Report actions under one lock; each consumer takes them in order.
    /// `timing_on` is the emitter's view of whether the timed region is
    /// active — see the module docs for the gate.
    pub fn emit(&self, timing_on: bool, evs: &[ProtoEvent<'_>]) {
        let s = &mut *self.sinks();
        if let Some(detector) = &mut s.races {
            evs.iter().for_each(|ev| detector.on_event(ev));
        }
        if let Some(sharing) = &mut s.sharing {
            evs.iter().for_each(|ev| sharing.on_event(ev));
        }
        if timing_on {
            if let Some(trace) = &mut s.trace {
                evs.iter().for_each(|ev| trace.on_event(ev));
            }
            if let Some(metrics) = &mut s.metrics {
                evs.iter().for_each(|ev| metrics.on_event(ev));
            }
        }
    }

    /// Restart the windowed consumers at `start_timing`, so their reports
    /// cover the window that begins there. The race detector's window is
    /// the whole run: it is left alone.
    pub(crate) fn reset(&self) {
        let mut s = self.sinks();
        if let Some(trace) = &mut s.trace {
            trace.reset();
        }
        if let Some(metrics) = &mut s.metrics {
            metrics.reset();
        }
        if let Some(sharing) = &mut s.sharing {
            sharing.reset();
        }
    }

    /// Take the consumers out at the end of the run, to be frozen into
    /// `RunStats`. The platform's clone of the handle is left empty.
    pub(crate) fn finish(&self) -> Sinks {
        std::mem::take(&mut *self.sinks())
    }
}

/// Emit through an optional handle: the form every call site uses, free
/// when the run is undiagnosed.
#[inline]
pub fn emit(probe: &Option<ProbeHandle>, timing_on: bool, ev: ProtoEvent<'_>) {
    if let Some(p) = probe {
        p.emit(timing_on, std::slice::from_ref(&ev));
    }
}
