//! Virtual-time critical-path analysis with slack attribution and what-if
//! speedup projection.
//!
//! This module alone reads *stalls* off the trace's per-processor events
//! ([`crate::trace`]): a lock grant, barrier exit, final settle, page
//! fetch, diff or hardware miss ends one, and a grant, exit or settle
//! names the processor whose progress enabled the resume. [`analyze`]
//! reconstructs the run's critical path from those stalls with a backward
//! longest-path walk: start at the end of the run on the processor that
//! determined it, and repeatedly ask "what was this processor doing just
//! before this instant?" — computing (attribute the gap to compute), or
//! stalled (attribute the stall to its category and, for a cross-processor
//! stall, jump to the enabling instant on the enabling processor). The
//! walk telescopes, so the attributed cycles sum *exactly* to the
//! end-to-end virtual time — the analyzer's core invariant.
//!
//! [`what_if`] answers the complementary question: how fast could the run
//! have been if a chosen set of costs were free? It replays every
//! processor's timeline forward in resume order with the stalls the
//! [`WhatIf`] targets cover zeroed, re-propagating cross-processor enabling
//! times, and returns the new end-to-end time. With no target the replay
//! reproduces the original time exactly (a structural check that the
//! recorded stalls are sane), and zeroing can only shrink it, so every
//! projected speedup is an upper bound `>= 1.0`. [`waits`] counts every
//! stall a target covers, on the path or off it; both reuse the resume
//! order [`analyze`] sorted the stalls into once.
//!
//! The advisor ([`crate::advise`]) asks its questions as [`WhatIf`] targets
//! and reads [`CritPath`], and never reads a stall itself. Everything here
//! is post-hoc on a frozen [`RunTrace`]: clocks and [`crate::RunStats`] are
//! never touched, so tracing stays invisible.

use crate::trace::{Event, EventKind, RunTrace};
use crate::util::{insert_sorted, joined};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of critical-path cost categories.
pub const NCATS: usize = 6;

/// Where a critical-path cycle went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathCat {
    /// Application compute (all gaps between stalls).
    Compute,
    /// Waiting for a lock held (or recently released) by another processor.
    LockWait,
    /// Waiting at a barrier for the last arriver, or the final settle.
    BarrierImbalance,
    /// Remote page fetch service, including wire time (SVM platforms).
    PageFetch,
    /// Diff creation and application at interval close (SVM platforms).
    Diff,
    /// Remote miss service (directory CC-NUMA, bus-serviced SMP misses).
    RemoteMiss,
}

impl PathCat {
    /// All categories, in display order.
    pub const ALL: [PathCat; NCATS] = [
        PathCat::Compute,
        PathCat::LockWait,
        PathCat::BarrierImbalance,
        PathCat::PageFetch,
        PathCat::Diff,
        PathCat::RemoteMiss,
    ];

    /// Stable index into `[u64; NCATS]` accumulators: the position in
    /// [`PathCat::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            PathCat::Compute => "compute",
            PathCat::LockWait => "lock wait",
            PathCat::BarrierImbalance => "barrier imbalance",
            PathCat::PageFetch => "page fetch",
            PathCat::Diff => "diff",
            PathCat::RemoteMiss => "remote miss",
        }
    }
}

/// One segment of the critical path, in forward (increasing time) order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The processor whose activity (or stall) this segment is.
    pub pid: usize,
    /// Segment start in virtual cycles (exclusive).
    pub t0: u64,
    /// Segment end in virtual cycles (inclusive).
    pub t1: u64,
    /// Where the cycles went.
    pub cat: PathCat,
    /// For stall segments, the index in `pid`'s
    /// [`crate::ProcTrace::events`] of the event that ends the stall;
    /// `None` for compute gaps.
    pub edge: Option<usize>,
}

impl PathStep {
    /// Segment length in cycles.
    pub fn cycles(&self) -> u64 {
        self.t1 - self.t0
    }
}

/// A critical resource: one lock, barrier, or labeled data structure,
/// with the critical-path cycles attributed to stalls on it.
#[derive(Clone, Debug, PartialEq)]
pub struct CritResource {
    /// Category of the stalls.
    pub cat: PathCat,
    /// Display name: `lock 3`, `barrier 1`, an allocation label, or
    /// `(unlabeled)`.
    pub name: String,
    /// Critical-path cycles attributed to this resource.
    pub cycles: u64,
    /// Number of path segments on this resource.
    pub count: u64,
    /// The phases in which those segments begin, ascending.
    pub phases: Vec<usize>,
    /// The what-if target that zeroes exactly this resource's stalls.
    pub target: WhatIf,
}

/// The reconstructed critical path of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct CritPath {
    /// Critical-path length: the telescoped sum of all steps. Equals
    /// [`CritPath::end`] by construction.
    pub total: u64,
    /// End-to-end virtual time of the run ([`RunTrace::end`]).
    pub end: u64,
    /// Forward replay of all stalls with nothing zeroed. Equals `end` iff
    /// the recorded stalls are self-consistent (non-overlapping per-proc
    /// stalls with in-range provenance) — the analyzer's structural check.
    pub baseline: u64,
    /// Critical-path cycles per category (indexed by [`PathCat::index`]).
    pub by_cat: [u64; NCATS],
    /// Critical-path cycles per (phase id, category), sorted by phase id.
    pub by_phase: Vec<(usize, [u64; NCATS])>,
    /// Critical resources, most expensive first.
    pub resources: Vec<CritResource>,
    /// The path itself, in forward order.
    pub steps: Vec<PathStep>,
    /// Number of stalls the trace carried.
    pub edges: usize,
    /// Events the trace dropped at its cap (attribution is only exact
    /// when zero).
    pub edges_dropped: u64,
    /// Every stall, in resume order: what [`what_if`] and [`waits`] read.
    stalls: Vec<Stall>,
}

/// One stall read off the trace: processor `pid` was stalled over
/// `(t0, t1]` of its own timeline, until event number `event` of its
/// record.
#[derive(Clone, Debug, PartialEq)]
struct Stall {
    pid: usize,
    event: usize,
    /// The ending event's sequence number: resume order is `(t1, seq)`.
    seq: u64,
    t0: u64,
    t1: u64,
    res: Res,
    /// For a cross-processor stall, the processor and the instant on its
    /// timeline that enabled the resume.
    from: Option<(usize, u64)>,
}

impl Stall {
    /// The stall event `e` (number `event` of processor `pid`) ends, if
    /// any. These are the stall model's rules, and nothing else decides
    /// them.
    fn of(tr: &RunTrace, pid: usize, event: usize, e: &Event) -> Option<Stall> {
        use EventKind as K;
        let on = |cat, addr| Res::Label(cat, tr.label_of(addr));
        let (t0, t1, res, from) = match e.kind {
            K::LockAcquireGranted { lock, t0, from } => (t0, e.ts, Res::Lock(lock), Some(from)),
            K::BarrierExit { barrier, t0, from } => (t0, e.ts, Res::Barrier(barrier), Some(from)),
            // The straggler enables the settle at its end.
            K::Settle { t0, straggler } => (t0, e.ts, Res::Settle, Some((straggler, e.ts))),
            // The serving side of an intrinsic stall is provenance only.
            K::PageFetchDone { page, t0, .. } => (t0, e.ts, on(PathCat::PageFetch, page), None),
            K::DiffCreated { page, t0 } => (t0, e.ts, on(PathCat::Diff, page), None),
            // The caller charges `stall` from the miss.
            K::RemoteMiss { line, stall, .. } => {
                (e.ts, e.ts + stall, on(PathCat::RemoteMiss, line), None)
            }
            _ => return None,
        };
        // A zero-length interval is no stall.
        let seq = e.seq;
        (t1 > t0).then_some(Stall {
            pid,
            event,
            seq,
            t0,
            t1,
            res,
            from,
        })
    }
}

/// A cost to hypothetically eliminate in [`what_if`].
#[derive(Clone, Debug, PartialEq)]
pub enum WhatIf {
    /// Zero every stall in one category.
    Category(PathCat),
    /// Zero every handoff stall on one lock.
    Lock(u64),
    /// Zero every release stall at one barrier.
    Barrier(u64),
    /// Zero every intrinsic protocol stall (page fetch, diff, remote miss)
    /// on addresses under one allocation label.
    Label(String),
    /// Zero every intrinsic protocol stall that begins in one phase on its
    /// processor's timeline.
    Phase(usize),
}

impl WhatIf {
    /// Human description of the eliminated cost.
    pub fn describe(&self) -> String {
        match self {
            WhatIf::Category(c) => format!("all {}", c.label()),
            WhatIf::Lock(l) => format!("lock {l} handoffs"),
            WhatIf::Barrier(b) => format!("barrier {b} imbalance"),
            WhatIf::Label(l) if l.is_empty() => "traffic on unlabeled data".into(),
            WhatIf::Label(l) => format!("traffic on `{l}`"),
            WhatIf::Phase(p) => format!("protocol stalls in phase {p}"),
        }
    }
}

/// One ranked what-if projection.
#[derive(Clone, Debug, PartialEq)]
pub struct Projection {
    /// What was hypothetically eliminated.
    pub target: WhatIf,
    /// Critical-path cycles currently attributed to the target.
    pub path_cycles: u64,
    /// Projected end-to-end time with the target's stalls zeroed.
    pub projected: u64,
    /// Upper-bound speedup: `end / projected` (always `>= 1.0`).
    pub speedup: f64,
}

/// The one predicate deciding which stalls the union of `targets` covers.
/// The phase timelines are built only when a [`WhatIf::Phase`] target asks
/// for them.
fn cover<'a>(tr: &'a RunTrace, targets: &'a [WhatIf]) -> impl Fn(&Stall) -> bool + 'a {
    let timelines = if targets.iter().any(|w| matches!(w, WhatIf::Phase(_))) {
        phase_timelines(tr)
    } else {
        Vec::new()
    };
    move |s| {
        targets.iter().any(|w| match w {
            WhatIf::Category(c) => s.res.cat() == *c,
            WhatIf::Lock(l) => s.res == Res::Lock(*l),
            WhatIf::Barrier(b) => s.res == Res::Barrier(*b),
            WhatIf::Label(lbl) => matches!(s.res, Res::Label(_, l) if l == lbl),
            WhatIf::Phase(p) => {
                s.from.is_none()
                    && timelines
                        .get(s.pid)
                        .is_some_and(|tl| phase_at(tl, s.t0) == *p)
            }
        })
    }
}

/// What a stall is charged to, borrowed from the trace so the walk builds
/// no name per step. A protocol stall on a labeled allocation carries its
/// category.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Res {
    Lock(u64),
    Barrier(u64),
    Settle,
    Label(PathCat, &'static str),
}

impl Res {
    fn cat(self) -> PathCat {
        match self {
            Res::Lock(_) => PathCat::LockWait,
            Res::Barrier(_) | Res::Settle => PathCat::BarrierImbalance,
            Res::Label(cat, _) => cat,
        }
    }

    /// Display name, and the what-if target that zeroes exactly this
    /// resource's stalls.
    fn name_target(self) -> (String, WhatIf) {
        match self {
            Res::Lock(lock) => (format!("lock {lock}"), WhatIf::Lock(lock)),
            Res::Barrier(b) => (format!("barrier {b}"), WhatIf::Barrier(b)),
            Res::Settle => (
                "final settle".to_string(),
                WhatIf::Category(PathCat::BarrierImbalance),
            ),
            Res::Label(_, "") => ("(unlabeled)".to_string(), WhatIf::Label(String::new())),
            Res::Label(_, l) => (l.to_string(), WhatIf::Label(l.to_string())),
        }
    }
}

/// The phase active on one timeline at time `t` (0 before any begin).
fn phase_at(tl: &[(u64, usize)], t: u64) -> usize {
    let i = tl.partition_point(|&(ts, _)| ts <= t);
    i.checked_sub(1).map_or(0, |i| tl[i].1)
}

/// Per-processor `(begin_ts, phase)` timelines from the trace events: the
/// phase active at time t is the last `PhaseBegin` at or before t, and 0
/// before any.
fn phase_timelines(tr: &RunTrace) -> Vec<Vec<(u64, usize)>> {
    tr.procs
        .iter()
        .map(|p| {
            p.events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::PhaseBegin { phase } => Some((e.ts, phase)),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// Reconstruct the critical path of a traced run.
///
/// The walk starts at the end of the run on the processor that determined
/// it (the final-settle straggler, or the processor with the maximum clock
/// when nothing settled) and moves strictly backward in virtual time, so it
/// terminates and its segments telescope: `total == end` by construction.
pub fn analyze(tr: &RunTrace) -> CritPath {
    let n = tr.procs.len();
    let mut stalls: Vec<Stall> = (tr.procs.iter().enumerate())
        .flat_map(|(pid, p)| {
            let evs = p.events.iter().enumerate();
            evs.filter_map(move |(i, e)| Stall::of(tr, pid, i, e))
        })
        .collect();
    stalls.sort_unstable_by_key(|s| (s.t1, s.seq));
    let mut by_proc: Vec<Vec<&Stall>> = vec![Vec::new(); n];
    for s in &stalls {
        by_proc[s.pid].push(s);
    }
    let timelines = phase_timelines(tr);

    // The walk starts on the processor that determined the end of the run:
    // the pre-settle straggler if a settle happened (every settled proc
    // shares the same final clock, so the max alone cannot identify it),
    // else the max-clock processor (earliest pid on ties).
    let start = (stalls.iter().find(|s| s.res == Res::Settle))
        .and_then(|s| s.from)
        .map(|(straggler, _)| straggler)
        .filter(|&s| s < n)
        .unwrap_or_else(|| (0..n).rev().max_by_key(|&q| tr.procs[q].end).unwrap_or(0));

    // The path backward, as (pid, t0, t1, the stall or `None` for compute).
    let mut back: Vec<(usize, u64, u64, Option<&Stall>)> = Vec::new();
    let mut p = start;
    let mut t = tr.procs.get(p).map(|x| x.end).unwrap_or(0);
    while t > 0 {
        let list = &by_proc[p];
        let Some(&s) = list[..list.partition_point(|s| s.t1 <= t)].last() else {
            // Nothing but compute back to time zero on this processor.
            back.push((p, 0, t, None));
            break;
        };
        if s.t1 < t {
            back.push((p, s.t1, t, None));
        }
        match s.from {
            // The stall ended because `src` reached `src_ts`: charge the
            // lag and continue the walk there. `src_ts < t1` guarantees
            // strictly decreasing time, hence termination.
            Some((src, src_ts)) if src != p && src < n && src_ts >= s.t0 && src_ts < s.t1 => {
                back.push((p, src_ts, s.t1, Some(s)));
                (p, t) = (src, src_ts);
            }
            // Intrinsic stall (protocol service), or provenance that
            // cannot move the walk backward: charge the whole interval and
            // stay on this processor.
            _ => {
                back.push((p, s.t0, s.t1, Some(s)));
                t = s.t0;
            }
        }
    }

    let mut by_cat = [0u64; NCATS];
    let mut by_phase: BTreeMap<usize, [u64; NCATS]> = BTreeMap::new();
    // (cycles, count, phases) per resource.
    let mut resources: BTreeMap<Res, (u64, u64, Vec<usize>)> = BTreeMap::new();
    let mut total = 0u64;
    let mut steps = Vec::with_capacity(back.len());
    for &(pid, t0, t1, stall) in back.iter().rev() {
        let cat = stall.map_or(PathCat::Compute, |s| s.res.cat());
        let cycles = t1 - t0;
        total += cycles;
        by_cat[cat.index()] += cycles;
        let tl = &timelines[pid];
        split_phases(tl, t0, t1, |phase, c| {
            by_phase.entry(phase).or_insert([0; NCATS])[cat.index()] += c;
        });
        if let Some(s) = stall {
            let entry = resources.entry(s.res).or_default();
            entry.0 += cycles;
            entry.1 += 1;
            insert_sorted(&mut entry.2, phase_at(tl, t0));
        }
        let edge = stall.map(|s| s.event);
        steps.push(PathStep {
            pid,
            t0,
            t1,
            cat,
            edge,
        });
    }
    let mut resources: Vec<CritResource> = resources
        .into_iter()
        .map(|(res, (cycles, count, phases))| {
            let (name, target) = res.name_target();
            CritResource {
                cat: res.cat(),
                name,
                cycles,
                count,
                phases,
                target,
            }
        })
        .collect();
    resources.sort_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then(a.cat.cmp(&b.cat))
            .then(a.name.cmp(&b.name))
    });

    CritPath {
        total,
        end: tr.end(),
        baseline: recompute(tr, &stalls, |_| false),
        by_cat,
        by_phase: by_phase.into_iter().collect(),
        resources,
        steps,
        edges: stalls.len(),
        edges_dropped: tr.dropped_events(),
        stalls,
    }
}

/// Call `f(phase, cycles)` for each piece of the interval `(t0, t1]` split
/// at the phase transitions in `tl` (sorted `(begin_ts, phase)` pairs).
fn split_phases(tl: &[(u64, usize)], t0: u64, t1: u64, mut f: impl FnMut(usize, u64)) {
    let mut i = tl.partition_point(|&(ts, _)| ts <= t0);
    let mut phase = if i > 0 { tl[i - 1].1 } else { 0 };
    let mut cur = t0;
    while i < tl.len() && tl[i].0 < t1 {
        let (ts, ph) = tl[i];
        if ts > cur {
            f(phase, ts - cur);
            cur = ts;
        }
        phase = ph;
        i += 1;
    }
    if t1 > cur {
        f(phase, t1 - cur);
    }
}

/// Forward replay of `stalls` (in resume order) with the `zero`-matching
/// ones eliminated; returns the new end-to-end time. Compute gaps between
/// stalls are preserved verbatim; cross-processor stalls re-propagate their
/// enabling time from the (possibly earlier) replayed clock of the enabling
/// processor. Replaying with nothing zeroed reproduces the original time
/// exactly; zeroing is monotone (can only shrink every clock), so what-if
/// projections are true upper bounds.
fn recompute(tr: &RunTrace, stalls: &[Stall], zero: impl Fn(&Stall) -> bool) -> u64 {
    let n = tr.procs.len();
    let mut cur = vec![0i128; n]; // replayed clock
    let mut prev_end = vec![0u64; n]; // original-timeline position
    for s in stalls {
        let p = s.pid;
        // The compute gap since the previous stall is kept as-is.
        cur[p] += s.t0.saturating_sub(prev_end[p]) as i128;
        match s.from {
            // The stall vanishes: the processor proceeds immediately.
            _ if zero(s) => {}
            // Where does the enabling instant land on the replayed
            // timeline? src_ts shifts by however much src is ahead/behind.
            Some((src, src_ts)) if src != p && src < n => {
                let new_src = (cur[src] + src_ts as i128 - prev_end[src] as i128).max(0);
                let dep = s.t0.max(src_ts).min(s.t1);
                cur[p] = cur[p].max(new_src) + (s.t1 - dep) as i128;
            }
            _ => cur[p] += (s.t1 - s.t0) as i128,
        }
        prev_end[p] = prev_end[p].max(s.t1);
    }
    let mut t_new = 0i128;
    for (p, pt) in tr.procs.iter().enumerate() {
        // Trailing compute after the last stall.
        t_new = t_new.max(cur[p] + pt.end.saturating_sub(prev_end[p]) as i128);
    }
    t_new.max(0) as u64
}

/// Projected end-to-end time with the union of `targets`' stalls zeroed
/// (an upper-bound best case: serialization behind the eliminated stalls
/// is ignored). `cp` is [`analyze`]'s result on `tr`. `&[]` reproduces the
/// run's end time.
pub fn what_if(tr: &RunTrace, cp: &CritPath, targets: &[WhatIf]) -> u64 {
    recompute(tr, &cp.stalls, cover(tr, targets))
}

/// Every stall one [`WhatIf`] target covers, on the critical path or off
/// it (ends are 0 when there is none).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Waits {
    /// Number of covered stalls.
    pub count: u64,
    /// Their summed length in cycles.
    pub cycles: u64,
    /// The earliest end of a covered stall.
    pub first_end: u64,
    /// The latest end of a covered stall.
    pub last_end: u64,
}

/// Count every stall `target` covers (`cp` is [`analyze`]'s result on
/// `tr`). The critical path carries only the part of a stall that lies on
/// it (a handoff's cross-processor lag); this sees each whole stall,
/// including those off the path.
pub fn waits(tr: &RunTrace, cp: &CritPath, target: &WhatIf) -> Waits {
    let covers = cover(tr, std::slice::from_ref(target));
    let mut w = Waits::default();
    // Stalls are in resume order, so the first covered end is the earliest.
    for s in cp.stalls.iter().filter(|s| covers(s)) {
        if w.count == 0 {
            w.first_end = s.t1;
        }
        w.count += 1;
        w.cycles += s.t1 - s.t0;
        w.last_end = s.t1;
    }
    w
}

/// Ranked what-if projections: every non-compute category with
/// critical-path presence, plus the top `top` individual resources.
/// Sorted by projected speedup, best first.
pub fn what_if_report(tr: &RunTrace, cp: &CritPath, top: usize) -> Vec<Projection> {
    let mut targets: Vec<(WhatIf, u64)> = Vec::new();
    for cat in PathCat::ALL {
        if cat != PathCat::Compute && cp.by_cat[cat.index()] > 0 {
            targets.push((WhatIf::Category(cat), cp.by_cat[cat.index()]));
        }
    }
    for r in cp.resources.iter().take(top) {
        if !targets.iter().any(|(t, _)| *t == r.target) {
            targets.push((r.target.clone(), r.cycles));
        }
    }
    let end = cp.end;
    let mut out: Vec<Projection> = targets
        .into_iter()
        .map(|(target, path_cycles)| {
            let projected = what_if(tr, cp, std::slice::from_ref(&target));
            Projection {
                speedup: end as f64 / projected.max(1) as f64,
                target,
                path_cycles,
                projected,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.speedup
            .partial_cmp(&a.speedup)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.target.describe().cmp(&b.target.describe()))
    });
    out
}

impl CritPath {
    /// Fraction of the critical path spent in `cat` (0.0 when empty).
    pub fn share(&self, cat: PathCat) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.by_cat[cat.index()] as f64 / self.total as f64
        }
    }

    /// The dominant (largest-share) category of the path, the first in
    /// [`PathCat::ALL`] order on ties.
    pub fn dominant(&self) -> PathCat {
        let cats = PathCat::ALL.into_iter().rev();
        cats.max_by_key(|c| self.by_cat[c.index()]).unwrap()
    }

    /// Human-readable report: composition, per-phase breakdown, and the
    /// top critical resources.
    pub fn report(&self, tr: &RunTrace, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path [{}]: {} cycles over {} steps ({} edges, {} dropped)",
            tr.label,
            self.total,
            self.steps.len(),
            self.edges,
            self.edges_dropped
        );
        let _ = writeln!(out, "  composition:");
        for cat in PathCat::ALL {
            let c = self.by_cat[cat.index()];
            if c > 0 {
                let _ = writeln!(
                    out,
                    "    {:<18} {:>12} cycles  {:>5.1}%",
                    cat.label(),
                    c,
                    100.0 * self.share(cat)
                );
            }
        }
        if self.by_phase.len() > 1 {
            let _ = writeln!(out, "  by phase:");
            for (phase, cats) in &self.by_phase {
                let total: u64 = cats.iter().sum();
                let pct = |c: &PathCat| 100.0 * cats[c.index()] as f64 / total.max(1) as f64;
                let shares = PathCat::ALL.iter().filter(|c| cats[c.index()] > 0);
                let parts = joined(
                    shares.map(|c| format!("{} {:.0}%", c.label(), pct(c))),
                    ", ",
                );
                let _ = writeln!(
                    out,
                    "    {:<14} {:>12} cycles  ({parts})",
                    tr.phase_name(*phase),
                    total
                );
            }
        }
        if !self.resources.is_empty() {
            let _ = writeln!(out, "  top critical resources:");
            for r in self.resources.iter().take(top) {
                let _ = writeln!(
                    out,
                    "    {:<18} {:<20} {:>12} cycles  {:>5.1}%  ({} stalls)",
                    r.cat.label(),
                    r.name,
                    r.cycles,
                    100.0 * r.cycles as f64 / self.total.max(1) as f64,
                    r.count
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AllocSpan, TraceSink};
    use EventKind as K;

    fn grant(lock: u64, t0: u64, from: (usize, u64)) -> EventKind {
        K::LockAcquireGranted { lock, t0, from }
    }

    /// The end of a fetch of the page at 0x2000 begun at `t0`.
    fn fetched(t0: u64) -> EventKind {
        let (page, home, bytes) = (0x2000, 1, 4096);
        K::PageFetchDone {
            page,
            home,
            bytes,
            t0,
        }
    }

    fn miss(stall: u64, traced: bool) -> EventKind {
        let (line, home) = (0x40, 1);
        K::RemoteMiss {
            line,
            home,
            stall,
            traced,
        }
    }

    /// A trace of `(pid, ts, event)`s, pushed in order, over processors
    /// ending at `ends`; the page at 0x2000 is labeled `psi`.
    fn trace(ends: &[u64], events: &[(usize, u64, EventKind)]) -> RunTrace {
        let mut s = TraceSink::new(ends.len(), 64);
        for &(pid, ts, kind) in events {
            s.push(pid, ts, kind);
        }
        let (first, last, label) = (0x2000, 0x2fff, "psi");
        let psi = vec![AllocSpan { first, last, label }];
        s.into_trace("t".into(), vec![], ends, psi)
    }

    /// Two procs: p0 computes to 100 and releases a lock; p1 blocks at 50,
    /// resumes at 120 via the handoff, then computes to 200. `extra` events
    /// follow.
    fn handoff_trace(extra: &[(usize, u64, EventKind)]) -> RunTrace {
        let mut events = vec![(1, 120, grant(7, 50, (0, 100)))];
        events.extend_from_slice(extra);
        trace(&[150, 200], &events)
    }

    #[test]
    fn backward_walk_telescopes_exactly() {
        let tr = handoff_trace(&[]);
        let cp = analyze(&tr);
        assert_eq!((cp.total, cp.end, cp.baseline), (200, 200, 200));
        assert_eq!(cp.by_cat.iter().sum::<u64>(), cp.total);
        // Path: p0 compute (0,100], handoff lag (100,120], p1 compute
        // (120,200].
        assert_eq!(cp.by_cat[PathCat::Compute.index()], 180);
        assert_eq!(cp.by_cat[PathCat::LockWait.index()], 20);
        assert_eq!(cp.steps.first().unwrap().pid, 0);
        assert_eq!(cp.steps.last().unwrap().pid, 1);
        // The handoff step names the grant in p1's record.
        assert_eq!(cp.steps[1].edge, Some(0));
        assert_eq!(cp.resources.len(), 1);
        assert_eq!(cp.resources[0].name, "lock 7");
        assert_eq!(cp.resources[0].target, WhatIf::Lock(7));
    }

    #[test]
    fn what_if_zeroing_is_monotone_and_exact() {
        let tr = handoff_trace(&[]);
        let cp = analyze(&tr);
        // Zeroing the lock: p1's stall (50..120) vanishes, its 80 cycles of
        // trailing compute follow directly: end = max(150, 50+80) = 150.
        assert_eq!(what_if(&tr, &cp, &[WhatIf::Lock(7)]), 150);
        let all_locks = WhatIf::Category(PathCat::LockWait);
        assert_eq!(what_if(&tr, &cp, &[all_locks]), 150);
        // Zeroing something absent, or nothing, changes nothing.
        assert_eq!(what_if(&tr, &cp, &[WhatIf::Barrier(0)]), 200);
        assert_eq!(what_if(&tr, &cp, &[]), tr.end());
        for p in what_if_report(&tr, &cp, 8) {
            assert!(p.speedup >= 1.0, "{:?}", p);
            assert!(p.projected <= cp.end);
        }
    }

    #[test]
    fn a_zero_length_stall_is_skipped() {
        // A grant with no wait, a barrier exit with none and a settle of
        // the straggler itself: no stall, so the path is p0's compute.
        let (barrier, t0, from) = (0, 60, (0, 60));
        let exit = K::BarrierExit { barrier, t0, from };
        let (t0, straggler) = (100, 0);
        let settle = K::Settle { t0, straggler };
        let events = [
            (0, 40, grant(1, 40, (0, 40))),
            (0, 60, exit),
            (0, 100, settle),
        ];
        let cp = analyze(&trace(&[100], &events));
        assert_eq!((cp.edges, cp.total, cp.baseline), (0, 100, 100));
        assert_eq!(cp.steps.len(), 1);
    }

    #[test]
    fn a_settle_names_the_straggler_and_starts_the_walk() {
        // p1 is the straggler at 300; p0 and p2 settle up to 300. Every
        // clock reads 300, so only the settle can name p1.
        let settle = |t0| K::Settle { t0, straggler: 1 };
        let tr = trace(
            &[300, 300, 300],
            &[(0, 300, settle(120)), (2, 300, settle(180))],
        );
        let cp = analyze(&tr);
        assert_eq!((cp.edges, cp.total, cp.baseline), (2, 300, 300));
        // The whole path is the straggler's compute: the other processors'
        // settles are off-path.
        assert_eq!(cp.by_cat[PathCat::Compute.index()], 300);
        assert!(cp.steps.iter().all(|st| st.pid == 1));
        let settles = WhatIf::Category(PathCat::BarrierImbalance);
        assert_eq!(waits(&tr, &cp, &settles).cycles, 180 + 120);
    }

    #[test]
    fn a_remote_miss_stalls_from_its_time_and_only_traced_ones_are_drawn() {
        // p0 misses at 100 for 50 cycles (untraced), at 300 for 20 (traced).
        let tr = trace(
            &[400],
            &[(0, 100, miss(50, false)), (0, 300, miss(20, true))],
        );
        let cp = analyze(&tr);
        assert_eq!((cp.edges, cp.total, cp.baseline), (2, 400, 400));
        let spans: Vec<(u64, u64)> = (cp.steps.iter())
            .filter(|st| st.cat == PathCat::RemoteMiss)
            .map(|st| (st.t0, st.t1))
            .collect();
        assert_eq!(spans, [(100, 150), (300, 320)]);
        // The untraced miss is a stall but is drawn nowhere.
        let json = tr.to_chrome_json();
        assert_eq!(json.matches("remote miss").count(), 1, "{json}");
        let row = tr.ascii_timeline(16);
        assert_eq!(row.lines().nth(1).unwrap().matches('F').count(), 1, "{row}");
    }

    #[test]
    fn a_diff_without_a_span_is_no_stall() {
        // A diff charged over (10, 30], and one whose flush a grant
        // absorbed (it starts at its own end).
        let diff = |t0| K::DiffCreated { page: 0x2000, t0 };
        let tr = trace(&[100], &[(0, 30, diff(10)), (0, 60, diff(60))]);
        let cp = analyze(&tr);
        assert_eq!((cp.edges, cp.total, cp.baseline), (1, 100, 100));
        assert_eq!(cp.by_cat[PathCat::Diff.index()], 20);
        assert_eq!(what_if(&tr, &cp, &[WhatIf::Label("psi".into())]), 80);
    }

    #[test]
    fn stalls_come_out_in_resume_order() {
        // Pushed out of resume order: p1's grant ends at 90, p0's fetch at
        // 30; a miss and a fetch both end at 70, the miss emitted first.
        let tr = trace(
            &[100, 100],
            &[
                (1, 90, grant(2, 80, (0, 85))),
                (0, 30, fetched(10)),
                (1, 60, miss(10, true)),
                (0, 70, fetched(50)),
            ],
        );
        let cp = analyze(&tr);
        let order: Vec<(usize, u64)> = cp.stalls.iter().map(|s| (s.pid, s.t0)).collect();
        assert_eq!(order, [(0, 10), (1, 60), (0, 50), (1, 80)]);
        let w = waits(&tr, &cp, &WhatIf::Category(PathCat::PageFetch));
        assert_eq!((w.count, w.first_end, w.last_end), (2, 30, 70));
    }

    #[test]
    fn intrinsic_stalls_attribute_by_allocation_label() {
        let tr = trace(&[500, 90], &[(0, 400, fetched(100))]);
        let cp = analyze(&tr);
        assert_eq!((cp.total, cp.baseline), (500, 500));
        assert_eq!(cp.by_cat[PathCat::PageFetch.index()], 300);
        assert_eq!(cp.resources[0].name, "psi");
        assert_eq!(cp.resources[0].target, WhatIf::Label("psi".into()));
        // Zeroing psi traffic removes the whole fetch.
        assert_eq!(what_if(&tr, &cp, &[WhatIf::Label("psi".into())]), 200);
    }

    #[test]
    fn union_of_targets_zeroes_at_least_each_alone() {
        // A page fetch on the releaser (20..60) delays the release too.
        let tr = handoff_trace(&[(0, 60, fetched(20))]);
        let cp = analyze(&tr);
        let targets = [WhatIf::Lock(7), WhatIf::Category(PathCat::PageFetch)];
        let a = what_if(&tr, &cp, &targets[..1]);
        let b = what_if(&tr, &cp, &targets[1..]);
        let both = what_if(&tr, &cp, &targets);
        assert_eq!((a, b, both), (150, 160, 130));
    }

    #[test]
    fn waits_count_handoffs_off_the_path() {
        // A second lock-7 handoff on p0 (120..140, enabled by p1 at 130):
        // the path leaves p0 at 100, so it carries one handoff; `waits`
        // sees both.
        let tr = handoff_trace(&[(0, 140, grant(7, 120, (1, 130)))]);
        let cp = analyze(&tr);
        assert_eq!((cp.baseline, cp.resources.len()), (200, 1));
        assert_eq!(cp.resources[0].count, 1);
        let w = waits(&tr, &cp, &WhatIf::Lock(7));
        let seen = (w.count, w.cycles, w.first_end, w.last_end);
        assert_eq!(seen, (2, 90, 120, 140));
        assert_eq!(waits(&tr, &cp, &WhatIf::Lock(8)), Waits::default());
    }

    #[test]
    fn phase_targets_and_resource_phases() {
        // One labeled page fetched in phase 0 (20..50) and, after the
        // phase-1 begin at 100, in phase 1 (150..200); the run ends at 300.
        let begin = K::PhaseBegin { phase: 1 };
        let tr = trace(
            &[300],
            &[
                (0, 100, begin),
                (0, 50, fetched(20)),
                (0, 200, fetched(150)),
            ],
        );
        let cp = analyze(&tr);
        assert_eq!(what_if(&tr, &cp, &[]), 300);
        // Each phase zeroes only its own fetch.
        assert_eq!(what_if(&tr, &cp, &[WhatIf::Phase(1)]), 250);
        assert_eq!(what_if(&tr, &cp, &[WhatIf::Phase(0)]), 270);
        let both = [WhatIf::Phase(0), WhatIf::Phase(1)];
        assert_eq!(what_if(&tr, &cp, &both), 220);
        assert_eq!((cp.resources.len(), cp.resources[0].count), (1, 2));
        assert_eq!(cp.resources[0].phases, vec![0, 1]);
    }

    #[test]
    fn phase_splitting_covers_boundaries() {
        let mut s = TraceSink::new(1, 64);
        s.push(0, 0, K::PhaseBegin { phase: 0 });
        s.push(0, 60, K::PhaseBegin { phase: 1 });
        let tr = s.into_trace("t".into(), vec!["a".into(), "b".into()], &[100], vec![]);
        let cp = analyze(&tr);
        assert_eq!(cp.total, 100);
        let compute = |i: usize| (cp.by_phase[i].0, cp.by_phase[i].1[PathCat::Compute.index()]);
        assert_eq!(
            (cp.by_phase.len(), compute(0), compute(1)),
            (2, (0, 60), (1, 40))
        );
        let phase_sum: u64 = cp.by_phase.iter().flat_map(|(_, c)| c.iter()).sum();
        assert_eq!(phase_sum, cp.total);
    }
}
