//! Virtual-time critical-path analysis with slack attribution and what-if
//! speedup projection.
//!
//! The tracer ([`crate::trace`]) records *dependency edges*: every stall
//! interval on a processor's timeline, tagged with its provenance — the
//! releaser that handed over a lock, the last arriver that released a
//! barrier, the home node that served a page fetch, the final-settle
//! straggler. [`analyze`] reconstructs the run's critical path from those
//! edges with a backward longest-path walk: start at the end of the run on
//! the processor that determined it, and repeatedly ask "what was this
//! processor doing just before this instant?" — computing (attribute the
//! gap to compute), or stalled (attribute the stall to its category and,
//! for cross-processor edges, jump to the enabling instant on the enabling
//! processor). The walk telescopes, so the attributed cycles sum *exactly*
//! to the end-to-end virtual time — the analyzer's core invariant.
//!
//! [`what_if`] answers the complementary question: how fast could the run
//! have been if a chosen set of costs were free? It replays every
//! processor's timeline forward in resume order with the stalls the
//! [`WhatIf`] targets cover zeroed, re-propagating cross-processor enabling
//! times, and returns the new end-to-end time. With no target the replay
//! reproduces the original time exactly (a structural check that the
//! recorded edges are sane), and zeroing can only shrink it, so every
//! projected speedup is an upper bound `>= 1.0`. [`waits`] counts every
//! stall a target covers, on the path or off it.
//!
//! This module is the one consumer of the dependency-edge format: the
//! advisor ([`crate::advise`]) asks its questions as [`WhatIf`] targets and
//! reads [`CritPath`], and never touches an edge. Everything here is
//! post-hoc on a frozen [`RunTrace`]: clocks and [`crate::RunStats`] are
//! never touched, so tracing stays invisible.

use crate::trace::{DepEdge, DepKind, EventKind, RunTrace};
use crate::util::insert_sorted;
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

    /// The category a dependency edge's stall belongs to.
    pub fn of(kind: &DepKind) -> PathCat {
        match kind {
            DepKind::LockHandoff { .. } => PathCat::LockWait,
            DepKind::BarrierRelease { .. } | DepKind::Settle => PathCat::BarrierImbalance,
            DepKind::PageFetch { .. } => PathCat::PageFetch,
            DepKind::Diff { .. } => PathCat::Diff,
            DepKind::RemoteMiss { .. } => PathCat::RemoteMiss,
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
    /// Index into [`RunTrace::edges`] for stall segments; `None` for
    /// compute gaps.
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
    /// Forward replay of all edges with nothing zeroed. Equals `end` iff
    /// the recorded edges are self-consistent (non-overlapping per-proc
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
    /// Number of dependency edges the trace carried.
    pub edges: usize,
    /// Edges dropped at the trace's edge cap (attribution is only exact
    /// when zero).
    pub edges_dropped: u64,
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
fn cover<'a>(tr: &'a RunTrace, targets: &'a [WhatIf]) -> impl Fn(&DepEdge) -> bool + 'a {
    let timelines = if targets.iter().any(|w| matches!(w, WhatIf::Phase(_))) {
        phase_timelines(tr)
    } else {
        Vec::new()
    };
    move |e| {
        targets.iter().any(|w| match w {
            WhatIf::Category(c) => PathCat::of(&e.kind) == *c,
            WhatIf::Lock(l) => e.kind == DepKind::LockHandoff { lock: *l },
            WhatIf::Barrier(b) => e.kind == DepKind::BarrierRelease { barrier: *b },
            WhatIf::Label(lbl) => matches!(Res::of(tr, &e.kind), Res::Label(l) if l == lbl),
            WhatIf::Phase(p) => {
                !e.kind.is_cross()
                    && timelines
                        .get(e.dst)
                        .is_some_and(|tl| phase_at(tl, e.t0) == *p)
            }
        })
    }
}

/// What a critical-path stall is charged to, borrowed from the trace so
/// the walk builds no name per step.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Res {
    Lock(u64),
    Barrier(u64),
    Settle,
    Label(&'static str),
}

impl Res {
    fn of(tr: &RunTrace, kind: &DepKind) -> Res {
        match *kind {
            DepKind::LockHandoff { lock } => Res::Lock(lock),
            DepKind::BarrierRelease { barrier } => Res::Barrier(barrier),
            DepKind::Settle => Res::Settle,
            DepKind::PageFetch { page, .. }
            | DepKind::Diff { page }
            | DepKind::RemoteMiss { line: page } => Res::Label(tr.label_of(page)),
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
            Res::Label("") => ("(unlabeled)".to_string(), WhatIf::Label(String::new())),
            Res::Label(l) => (l.to_string(), WhatIf::Label(l.to_string())),
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
    // Per-processor edge lists in (t1, seq) order — `tr.edges` is already
    // globally sorted that way.
    let mut by_dst: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in tr.edges.iter().enumerate() {
        if e.dst < n {
            by_dst[e.dst].push(i);
        }
    }
    let timelines = phase_timelines(tr);

    // The walk starts on the processor that determined the end of the run:
    // the pre-settle straggler if a settle happened (every settled proc
    // shares the same final clock, so the max alone cannot identify it),
    // else the max-clock processor (earliest pid on ties).
    let start = tr
        .edges
        .iter()
        .find(|e| matches!(e.kind, DepKind::Settle))
        .map(|e| e.src)
        .filter(|&s| s < n)
        .unwrap_or_else(|| (0..n).rev().max_by_key(|&q| tr.procs[q].end).unwrap_or(0));

    let mut steps_rev: Vec<PathStep> = Vec::new();
    let mut p = start;
    let mut t = tr.procs.get(p).map(|x| x.end).unwrap_or(0);
    while t > 0 {
        let list = &by_dst[p];
        let k = list.partition_point(|&i| tr.edges[i].t1 <= t);
        if k == 0 {
            // Nothing but compute back to time zero on this processor.
            steps_rev.push(PathStep {
                pid: p,
                t0: 0,
                t1: t,
                cat: PathCat::Compute,
                edge: None,
            });
            break;
        }
        let ei = list[k - 1];
        let e = &tr.edges[ei];
        if e.t1 < t {
            steps_rev.push(PathStep {
                pid: p,
                t0: e.t1,
                t1: t,
                cat: PathCat::Compute,
                edge: None,
            });
        }
        let cat = PathCat::of(&e.kind);
        if e.kind.is_cross() && e.src != p && e.src < n && e.src_ts >= e.t0 && e.src_ts < e.t1 {
            // The stall ended because `src` reached `src_ts`: charge the
            // lag and continue the walk there. `src_ts < t1` guarantees
            // strictly decreasing time, hence termination.
            steps_rev.push(PathStep {
                pid: p,
                t0: e.src_ts,
                t1: e.t1,
                cat,
                edge: Some(ei),
            });
            p = e.src;
            t = e.src_ts;
        } else {
            // Intrinsic stall (protocol service), or provenance that
            // cannot move the walk backward: charge the whole interval and
            // stay on this processor.
            steps_rev.push(PathStep {
                pid: p,
                t0: e.t0,
                t1: e.t1,
                cat,
                edge: Some(ei),
            });
            t = e.t0;
        }
    }
    steps_rev.reverse();
    let steps = steps_rev;

    let mut by_cat = [0u64; NCATS];
    let mut by_phase: BTreeMap<usize, [u64; NCATS]> = BTreeMap::new();
    // (cycles, count, phases) per (category, resource).
    let mut resources: BTreeMap<(usize, Res), (u64, u64, Vec<usize>)> = BTreeMap::new();
    let mut total = 0u64;
    for s in &steps {
        let cycles = s.cycles();
        total += cycles;
        by_cat[s.cat.index()] += cycles;
        let tl = &timelines[s.pid];
        split_phases(tl, s.t0, s.t1, |phase, c| {
            by_phase.entry(phase).or_insert([0; NCATS])[s.cat.index()] += c;
        });
        if let Some(ei) = s.edge {
            let res = Res::of(tr, &tr.edges[ei].kind);
            let entry = resources.entry((s.cat.index(), res)).or_default();
            entry.0 += cycles;
            entry.1 += 1;
            insert_sorted(&mut entry.2, phase_at(tl, s.t0));
        }
    }
    let mut resources: Vec<CritResource> = resources
        .into_iter()
        .map(|((ci, res), (cycles, count, phases))| {
            let (name, target) = res.name_target();
            CritResource {
                cat: PathCat::ALL[ci],
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
        baseline: what_if(tr, &[]),
        by_cat,
        by_phase: by_phase.into_iter().collect(),
        resources,
        steps,
        edges: tr.edges.len(),
        edges_dropped: tr.edges_dropped,
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

/// Forward replay of all edges in resume order with `zero`-matching edges'
/// stalls eliminated; returns the new end-to-end time. Compute gaps between
/// stalls are preserved verbatim; cross-processor edges re-propagate their
/// enabling time from the (possibly earlier) replayed clock of the enabling
/// processor. Replaying with nothing zeroed reproduces the original time
/// exactly; zeroing is monotone (can only shrink every clock), so what-if
/// projections are true upper bounds.
fn recompute(tr: &RunTrace, zero: impl Fn(&DepEdge) -> bool) -> u64 {
    let n = tr.procs.len();
    let mut cur = vec![0i128; n]; // replayed clock
    let mut prev_end = vec![0u64; n]; // original-timeline position
    for e in &tr.edges {
        if e.dst >= n {
            continue;
        }
        let p = e.dst;
        // The compute gap since the previous stall is kept as-is.
        cur[p] += e.t0.saturating_sub(prev_end[p]) as i128;
        if zero(e) {
            // The stall vanishes: the processor proceeds immediately.
        } else if e.kind.is_cross() && e.src != p && e.src < n {
            // Where does the enabling instant land on the replayed
            // timeline? src_ts shifts by however much src is ahead/behind.
            let new_src = (cur[e.src] + e.src_ts as i128 - prev_end[e.src] as i128).max(0);
            let dep = e.t0.max(e.src_ts).min(e.t1);
            cur[p] = cur[p].max(new_src) + (e.t1 - dep) as i128;
        } else {
            cur[p] += (e.t1 - e.t0) as i128;
        }
        prev_end[p] = prev_end[p].max(e.t1);
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
/// is ignored). `&[]` reproduces the run's end time.
pub fn what_if(tr: &RunTrace, targets: &[WhatIf]) -> u64 {
    recompute(tr, cover(tr, targets))
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

/// Count every stall `target` covers. The critical path carries only the
/// part of a stall that lies on it (a handoff's cross-processor lag);
/// this sees each whole stall, including those off the path.
pub fn waits(tr: &RunTrace, target: &WhatIf) -> Waits {
    let covers = cover(tr, std::slice::from_ref(target));
    let mut w = Waits::default();
    // Edges are sorted by end, so the first covered end is the earliest.
    for e in tr.edges.iter().filter(|e| covers(e)) {
        if w.count == 0 {
            w.first_end = e.t1;
        }
        w.count += 1;
        w.cycles += e.t1 - e.t0;
        w.last_end = e.t1;
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
            let projected = what_if(tr, std::slice::from_ref(&target));
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
                let mut parts = String::new();
                for cat in PathCat::ALL {
                    let c = cats[cat.index()];
                    if c > 0 {
                        let _ = write!(
                            parts,
                            "{}{} {:.0}%",
                            if parts.is_empty() { "" } else { ", " },
                            cat.label(),
                            100.0 * c as f64 / total.max(1) as f64
                        );
                    }
                }
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
    use crate::trace::{AllocSpan, TraceSink, DEFAULT_EDGE_CAP};

    const FETCH: DepKind = DepKind::PageFetch {
        page: 0x2000,
        bytes: 4096,
    };

    /// Two procs: p0 computes to 100 and releases a lock; p1 blocks at 50,
    /// resumes at 120 via the handoff, then computes to 200. `extra` edges
    /// are `(kind, dst, t0, t1, src, src_ts)`.
    fn handoff_trace(extra: &[(DepKind, usize, u64, u64, usize, u64)]) -> RunTrace {
        let mut s = TraceSink::new(2, 64, DEFAULT_EDGE_CAP);
        s.push_edge(DepKind::LockHandoff { lock: 7 }, 1, 50, 120, 0, 100);
        for &(kind, dst, t0, t1, src, src_ts) in extra {
            s.push_edge(kind, dst, t0, t1, src, src_ts);
        }
        s.into_trace("t".into(), vec![], &[150, 200], vec![])
    }

    #[test]
    fn backward_walk_telescopes_exactly() {
        let tr = handoff_trace(&[]);
        let cp = analyze(&tr);
        assert_eq!(cp.total, 200);
        assert_eq!(cp.end, 200);
        assert_eq!(cp.baseline, 200);
        assert_eq!(cp.by_cat.iter().sum::<u64>(), cp.total);
        // Path: p0 compute (0,100], handoff lag (100,120], p1 compute
        // (120,200].
        assert_eq!(cp.by_cat[PathCat::Compute.index()], 180);
        assert_eq!(cp.by_cat[PathCat::LockWait.index()], 20);
        assert_eq!(cp.steps.first().unwrap().pid, 0);
        assert_eq!(cp.steps.last().unwrap().pid, 1);
        assert_eq!(cp.resources.len(), 1);
        assert_eq!(cp.resources[0].name, "lock 7");
        assert_eq!(cp.resources[0].target, WhatIf::Lock(7));
    }

    #[test]
    fn what_if_zeroing_is_monotone_and_exact() {
        let tr = handoff_trace(&[]);
        // Zeroing the lock: p1's stall (50..120) vanishes, its 80 cycles of
        // trailing compute follow directly: end = max(150, 50+80) = 150.
        assert_eq!(what_if(&tr, &[WhatIf::Lock(7)]), 150);
        assert_eq!(what_if(&tr, &[WhatIf::Category(PathCat::LockWait)]), 150);
        // Zeroing something absent, or nothing, changes nothing.
        assert_eq!(what_if(&tr, &[WhatIf::Barrier(0)]), 200);
        assert_eq!(what_if(&tr, &[]), tr.end());
        let cp = analyze(&tr);
        for p in what_if_report(&tr, &cp, 8) {
            assert!(p.speedup >= 1.0, "{:?}", p);
            assert!(p.projected <= cp.end);
        }
    }

    #[test]
    fn settle_edges_route_the_walk_to_the_straggler() {
        let mut s = TraceSink::new(3, 64, DEFAULT_EDGE_CAP);
        // p1 is the straggler at 300; p0 and p2 settle up to 300.
        s.push_edge(DepKind::Settle, 0, 120, 300, 1, 300);
        s.push_edge(DepKind::Settle, 2, 180, 300, 1, 300);
        let tr = s.into_trace("t".into(), vec![], &[300, 300, 300], vec![]);
        let cp = analyze(&tr);
        assert_eq!(cp.total, 300);
        assert_eq!(cp.baseline, 300);
        // The whole path is the straggler's compute: the settle edges of
        // the other processors are off-path.
        assert_eq!(cp.by_cat[PathCat::Compute.index()], 300);
        assert!(cp.steps.iter().all(|st| st.pid == 1));
    }

    #[test]
    fn intrinsic_stalls_attribute_by_allocation_label() {
        let mut s = TraceSink::new(2, 64, DEFAULT_EDGE_CAP);
        s.push_edge(FETCH, 0, 100, 400, 1, 100);
        let allocs = vec![AllocSpan {
            first: 0x2000,
            last: 0x2fff,
            label: "psi",
        }];
        let tr = s.into_trace("t".into(), vec![], &[500, 90], allocs);
        let cp = analyze(&tr);
        assert_eq!(cp.total, 500);
        assert_eq!(cp.baseline, 500);
        assert_eq!(cp.by_cat[PathCat::PageFetch.index()], 300);
        assert_eq!(cp.resources[0].name, "psi");
        assert_eq!(cp.resources[0].target, WhatIf::Label("psi".into()));
        // Zeroing psi traffic removes the whole fetch.
        assert_eq!(what_if(&tr, &[WhatIf::Label("psi".into())]), 200);
    }

    #[test]
    fn union_of_targets_zeroes_at_least_each_alone() {
        // A page fetch on the releaser (20..60) delays the release too.
        let tr = handoff_trace(&[(FETCH, 0, 20, 60, 0, 20)]);
        let targets = [WhatIf::Lock(7), WhatIf::Category(PathCat::PageFetch)];
        let a = what_if(&tr, &targets[..1]);
        let b = what_if(&tr, &targets[1..]);
        let both = what_if(&tr, &targets);
        assert_eq!((a, b, both), (150, 160, 130));
        assert!(both <= a.min(b));
    }

    #[test]
    fn waits_count_handoffs_off_the_path() {
        // A second lock-7 handoff on p0 (120..140, enabled by p1 at 130):
        // the path leaves p0 at 100, so it carries one handoff; `waits`
        // sees both.
        let tr = handoff_trace(&[(DepKind::LockHandoff { lock: 7 }, 0, 120, 140, 1, 130)]);
        let cp = analyze(&tr);
        assert_eq!((cp.baseline, cp.resources.len()), (200, 1));
        assert_eq!(cp.resources[0].count, 1);
        let w = waits(&tr, &WhatIf::Lock(7));
        assert_eq!(
            (w.count, w.cycles, w.first_end, w.last_end),
            (2, 90, 120, 140)
        );
        assert_eq!(waits(&tr, &WhatIf::Lock(8)), Waits::default());
    }

    #[test]
    fn phase_targets_and_resource_phases() {
        // One labeled page fetched in phase 0 (20..50) and, after the
        // phase-1 begin at 100, in phase 1 (150..200); the run ends at 300.
        let mut s = TraceSink::new(1, 64, DEFAULT_EDGE_CAP);
        s.push(0, 100, EventKind::PhaseBegin { phase: 1 });
        s.push_edge(FETCH, 0, 20, 50, 0, 20);
        s.push_edge(FETCH, 0, 150, 200, 0, 150);
        let allocs = vec![AllocSpan {
            first: 0x2000,
            last: 0x2fff,
            label: "psi",
        }];
        let tr = s.into_trace("t".into(), vec![], &[300], allocs);
        assert_eq!(what_if(&tr, &[]), 300);
        // Each phase zeroes only its own fetch.
        assert_eq!(what_if(&tr, &[WhatIf::Phase(1)]), 250);
        assert_eq!(what_if(&tr, &[WhatIf::Phase(0)]), 270);
        assert_eq!(what_if(&tr, &[WhatIf::Phase(0), WhatIf::Phase(1)]), 220);
        let cp = analyze(&tr);
        assert_eq!((cp.resources.len(), cp.resources[0].count), (1, 2));
        assert_eq!(cp.resources[0].phases, vec![0, 1]);
    }

    #[test]
    fn phase_splitting_covers_boundaries() {
        let mut s = TraceSink::new(1, 64, DEFAULT_EDGE_CAP);
        s.push(0, 0, EventKind::PhaseBegin { phase: 0 });
        s.push(0, 60, EventKind::PhaseBegin { phase: 1 });
        let tr = s.into_trace("t".into(), vec!["a".into(), "b".into()], &[100], vec![]);
        let cp = analyze(&tr);
        assert_eq!(cp.total, 100);
        assert_eq!(cp.by_phase.len(), 2);
        assert_eq!(
            cp.by_phase[0],
            (0, {
                let mut c = [0; NCATS];
                c[PathCat::Compute.index()] = 60;
                c
            })
        );
        assert_eq!(cp.by_phase[1].1[PathCat::Compute.index()], 40);
        let phase_sum: u64 = cp.by_phase.iter().flat_map(|(_, c)| c.iter()).sum();
        assert_eq!(phase_sum, cp.total);
    }
}
