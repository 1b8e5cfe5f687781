//! Optimization advisor — diagnostics layer 4+: fuse the sharing profile
//! (page-keyed), the critical-path analysis (resource-keyed) and the
//! interval metrics (interval-keyed) into one label/phase-keyed model, run
//! a rule engine over it, and emit ranked, typed restructuring
//! recommendations with evidence and critpath-derived upper-bound speedups.
//! The trace's stall model belongs to [`crate::critpath`]: the advisor
//! reads its [`CritPath`] and asks [`what_if`] and [`waits`] in [`WhatIf`]
//! targets, and never reads a stall off the trace itself.
//!
//! The paper (§6) restructured each application by hand, reading exactly
//! these diagnostics and inferring the fix; the advisor closes that loop.
//! Each rule maps a telemetry signature onto one of the paper's
//! optimization tiers:
//!
//! | action                  | tier | signature                                       |
//! |-------------------------|------|-------------------------------------------------|
//! | [`Action::PadAllocation`]       | P/A | steady false sharing, or many writers' records crowded into single grains |
//! | [`Action::HomeAlign`]           | DS  | phase-shifting false sharing (padding fixes only one regime) or single-writer pages homed remotely |
//! | [`Action::MigrateHome`]         | DS  | records communicated through by many nodes — shard by owner, home at the owner, route by affinity |
//! | [`Action::SingleWriterHandoff`] | DS  | migratory trajectory: turn-taking whole-page writers |
//! | [`Action::SplitLock`]           | Alg | lock-wait path share with long per-handoff stalls (convoy) |
//! | [`Action::BatchLock`]           | Alg | lock-wait path share from many cheap hand-offs (per-item locking) |
//! | [`Action::RestructureTraversal`]| Alg | a phase dominated by protocol stalls with no single-allocation fix |
//!
//! Everything here is pure post-hoc analysis over a frozen
//! [`RunStats`]: no clocks, buffers or statistics are touched, so the
//! advisor is invisible by construction — it only *reads* reports other
//! layers already produced.

use crate::critpath::{analyze, waits, what_if, CritPath, PathCat, WhatIf};
use crate::metrics::{MetricsReport, PageTrajectory};
use crate::sharing::{SharingClass, SharingProfile};
use crate::stats::RunStats;
use crate::trace::RunTrace;
use crate::util::{insert_sorted, joined, json_escape, json_rows};
use std::fmt::Write as _;

/// A recommendation must account for at least this fraction of the
/// critical path to be emitted at all.
const MIN_PATH_SHARE: f64 = 0.005;
/// A label's whole-run false-sharing diff fraction above this counts as
/// false-sharing evidence even without interval metrics.
const FALSE_SHARE_MIN: f64 = 0.25;
/// Mean per-handoff lock stall (cycles) above which contention looks like
/// a convoy (split the lock) rather than per-item overhead (batch work).
const CONVOY_STALL_CYCLES: u64 = 4096;
/// A phase is fetch-dominated when protocol stalls exceed this fraction
/// of the phase's critical-path cycles...
const PHASE_PROTOCOL_SHARE: f64 = 0.5;
/// ...and the phase itself carries at least this fraction of the path.
const PHASE_PATH_SHARE: f64 = 0.2;
/// "No single-allocation fix": the best per-label bound in the phase
/// projects less than this speedup.
const SINGLE_FIX_SPEEDUP: f64 = 1.25;
/// Example pages listed per recommendation.
const EVIDENCE_PAGES: usize = 4;

/// The paper's optimization tiers, in application order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// Padding/alignment of allocations (no semantic change).
    PadAlign,
    /// Data-structure reorganization: layout, homes, affinity.
    DataStruct,
    /// Algorithmic restructuring: locking discipline, traversal order.
    Algorithm,
}

impl Family {
    /// All families, in tier order.
    pub const ALL: [Family; 3] = [Family::PadAlign, Family::DataStruct, Family::Algorithm];

    /// The paper's tier label.
    pub fn label(self) -> &'static str {
        match self {
            Family::PadAlign => "P/A",
            Family::DataStruct => "DS",
            Family::Algorithm => "Alg",
        }
    }
}

/// A concrete restructuring transformation the advisor recommends.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Pad and align the label's records to the coherence grain (P/A).
    PadAllocation { label: String },
    /// Reorganize the label so each writer's partition is contiguous,
    /// page-aligned and homed at its writer (DS).
    HomeAlign { label: String },
    /// Shard the label's records by their dominant consumer, home each
    /// shard at that node, and route work by affinity (DS).
    MigrateHome { label: String },
    /// Turn-taking writers: pass whole-structure ownership explicitly
    /// instead of faulting it across (DS).
    SingleWriterHandoff { label: String },
    /// Split one contended lock into finer locks (Alg).
    SplitLock { lock: u64 },
    /// Batch work per acquisition of a cheap, chatty lock (Alg).
    BatchLock { lock: u64 },
    /// Restructure the phase's traversal/partitioning: its protocol
    /// traffic has no single-allocation fix (Alg).
    RestructureTraversal { phase: usize },
}

impl Action {
    /// The optimization tier this transformation belongs to.
    pub fn family(&self) -> Family {
        match self {
            Action::PadAllocation { .. } => Family::PadAlign,
            Action::HomeAlign { .. }
            | Action::MigrateHome { .. }
            | Action::SingleWriterHandoff { .. } => Family::DataStruct,
            Action::SplitLock { .. }
            | Action::BatchLock { .. }
            | Action::RestructureTraversal { .. } => Family::Algorithm,
        }
    }

    /// Stable machine-readable kind tag (also the ranking tiebreak order).
    pub fn kind(&self) -> &'static str {
        match self {
            Action::PadAllocation { .. } => "pad-allocation",
            Action::HomeAlign { .. } => "home-align",
            Action::MigrateHome { .. } => "migrate-home",
            Action::SingleWriterHandoff { .. } => "single-writer-handoff",
            Action::SplitLock { .. } => "split-lock",
            Action::BatchLock { .. } => "batch-lock",
            Action::RestructureTraversal { .. } => "restructure-traversal",
        }
    }

    /// Ranking tiebreak order among actions with equal bounds.
    fn order(&self) -> usize {
        match self {
            Action::PadAllocation { .. } => 0,
            Action::HomeAlign { .. } => 1,
            Action::MigrateHome { .. } => 2,
            Action::SingleWriterHandoff { .. } => 3,
            Action::SplitLock { .. } => 4,
            Action::BatchLock { .. } => 5,
            Action::RestructureTraversal { .. } => 6,
        }
    }

    /// The allocation label the action targets, if any.
    pub fn label(&self) -> Option<&str> {
        match self {
            Action::PadAllocation { label }
            | Action::HomeAlign { label }
            | Action::MigrateHome { label }
            | Action::SingleWriterHandoff { label } => Some(label),
            _ => None,
        }
    }

    /// Human description of the transformation.
    pub fn describe(&self) -> String {
        let name = |l: &str| {
            if l.is_empty() {
                "unlabeled data".to_string()
            } else {
                format!("`{l}`")
            }
        };
        match self {
            Action::PadAllocation { label } => format!(
                "pad and align {} records to the coherence grain",
                name(label)
            ),
            Action::HomeAlign { label } => format!(
                "reorganize {} into contiguous page-aligned per-writer partitions homed at their writers",
                name(label)
            ),
            Action::MigrateHome { label } => format!(
                "shard {} by owner, home each shard at its owner, route work by affinity",
                name(label)
            ),
            Action::SingleWriterHandoff { label } => format!(
                "hand {} off between its turn-taking writers instead of faulting whole pages across",
                name(label)
            ),
            Action::SplitLock { lock } => {
                format!("split lock {lock} into finer-grained locks")
            }
            Action::BatchLock { lock } => {
                format!("batch work per acquisition of lock {lock}")
            }
            Action::RestructureTraversal { phase } => {
                format!("restructure the traversal/partitioning of phase {phase}")
            }
        }
    }
}

/// How urgent a recommendation is, from its critical-path share.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Under 2% of the critical path.
    Low,
    /// 2–10% of the critical path.
    Moderate,
    /// 10–25% of the critical path.
    High,
    /// Over 25% of the critical path.
    Critical,
}

impl Severity {
    /// Severity from a critical-path share in `[0, 1]`.
    pub fn of_share(share: f64) -> Severity {
        if share >= 0.25 {
            Severity::Critical
        } else if share >= 0.10 {
            Severity::High
        } else if share >= 0.02 {
            Severity::Moderate
        } else {
            Severity::Low
        }
    }

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Low => "low",
            Severity::Moderate => "moderate",
            Severity::High => "high",
            Severity::Critical => "critical",
        }
    }
}

/// The telemetry a recommendation rests on, fused from the three layers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Evidence {
    /// Example page bases (hottest first, capped).
    pub pages: Vec<u64>,
    /// Phases whose critical-path segments touch the target, ascending.
    pub phases: Vec<usize>,
    /// Interval-metrics trajectory of the target label, if metrics ran.
    pub trajectory: Option<PageTrajectory>,
    /// Whole-run false-sharing diff fraction, if the sharing profile ran.
    pub false_share: Option<f64>,
    /// Distinct writer nodes over the target's pages.
    pub writers: u64,
    /// Lock hand-offs observed (lock rules; from metrics when present,
    /// else critical-path stall count).
    pub handoffs: u64,
    /// Human-readable facts, one per line, in layer order.
    pub notes: Vec<String>,
}

/// One ranked, typed restructuring recommendation.
#[derive(Clone, Debug, PartialEq)]
pub struct Recommendation {
    /// The transformation to apply.
    pub action: Action,
    /// The paper tier it belongs to.
    pub family: Family,
    /// Urgency, from the target's critical-path share.
    pub severity: Severity,
    /// Critical-path cycles attributed to the target.
    pub path_cycles: u64,
    /// `path_cycles / total path` (0 when the trace layer is absent).
    pub path_share: f64,
    /// Projected end-to-end time with the target's stalls zeroed.
    pub projected: u64,
    /// Upper-bound speedup `end / projected` (always `>= 1.0`).
    pub speedup: f64,
    /// What the bound rests on.
    pub evidence: Evidence,
}

/// The combined upper bound for applying one whole tier of
/// recommendations at once (the union of their what-if targets).
#[derive(Clone, Debug, PartialEq)]
pub struct FamilyBound {
    /// The tier.
    pub family: Family,
    /// Number of recommendations in the tier.
    pub recs: usize,
    /// Critical-path cycles attributed to the union of targets.
    pub path_cycles: u64,
    /// Projected end-to-end time with every member target zeroed.
    pub projected: u64,
    /// Upper-bound speedup `end / projected`; dominates every member's
    /// individual bound because the union zeroes a superset of stalls.
    pub speedup: f64,
}

/// The advisor's ranked report for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct AdvisorReport {
    /// The run label (from the trace when present).
    pub label: String,
    /// End-to-end virtual time the bounds are relative to.
    pub end: u64,
    /// Whether the sharing-profile layer was present.
    pub has_sharing: bool,
    /// Whether the trace layer was present (bounds require it).
    pub has_trace: bool,
    /// Whether the interval-metrics layer was present.
    pub has_metrics: bool,
    /// Recommendations, best projected speedup first.
    pub recs: Vec<Recommendation>,
    /// Per-tier union bounds, tier order; only tiers with members.
    pub families: Vec<FamilyBound>,
}

// ---------------------------------------------------------------------------
// The label/phase-keyed join model.

/// Everything the three layers know about one allocation label.
#[derive(Default)]
struct LabelJoin {
    // Trace/critpath layer.
    fetch_cycles: u64,
    diff_cycles: u64,
    miss_cycles: u64,
    phases: Vec<usize>,
    // Sharing layer.
    sharing_pages: u64,
    false_pages: u64,
    true_pages: u64,
    multi_writer_pages: u64,
    false_share: Option<f64>,
    diff_words: u64,
    fetches: u64,
    hot_pages: Vec<(u64, u64)>, // (traffic, page_base)
    writers: Vec<u16>,
    overlap: bool,
    // Metrics layer.
    trajectory: Option<PageTrajectory>,
    // Geometry (trace allocation spans).
    bytes: u64,
}

impl LabelJoin {
    fn path_cycles(&self) -> u64 {
        self.fetch_cycles + self.diff_cycles + self.miss_cycles
    }

    fn evidence_pages(&self) -> Vec<u64> {
        let mut hot = self.hot_pages.clone();
        hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        hot.truncate(EVIDENCE_PAGES);
        let mut pages: Vec<u64> = hot.into_iter().map(|(_, p)| p).collect();
        pages.sort_unstable();
        pages
    }
}

/// Join the three reports into per-label entries, keyed by label in
/// first-seen-by-the-critical-path order, then sharing order, then
/// metrics order (deterministic: all three sources are themselves
/// deterministically ordered).
fn join_labels(
    sharing: Option<&SharingProfile>,
    trace: Option<(&RunTrace, &CritPath)>,
    metrics: Option<&MetricsReport>,
) -> Vec<(String, LabelJoin)> {
    let mut out: Vec<(String, LabelJoin)> = Vec::new();
    fn entry<'a>(out: &'a mut Vec<(String, LabelJoin)>, label: &str) -> &'a mut LabelJoin {
        if let Some(i) = out.iter().position(|(l, _)| l == label) {
            return &mut out[i].1;
        }
        out.push((label.to_string(), LabelJoin::default()));
        &mut out.last_mut().unwrap().1
    }

    if let Some((tr, cp)) = trace {
        for r in &cp.resources {
            if let WhatIf::Label(lbl) = &r.target {
                let e = entry(&mut out, lbl);
                match r.cat {
                    PathCat::PageFetch => e.fetch_cycles += r.cycles,
                    PathCat::Diff => e.diff_cycles += r.cycles,
                    PathCat::RemoteMiss => e.miss_cycles += r.cycles,
                    _ => {}
                }
                for &phase in &r.phases {
                    insert_sorted(&mut e.phases, phase);
                }
            }
        }
        for a in &tr.allocs {
            entry(&mut out, a.label).bytes += a.last - a.first + 1;
        }
    }

    if let Some(sp) = sharing {
        for ls in sp.labels() {
            let e = entry(&mut out, ls.label);
            e.sharing_pages = ls.pages;
            e.false_pages = ls.false_pages;
            e.true_pages = ls.true_pages;
            e.false_share = Some(ls.false_share());
            e.diff_words = ls.diff_words;
            e.fetches = ls.fetches;
        }
        for pg in &sp.pages {
            let e = entry(&mut out, pg.label);
            if pg.writers.len() >= 2 {
                e.multi_writer_pages += 1;
            }
            for &w in &pg.writers {
                insert_sorted(&mut e.writers, w as u16);
            }
            e.hot_pages
                .push((pg.diff_words.max(pg.fetches), pg.page_base));
            if matches!(pg.class, SharingClass::TrueSharing) {
                e.overlap = true;
            }
        }
    }

    if let Some(m) = metrics {
        for pg in &m.pages {
            let e = entry(&mut out, pg.label);
            for &w in &pg.writers {
                insert_sorted(&mut e.writers, w);
            }
            if pg.overlap {
                e.overlap = true;
            }
            if e.hot_pages.iter().all(|&(_, p)| p != pg.page_base) {
                e.hot_pages
                    .push((pg.total_diff_words().max(pg.total_fetches()), pg.page_base));
            }
        }
        let labels: Vec<String> = out.iter().map(|(l, _)| l.clone()).collect();
        for lbl in labels {
            let t = m.label_trajectory(&lbl);
            entry(&mut out, &lbl).trajectory = t;
        }
    }

    out
}

// ---------------------------------------------------------------------------
// The rule engine.

/// Run the advisor on a finished run. Tolerates missing layers — the
/// report records which were present — but bounds (and most rules) need
/// the trace; with no layers at all the report is empty.
pub fn advise(stats: &RunStats) -> AdvisorReport {
    let trace = stats.trace.as_ref();
    let cp = trace.map(analyze);
    let tr_cp = trace.zip(cp.as_ref());
    let end = trace
        .map(|t| t.end())
        .unwrap_or_else(|| stats.total_cycles());
    let total_path = cp.as_ref().map(|c| c.total).unwrap_or(0);
    let joined = join_labels(stats.sharing.as_ref(), tr_cp, stats.metrics.as_ref());

    // Every cycle shared out is a path cycle, so an empty path shares 0.
    let share = |cycles: u64| cycles as f64 / total_path.max(1) as f64;

    let mut pending: Vec<(Action, u64, WhatIf, Evidence)> = Vec::new();

    // --- Label rules -------------------------------------------------------
    for (label, j) in &joined {
        let cycles = j.path_cycles();
        let significant = if total_path > 0 {
            share(cycles) >= MIN_PATH_SHARE
        } else {
            // No trace: fall back to raw traffic presence.
            j.diff_words + j.fetches > 0
        };
        if !significant {
            continue;
        }

        let mut ev = Evidence {
            pages: j.evidence_pages(),
            phases: j.phases.clone(),
            trajectory: j.trajectory,
            false_share: j.false_share,
            writers: j.writers.len() as u64,
            ..Evidence::default()
        };
        let name = if label.is_empty() { "unlabeled" } else { label };
        if cycles > 0 {
            ev.notes.push(format!(
                "critpath: {} protocol cycles on `{name}` ({:.1}% of path; fetch {}, diff {}, miss {})",
                cycles,
                100.0 * share(cycles),
                j.fetch_cycles,
                j.diff_cycles,
                j.miss_cycles
            ));
        }
        if j.sharing_pages > 0 {
            ev.notes.push(format!(
                "sharing: {} active pages ({} false, {} true, {} multi-writer), {} writers, false-share {:.0}%",
                j.sharing_pages,
                j.false_pages,
                j.true_pages,
                j.multi_writer_pages,
                j.writers.len(),
                100.0 * j.false_share.unwrap_or(0.0)
            ));
        }
        if let Some(t) = j.trajectory {
            ev.notes
                .push(format!("metrics: dominant trajectory {}", t.label()));
        }

        let false_evidence = j.trajectory == Some(PageTrajectory::SteadyFalse)
            || (j.false_share.unwrap_or(0.0) >= FALSE_SHARE_MIN && j.false_pages >= 1);
        // Many writers' records packed into fewer grains than writers:
        // padding can give each record its own grain.
        let crowded = j.writers.len() >= 2
            && j.bytes > 0
            && (j.bytes / j.writers.len() as u64) < crate::PAGE_SIZE;
        let concurrent_multi =
            j.multi_writer_pages > 0 || matches!(j.trajectory, Some(PageTrajectory::SteadyTrue));

        let target = WhatIf::Label(label.clone());
        let action = match j.trajectory {
            Some(PageTrajectory::Migratory) => {
                ev.notes.push(
                    "writers take turns rewriting whole pages: ownership migrates".to_string(),
                );
                Some(Action::SingleWriterHandoff {
                    label: label.clone(),
                })
            }
            Some(PageTrajectory::PhaseShifting) => {
                ev.notes.push(
                    "sharing regime shifts between single-writer and concurrent intervals: \
                     padding fixes only one regime"
                        .to_string(),
                );
                Some(Action::HomeAlign {
                    label: label.clone(),
                })
            }
            _ if false_evidence => {
                ev.notes
                    .push("concurrent writers touch disjoint words of the same grain".to_string());
                Some(Action::PadAllocation {
                    label: label.clone(),
                })
            }
            _ if crowded && concurrent_multi => {
                ev.notes.push(format!(
                    "{} bytes across {} writers: many records share one coherence grain",
                    j.bytes,
                    j.writers.len()
                ));
                Some(Action::PadAllocation {
                    label: label.clone(),
                })
            }
            Some(PageTrajectory::SingleWriter)
            | Some(PageTrajectory::ReadShared)
            | Some(PageTrajectory::SteadyTrue)
            | None
                if j.writers.len() <= 1 && cycles > 0 =>
            {
                ev.notes.push(
                    "at most one writer, still paying remote traffic: the home is misplaced"
                        .to_string(),
                );
                Some(Action::HomeAlign {
                    label: label.clone(),
                })
            }
            _ if cycles > 0 => {
                ev.notes
                    .push("fetch-dominated label with writers spread across nodes".to_string());
                Some(Action::MigrateHome {
                    label: label.clone(),
                })
            }
            _ => None,
        };

        let primary_is_pad = matches!(action, Some(Action::PadAllocation { .. }));
        if let Some(a) = action {
            pending.push((a, cycles, target.clone(), ev.clone()));
        }
        // Padding fixes grain amplification, but records genuinely
        // communicated through by many nodes (word overlap / true
        // sharing) also want affinity homes: the DS tier.
        if primary_is_pad && j.overlap && j.fetch_cycles > 0 {
            let mut ev2 = ev.clone();
            ev2.notes.push(
                "writers overlap on the same words: padding alone keeps the communication; \
                 shard records by owner and route work by affinity"
                    .to_string(),
            );
            pending.push((
                Action::MigrateHome {
                    label: label.clone(),
                },
                cycles,
                target,
                ev2,
            ));
        }
    }

    // --- Lock rules --------------------------------------------------------
    if let Some((tr, cp)) = tr_cp {
        for r in &cp.resources {
            let WhatIf::Lock(lock) = r.target else {
                continue;
            };
            if share(r.cycles) < MIN_PATH_SHARE {
                continue;
            }
            let handoffs = stats
                .metrics
                .as_ref()
                .and_then(|m| m.locks.iter().find(|l| l.lock as u64 == lock))
                .map(|l| l.total())
                .unwrap_or(r.count);
            // The critical path only carries the cross-processor *lag* of
            // each handoff; the convoy-vs-chatter call needs the full wait
            // of every handoff, on the path or off it.
            let w = waits(tr, cp, &r.target);
            let mean_wait = w.cycles / w.count.max(1);
            // Under saturation queueing inflates every wait, cheap holds
            // included; the spacing of consecutive grants estimates the
            // true per-service (hold + transfer) time instead. Take the
            // smaller of the two as the effective service estimate.
            let mean_gap = if w.count >= 2 {
                (w.last_end - w.first_end) / (w.count - 1)
            } else {
                mean_wait
            };
            let service = mean_wait.min(mean_gap);
            let mut ev = Evidence {
                handoffs,
                ..Evidence::default()
            };
            ev.notes.push(format!(
                "critpath: {} lock-wait cycles on lock {lock} ({:.1}% of path); \
                 {} waits of mean {} cycles, ~{} cycles per service",
                r.cycles,
                100.0 * share(r.cycles),
                w.count,
                mean_wait,
                service
            ));
            let action = if service >= CONVOY_STALL_CYCLES {
                ev.notes
                    .push("long per-handoff waits: holders convoy behind one lock".to_string());
                Action::SplitLock { lock }
            } else {
                ev.notes.push(format!(
                    "{handoffs} cheap hand-offs: per-item locking overhead dominates"
                ));
                Action::BatchLock { lock }
            };
            pending.push((action, r.cycles, r.target.clone(), ev));
        }
    }

    // --- Phase rule --------------------------------------------------------
    if let Some((tr, cp)) = tr_cp {
        for (phase, cats) in &cp.by_phase {
            let phase_total: u64 = cats.iter().sum();
            let protocol = cats[PathCat::PageFetch.index()]
                + cats[PathCat::Diff.index()]
                + cats[PathCat::RemoteMiss.index()];
            if share(phase_total) < PHASE_PATH_SHARE
                || (protocol as f64) < PHASE_PROTOCOL_SHARE * phase_total as f64
            {
                continue;
            }
            // Is there a single-allocation fix? Check the best per-label
            // bound among labels whose path segments touch this phase.
            let best_label_speedup = joined
                .iter()
                .filter(|(_, j)| j.phases.contains(phase))
                .map(|(l, _)| what_if(tr, cp, &[WhatIf::Label(l.clone())]))
                .map(|proj| end as f64 / proj.max(1) as f64)
                .fold(1.0f64, f64::max);
            if best_label_speedup >= SINGLE_FIX_SPEEDUP {
                continue;
            }
            let mut ev = Evidence {
                phases: vec![*phase],
                ..Evidence::default()
            };
            ev.notes.push(format!(
                "critpath: phase `{}` is {:.0}% protocol stalls ({:.1}% of the whole path) \
                 with best single-label bound only {:.2}x",
                tr.phase_name(*phase),
                100.0 * protocol as f64 / phase_total.max(1) as f64,
                100.0 * share(phase_total),
                best_label_speedup
            ));
            ev.notes.push(
                "no one allocation dominates: the traversal itself communicates too much"
                    .to_string(),
            );
            pending.push((
                Action::RestructureTraversal { phase: *phase },
                protocol,
                WhatIf::Phase(*phase),
                ev,
            ));
        }
    }

    // --- Bounds, ranking, family aggregation -------------------------------
    let project = |targets: &[WhatIf]| tr_cp.map_or(end, |(tr, cp)| what_if(tr, cp, targets));

    let mut recs: Vec<(Recommendation, WhatIf)> = pending
        .into_iter()
        .map(|(action, path_cycles, target, evidence)| {
            let projected = project(std::slice::from_ref(&target));
            let speedup = end as f64 / projected.max(1) as f64;
            let path_share = share(path_cycles);
            (
                Recommendation {
                    family: action.family(),
                    severity: Severity::of_share(path_share),
                    action,
                    path_cycles,
                    path_share,
                    projected,
                    speedup,
                    evidence,
                },
                target,
            )
        })
        .collect();
    recs.sort_by(|(a, _), (b, _)| {
        b.speedup
            .total_cmp(&a.speedup)
            .then(b.path_cycles.cmp(&a.path_cycles))
            .then(a.action.order().cmp(&b.action.order()))
            .then(a.action.describe().cmp(&b.action.describe()))
    });

    let mut families: Vec<FamilyBound> = Vec::new();
    for fam in Family::ALL {
        // Distinct targets only: two recs on one label share the cycles.
        let mut members = 0;
        let mut targets: Vec<WhatIf> = Vec::new();
        let mut path_cycles = 0u64;
        for (r, target) in recs.iter().filter(|(r, _)| r.family == fam) {
            members += 1;
            if !targets.contains(target) {
                path_cycles += r.path_cycles;
                targets.push(target.clone());
            }
        }
        if members == 0 {
            continue;
        }
        let projected = project(&targets);
        families.push(FamilyBound {
            family: fam,
            recs: members,
            path_cycles,
            projected,
            speedup: end as f64 / projected.max(1) as f64,
        });
    }

    AdvisorReport {
        label: trace.map(|t| t.label.clone()).unwrap_or_default(),
        end,
        has_sharing: stats.sharing.is_some(),
        has_trace: trace.is_some(),
        has_metrics: stats.metrics.is_some(),
        recs: recs.into_iter().map(|(r, _)| r).collect(),
        families,
    }
}

// ---------------------------------------------------------------------------
// Rendering.

impl AdvisorReport {
    /// The tier of the top-ranked recommendation — the advisor's answer to
    /// "which class should this application move to next?".
    pub fn next_family(&self) -> Option<Family> {
        self.recs.first().map(|r| r.family)
    }

    /// All recommendations targeting one allocation label.
    pub fn for_label(&self, label: &str) -> Vec<&Recommendation> {
        self.recs
            .iter()
            .filter(|r| r.action.label() == Some(label))
            .collect()
    }

    /// The union bound for one tier, if any of its rules fired.
    pub fn family(&self, fam: Family) -> Option<&FamilyBound> {
        self.families.iter().find(|f| f.family == fam)
    }

    /// Human-readable ranked report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let layers = [
            ("sharing", self.has_sharing),
            ("trace/critpath", self.has_trace),
            ("metrics", self.has_metrics),
        ];
        let layers = joined(layers.iter().filter(|(_, on)| *on).map(|(n, _)| n), " + ");
        let _ = writeln!(
            out,
            "advisor [{}]: {} recommendations from {} over {} cycles",
            self.label,
            self.recs.len(),
            if layers.is_empty() {
                "no layers"
            } else {
                &layers
            },
            self.end
        );
        if self.recs.is_empty() {
            let _ = writeln!(out, "  nothing to recommend: the run looks healthy");
            return out;
        }
        for (i, r) in self.recs.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{:<2} [{}] {:<8} {:>6.2}x bound  {:>5.1}% path  {}",
                i + 1,
                r.family.label(),
                r.severity.label(),
                r.speedup,
                100.0 * r.path_share,
                r.action.describe()
            );
            for n in &r.evidence.notes {
                let _ = writeln!(out, "        - {n}");
            }
            if !r.evidence.pages.is_empty() {
                let pages = joined(r.evidence.pages.iter().map(|p| format!("{p:#x}")), ", ");
                let _ = writeln!(out, "        - example pages: {pages}");
            }
            if !r.evidence.phases.is_empty() {
                let phases = joined(&r.evidence.phases, ", ");
                let _ = writeln!(out, "        - phases touched: {phases}");
            }
        }
        let _ = writeln!(out, "  combined per-tier bounds:");
        for f in &self.families {
            let _ = writeln!(
                out,
                "    {:<4} {:>2} recs  {:>6.2}x bound  ({} -> {} cycles)",
                f.family.label(),
                f.recs,
                f.speedup,
                self.end,
                f.projected
            );
        }
        out
    }

    /// Machine-readable JSON (hand-rolled; byte-deterministic for a given
    /// report).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"label\": \"{}\",", json_escape(&self.label));
        let _ = writeln!(out, "  \"end\": {},", self.end);
        let _ = writeln!(
            out,
            "  \"layers\": {{\"sharing\": {}, \"trace\": {}, \"metrics\": {}}},",
            self.has_sharing, self.has_trace, self.has_metrics
        );
        out.push_str("  \"recommendations\": ");
        json_rows(&mut out, &self.recs, |out, r| {
            out.push('{');
            let _ = write!(
                out,
                "\"kind\": \"{}\", \"family\": \"{}\", \"severity\": \"{}\", ",
                r.action.kind(),
                r.family.label(),
                r.severity.label()
            );
            match &r.action {
                Action::SplitLock { lock } | Action::BatchLock { lock } => {
                    let _ = write!(out, "\"lock\": {lock}, ");
                }
                Action::RestructureTraversal { phase } => {
                    let _ = write!(out, "\"phase\": {phase}, ");
                }
                a => {
                    let _ = write!(
                        out,
                        "\"target\": \"{}\", ",
                        json_escape(a.label().unwrap_or(""))
                    );
                }
            }
            let _ = write!(
                out,
                "\"path_cycles\": {}, \"path_share\": {:.6}, \"projected\": {}, \"speedup\": {:.4}, ",
                r.path_cycles, r.path_share, r.projected, r.speedup
            );
            let _ = write!(
                out,
                "\"describe\": \"{}\", ",
                json_escape(&r.action.describe())
            );
            let pages = joined(&r.evidence.pages, ", ");
            let phases = joined(&r.evidence.phases, ", ");
            let notes = joined(
                r.evidence
                    .notes
                    .iter()
                    .map(|n| format!("\"{}\"", json_escape(n))),
                ", ",
            );
            let _ = write!(
                out,
                "\"evidence\": {{\"pages\": [{pages}], \"phases\": [{phases}], \
                 \"writers\": {}, \"handoffs\": {}, ",
                r.evidence.writers, r.evidence.handoffs
            );
            match r.evidence.trajectory {
                Some(t) => {
                    let _ = write!(out, "\"trajectory\": \"{}\", ", t.label());
                }
                None => out.push_str("\"trajectory\": null, "),
            }
            match r.evidence.false_share {
                Some(f) => {
                    let _ = write!(out, "\"false_share\": {f:.4}, ");
                }
                None => out.push_str("\"false_share\": null, "),
            }
            let _ = write!(out, "\"notes\": [{notes}]}}}}");
        });
        out.push_str(",\n  \"families\": ");
        json_rows(&mut out, &self.families, |out, f| {
            let _ = write!(
                out,
                "{{\"family\": \"{}\", \"recs\": {}, \"path_cycles\": {}, \
                 \"projected\": {}, \"speedup\": {:.4}}}",
                f.family.label(),
                f.recs,
                f.path_cycles,
                f.projected,
                f.speedup
            );
        });
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_thresholds() {
        assert_eq!(Severity::of_share(0.30), Severity::Critical);
        assert_eq!(Severity::of_share(0.15), Severity::High);
        assert_eq!(Severity::of_share(0.05), Severity::Moderate);
        assert_eq!(Severity::of_share(0.001), Severity::Low);
    }

    #[test]
    fn families_are_stable() {
        assert_eq!(
            Action::PadAllocation { label: "x".into() }.family(),
            Family::PadAlign
        );
        assert_eq!(
            Action::MigrateHome { label: "x".into() }.family(),
            Family::DataStruct
        );
        assert_eq!(Action::SplitLock { lock: 0 }.family(), Family::Algorithm);
        assert_eq!(
            Action::RestructureTraversal { phase: 1 }.family(),
            Family::Algorithm
        );
    }

    #[test]
    fn empty_stats_give_empty_report() {
        let stats = RunStats {
            procs: Vec::new(),
            clocks: Vec::new(),
            races: Vec::new(),
            sharing: None,
            trace: None,
            metrics: None,
            phase_names: Vec::new(),
        };
        let rep = advise(&stats);
        assert!(rep.recs.is_empty());
        assert!(!rep.has_sharing && !rep.has_trace && !rep.has_metrics);
        assert!(rep.report().contains("nothing to recommend"));
    }

    #[test]
    fn json_escapes_labels() {
        const LABEL: &str = "a\"b\\c\u{1}";
        let rep = AdvisorReport {
            label: LABEL.into(),
            end: 10,
            has_sharing: true,
            has_trace: true,
            has_metrics: true,
            recs: vec![Recommendation {
                action: Action::PadAllocation {
                    label: LABEL.into(),
                },
                family: Family::PadAlign,
                severity: Severity::High,
                path_cycles: 5,
                path_share: 0.5,
                projected: 5,
                speedup: 2.0,
                evidence: Evidence {
                    notes: vec![LABEL.into()],
                    ..Evidence::default()
                },
            }],
            families: Vec::new(),
        };
        let json = rep.to_json();
        // The run label, the target, its description and the note.
        assert_eq!(json.matches("a\\\"b\\\\c\\u0001").count(), 4, "{json}");
        assert!(!json.contains(LABEL));
    }
}
