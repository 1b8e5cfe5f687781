//! Critical-path analyzer invariants and edge provenance.
//!
//! The defining invariant: the reconstructed critical-path length equals
//! the end-to-end virtual time of the run, exactly, in every application ×
//! optimization-class × platform cell — and the category attribution
//! telescopes to the same number. On top of that, seeded kernels with a
//! *known* structure (an imbalanced barrier with a chosen straggler, a
//! lock convoy with a chosen handoff order) must have that structure
//! identified from the recorded events alone: each barrier exit names its
//! last arriver, each lock grant its releaser.

use apps::{App, AppSpec, OptClass};
use sim_core::critpath::{analyze, what_if_report, PathCat};
use sim_core::{EventKind, RunConfig, RunTrace};
use svm_restructure::prelude::*;

fn traced(app: App, class: OptClass, pf: PlatformKind) -> RunTrace {
    AppSpec { app, class }
        .run_cfg(pf, 4, Scale::Test, RunConfig::new(4).with_trace())
        .trace
        .expect("tracing was requested")
}

/// Every cell: path length == end-to-end time, attribution sums to the
/// path, the structural what-if baseline reproduces it, nothing dropped.
fn sweep_platform(pf: PlatformKind) {
    for app in App::ALL {
        for class in OptClass::ALL {
            let tr = traced(app, class, pf);
            let cp = analyze(&tr);
            let cell = format!("{}/{} on {}", app.name(), class.label(), pf.name());
            assert_eq!(cp.total, tr.end(), "path != end for {cell}");
            assert_eq!(
                cp.by_cat.iter().sum::<u64>(),
                cp.total,
                "category attribution does not telescope for {cell}"
            );
            let phase_sum: u64 = cp.by_phase.iter().flat_map(|(_, cats)| cats.iter()).sum();
            assert_eq!(phase_sum, cp.total, "phase attribution leaks for {cell}");
            assert_eq!(cp.baseline, tr.end(), "what-if baseline off for {cell}");
            assert_eq!(cp.edges_dropped, 0, "events dropped for {cell}");
        }
    }
}

#[test]
fn invariants_hold_in_every_cell_on_svm() {
    sweep_platform(PlatformKind::Svm);
}

#[test]
fn invariants_hold_in_every_cell_on_tmk() {
    sweep_platform(PlatformKind::Tmk);
}

#[test]
fn invariants_hold_in_every_cell_on_dsm() {
    sweep_platform(PlatformKind::Dsm);
}

#[test]
fn invariants_hold_in_every_cell_on_smp() {
    sweep_platform(PlatformKind::Smp);
}

/// A record held to a tiny cap still gives an exact analysis of what it
/// kept: the walk telescopes to the end of the run and the replay
/// reproduces it, and the drops are reported.
#[test]
fn a_capped_record_still_telescopes() {
    let tr = AppSpec {
        app: App::Ocean,
        class: OptClass::Orig,
    }
    .run_cfg(
        PlatformKind::Svm,
        4,
        Scale::Test,
        RunConfig::new(4).with_trace().with_diag_cap(8),
    )
    .trace
    .expect("tracing was requested");
    let cp = analyze(&tr);
    assert!(cp.edges_dropped > 0, "a cap of 8 should overflow");
    assert_eq!(cp.total, tr.end());
    assert_eq!(cp.baseline, tr.end());
}

/// The analyzer is post-hoc: a traced run's RunStats (trace stripped) are
/// bit-identical to an untraced run, and re-analysis is deterministic.
#[test]
fn analysis_is_deterministic_and_invisible() {
    let spec = AppSpec {
        app: App::Ocean,
        class: OptClass::Orig,
    };
    let plain = spec.run_cfg(PlatformKind::Svm, 4, Scale::Test, RunConfig::new(4));
    let mut t1 = spec.run_cfg(
        PlatformKind::Svm,
        4,
        Scale::Test,
        RunConfig::new(4).with_trace(),
    );
    let tr1 = t1.trace.take().expect("traced");
    assert_eq!(t1, plain, "tracing+analysis input perturbed RunStats");
    let tr2 = traced(App::Ocean, OptClass::Orig, PlatformKind::Svm);
    let (a, b) = (analyze(&tr1), analyze(&tr2));
    assert_eq!(a.steps, b.steps, "path reconstruction is nondeterministic");
    assert_eq!(a.by_cat, b.by_cat);
    assert_eq!(a.total, b.total);
}

/// Zeroing a cost on the DAG can only shorten the path: every projection
/// is an upper bound >= 1.0.
#[test]
fn what_if_projections_are_upper_bounds() {
    for pf in [PlatformKind::Svm, PlatformKind::Smp] {
        let tr = traced(App::Ocean, OptClass::Orig, pf);
        let cp = analyze(&tr);
        let proj = what_if_report(&tr, &cp, 8);
        assert!(!proj.is_empty(), "no projections on {}", pf.name());
        for p in &proj {
            assert!(
                p.speedup >= 1.0,
                "zeroing {:?} slowed the DAG on {}: {}",
                p.target,
                pf.name(),
                p.speedup
            );
            assert!(p.projected <= cp.total, "projection exceeds baseline");
        }
    }
}

/// The paper's Ocean diagnosis, reproduced by the analyzer: the original
/// version's critical path on SVM is dominated by page fetches, and the
/// data-structure reorganization removes most of those fetch cycles from
/// the path (at default scale the path flips to compute-dominated; at test
/// scale the absolute shift is what is measurable).
#[test]
fn ocean_ds_removes_page_fetch_cycles_from_the_path() {
    let orig = analyze(&traced(App::Ocean, OptClass::Orig, PlatformKind::Svm));
    let ds = analyze(&traced(App::Ocean, OptClass::DataStruct, PlatformKind::Svm));
    assert_eq!(
        orig.dominant(),
        PathCat::PageFetch,
        "Ocean/Orig on SVM must be fetch-bound"
    );
    assert!(
        ds.total < orig.total,
        "DS did not shorten the path: {} vs {}",
        ds.total,
        orig.total
    );
    let fetch = PathCat::PageFetch.index();
    assert!(
        ds.by_cat[fetch] < orig.by_cat[fetch],
        "DS did not cut page-fetch cycles on the path: {} vs {}",
        ds.by_cat[fetch],
        orig.by_cat[fetch]
    );
}

const FAMILIES: [PlatformKind; 3] = [PlatformKind::Svm, PlatformKind::Dsm, PlatformKind::Smp];

/// Seeded imbalance: one chosen processor arrives at a barrier 50k cycles
/// late. The recorded barrier exits must name it as the last arriver, and
/// the critical path must run through its extra compute.
#[test]
fn barrier_straggler_is_identified_on_all_families() {
    let n = 4;
    let slow = n - 1;
    for pf in FAMILIES {
        let stats = sim_core::run(pf.boxed(n), RunConfig::new(n).with_trace(), move |p| {
            p.start_timing();
            p.work(1_000 + if p.pid() == slow { 50_000 } else { 0 });
            p.barrier(9);
            p.work(500);
            p.stop_timing();
        });
        let tr = stats.trace.expect("traced");
        // (waiter, last arriver) of every exit from barrier 9 that waited.
        let releases: Vec<(usize, usize)> = (tr.procs.iter().enumerate())
            .flat_map(|(pid, p)| p.events.iter().map(move |e| (pid, e)))
            .filter_map(|(pid, e)| match e.kind {
                EventKind::BarrierExit {
                    barrier: 9,
                    t0,
                    from: (last, _),
                } if e.ts > t0 => Some((pid, last)),
                _ => None,
            })
            .collect();
        for &(_, last) in &releases {
            assert_eq!(last, slow, "{}: wrong straggler identified", pf.name());
        }
        // Every waiter's release is provenanced (the straggler itself may
        // wait out the barrier's own exit overhead).
        let waiters: std::collections::BTreeSet<usize> = releases
            .iter()
            .map(|&(waiter, _)| waiter)
            .filter(|&d| d != slow)
            .collect();
        assert_eq!(waiters.len(), n - 1, "{}: waiters at barrier 9", pf.name());
        let cp = analyze(&tr);
        assert_eq!(cp.total, tr.end(), "{}", pf.name());
        let slow_compute: u64 = cp
            .steps
            .iter()
            .filter(|s| s.pid == slow && s.cat == PathCat::Compute)
            .map(|s| s.cycles())
            .sum();
        assert!(
            slow_compute >= 50_000,
            "{}: path skipped the straggler's extra work ({slow_compute})",
            pf.name()
        );
    }
}

/// Seeded convoy: every processor takes one lock and holds it for 20k
/// cycles, so the run serializes on the handoff chain. The recorded
/// handoffs must link hand to hand (each releaser is the previous holder),
/// every processor must hold exactly once, and the whole chain must appear
/// on the critical path contiguously — consecutive handoffs separated only
/// by the holder's compute.
#[test]
fn lock_convoy_chain_is_contiguous_on_the_path() {
    let n = 4;
    for pf in FAMILIES {
        let stats = sim_core::run(pf.boxed(n), RunConfig::new(n).with_trace(), |p| {
            p.start_timing();
            p.work(p.pid() as u64 * 200 + 1);
            p.lock(0);
            p.work(20_000);
            p.unlock(0);
            p.barrier(0);
            p.stop_timing();
        });
        let tr = stats.trace.expect("traced");
        // The (releaser, grantee) of a grant of lock 0 that waited on
        // another processor. An uncontended acquire may wait out its own
        // protocol cost; the convoy itself is the cross-processor grants.
        let handoff = |pid: usize, e: &sim_core::Event| match e.kind {
            EventKind::LockAcquireGranted {
                lock: 0,
                t0,
                from: (src, _),
            } if src != pid && e.ts > t0 => Some((src, pid)),
            _ => None,
        };
        // Cross handoffs in grant order. Grant order is the platform's to
        // choose — the chain structure is not.
        let mut grants: Vec<(u64, u64, (usize, usize))> = (tr.procs.iter().enumerate())
            .flat_map(|(pid, p)| p.events.iter().map(move |e| (pid, e)))
            .filter_map(|(pid, e)| handoff(pid, e).map(|h| (e.ts, e.seq, h)))
            .collect();
        grants.sort_unstable();
        let expected: Vec<(usize, usize)> = grants.into_iter().map(|(.., h)| h).collect();
        assert_eq!(
            expected.len(),
            n - 1,
            "{}: one handoff per waiter",
            pf.name()
        );
        for w in expected.windows(2) {
            assert_eq!(
                w[1].0,
                w[0].1,
                "{}: releaser is not the previous holder",
                pf.name()
            );
        }
        let holders: std::collections::BTreeSet<usize> =
            expected.iter().map(|&(_, dst)| dst).collect();
        assert_eq!(holders.len(), n - 1, "{}: a waiter held twice", pf.name());

        let cp = analyze(&tr);
        assert_eq!(cp.total, tr.end(), "{}", pf.name());
        let mut chain = Vec::new();
        let mut between_ok = true;
        let mut in_chain = false;
        for s in &cp.steps {
            match s
                .edge
                .and_then(|i| handoff(s.pid, &tr.procs[s.pid].events[i]))
            {
                Some(h) => {
                    chain.push(h);
                    in_chain = true;
                }
                _ => {
                    if in_chain && s.cat != PathCat::Compute && chain.len() < n - 1 {
                        between_ok = false;
                    }
                }
            }
        }
        assert_eq!(
            chain,
            expected,
            "{}: handoff chain broken or out of order on the path",
            pf.name()
        );
        assert!(
            between_ok,
            "{}: non-compute step interleaved inside the convoy chain",
            pf.name()
        );
    }
}
