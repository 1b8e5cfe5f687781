//! Advisor invariants (diagnostics layer 4+): the rule engine that fuses
//! the sharing profile, critical-path what-ifs and interval trajectories
//! must recommend the transformation family the paper's next
//! hand-restructured class actually implements (pinned for KV, Ocean and
//! the seeded migratory/false-sharing twins on the page-based platforms),
//! its projected bounds must be true upper bounds (>= 1.0, family unions
//! dominating each member's critpath bound), and the report must be
//! field-identical across the sequential and fused engines and
//! byte-identical as JSON across repeated runs.

use apps::{App, AppSpec, OptClass};
use sim_core::advisor::{advise, Action, AdvisorReport, Family};
use sim_core::{PageTrajectory, RunConfig, HEAP_BASE, PAGE_SIZE};
use svm_restructure::prelude::*;

/// Page-based platforms: the paper's SVM tier, where all three layers
/// (sharing profile included) are populated.
const PAGE_BASED: [PlatformKind; 2] = [PlatformKind::Svm, PlatformKind::Tmk];

/// Sampling interval for test-scale cells: must dwarf the serialized
/// page-fetch spread (~16k cycles on SVM) so one round's concurrent
/// writers land in the same interval (see `tests/metrics.rs`).
const IV: u64 = 1 << 17;

fn layered(n: usize, iv: u64) -> RunConfig {
    RunConfig::new(n)
        .with_sharing_profile()
        .with_trace()
        .with_metrics(iv)
}

fn run_cell(pf: PlatformKind, app: App, class: OptClass, cfg: RunConfig) -> RunStats {
    AppSpec { app, class }.run_cfg(pf, 4, Scale::Test, cfg)
}

/// The invariants every advisor report must satisfy, whatever the cell.
fn check_invariants(rep: &AdvisorReport, what: &str) {
    for r in &rep.recs {
        assert!(r.speedup >= 1.0, "{what}: bound < 1.0 for {:?}", r.action);
        assert!(
            r.projected <= rep.end,
            "{what}: projection above end for {:?}",
            r.action
        );
        assert_eq!(r.family, r.action.family(), "{what}: family mismatch");
        assert!(
            !r.evidence.notes.is_empty(),
            "{what}: evidence-free recommendation {:?}",
            r.action
        );
    }
    // A family union zeroes a superset of each member's edges, so its
    // bound must dominate every member's individual critpath bound.
    for f in &rep.families {
        assert!(f.speedup >= 1.0, "{what}: family bound < 1.0");
        for r in rep.recs.iter().filter(|r| r.family == f.family) {
            assert!(
                f.projected <= r.projected && f.speedup >= r.speedup,
                "{what}: family {} bound does not dominate {:?}",
                f.family.label(),
                r.action
            );
        }
    }
}

fn has_action(rep: &AdvisorReport, f: impl Fn(&Action) -> bool) -> bool {
    rep.recs.iter().any(|r| f(&r.action))
}

#[test]
fn kv_orig_gets_padding_and_affinity_homes() {
    // The paper's KV journey: Orig (dense records) -> P/A (grain-padded
    // records) -> DS (owner-sharded, affinity-routed). The advisor on Orig
    // must surface both: pad `kv_headers`, and shard/home by affinity.
    for pf in PAGE_BASED {
        let stats = run_cell(pf, App::Kv, OptClass::Orig, layered(4, IV));
        let rep = advise(&stats);
        check_invariants(&rep, &format!("kv {pf:?}"));
        assert!(rep.has_sharing && rep.has_trace && rep.has_metrics);
        assert!(
            has_action(&rep, |a| matches!(
                a,
                Action::PadAllocation { label } if label == "kv_headers"
            )),
            "{pf:?}: kv_headers padding not recommended:\n{}",
            rep.report()
        );
        assert!(
            has_action(&rep, |a| matches!(
                a,
                Action::MigrateHome { label } if label.starts_with("kv_")
            )),
            "{pf:?}: bucket-affinity homes not recommended:\n{}",
            rep.report()
        );
        // The next hand-written class is P/A and the top recommendation
        // agrees: dense header records crowd one coherence grain.
        assert_eq!(
            rep.next_family(),
            Some(Family::PadAlign),
            "{pf:?}: top recommendation family changed:\n{}",
            rep.report()
        );
        assert_eq!(rep.recs[0].action.label(), Some("kv_headers"));
    }
}

#[test]
fn kv_family_bound_dominates_measured_pa_speedup() {
    // The tentpole's headline: the advisor's combined P/A bound must
    // dominate the speedup the hand-written P/A class actually measures
    // at the same scale (the bound zeroes all protocol traffic on the
    // padded labels; padding can only remove the false-sharing part).
    let orig = run_cell(PlatformKind::Svm, App::Kv, OptClass::Orig, layered(4, IV));
    let rep = advise(&orig);
    let pa = run_cell(
        PlatformKind::Svm,
        App::Kv,
        OptClass::PadAlign,
        RunConfig::new(4),
    );
    let measured = orig.total_cycles() as f64 / pa.total_cycles() as f64;
    let bound = rep
        .family(Family::PadAlign)
        .expect("P/A rules fired on KV Orig");
    assert!(
        bound.speedup >= measured,
        "P/A family bound {:.3}x must dominate measured P/A speedup {:.3}x",
        bound.speedup,
        measured
    );
}

#[test]
fn ocean_orig_psi_routes_to_ds_at_default_scale() {
    // Ocean Orig's unpadded psi grid is the paper's flagship false-sharing
    // case — and the fix that works is the DS-tier 4-d reorganization, not
    // padding, because the sharing regime shifts with the red-black sweep
    // phase (`tests/metrics.rs` pins the PhaseShifting trajectory). The
    // advisor must fuse those two facts into a DS recommendation for psi.
    let stats = AppSpec {
        app: App::Ocean,
        class: OptClass::Orig,
    }
    .run_cfg(PlatformKind::Svm, 16, Scale::Default, layered(16, 1 << 18));
    let rep = advise(&stats);
    check_invariants(&rep, "ocean default");
    let psi = rep.for_label("psi");
    assert!(
        !psi.is_empty(),
        "no recommendation for psi:\n{}",
        rep.report()
    );
    assert!(
        psi.iter().all(|r| r.family == Family::DataStruct),
        "psi must route to the DS tier, not P/A:\n{}",
        rep.report()
    );
    assert!(
        psi.iter()
            .any(|r| matches!(r.action, Action::HomeAlign { .. })),
        "psi fix is the contiguous per-writer reorganization:\n{}",
        rep.report()
    );
    let top = &psi[0];
    assert_eq!(
        top.evidence.trajectory,
        Some(PageTrajectory::PhaseShifting),
        "psi evidence must carry the phase-shifting trajectory"
    );
    assert!(
        top.evidence.false_share.unwrap_or(0.0) > 0.10,
        "psi evidence must carry the false-sharing fraction"
    );
}

#[test]
fn ocean_orig_test_scale_pins_on_page_platforms() {
    // At test scale psi's false sharing is steady (one interior page), so
    // the padding tier is the advisor's first move — matching the paper's
    // class order Orig -> P/A — and psi carries the top recommendation on
    // every page-based platform.
    for pf in PAGE_BASED {
        let stats = run_cell(pf, App::Ocean, OptClass::Orig, layered(4, IV));
        let rep = advise(&stats);
        check_invariants(&rep, &format!("ocean {pf:?}"));
        assert_eq!(
            rep.recs[0].action.label(),
            Some("psi"),
            "{pf:?}: psi dominates Ocean Orig:\n{}",
            rep.report()
        );
        let fams: Vec<Family> = rep.recs.iter().map(|r| r.family).collect();
        assert!(
            fams.contains(&Family::PadAlign) || fams.contains(&Family::DataStruct),
            "{pf:?}: no P/A or DS recommendation:\n{}",
            rep.report()
        );
    }
}

/// The seeded trajectory twins from `tests/metrics.rs`, with all three
/// layers on: turn-taking whole-page writers vs concurrent disjoint-word
/// writers on one labeled page.
fn twin_stats(pf: PlatformKind, false_twin: bool) -> RunStats {
    let n = 4usize;
    run(
        pf.boxed(n),
        layered(n, IV).named(if false_twin {
            "steady-false-twin"
        } else {
            "migratory-kernel"
        }),
        move |p| {
            if p.pid() == 0 {
                let a = p.alloc_shared_labeled("grid", PAGE_SIZE, PAGE_SIZE, Placement::Node(0));
                for w in 0..32u64 {
                    p.store(a + w * 4, 4, 0);
                }
            }
            p.barrier(0);
            p.start_timing();
            for round in 0..12u64 {
                if false_twin {
                    for w in 0..8u64 {
                        let a = HEAP_BASE + (p.pid() as u64 * 8 + w) * 4;
                        p.store(a, 4, round + 1);
                    }
                } else if round % n as u64 == p.pid() as u64 {
                    for w in 0..32u64 {
                        p.store(HEAP_BASE + w * 4, 4, round + 1);
                    }
                }
                p.work(2 * IV);
                p.barrier(1 + round as u32);
            }
            p.stop_timing();
        },
    )
}

#[test]
fn twins_get_different_recommendations() {
    // Whole-run sharing profiles cannot tell the twins apart (both have
    // multiple writers with word-disjoint write sets); the advisor must,
    // by fusing the interval trajectory: turn-taking ownership wants an
    // explicit handoff (DS), concurrent disjoint words want padding (P/A).
    for pf in PAGE_BASED {
        let mig = advise(&twin_stats(pf, false));
        check_invariants(&mig, &format!("migratory {pf:?}"));
        assert!(
            has_action(&mig, |a| matches!(
                a,
                Action::SingleWriterHandoff { label } if label == "grid"
            )),
            "{pf:?}: migratory grid wants a handoff:\n{}",
            mig.report()
        );
        assert!(
            !has_action(
                &mig,
                |a| matches!(a, Action::PadAllocation { label } if label == "grid")
            ),
            "{pf:?}: padding does not help a migratory page:\n{}",
            mig.report()
        );

        let fs = advise(&twin_stats(pf, true));
        check_invariants(&fs, &format!("false-twin {pf:?}"));
        assert!(
            has_action(&fs, |a| matches!(
                a,
                Action::PadAllocation { label } if label == "grid"
            )),
            "{pf:?}: steady false sharing wants padding:\n{}",
            fs.report()
        );
        assert!(
            !has_action(&fs, |a| matches!(
                a,
                Action::SingleWriterHandoff { label } if label == "grid"
            )),
            "{pf:?}: nothing migrates in the false twin:\n{}",
            fs.report()
        );
        assert_ne!(
            mig.recs[0].action, fs.recs[0].action,
            "{pf:?}: twins must get different top recommendations"
        );
    }
}

#[test]
fn seeded_lock_kernels_split_vs_batch() {
    // A convoy (long hold times behind one lock) wants the lock split; a
    // chatty lock (many cheap hand-offs) wants work batched per
    // acquisition — the KV Alg class's serve_batch move.
    let kernel = |hold: u64, iters: u64| {
        let stats = run(
            PlatformKind::Svm.boxed(4),
            layered(4, IV).named("lock-kernel"),
            move |p| {
                p.start_timing();
                for _ in 0..iters {
                    p.lock(0);
                    p.work(hold);
                    p.unlock(0);
                    p.work(hold / 4 + 10);
                }
                p.stop_timing();
            },
        );
        advise(&stats)
    };
    let convoy = kernel(20_000, 8);
    check_invariants(&convoy, "convoy");
    assert!(
        has_action(&convoy, |a| matches!(a, Action::SplitLock { lock: 0 })),
        "long holds convoy:\n{}",
        convoy.report()
    );
    let chatty = kernel(60, 300);
    check_invariants(&chatty, "chatty");
    assert!(
        has_action(&chatty, |a| matches!(a, Action::BatchLock { lock: 0 })),
        "cheap hand-offs want batching:\n{}",
        chatty.report()
    );
}

#[test]
fn report_is_engine_identical_and_json_deterministic() {
    // The advisor is a pure function of RunStats, and RunStats is pinned
    // bit-identical across the two engines — so the report (and its
    // JSON) must be too. Byte-identical JSON across repeated runs is the
    // determinism half of the satellite.
    let cfg = || layered(4, IV);
    let seq = run_cell(PlatformKind::Svm, App::Kv, OptClass::Orig, cfg());
    let rep = advise(&seq);
    assert!(!rep.recs.is_empty());
    for shards in [2usize, 4] {
        let fused = run_cell(
            PlatformKind::Svm,
            App::Kv,
            OptClass::Orig,
            cfg().with_shards(shards),
        );
        assert_eq!(
            rep,
            advise(&fused),
            "shards={shards}: fused advisor report differs"
        );
    }
    let again = run_cell(PlatformKind::Svm, App::Kv, OptClass::Orig, cfg());
    assert_eq!(
        rep.to_json(),
        advise(&again).to_json(),
        "JSON not byte-stable"
    );
    assert!(rep.to_json().contains("\"recommendations\""));
}

#[test]
fn hardware_platforms_and_missing_layers_are_tolerated() {
    // Non-page platforms have no sharing profile; the advisor must still
    // produce an invariant-clean report from the remaining layers — and
    // with no layers at all, an empty one.
    for pf in [PlatformKind::Dsm, PlatformKind::Smp] {
        let stats = run_cell(pf, App::Kv, OptClass::Orig, layered(4, IV));
        let rep = advise(&stats);
        check_invariants(&rep, &format!("kv {pf:?}"));
        assert!(rep.has_trace && rep.has_metrics);
    }
    let bare = run_cell(
        PlatformKind::Svm,
        App::Kv,
        OptClass::Orig,
        RunConfig::new(4),
    );
    let rep = advise(&bare);
    assert!(!rep.has_sharing && !rep.has_trace && !rep.has_metrics);
    assert!(rep.recs.is_empty(), "no layers, no evidence, no advice");
}
