//! Golden digests of every diagnostic layer's *absolute* output.
//!
//! The other diagnostic suites pin relations — engines agree, layers are
//! invisible, reports are deterministic — but not content, so a refactor
//! of how protocol activity reaches the sinks could change every trace,
//! series and profile consistently and still pass them. This file pins
//! content: an FNV-1a digest of the full `RunTrace` (per-proc events with
//! their sequence numbers, wait histograms, drop counters), of the
//! metrics, sharing-profile and advisor JSON, of the trace renderers
//! (Chrome JSON with metrics counter tracks, ASCII timeline, wait report)
//! and of the critical-path analysis (report, attribution, steps,
//! resources with their waits, what-if projections), for six cells at
//! Test scale on 4 processors, each on the sequential engine and on
//! `with_shards(2)` (fused replay).
//!
//! The metrics, sharing and advisor digests were taken at the commit
//! *before* the protocol event stream (`sim_core::probe`) replaced the
//! per-sink call sites; the renderer digest at the commit before the
//! Chrome export and the ASCII timeline were rewritten over one walk of
//! the events; the critical-path digest at the commit before the stall
//! model moved from a separate dependency-edge buffer onto the trace's
//! per-processor events. The trace digest was re-pinned by that move: a
//! stall-ending event now carries its wait's start and provenance, and
//! untraced misses and settles are recorded. A mismatch prints the whole
//! actual table; replace `GOLDEN` with it only when a change to diagnostic
//! content is intended and explained.

use apps::{App, AppSpec, OptClass};
use sim_core::critpath::{analyze, waits, what_if_report};
use sim_core::{advise, RunConfig, RunStats, RunTrace};
use std::fmt::Write as _;
use svm_restructure::prelude::*;

/// Sampling interval for test-scale cells (as in `tests/advisor.rs`).
const IV: u64 = 1 << 17;

const CELLS: [(App, OptClass, PlatformKind); 6] = [
    (App::Ocean, OptClass::Orig, PlatformKind::Svm),
    (App::Kv, OptClass::PadAlign, PlatformKind::Svm),
    (App::Ocean, OptClass::Orig, PlatformKind::Tmk),
    (App::Kv, OptClass::PadAlign, PlatformKind::Tmk),
    (App::Ocean, OptClass::Orig, PlatformKind::Dsm),
    (App::Ocean, OptClass::Orig, PlatformKind::Smp),
];

/// `[trace, metrics, sharing, advisor, renderers, critpath]` per cell, in
/// `CELLS` order.
#[rustfmt::skip]
const GOLDEN: [[u64; 6]; 6] = [
    [0xbf2fc5b70fa02b81, 0x7a01f7bc7ac8a6d6, 0xcf5cf9ce8149330b, 0x0b25da54d7840b20, 0xe9014c9fc3c4150b, 0x05fb1d1a606e2887],
    [0xd080c1aa550637ba, 0x061185012fb07cd8, 0xd31cdec93617a73a, 0xab8679ff5a68d931, 0xfe1a4ffc14b51879, 0x8c7aec39f16e58a5],
    [0x14917f785586539d, 0xb87ff94f0d3654e1, 0xfa769d7ff5f726c0, 0xc5b9ad6fb1de6147, 0x309f227c65a74df1, 0xdd75001664d537e4],
    [0x68ec2938847d2f9e, 0xea27c91d850000bb, 0x7c952b7b554a2df0, 0xccc6ba6469025ec5, 0x556571c5c08c8be1, 0x83b56d3cc33d7755],
    [0xf409e75e64a1f76f, 0x9aa78a854cfc2c17, 0xf8e5ed75f9a13475, 0xa4adffea3354e94e, 0x4697aa9efa247ce9, 0xd00f54abb87679cf],
    [0x7f02101cc9ab5db8, 0xfc347966219e6b07, 0xf8e5ed75f9a13475, 0xfcfbc6bb8eb655d1, 0xf1d2b8b59ae830a0, 0x2600528b9f942e8d],
];

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything a `RunTrace` records, one line per item.
fn trace_text(t: &RunTrace) -> String {
    let mut s = String::new();
    for (pid, p) in t.procs.iter().enumerate() {
        let _ = writeln!(s, "proc {pid} end={} dropped={}", p.end, p.dropped);
        for e in &p.events {
            let _ = writeln!(s, "{} {} {:?}", e.ts, e.seq, e.kind);
        }
        for h in [&p.fetch_wait, &p.lock_wait, &p.barrier_wait] {
            let _ = writeln!(s, "{}", h.to_json());
        }
    }
    s
}

/// Everything the critical-path analysis derives from a trace.
fn critpath_text(tr: &RunTrace) -> String {
    let cp = analyze(tr);
    let mut s = cp.report(tr, usize::MAX);
    let _ = writeln!(
        s,
        "{} {} {} {:?} {:?}",
        cp.total, cp.end, cp.baseline, cp.by_cat, cp.by_phase
    );
    for st in &cp.steps {
        let _ = writeln!(s, "{} {} {} {:?}", st.pid, st.t0, st.t1, st.cat);
    }
    for r in &cp.resources {
        let _ = writeln!(s, "{r:?} {:?}", waits(tr, &cp, &r.target));
    }
    for p in what_if_report(tr, &cp, usize::MAX) {
        let _ = writeln!(s, "{p:?}");
    }
    s
}

fn digests(stats: &RunStats) -> [u64; 6] {
    let trace = stats.trace.as_ref().expect("trace layer on");
    assert_eq!(trace.dropped_events(), 0, "golden cells must fit the cap");
    let metrics = stats.metrics.as_ref().expect("metrics layer on");
    let rendered = trace.to_chrome_json_with(Some(metrics))
        + &trace.ascii_timeline(100)
        + &trace.wait_report();
    [
        fnv1a(&trace_text(trace)),
        fnv1a(&metrics.to_json()),
        fnv1a(&stats.sharing.as_ref().expect("sharing layer on").to_json()),
        fnv1a(&advise(stats).to_json()),
        fnv1a(&rendered),
        fnv1a(&critpath_text(trace)),
    ]
}

fn layered(shards: usize) -> RunConfig {
    RunConfig::new(4)
        .with_shards(shards)
        .with_sharing_profile()
        .with_trace()
        .with_metrics(IV)
}

fn run(cell: (App, OptClass, PlatformKind), cfg: RunConfig) -> RunStats {
    let (app, class, pf) = cell;
    AppSpec { app, class }.run_cfg(pf, 4, Scale::Test, cfg)
}

#[test]
fn diagnostic_content_matches_the_pre_refactor_digests() {
    let mut actual = [[0u64; 6]; 6];
    for (i, &cell) in CELLS.iter().enumerate() {
        actual[i] = digests(&run(cell, layered(1)));
        assert_eq!(
            actual[i],
            digests(&run(cell, layered(2))),
            "{cell:?}: fused replay diverged from the sequential engine"
        );
    }
    if actual != GOLDEN {
        let mut table = String::new();
        for row in actual {
            let _ = writeln!(
                table,
                "    [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}],",
                row[0], row[1], row[2], row[3], row[4], row[5]
            );
        }
        panic!("diagnostic content changed; actual digests:\n{table}");
    }
}

/// Timed statistics are bit-identical with any subset of the three
/// stream-fed layers on or off.
#[test]
fn every_subset_of_layers_is_invisible() {
    let cell = CELLS[0];
    let plain = run(cell, RunConfig::new(4));
    for mask in 1u32..8 {
        let mut cfg = RunConfig::new(4);
        if mask & 1 != 0 {
            cfg = cfg.with_sharing_profile();
        }
        if mask & 2 != 0 {
            cfg = cfg.with_trace();
        }
        if mask & 4 != 0 {
            cfg = cfg.with_metrics(IV);
        }
        let on = run(cell, cfg);
        assert_eq!(
            plain.procs, on.procs,
            "layer mask {mask:#b} perturbed stats"
        );
        assert_eq!(
            plain.clocks, on.clocks,
            "layer mask {mask:#b} perturbed clocks"
        );
        assert_eq!(on.sharing.is_some(), mask & 1 != 0);
        assert_eq!(on.trace.is_some(), mask & 2 != 0);
        assert_eq!(on.metrics.is_some(), mask & 4 != 0);
    }
}
