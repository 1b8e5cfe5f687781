//! Event-trace invariants: tracing must be invisible (statistics
//! bit-identical with it on or off), deterministic, structurally sound
//! (phase events nest and cover the timed region), and populated on every
//! platform family; the Chrome export must be well-formed JSON.

use apps::{App, AppSpec, OptClass};
use sim_core::{EventKind, RunConfig};
use svm_restructure::prelude::*;

fn run_cell(pf: PlatformKind, cfg: RunConfig) -> RunStats {
    AppSpec {
        app: App::Ocean,
        class: OptClass::Orig,
    }
    .run_cfg(pf, 4, Scale::Test, cfg)
}

#[test]
fn tracing_is_invisible_on_all_platforms() {
    for pf in [
        PlatformKind::Svm,
        PlatformKind::Dsm,
        PlatformKind::Smp,
        PlatformKind::Tmk,
    ] {
        let plain = run_cell(pf, RunConfig::new(4));
        let mut traced = run_cell(pf, RunConfig::new(4).with_trace());
        let tr = traced.trace.take().expect("tracing was requested");
        assert!(tr.total_events() > 0, "{pf:?}: empty trace");
        assert_eq!(tr.dropped_events(), 0, "{pf:?}: default cap overflowed");
        // With the trace stripped, the runs must be bit-identical.
        assert_eq!(traced, plain, "{pf:?}: tracing perturbed the run");
    }
}

#[test]
fn traced_runs_are_deterministic() {
    let a = run_cell(PlatformKind::Svm, RunConfig::new(4).with_trace());
    let b = run_cell(PlatformKind::Svm, RunConfig::new(4).with_trace());
    assert_eq!(a, b, "same traced run twice must match, trace included");
}

#[test]
fn phase_events_nest_and_cover_the_timed_region() {
    // Barnes switches phases every timestep; the per-proc event streams
    // must bracket the whole timed region in matched Begin/End pairs.
    let mut stats = AppSpec {
        app: App::Barnes,
        class: OptClass::Algorithm,
    }
    .run_cfg(
        PlatformKind::Svm,
        4,
        Scale::Test,
        RunConfig::new(4).with_trace(),
    );
    let tr = stats.trace.take().expect("tracing was requested");
    assert_eq!(tr.phase_name(0), "tree-build", "app names not registered");
    for (pid, p) in tr.procs.iter().enumerate() {
        let mut depth = 0i64;
        let mut begins = 0u64;
        let mut ends = 0u64;
        let mut current: Option<usize> = None;
        for e in &p.events {
            assert!(e.ts <= p.end, "p{pid}: event after the proc's clock");
            match e.kind {
                EventKind::PhaseBegin { phase } => {
                    depth += 1;
                    begins += 1;
                    current = Some(phase);
                }
                EventKind::PhaseEnd { phase } => {
                    depth -= 1;
                    ends += 1;
                    assert_eq!(
                        Some(phase),
                        current,
                        "p{pid}: PhaseEnd does not match the open phase"
                    );
                }
                _ => {}
            }
            assert!((0..=1).contains(&depth), "p{pid}: phases must not nest");
        }
        assert_eq!(depth, 0, "p{pid}: unterminated phase");
        assert_eq!(begins, ends);
        assert!(begins >= 2, "p{pid}: Barnes must switch phases");
        let first = p.events.first().expect("nonempty");
        assert!(
            matches!(first.kind, EventKind::PhaseBegin { .. }) && first.ts == 0,
            "p{pid}: timed region must open with a PhaseBegin at cycle 0"
        );
        let last_phase_end = p
            .events
            .iter()
            .rev()
            .find(|e| matches!(e.kind, EventKind::PhaseEnd { .. }))
            .expect("has a PhaseEnd");
        assert_eq!(
            last_phase_end.ts, p.end,
            "p{pid}: final PhaseEnd must close at the settled clock"
        );
    }
}

#[test]
fn wait_histograms_populate_on_all_platform_families() {
    for pf in [PlatformKind::Svm, PlatformKind::Dsm, PlatformKind::Smp] {
        let mut stats = run_cell(pf, RunConfig::new(4).with_trace());
        let tr = stats.trace.take().expect("tracing was requested");
        let (fetch, lock, barrier) = tr.merged_hists();
        assert!(fetch.count() > 0, "{pf:?}: no data-latency samples");
        assert!(lock.count() > 0, "{pf:?}: no lock-wait samples");
        assert!(barrier.count() > 0, "{pf:?}: no barrier-wait samples");
        // The histogram totals are real latencies: bounded by the run.
        assert!(fetch.max() <= tr.end());
        assert!(barrier.max() <= tr.end());
    }
}

#[test]
fn chrome_export_is_well_formed_for_ocean_on_svm() {
    let mut stats = run_cell(PlatformKind::Svm, RunConfig::new(4).with_trace());
    let tr = stats.trace.take().expect("tracing was requested");
    let json = tr.to_chrome_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    // Metadata, duration, and instant records must all be present.
    for ph in ["\"ph\":\"M\"", "\"ph\":\"X\"", "\"ph\":\"i\""] {
        assert!(json.contains(ph), "missing {ph} records");
    }
    // Ocean takes locks: the export must carry flow arrows for handoffs.
    assert!(
        json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
        "missing lock-handoff flow arrows"
    );
    // Brace/bracket balance outside string literals — a structural JSON
    // check with no parser dependency.
    let (mut depth, mut in_str, mut esc_next) = (0i64, false, false);
    for c in json.chars() {
        if esc_next {
            esc_next = false;
            continue;
        }
        match c {
            '\\' if in_str => esc_next = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(!in_str, "unterminated string");
}

#[test]
fn tracing_is_invisible_under_sharding() {
    // The trace layer must stay an observer on the generate/replay engine:
    // a traced sharded run, trace stripped, equals the untraced sharded
    // run — and the trace itself is the sequential engine's (asserted
    // stream-for-stream in tests/shard_equivalence.rs).
    for pf in [
        PlatformKind::Svm,
        PlatformKind::Dsm,
        PlatformKind::Smp,
        PlatformKind::Tmk,
    ] {
        let plain = run_cell(pf, RunConfig::new(4).with_shards(4));
        let mut traced = run_cell(pf, RunConfig::new(4).with_shards(4).with_trace());
        let tr = traced.trace.take().expect("tracing was requested");
        assert!(tr.total_events() > 0, "{pf:?}: empty sharded trace");
        assert_eq!(traced, plain, "{pf:?}: tracing perturbed the sharded run");
    }
}

#[test]
fn drop_counters_are_shard_count_independent_at_equal_caps() {
    // Audit result, pinned by regression: the event buffers (and their
    // drop counters) live solely in the replay-side trace sink — the
    // sharded engine adds no per-shard buffers — so at equal caps the
    // dropped totals cannot depend on the shard count.
    let tight = |shards: usize| {
        RunConfig::new(4)
            .with_shards(shards)
            .with_trace()
            .with_diag_cap(4)
    };
    let seq = run_cell(PlatformKind::Svm, tight(1))
        .trace
        .expect("tracing was requested");
    for shards in [2, 4] {
        let shd = run_cell(PlatformKind::Svm, tight(shards))
            .trace
            .expect("tracing was requested");
        assert!(seq.dropped_events() > 0, "cap of 4 should overflow");
        assert_eq!(
            seq.dropped_events(),
            shd.dropped_events(),
            "shards={shards}: event-drop total depends on shard count"
        );
    }
}

#[test]
fn trace_cap_drops_events_without_perturbing_the_run() {
    let plain = run_cell(PlatformKind::Svm, RunConfig::new(4));
    let mut traced = run_cell(
        PlatformKind::Svm,
        RunConfig::new(4).with_trace().with_diag_cap(8),
    );
    let tr = traced.trace.take().expect("tracing was requested");
    assert!(tr.dropped_events() > 0, "cap of 8 should overflow");
    for p in &tr.procs {
        assert!(p.events.len() <= 8, "cap not enforced");
    }
    assert_eq!(traced, plain, "a full buffer must not perturb the run");
}
