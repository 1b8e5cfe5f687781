//! Paper-scale smoke tests, ignored by default: the simulator executes
//! every shared access, so each takes seconds rather than milliseconds.
//! Timed in release with `--test-threads=1` on a 2-vCPU Xeon host (median
//! of three): LU 8.9 s, Radix 2.0 s, Barnes 2.2 s. Run with
//! `cargo test --release --test paper_scale -- --ignored`.

use apps::{App, AppSpec, OptClass};
use svm_restructure::prelude::*;

#[test]
#[ignore = "full paper problem size: 8.9 s in release"]
fn lu_paper_scale_runs_and_verifies() {
    // 1024x1024 matrix, 32x32 blocks — the paper's exact configuration.
    let stats = AppSpec {
        app: App::Lu,
        class: OptClass::Algorithm,
    }
    .run(PlatformKind::Svm, 16, Scale::Paper);
    assert!(stats.total_cycles() > 0);
}

#[test]
#[ignore = "full paper problem size: 2.0 s in release"]
fn radix_paper_scale_runs_and_verifies() {
    // 4M integers, radix 1024 — the paper's exact configuration.
    let stats = AppSpec {
        app: App::Radix,
        class: OptClass::Orig,
    }
    .run(PlatformKind::Svm, 16, Scale::Paper);
    assert!(stats.total_cycles() > 0);
}

#[test]
#[ignore = "full paper problem size: 2.2 s in release"]
fn barnes_paper_scale_runs_and_verifies() {
    // 16K particles — the paper's exact configuration.
    let stats = AppSpec {
        app: App::Barnes,
        class: OptClass::Algorithm,
    }
    .run(PlatformKind::Svm, 16, Scale::Paper);
    assert!(stats.total_cycles() > 0);
}
