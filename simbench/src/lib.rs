//! simbench — host-time benchmark of the simulator.
//!
//! Five workloads (see [`workloads`]) drive the repository through its
//! public entry points only (`apps::<app>::run_params_cfg`, `sim_core::run`,
//! `RunConfig::with_*`, `Cache`, `Resource`, `svm_hlrc::Diff`,
//! `critpath::analyze`, `advise`) and time them with `std::time::Instant`
//! from outside. Every timing is *host* time; simulated statistics are
//! reported as exact counts, which double as the correctness check.
//!
//! * [`workloads`] — the cell lists, seed-derived parameters and the one
//!   function that executes a cell.
//! * [`selfcheck`] — the Test-scale invariants checked during set-up.
//! * [`ledger`] — per-layer micro-kernels (host ns per operation).
//! * [`run`] — one run of one workload: set-up, timed passes, metrics.
//! * [`spans`] — the in-memory span recorder behind `--trace 1`.
//! * [`host`] — manifest, `/proc` readers, CPU confinement.
//! * [`json`], [`compare`] — the reader for result files and the
//!   regression check over two of them.
//!
//! `README.md` next to this crate lists every metric with the reason it
//! exists and the end-to-end number it is expected to move.

pub mod compare;
pub mod host;
pub mod json;
pub mod ledger;
pub mod run;
pub mod selfcheck;
pub mod spans;
pub mod workloads;

use sim_core::Platform;

/// A boxed SVM (HLRC) platform at the paper's configuration.
pub fn svm(n: usize) -> Box<dyn Platform> {
    apps::Platform::Svm.boxed(n)
}

/// A boxed TreadMarks (non-home-based LRC) platform at the paper's
/// configuration.
pub fn tmk(n: usize) -> Box<dyn Platform> {
    apps::Platform::Tmk.boxed(n)
}

/// A boxed CC-NUMA platform at the paper's configuration.
pub fn dsm(n: usize) -> Box<dyn Platform> {
    apps::Platform::Dsm.boxed(n)
}

/// A boxed bus-based SMP platform at the paper's configuration.
pub fn smp(n: usize) -> Box<dyn Platform> {
    apps::Platform::Smp.boxed(n)
}

/// The one-cycle-per-access reference platform: what a ledger kernel costs
/// with no platform pricing at all.
pub fn null(n: usize) -> Box<dyn Platform> {
    Box::new(ledger::ShardableNull::new(n))
}

/// Median of a sample (mean of the middle two for an even count).
///
/// # Panics
/// On an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
