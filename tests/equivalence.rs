//! Result-equivalence matrix: the same application version must produce an
//! identical output checksum on every platform — five coherence
//! implementations (HLRC, TreadMarks-LRC, SMP-node HLRC, directory CC-NUMA,
//! snooping bus) agreeing bit-for-bit on real application output.

use apps::barnes::{self, BarnesParams, BarnesVersion};
use apps::kvstore::{self, KvParams, KvVersion};
use apps::lu::{self, LuParams, LuVersion};
use apps::ocean::{self, OceanParams, OceanVersion};
use apps::radix::{self, RadixParams, RadixVersion};
use apps::raytrace::{self, RaytraceParams, RaytraceVersion};
use apps::shearwarp::{self, ShearWarpParams, ShearWarpVersion};
use apps::volrend::{self, VolrendParams, VolrendVersion};
use apps::Platform;
use apps::{App, AppSpec, OptClass, Scale};
use sim_core::RunConfig;

const PLATFORMS: [Platform; 5] = [
    Platform::Svm,
    Platform::Tmk,
    Platform::SvmSmpNodes { ppn: 2 },
    Platform::Dsm,
    Platform::Smp,
];

#[test]
fn lu_checksums_agree_everywhere() {
    let params = LuParams {
        n: 32,
        block: 8,
        seed: 3,
    };
    let sums: Vec<u64> = PLATFORMS
        .iter()
        .map(|&pf| lu::run_params(pf, 4, &params, LuVersion::Contig4d).checksum)
        .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

#[test]
fn ocean_checksums_agree_everywhere() {
    let params = OceanParams {
        n: 16,
        steps: 1,
        sweeps: 2,
    };
    let sums: Vec<u64> = PLATFORMS
        .iter()
        .map(|&pf| ocean::run_params(pf, 4, &params, OceanVersion::RowWise).checksum)
        .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

#[test]
fn radix_checksums_agree_everywhere() {
    let params = RadixParams {
        n: 1 << 10,
        passes: 2,
        seed: 5,
    };
    let sums: Vec<u64> = PLATFORMS
        .iter()
        .map(|&pf| radix::run_params(pf, 4, &params, RadixVersion::Orig).checksum)
        .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

#[test]
fn volrend_checksums_agree_everywhere() {
    let params = VolrendParams {
        v: 16,
        frames: 1,
        term: 0.95,
        seed: 11,
    };
    let sums: Vec<u64> = PLATFORMS
        .iter()
        .map(|&pf| volrend::run_params(pf, 4, &params, VolrendVersion::Orig).checksum)
        .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

#[test]
fn shearwarp_checksums_agree_everywhere() {
    let params = ShearWarpParams {
        v: 16,
        frames: 1,
        term: 0.95,
        seed: 11,
    };
    let sums: Vec<u64> = PLATFORMS
        .iter()
        .map(|&pf| shearwarp::run_params(pf, 4, &params, ShearWarpVersion::Repartitioned).checksum)
        .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

#[test]
fn raytrace_checksums_agree_everywhere() {
    let params = RaytraceParams {
        img: 16,
        flake_depth: 1,
    };
    let sums: Vec<u64> = PLATFORMS
        .iter()
        .map(|&pf| raytrace::run_params(pf, 4, &params, RaytraceVersion::SplitQueues).checksum)
        .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

#[test]
fn kv_checksums_agree_everywhere() {
    let params = KvParams {
        keys: 128,
        reqs_per_proc: 48,
        theta: 0.9,
        read_pct: 70,
        seed: 11,
        racy_headers: false,
    };
    let sums: Vec<u64> = PLATFORMS
        .iter()
        .map(|&pf| kvstore::run_params(pf, 4, &params, KvVersion::Stealing).checksum)
        .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

#[test]
fn barnes_runs_on_every_platform() {
    // Barnes checksums vary in the last float bits across platforms
    // (mass-summation order differs with scheduling); each platform is
    // already verified against the sequential reference inside run_params,
    // so here we only require successful verified completion everywhere.
    let params = BarnesParams {
        n: 64,
        steps: 2,
        theta: 0.9,
        dt: 0.025,
        seed: 42,
    };
    for pf in PLATFORMS {
        let r = barnes::run_params(pf, 4, &params, BarnesVersion::SharedTree);
        assert!(r.stats.total_cycles() > 0);
    }
}

// ---- scalar-vs-bulk equivalence ----
//
// The bulk fast path (`Proc::load_slice` & friends, `RunConfig::bulk`) must
// be *bit-identical* in simulated time to the word-at-a-time scalar path:
// same clocks, same per-phase bucket breakdowns, same protocol counters,
// same race reports. One test per application sweeps every optimization
// class x the five platform configurations above, plus HLRC with 1 KiB
// pages, x detector on/off — the only check of each platform's
// `free_extent`, so TreadMarks, the sibling-invalidating multi-processor
// SVM nodes and extents cut at a second page size are included — plus the
// Alg class with a quantum so large that `clock + quantum` saturates and
// nobody ever yields.

fn assert_scalar_bulk_identical(app: App) {
    let default_quantum = RunConfig::new(4).quantum;
    let mut inputs: Vec<(OptClass, bool, u64)> = OptClass::ALL
        .iter()
        .flat_map(|&class| [false, true].map(|detect| (class, detect, default_quantum)))
        .collect();
    inputs.push((OptClass::Algorithm, false, u64::MAX));
    let one_kib_pages = Platform::SvmTuned {
        page_shift: 10,
        net_scale_pct: 100,
    };
    for (class, detect, quantum) in inputs {
        for pf in PLATFORMS.into_iter().chain([one_kib_pages]) {
            let spec = AppSpec { app, class };
            let mk = || {
                let mut cfg = RunConfig {
                    quantum,
                    ..RunConfig::new(4)
                };
                if detect {
                    cfg = cfg.with_race_detection();
                }
                cfg
            };
            let bulk = spec.run_cfg(pf, 4, Scale::Test, mk());
            let scalar = spec.run_cfg(pf, 4, Scale::Test, mk().scalar_reference());
            assert_eq!(
                bulk,
                scalar,
                "bulk and scalar RunStats diverge: {}/{} on {:?} detector={} quantum={}",
                app.name(),
                class.label(),
                pf,
                detect,
                quantum
            );
        }
    }
}

#[test]
fn scalar_vs_bulk_lu() {
    assert_scalar_bulk_identical(App::Lu);
}

#[test]
fn scalar_vs_bulk_ocean() {
    assert_scalar_bulk_identical(App::Ocean);
}

#[test]
fn scalar_vs_bulk_volrend() {
    assert_scalar_bulk_identical(App::Volrend);
}

#[test]
fn scalar_vs_bulk_shearwarp() {
    assert_scalar_bulk_identical(App::ShearWarp);
}

#[test]
fn scalar_vs_bulk_raytrace() {
    assert_scalar_bulk_identical(App::Raytrace);
}

#[test]
fn scalar_vs_bulk_barnes() {
    assert_scalar_bulk_identical(App::Barnes);
}

#[test]
fn scalar_vs_bulk_radix() {
    assert_scalar_bulk_identical(App::Radix);
}

#[test]
fn scalar_vs_bulk_kv() {
    assert_scalar_bulk_identical(App::Kv);
}

#[test]
fn version_checksums_agree_within_a_platform() {
    // Different restructured versions compute the same answer.
    let params = VolrendParams {
        v: 16,
        frames: 1,
        term: 0.95,
        seed: 11,
    };
    let sums: Vec<u64> = [
        VolrendVersion::Orig,
        VolrendVersion::PadQueues,
        VolrendVersion::Image4d,
        VolrendVersion::Balanced,
        VolrendVersion::BalancedNoSteal,
    ]
    .iter()
    .map(|&v| volrend::run_params(Platform::Svm, 4, &params, v).checksum)
    .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}
