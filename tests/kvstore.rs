//! End-to-end grid for the KV-store workload (the suite's server-shaped
//! member): the Orig → P/A → DS → Alg journey must actually pay off at
//! default scale on every platform model, the workload must be bit-identical
//! under the sharded engine against the sequential oracle, and the race detector must hold the line — zero races on the
//! data-race-free configuration, a guaranteed catch on the seeded racy twin.

use apps::kvstore::{self, KvParams, KvVersion};
use apps::{App, AppSpec, OptClass, Platform, Scale};
use sim_core::RunConfig;

const ALL_FOUR: [Platform; 4] = [Platform::Svm, Platform::Tmk, Platform::Dsm, Platform::Smp];

/// Small-but-contended parameters for grid tests (32 buckets, so the
/// bucket count divides every processor count the grids use).
fn test_params() -> KvParams {
    KvParams::at(Scale::Test)
}

/// The restructuring journey delivers at default scale: each class is at
/// least as fast as the one before on every platform, and the algorithmic
/// end point beats the original by a wide margin (the acceptance
/// criterion). Simulated virtual time, P = 8.
#[test]
fn default_scale_journey_improves_on_every_platform() {
    let params = KvParams::at(Scale::Default);
    for pf in ALL_FOUR {
        let cycles: Vec<u64> = [
            KvVersion::Dense,
            KvVersion::Padded,
            KvVersion::Sharded,
            KvVersion::Stealing,
        ]
        .iter()
        .map(|&v| kvstore::run_params(pf, 8, &params, v).stats.total_cycles())
        .collect();
        assert!(
            cycles.windows(2).all(|w| w[1] <= w[0]),
            "{}: journey not monotone: {cycles:?}",
            pf.name()
        );
        let (orig, alg) = (cycles[0], cycles[3]);
        assert!(
            alg * 2 < orig,
            "{}: Alg ({alg}) does not beat Orig ({orig}) at default scale",
            pf.name()
        );
    }
}

/// The differential criterion: every class on every platform, shards ∈
/// {2, 4} — all bit-identical to the sequential oracle.
#[test]
fn shard_engines_are_bit_identical_for_every_class_and_platform() {
    for pf in ALL_FOUR {
        for class in OptClass::ALL {
            let spec = AppSpec {
                app: App::Kv,
                class,
            };
            let oracle = spec.run_cfg(pf, 4, Scale::Test, RunConfig::new(4).with_shards(1));
            for shards in [2, 4] {
                let cfg = RunConfig::new(4).with_shards(shards);
                let sharded = spec.run_cfg(pf, 4, Scale::Test, cfg);
                assert_eq!(
                    oracle,
                    sharded,
                    "KV/{} on {}: shards={shards} diverged from oracle",
                    class.label(),
                    pf.name()
                );
            }
        }
    }
}

/// Every optimization class of the KV store is data-race-free under the
/// happens-before detector on all three study platforms.
#[test]
fn drf_configuration_has_zero_races() {
    for pf in [Platform::Svm, Platform::Dsm, Platform::Smp] {
        for class in OptClass::ALL {
            let spec = AppSpec {
                app: App::Kv,
                class,
            };
            let stats = spec.run_cfg(pf, 4, Scale::Test, RunConfig::new(4).with_race_detection());
            assert_eq!(
                stats.races(),
                0,
                "{} on {} raced:\n{}",
                spec.label(),
                pf.name(),
                stats.race_summary()
            );
        }
    }
}

/// The seeded racy twin (bucket statistics header bumped outside the
/// bucket lock) is flagged on every study platform, and the report names
/// the offending allocation.
#[test]
fn racy_header_twin_is_flagged() {
    let params = KvParams {
        racy_headers: true,
        ..test_params()
    };
    for pf in [Platform::Svm, Platform::Dsm, Platform::Smp] {
        let r = kvstore::run_params_cfg(
            pf,
            4,
            &params,
            KvVersion::Dense,
            RunConfig::new(4)
                .with_race_detection()
                .named("kv-racy-twin"),
        );
        assert!(
            r.stats.races() > 0,
            "{}: racy header twin not flagged",
            pf.name()
        );
        let text = r.stats.race_summary();
        assert!(
            text.contains("kv_headers"),
            "{}: report does not name the header allocation: {text}",
            pf.name()
        );
    }
}

/// Checksums agree across all five coherence implementations and across
/// all four versions within a platform (every run is additionally verified
/// against the sequential reference inside `run_params`).
#[test]
fn checksums_agree_across_platforms_and_versions() {
    let params = test_params();
    let mut sums = Vec::new();
    for pf in [
        Platform::Svm,
        Platform::Tmk,
        Platform::SvmSmpNodes { ppn: 2 },
        Platform::Dsm,
        Platform::Smp,
    ] {
        sums.push(kvstore::run_params(pf, 4, &params, KvVersion::Stealing).checksum);
    }
    for v in [KvVersion::Dense, KvVersion::Padded, KvVersion::Sharded] {
        sums.push(kvstore::run_params(Platform::Svm, 4, &params, v).checksum);
    }
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
}

/// The workload degenerates gracefully to one processor (every version,
/// including the stealing loop, which then has nobody to steal from).
#[test]
fn uniprocessor_runs_every_version() {
    for v in [
        KvVersion::Dense,
        KvVersion::Padded,
        KvVersion::Sharded,
        KvVersion::Stealing,
    ] {
        let r = kvstore::run_params(Platform::Svm, 1, &test_params(), v);
        assert!(r.stats.total_cycles() > 0, "{v:?}");
    }
}
