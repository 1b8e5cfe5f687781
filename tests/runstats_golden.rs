//! Golden digests of `RunStats` itself, per (application, platform
//! configuration).
//!
//! `tests/equivalence.rs` pins `RunStats` across *paths* (bulk ≡ scalar)
//! and `tests/shard_equivalence.rs` across *engines*, but both compare two
//! runs of the same tree: a change that moves the scalar oracle and the
//! fast path together passes them. `tests/diag_golden.rs` pins absolute
//! content for six cells, none with several processors per SVM node. This
//! file pins every cell across *commits*: one FNV-1a digest of the `Debug`
//! rendering of `RunStats` (clocks, every bucket, every counter, every
//! phase) per application × {HLRC, TreadMarks, HLRC on 2-processor nodes,
//! CC-NUMA, SMP, HLRC with 1 KiB pages, HLRC with 16 KiB pages}, folded
//! over the four optimisation classes, at Test scale on 4 processors.
//!
//! The first five columns were taken at the commit *before* the platform
//! crates were restructured around one bulk-run loop and one LRC machine;
//! the two page-size columns at the commit before the LRC page tables
//! became dense arrays indexed from the heap's first page. A mismatch
//! prints the whole actual table; replace `GOLDEN` with it only when a
//! change to simulated behaviour is intended and explained.

use apps::{App, AppSpec, OptClass, Platform, Scale};
use std::fmt::Write as _;

const PLATFORMS: [Platform; 7] = [
    Platform::Svm,
    Platform::Tmk,
    Platform::SvmSmpNodes { ppn: 2 },
    Platform::Dsm,
    Platform::Smp,
    Platform::SvmTuned {
        page_shift: 10,
        net_scale_pct: 100,
    },
    Platform::SvmTuned {
        page_shift: 14,
        net_scale_pct: 100,
    },
];

/// One row per `App::ALL` entry, one column per `PLATFORMS` entry.
#[rustfmt::skip]
const GOLDEN: [[u64; 7]; 8] = [
    [0xa80787f736ce0492, 0x05adcfc82f330e2d, 0x7d5fdfda6b576677, 0x4eca9b8ff262b4c8, 0x38c145d16b90d123, 0x8a9aae126c2d42a8, 0x5e0a2ce19ba15d23],
    [0xd1c31f970be3fac1, 0xc73b1d3bafa8d386, 0x6096e9e33c29c973, 0x11fbdeed23778c76, 0x8a81af5767eff427, 0x7e5defa43390ffcf, 0x3e95c369836a767a],
    [0x6cd82c38b9eee1d6, 0xc710d63bf05e8545, 0x50639e7d3fa98e5a, 0x07010c5495be8b2c, 0xbea99db3731bfa0e, 0xf22af7eedbeb55eb, 0x766098b8e84648ad],
    [0xbc729661cdacc16d, 0x20bffa5d47590f7b, 0xa52d1e82c1fc4a1f, 0xeb3d638ea8cffe1b, 0xdc33662901e3a0d2, 0xce316ab48546954e, 0xfd1a8f5490cecbf3],
    [0xe19e9d9fb586412d, 0x14a8df7a958d703a, 0xc01340ec59f88457, 0x2729f2280f6e8ebc, 0x52a6ea9c7c3bf5f9, 0x4e9197a1613c35f6, 0x7f63f8740a6be820],
    [0x66428d671825ff35, 0x620182095eb4517e, 0xd75a1a9664be73e6, 0x589aaf05db51e6f9, 0xc64206a6ef614889, 0x807d838cf44ec5f0, 0x38b9655e4b258fbb],
    [0x7805f5c6d3f81b43, 0xc1536717d688f54b, 0xfb206a4af726bd09, 0x97a42f330d0bb2ce, 0xde1a18f49fc92431, 0xf1a6e2e6280d3304, 0xe337adcfb351bfe6],
    [0x335ae574d9a6eba5, 0x76f9bc2fa96a6075, 0xf2632a69dc1a27be, 0xf562b8058de5ccf0, 0x860c87bd558482be, 0xe0484f6201faacab, 0x21d985a1c49f185f],
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn runstats_match_the_pre_refactor_digests() {
    let mut actual = [[0u64; 7]; 8];
    for (row, app) in actual.iter_mut().zip(App::ALL) {
        for (cell, pf) in row.iter_mut().zip(PLATFORMS) {
            *cell = OptClass::ALL.iter().fold(FNV_OFFSET, |h, &class| {
                let stats = AppSpec { app, class }.run(pf, 4, Scale::Test);
                fnv1a(h, &format!("{stats:?}"))
            });
        }
    }
    if actual != GOLDEN {
        let mut table = String::new();
        for row in actual {
            let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            let _ = writeln!(table, "    [{}],", cells.join(", "));
        }
        panic!("RunStats changed; actual digests:\n{table}");
    }
}
