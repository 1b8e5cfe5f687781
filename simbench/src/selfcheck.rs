//! Set-up self-checks: the invariants every timing in this benchmark leans
//! on, re-proved at `Scale::Test` on one cell per platform crate before
//! anything is timed. They run inside `setup_s`, so a change that makes
//! them slower shows there.

use crate::workloads::{Cell, Diag, Engine, Params};
use apps::{App, OptClass, Platform, Scale};

/// One cell per platform crate (svm-hlrc, lrc-tmk, cc-numa, smp-bus).
const CELLS: [(App, OptClass, Platform); 4] = [
    (App::Ocean, OptClass::Orig, Platform::Svm),
    (App::Radix, OptClass::Orig, Platform::Tmk),
    (App::Barnes, OptClass::Orig, Platform::Dsm),
    (App::Kv, OptClass::Orig, Platform::Smp),
];

/// Run the self-checks with inputs derived from `seed`; returns one line
/// per violated invariant (empty = all hold). An application whose output
/// differs from its sequential reference panics; callers run this under
/// `catch_unwind`.
pub fn run(seed: u64) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, (app, class, platform)) in CELLS.into_iter().enumerate() {
        let params = Params::derive(app, Scale::Test, seed, i);
        let cell = |engine, diag| Cell {
            app,
            class,
            platform,
            engine,
            diag,
        };
        let exec = |c: Cell| params.run(class, platform, c.run_config());
        let plain_cell = cell(Engine::Seq, Diag::Off);
        let what = plain_cell.label();
        let plain = exec(plain_cell);

        if exec(cell(Engine::Fused, Diag::Off)) != plain {
            bad.push(format!(
                "{what}: with_shards(2) RunStats differ from sequential"
            ));
        }

        let mut layered = exec(cell(Engine::Seq, Diag::Layers { chrome: false }));
        layered.sharing = None;
        layered.trace = None;
        layered.metrics = None;
        if layered != plain {
            bad.push(format!("{what}: diagnostic layers perturbed RunStats"));
        }

        let detected = exec(cell(Engine::Seq, Diag::Races));
        if detected.races() != 0 {
            bad.push(format!("{what}: {} data races", detected.races()));
        }

        let c = plain.sum_counters();
        if platform == Platform::Svm && c.diffs_created != c.diffs_applied {
            bad.push(format!(
                "{what}: diffs_created {} != diffs_applied {}",
                c.diffs_created, c.diffs_applied
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    #[test]
    fn invariants_hold_on_two_seeds() {
        for seed in [1, 0xdead_beef] {
            assert_eq!(super::run(seed), Vec::<String>::new());
        }
    }
}
