//! Several host threads may call `run` at the same time (`figures::Runner`
//! does): every run owns its processors' stacks and its scheduler state,
//! and keeps nothing in thread-locals or statics, so concurrent runs cannot
//! see each other.

use apps::{App, OptClass};
use svm_restructure::prelude::*;

#[test]
fn concurrent_runs_equal_a_lone_run() {
    let spec = AppSpec {
        app: App::Ocean,
        class: OptClass::Orig,
    };
    let go = move || spec.run(PlatformKind::Svm, 4, Scale::Test);
    let alone = go();
    // The barrier makes the four runs overlap instead of queueing up
    // behind each other's thread start-up.
    let start = std::sync::Barrier::new(4);
    let together: Vec<RunStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    go()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a concurrent run panicked"))
            .collect()
    });
    for (i, stats) in together.iter().enumerate() {
        assert_eq!(*stats, alone, "host thread {i} diverged from the lone run");
    }
}
