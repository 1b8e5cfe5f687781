//! The page-level performance-debugging report the paper wishes real SVM
//! systems provided (§6: "Incorporating the ability to deliver such
//! information in real SVM systems would be very useful"): per-page fetch,
//! diff, and invalidation counts, and which data structure each page
//! belongs to, for one application run.
use apps::{App, AppSpec, OptClass, Platform};
use figures::{cli, header};
use sim_core::RunConfig;

fn main() {
    let p = cli::parse(&[], &[]);
    header(
        "Page profile",
        "per-page SVM protocol activity for Ocean (original version)",
        "the detailed simulator as performance-debugging tool (paper §6)",
    );
    let stats = AppSpec {
        app: App::Ocean,
        class: OptClass::Orig,
    }
    .run_cfg(
        Platform::Svm,
        p.nprocs,
        p.scale,
        RunConfig::new(p.nprocs).with_sharing_profile(),
    );
    println!("execution time: {} cycles", stats.total_cycles());
    println!();
    let sharing = stats.sharing.expect("sharing profile was requested");
    println!("{}", sharing.report());
}
