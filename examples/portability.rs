//! Performance portability in one screen: the same two Barnes versions on
//! all three platforms. The SVM-motivated restructuring (Barnes-Spatial) is
//! decisive on SVM and much less important on hardware coherence.
//!
//! ```text
//! cargo run --release --example portability
//! ```

use apps::barnes::{self, BarnesParams, BarnesVersion};
use apps::{Platform, Scale};

fn main() {
    let params = BarnesParams::at(Scale::Default);
    let nprocs = 16;
    println!("Barnes, {nprocs} processors (default scale; ~2 min)\n");
    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "Platform", "SharedTree", "Spatial", "gain"
    );
    for pf in [Platform::Svm, Platform::Smp, Platform::Dsm] {
        let base = barnes::run_params(pf, 1, &params, BarnesVersion::SharedTree)
            .stats
            .total_cycles();
        let orig = barnes::run_params(pf, nprocs, &params, BarnesVersion::SharedTree)
            .stats
            .total_cycles();
        let spatial = barnes::run_params(pf, nprocs, &params, BarnesVersion::Spatial)
            .stats
            .total_cycles();
        println!(
            "{:<10} {:>13.2}x {:>13.2}x {:>9.2}x",
            pf.name(),
            base as f64 / orig as f64,
            base as f64 / spatial as f64,
            orig as f64 / spatial as f64,
        );
    }
    println!(
        "\nThe paper's conclusion: optimizations that rescue SVM are\n\
         performance-portable (they do not hurt hardware-coherent machines)\n\
         but their impact there is dramatically smaller."
    );
}
