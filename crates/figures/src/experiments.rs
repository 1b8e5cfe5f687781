//! The experiment table: every name `figures <name>` accepts, with the
//! title, caption and paper note its header prints and what it runs —
//! declared ([`Kind::Speedups`], [`Kind::Breakdown`]) where the experiment
//! is one of the paper's two recurring shapes, the diagnostic report
//! ([`Kind::Report`]), a function otherwise. DESIGN.md §4 indexes the same
//! names (a test holds the two together).

use crate::cli::{self, Flags, Parsed};
use crate::{breakdown_table, report, sweep, Runner};
use apps::barnes::{self, phase, BarnesParams, BarnesVersion};
use apps::volrend::{self, VolrendParams, VolrendVersion};
use apps::{App, OptClass, Platform};
use sim_core::RunStats;

/// One row of the table.
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// Header title ("Figure 2").
    pub title: &'static str,
    /// Header caption.
    pub caption: &'static str,
    /// What the paper reports, printed under the caption.
    pub paper: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// Body of a function-backed row: calls [`Experiment::begin`], then runs
/// and prints. `Err` is a command-line mistake (one line naming the
/// argument).
pub type Run = fn(&Experiment, &Parsed) -> Result<(), String>;

/// Which axis of a speedup grid runs across the page.
#[derive(Clone, Copy)]
pub enum Across {
    /// One table: a row per application (× class when there are several),
    /// a column per platform.
    Platforms,
    /// One table per platform: a row per application, a column per class.
    Classes,
}

/// What a row runs.
pub enum Kind {
    /// Speedups (uniprocessor original over parallel run) of every
    /// application × class × platform cell, platforms labelled.
    Speedups {
        apps: &'static [App],
        classes: &'static [OptClass],
        platforms: &'static [(&'static str, Platform)],
        across: Across,
    },
    /// Per-processor time breakdown, headline counters and speedup of one
    /// cell; `after` prints more from the same statistics.
    Breakdown {
        app: App,
        class: OptClass,
        platform: Platform,
        after: Option<fn(&RunStats)>,
    },
    /// A function reading only `--scale` / `--procs`.
    Func(Run),
    /// Every diagnostic layer of every cell of a grid (`report.rs`), the
    /// one row with flags of its own.
    Report,
}

/// The paper's three platforms under their display names.
const PAPER: [(&str, Platform); 3] = [
    ("SVM", Platform::Svm),
    ("SMP", Platform::Smp),
    ("DSM", Platform::Dsm),
];

const fn svm_tuned(page_shift: u8, net_scale_pct: u16) -> Platform {
    Platform::SvmTuned {
        page_shift,
        net_scale_pct,
    }
}

const fn breakdown(app: App, class: OptClass) -> Kind {
    Kind::Breakdown {
        app,
        class,
        platform: Platform::Svm,
        after: None,
    }
}

const fn barnes_breakdown(class: OptClass) -> Kind {
    Kind::Breakdown {
        app: App::Barnes,
        class,
        platform: Platform::Svm,
        after: Some(barnes_phase_shares),
    }
}

/// Every experiment, in the order the usage table lists them.
pub const TABLE: &[Experiment] = &[
    Experiment {
        name: "fig02",
        title: "Figure 2",
        caption: "Speedups for the original versions across the platforms",
        paper: "all applications run well on SMP/DSM; on SVM many are poor and \
                LU, Ocean and Raytrace fall below 1x",
        kind: Kind::Speedups {
            apps: &App::ALL,
            classes: &[OptClass::Orig],
            platforms: &PAPER,
            across: Across::Platforms,
        },
    },
    Experiment {
        name: "fig03",
        title: "Figure 3",
        caption: "LU contiguous version without padding/alignment (SVM, per-processor)",
        paper: "one processor (the barrier manager) shows much higher data wait \
                time; unaligned blocks share pages across owners",
        kind: breakdown(App::Lu, OptClass::DataStruct),
    },
    Experiment {
        name: "fig04",
        title: "Figure 4",
        caption: "Ocean contiguous (4-d) version (SVM, per-processor)",
        paper: "barrier time is high; data wait is high and imbalanced — interior \
                processors with two column-oriented boundaries fetch ~2x the pages",
        kind: breakdown(App::Ocean, OptClass::DataStruct),
    },
    Experiment {
        name: "fig05",
        title: "Figure 5",
        caption: "Ocean row-wise version (SVM, per-processor)",
        paper: "data communication is balanced and no longer a major bottleneck; \
                the remaining cost is barriers (speedup 8.5 -> 13.2 in the paper)",
        kind: breakdown(App::Ocean, OptClass::Algorithm),
    },
    Experiment {
        name: "fig06",
        title: "Figure 6",
        caption: "Volrend SPLASH-2 version (SVM, per-processor)",
        paper: "data communication and lock-based synchronization dominate: \
                stealing-induced locks are dilated by page faults inside critical \
                sections",
        kind: breakdown(App::Volrend, OptClass::Orig),
    },
    Experiment {
        name: "fig07",
        title: "Figure 7",
        caption: "Volrend with balanced task partitioning and stealing (SVM)",
        paper: "computation more balanced, stealing reduced, lock wait down \
                (paper speedup 11.42)",
        kind: Kind::Func(|e, p| volrend_breakdown(e, p, VolrendVersion::Balanced)),
    },
    Experiment {
        name: "fig08",
        title: "Figure 8",
        caption: "Volrend with balanced task partitioning, no stealing (SVM)",
        paper: "lock wait nearly gone; the dominant overhead moves to barrier wait \
                (load imbalance) — and overall performance improves a little \
                (paper speedup 11.70)",
        kind: Kind::Func(|e, p| volrend_breakdown(e, p, VolrendVersion::BalancedNoSteal)),
    },
    Experiment {
        name: "fig09",
        title: "Figure 9",
        caption: "Original Shear-Warp (SVM, per-processor)",
        paper: "high data communication (inter-phase redistribution of the \
                intermediate image) and high, imbalanced barrier wait from \
                contention",
        kind: breakdown(App::ShearWarp, OptClass::Orig),
    },
    Experiment {
        name: "fig10",
        title: "Figure 10",
        caption: "Optimized (repartitioned) Shear-Warp (SVM, per-processor)",
        paper: "redistribution eliminated; inter-phase barrier removed \
                (paper speedup 3.47 -> 9.21)",
        kind: breakdown(App::ShearWarp, OptClass::Algorithm),
    },
    Experiment {
        name: "fig11",
        title: "Figure 11",
        caption: "Raytrace SPLASH-2 version (SVM, per-processor)",
        paper: "synchronization kills performance: the global statistics lock is \
                taken once per ray (paper 'speedup' 0.5)",
        kind: breakdown(App::Raytrace, OptClass::Orig),
    },
    Experiment {
        name: "fig12",
        title: "Figure 12",
        caption: "Optimized Raytrace (statistics lock removed, split queues; SVM)",
        paper: "computation and data wait distributed almost evenly, except \
                processor 0 which holds copies of the scene pages it initialized, \
                fetches less, and so steals and does more work (paper speedup 11.72)",
        kind: breakdown(App::Raytrace, OptClass::Algorithm),
    },
    Experiment {
        name: "fig13",
        title: "Figure 13",
        caption: "Barnes SPLASH version (shared tree with locks; SVM)",
        paper: "high communication and synchronization; tree building, ~2% of the \
                uniprocessor time, takes ~43% under SVM",
        kind: barnes_breakdown(OptClass::Orig),
    },
    Experiment {
        name: "fig14",
        title: "Figure 14",
        caption: "Barnes spatial version (lock-free space-partitioned build; SVM)",
        paper: "computation balanced; remaining bottleneck is contention-induced \
                imbalance in data wait (paper speedup 10.5)",
        kind: barnes_breakdown(OptClass::Algorithm),
    },
    Experiment {
        name: "fig15",
        title: "Figure 15",
        caption: "Radix SPLASH-2 version (SVM, per-processor)",
        paper: "very high barrier time; expensive, imbalanced data communication \
                from contention — page counts are balanced, costs are not",
        kind: breakdown(App::Radix, OptClass::Orig),
    },
    Experiment {
        name: "fig16",
        title: "Figure 16",
        caption: "Speedups with different optimization classes across platforms",
        paper: "optimizations are decisive on SVM, modest on DSM, near-neutral on \
                SMP; P/A alone rarely helps; Volrend's DS step hurts; Radix stays \
                poor everywhere",
        kind: Kind::Speedups {
            apps: &App::ALL,
            classes: &OptClass::ALL,
            platforms: &PAPER,
            across: Across::Classes,
        },
    },
    Experiment {
        name: "fig17",
        title: "Figure 17",
        caption: "Volrend (balanced partition) with and without stealing, SVM vs DSM",
        paper: "stealing is cheap and effective on hardware coherence but \
                expensive on SVM: the penalty for enabling stealing is far larger \
                on SVM than on DSM",
        kind: Kind::Func(fig17),
    },
    Experiment {
        name: "table1",
        title: "Table 1",
        caption: "Qualitative difficulty of optimizing each application for SVM",
        paper: "as printed in the paper's section 6",
        kind: Kind::Func(table1),
    },
    Experiment {
        name: "barnes_algorithms",
        title: "Barnes algorithms (paper §4.2.4)",
        caption: "tree-building algorithm trajectory on SVM",
        paper: "SPLASH 2.76 -> local heaps 2.94 -> Update-Tree 5.56 -> Partree 5.65 \
                -> Barnes-Spatial 10.5; tree build takes 43% under SVM vs ~2% \
                sequentially",
        kind: Kind::Func(barnes_algorithms),
    },
    Experiment {
        name: "protocols",
        title: "Protocol comparison",
        caption: "HLRC (home-based) vs TreadMarks-style LRC, original versions",
        paper: "HLRC should equal or outperform the non-home-based protocol, most \
                visibly on multiple-writer pages (Radix, Barnes) where TMK faults \
                pay one round trip per writer",
        kind: Kind::Func(protocols),
    },
    Experiment {
        name: "smp_nodes",
        title: "SMP nodes over SVM (paper §7 future work)",
        caption: "original applications, 16 processors in nodes of 1 / 2 / 4",
        paper: "grouping processors into SMP nodes removes intra-node protocol \
                traffic; applications whose pain is page-grained sharing benefit \
                most",
        kind: Kind::Func(smp_nodes),
    },
    Experiment {
        name: "kvstore",
        title: "KV-store journey",
        caption: "Orig -> P/A -> DS -> Alg for the sharded key-value store, all platforms",
        paper: "request serving restructures like the paper's scientific codes: \
                padding fixes false sharing, home-aligned shards fix locality, \
                and skew needs an algorithmic answer (stealing + batched locks)",
        kind: Kind::Func(kvstore),
    },
    Experiment {
        name: "ablation_pagesize",
        title: "Ablation: SVM page size",
        caption: "speedups of the original applications vs protocol page size",
        paper: "smaller pages reduce false sharing and fragmentation but raise the \
                per-byte protocol overhead; 4 KB is the paper's operating point",
        kind: Kind::Speedups {
            apps: &[App::Lu, App::Ocean, App::Radix, App::Barnes],
            classes: &[OptClass::Orig],
            platforms: &[
                ("1KB", svm_tuned(10, 100)),
                ("2KB", svm_tuned(11, 100)),
                ("4KB", svm_tuned(12, 100)),
                ("8KB", svm_tuned(13, 100)),
            ],
            across: Across::Platforms,
        },
    },
    Experiment {
        name: "ablation_network",
        title: "Ablation: SVM network cost",
        caption: "speedups of original vs restructured versions as network costs scale",
        paper: "restructuring matters most when communication is expensive; a \
                4x-faster network helps the originals more than the optimized codes",
        kind: Kind::Speedups {
            apps: &[App::Ocean, App::Barnes],
            classes: &[OptClass::Orig, OptClass::Algorithm],
            platforms: &[
                ("25%", svm_tuned(12, 25)),
                ("100%", svm_tuned(12, 100)),
                ("400%", svm_tuned(12, 400)),
            ],
            across: Across::Platforms,
        },
    },
    Experiment {
        name: "ablation_quantum",
        title: "Ablation: scheduler run-ahead quantum",
        caption: "simulated execution time vs quantum (methodology check)",
        paper: "direct-execution simulators tolerate bounded skew; results should \
                be stable within a few percent",
        kind: Kind::Func(ablation_quantum),
    },
    Experiment {
        name: "report",
        title: "Diagnostic report",
        caption: "sharing profile, protocol trace, interval metrics, critical path \
                  and advisor of each selected cell, from one run per cell",
        paper: "the detailed simulator as performance-debugging tool (§6): \
                diff/fetch traffic attributed to data structures before and after \
                each restructuring (§4-§5), the dependences that bound execution, \
                and ranked restructuring recommendations with upper-bound \
                speedups (every layer is invisible: timed results are untouched)",
        kind: Kind::Report,
    },
];

/// The usage table: every name with its title, caption and own flags.
pub fn usage() -> String {
    let mut s = String::from(
        "usage: figures <name> [--scale test|default|paper] [--procs N] [flags]\n\
         names:\n",
    );
    for e in TABLE {
        s.push_str(&format!("  {:<18} {}: {}", e.name, e.title, e.caption));
        let f = e.flags();
        if f.cell {
            s.push_str(" [--app A|all] [--class C|all] [--platform P|all]");
        }
        for v in f.values {
            s.push_str(&format!(" [{v} V]"));
        }
        for b in f.switches {
            s.push_str(&format!(" [{b}]"));
        }
        s.push('\n');
    }
    s
}

/// The whole command line after the program name: `<name> [flags]`.
pub fn run_args(args: &[String]) -> Result<(), String> {
    let (name, rest) = args.split_first().ok_or("no experiment named")?;
    let e = TABLE
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment {name}"))?;
    e.run(&cli::parse(rest, &e.flags())?)
}

impl Experiment {
    /// What the row reads beyond `--scale` / `--procs`.
    pub fn flags(&self) -> Flags {
        match self.kind {
            Kind::Report => report::FLAGS,
            _ => Flags::NONE,
        }
    }

    /// Check `--procs` against the application versions and platforms
    /// about to be run, then print the standard figure header. Everything a
    /// row can refuse is refused before its first line of output.
    pub fn begin(
        &self,
        p: &Parsed,
        apps: &[App],
        classes: &[OptClass],
        platforms: &[Platform],
    ) -> Result<(), String> {
        p.check_procs(platforms)?;
        p.check_apps(apps, classes)?;
        println!("==========================================================================");
        println!("{}: {}", self.title, self.caption);
        println!("--------------------------------------------------------------------------");
        println!("Paper: {}", self.paper);
        println!("==========================================================================");
        Ok(())
    }

    /// Run the row.
    pub fn run(&self, p: &Parsed) -> Result<(), String> {
        match self.kind {
            Kind::Speedups {
                apps,
                classes,
                platforms,
                across,
            } => {
                let pfs: Vec<Platform> = platforms.iter().map(|&(_, pf)| pf).collect();
                self.begin(p, apps, classes, &pfs)?;
                speedups(p, apps, classes, platforms, across);
            }
            Kind::Breakdown {
                app,
                class,
                platform,
                after,
            } => {
                self.begin(p, &[app], &[class], &[platform])?;
                let mut r = Runner::new(p.scale, p.nprocs);
                // Baseline and parallel run are independent cells: overlap them.
                r.prefetch(&[(app, class, platform)]);
                let base = r.baseline(app, platform);
                let stats = r.parallel(app, class, platform);
                println!("{}", breakdown_table(stats));
                let c = stats.sum_counters();
                println!(
                    "counters: remote_fetches={} lock_acquires={} barriers={} diffs_created={} diffs_applied={} invalidations={}",
                    c.remote_fetches, c.lock_acquires, c.barriers, c.diffs_created, c.diffs_applied, c.invalidations
                );
                print_speedup(base, stats);
                if let Some(after) = after {
                    after(stats);
                }
            }
            Kind::Func(run) => run(self, p)?,
            Kind::Report => report::run(self, p)?,
        }
        Ok(())
    }
}

fn print_speedup(base: u64, stats: &RunStats) {
    println!(
        "speedup vs uniprocessor original: {:.2}",
        base as f64 / stats.total_cycles() as f64
    );
}

fn speedups(
    p: &Parsed,
    apps: &[App],
    classes: &[OptClass],
    platforms: &[(&str, Platform)],
    across: Across,
) {
    let mut r = Runner::new(p.scale, p.nprocs);
    let mut cells = Vec::new();
    for &app in apps {
        for &class in classes {
            cells.extend(platforms.iter().map(|&(_, pf)| (app, class, pf)));
        }
    }
    r.prefetch(&cells);
    match across {
        Across::Platforms => {
            let versions = classes.len() > 1;
            print!("{:<12}", "App");
            if versions {
                print!(" {:<6}", "ver");
            }
            for (label, _) in platforms {
                print!(" {label:>8}");
            }
            println!();
            for &app in apps {
                for &class in classes {
                    print!("{:<12}", app.name());
                    if versions {
                        print!(" {:<6}", class.label());
                    }
                    for &(_, pf) in platforms {
                        print!(" {:>8.2}", r.speedup(app, class, pf));
                    }
                    println!();
                }
            }
        }
        Across::Classes => {
            for &(label, pf) in platforms {
                println!("\n--- {label} ---");
                print!("{:<12}", "App");
                for class in classes {
                    print!(" {:>8}", class.label());
                }
                println!();
                for &app in apps {
                    print!("{:<12}", app.name());
                    for &class in classes {
                        print!(" {:>8.2}", r.speedup(app, class, pf));
                    }
                    println!();
                }
            }
        }
    }
}

/// Figures 13 and 14: where Barnes' time goes, by phase.
fn barnes_phase_shares(st: &RunStats) {
    println!(
        "phase shares: {} {:.0}%  {} {:.0}%  {} {:.0}%",
        st.phase_name(phase::TREE_BUILD),
        100.0 * st.phase_fraction(phase::TREE_BUILD),
        st.phase_name(phase::FORCE),
        100.0 * st.phase_fraction(phase::FORCE),
        st.phase_name(phase::UPDATE),
        100.0 * st.phase_fraction(phase::UPDATE),
    );
}

/// The classes whose Volrend versions (original, balanced) figures 7, 8
/// and 17 run.
const VOLREND: [OptClass; 2] = [OptClass::Orig, OptClass::Algorithm];

/// Figures 7 and 8: one of Volrend's balanced-partition versions (no
/// optimization class of their own) on SVM.
fn volrend_breakdown(e: &Experiment, p: &Parsed, version: VolrendVersion) -> Result<(), String> {
    e.begin(p, &[App::Volrend], &VOLREND, &[Platform::Svm])?;
    let params = VolrendParams::at(p.scale);
    let base = volrend::run_params(Platform::Svm, 1, &params, VolrendVersion::Orig)
        .stats
        .total_cycles();
    let st = volrend::run_params(Platform::Svm, p.nprocs, &params, version).stats;
    println!("{}", breakdown_table(&st));
    print_speedup(base, &st);
    Ok(())
}

/// Figure 17: Volrend with the balanced (algorithmic) partition, with and
/// without task stealing, on SVM and on the CC-NUMA DSM.
fn fig17(e: &Experiment, p: &Parsed) -> Result<(), String> {
    const PLATFORMS: [Platform; 2] = [Platform::Svm, Platform::Dsm];
    e.begin(p, &[App::Volrend], &VOLREND, &PLATFORMS)?;
    println!(
        "{:<10} {:>14} {:>14} {:>18}",
        "Platform", "steal", "no-steal", "steal cost"
    );
    let jobs: Vec<(Platform, usize, VolrendVersion)> = PLATFORMS
        .iter()
        .flat_map(|&pf| {
            [
                (pf, 1, VolrendVersion::Orig),
                (pf, p.nprocs, VolrendVersion::Balanced),
                (pf, p.nprocs, VolrendVersion::BalancedNoSteal),
            ]
        })
        .collect();
    let params = VolrendParams::at(p.scale);
    let cycles = sweep::run(&jobs, |&(pf, nprocs, v)| {
        volrend::run_params(pf, nprocs, &params, v)
            .stats
            .total_cycles()
    });
    for (pf, c) in PLATFORMS.iter().zip(cycles.chunks(3)) {
        let (base, with, without) = (c[0], c[1], c[2]);
        println!(
            "{:<10} {:>13.2}x {:>13.2}x {:>17.0}%",
            pf.name(),
            base as f64 / with as f64,
            base as f64 / without as f64,
            100.0 * (with as f64 - without as f64) / without as f64,
        );
    }
    Ok(())
}

/// Table 1 (the paper's qualitative difficulty table), reproduced as
/// structured data with our reproduction commentary — followed by a
/// measured summary sweep (every application, original vs. best
/// restructured version on SVM) backing up the qualitative rows.
fn table1(e: &Experiment, p: &Parsed) -> Result<(), String> {
    const CLASSES: [OptClass; 2] = [OptClass::Orig, OptClass::Algorithm];
    e.begin(p, &App::ALL, &CLASSES, &[Platform::Svm])?;
    let rows = [
        ("LU", "easy", "well known", "painful"),
        ("Ocean", "easy", "well known", "painful"),
        ("Volrend", "needed tools", "moderate", "easy"),
        ("Shear-Warp", "difficult", "difficult", "difficult"),
        ("Raytrace", "needed tools", "moderate", "easy"),
        ("Barnes", "needed tools", "difficult", "difficult"),
        ("Radix", "moderate", "difficult", "difficult"),
    ];
    println!(
        "{:<12} {:<16} {:<16} {:<16}",
        "Application", "Understanding", "Conceptualizing", "Implementing"
    );
    for (app, u, c, i) in rows {
        println!("{app:<12} {u:<16} {c:<16} {i:<16}");
    }
    println!();
    println!(
        "Our experience reproducing them matches: the per-processor\n\
         breakdowns (`figures fig03`–`fig15` rows) were exactly the\n\
         'detailed simulator as performance debugging tool' the paper\n\
         describes — Volrend's and Raytrace's lock pathologies and\n\
         Barnes' tree-build blow-up are invisible without them."
    );
    println!();

    // Quantitative backing: what the restructuring effort buys on SVM.
    let mut r = Runner::new(p.scale, p.nprocs);
    let cells: Vec<_> = App::ALL
        .iter()
        .flat_map(|&app| CLASSES.map(|class| (app, class, Platform::Svm)))
        .collect();
    r.prefetch(&cells);
    println!("Measured on SVM ({} procs, this reproduction):", p.nprocs);
    println!(
        "{:<12} {:>10} {:>10} {:>8}",
        "Application", "Orig", "Restruct", "gain"
    );
    for app in App::ALL {
        let orig = r.speedup(app, OptClass::Orig, Platform::Svm);
        let best = r.speedup(app, OptClass::Algorithm, Platform::Svm);
        println!(
            "{:<12} {:>9.2}x {:>9.2}x {:>7.2}x",
            app.name(),
            orig,
            best,
            best / orig
        );
    }
    Ok(())
}

/// The paper's §4.2.4 narrative: Barnes through its four tree-building
/// algorithms on SVM (paper speedups 2.76 → 2.94 → 5.56 → 5.65 → 10.5,
/// with tree-build falling from ~43% to ~30% and below).
fn barnes_algorithms(e: &Experiment, p: &Parsed) -> Result<(), String> {
    // Every version splits the same bodies evenly.
    e.begin(p, &[App::Barnes], &[OptClass::Orig], &[Platform::Svm])?;
    // One uniprocessor baseline + five versions: six independent cells.
    let versions = [
        BarnesVersion::SharedTree,
        BarnesVersion::LocalHeaps,
        BarnesVersion::UpdateTree,
        BarnesVersion::Partree,
        BarnesVersion::Spatial,
    ];
    let jobs: Vec<(usize, BarnesVersion)> = std::iter::once((1, BarnesVersion::SharedTree))
        .chain(versions.iter().map(|&v| (p.nprocs, v)))
        .collect();
    let params = BarnesParams::at(p.scale);
    let mut runs = sweep::run(&jobs, |&(nprocs, v)| {
        barnes::run_params(Platform::Svm, nprocs, &params, v).stats
    })
    .into_iter();
    let baseline = runs.next().expect("baseline ran");
    let base = baseline.total_cycles();
    println!(
        "{:<14} {:>8} {:>12} {:>10}",
        "version",
        "speedup",
        format!("{}%", baseline.phase_name(phase::TREE_BUILD)),
        "locks"
    );
    for (v, st) in versions.iter().zip(runs) {
        println!(
            "{:<14} {:>8.2} {:>11.0}% {:>10}",
            format!("{v:?}"),
            base as f64 / st.total_cycles() as f64,
            100.0 * st.phase_fraction(phase::TREE_BUILD),
            st.sum_counters().lock_acquires,
        );
    }
    Ok(())
}

/// Protocol comparison: home-based (HLRC) vs non-home-based
/// (TreadMarks-style) lazy release consistency, on the same machine
/// parameters and applications. The paper (§2.1.1) adopts HLRC because it
/// "has recently been shown to equal or outperform non home-based LRC
/// protocols" (Zhou, Iftode & Li, OSDI'96); this reruns that comparison on
/// our suite.
fn protocols(e: &Experiment, p: &Parsed) -> Result<(), String> {
    const PLATFORMS: [Platform; 2] = [Platform::Svm, Platform::Tmk];
    e.begin(p, &App::ALL, &[OptClass::Orig], &PLATFORMS)?;
    let mut r = Runner::new(p.scale, p.nprocs);
    let cells: Vec<_> = App::ALL
        .iter()
        .flat_map(|&app| PLATFORMS.map(|pf| (app, OptClass::Orig, pf)))
        .collect();
    r.prefetch(&cells);
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "App", "HLRC", "TMK", "HLRC/TMK"
    );
    for app in App::ALL {
        let h = r.speedup(app, OptClass::Orig, Platform::Svm);
        let t = r.speedup(app, OptClass::Orig, Platform::Tmk);
        println!("{:<12} {:>10.2} {:>10.2} {:>9.2}x", app.name(), h, t, h / t);
    }
    Ok(())
}

/// The paper's future work (§7), implemented: "how to take advantage in the
/// applications of the two-level communication hierarchy when SMP nodes are
/// connected by SVM". Same 16 processors, grouped into SVM nodes of 1, 2
/// and 4 — intra-node sharing becomes hardware-coherent, and page fetches,
/// diffs, and synchronization messages only cross node boundaries.
fn smp_nodes(e: &Experiment, p: &Parsed) -> Result<(), String> {
    const APPS: [App; 5] = [App::Lu, App::Ocean, App::Barnes, App::Radix, App::Volrend];
    const NODES: [Platform; 3] = [
        Platform::Svm,
        Platform::SvmSmpNodes { ppn: 2 },
        Platform::SvmSmpNodes { ppn: 4 },
    ];
    e.begin(p, &APPS, &[OptClass::Orig], &NODES)?;
    let mut r = Runner::new(p.scale, p.nprocs);
    let cells: Vec<_> = APPS
        .iter()
        .flat_map(|&app| NODES.map(|pf| (app, OptClass::Orig, pf)))
        .collect();
    r.prefetch(&cells);
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>10}",
        "App", "16x1", "8x2", "4x4", "fetch 4x4/16x1"
    );
    for app in APPS {
        let [s1, s2, s4] = NODES.map(|pf| r.speedup(app, OptClass::Orig, pf));
        let mut fetches = |pf| {
            r.parallel(app, OptClass::Orig, pf)
                .sum_counters()
                .remote_fetches
        };
        let (f1, f4) = (fetches(NODES[0]), fetches(NODES[2]));
        println!(
            "{:<12} {:>9.2} {:>9.2} {:>9.2} {:>13.2}x",
            app.name(),
            s1,
            s2,
            s4,
            f4 as f64 / f1.max(1) as f64
        );
    }
    Ok(())
}

/// The server-shaped workload's restructuring journey: a sharded in-memory
/// key-value store driven by closed-loop Zipf-distributed get/put traffic,
/// Orig → P/A → DS → Alg on the paper's platforms — virtual time, speedup
/// over the uniprocessor original, and the time breakdown per class on the
/// platform where restructuring matters most (SVM). The dense bucket array
/// false-shares headers and values on a page (Orig), padding removes the
/// false sharing but not the traffic (P/A), home-aligned shard regions
/// make the common case node-local (DS), and request stealing with
/// batch-combined locking absorbs the Zipf skew (Alg).
fn kvstore(e: &Experiment, p: &Parsed) -> Result<(), String> {
    e.begin(p, &[App::Kv], &OptClass::ALL, &Platform::ALL)?;
    let mut r = Runner::new(p.scale, p.nprocs);
    let cells: Vec<(App, OptClass, Platform)> = Platform::ALL
        .iter()
        .flat_map(|&pf| OptClass::ALL.iter().map(move |&c| (App::Kv, c, pf)))
        .collect();
    r.prefetch(&cells);

    println!(
        "\nvirtual time (cycles), P = {} at {:?} scale:",
        p.nprocs, p.scale
    );
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "Platform", "Orig", "P/A", "DS", "Alg"
    );
    for pf in Platform::ALL {
        print!("{:<10}", pf.name());
        for class in OptClass::ALL {
            let cycles = r.parallel(App::Kv, class, pf).total_cycles();
            print!(" {cycles:>14}");
        }
        println!();
    }

    println!("\nspeedup over the uniprocessor original:");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "Platform", "Orig", "P/A", "DS", "Alg"
    );
    for pf in Platform::ALL {
        print!("{:<10}", pf.name());
        for class in OptClass::ALL {
            let s = r.speedup(App::Kv, class, pf);
            print!(" {s:>8.2}");
        }
        println!();
    }

    // Where the journey is decided: the SVM time breakdown per class. The
    // Orig/P/A columns are dominated by page fetches on the hot bucket
    // pages; DS converts them to local accesses; Alg's stealing shows up
    // as a small lock-wait column in exchange for the imbalance it removes.
    for class in OptClass::ALL {
        println!("\n--- SVM time breakdown, {} ---", class.label());
        print!(
            "{}",
            breakdown_table(r.parallel(App::Kv, class, Platform::Svm))
        );
    }
    Ok(())
}

/// Methodology validation: the direct-execution simulator allows bounded
/// virtual-time skew (the run-ahead quantum). A relaxation kernel with the
/// Ocean communication structure, run at three quanta, shows measured
/// execution times are stable across the choice, i.e. the skew does not
/// distort the results the figures report.
fn ablation_quantum(e: &Experiment, p: &Parsed) -> Result<(), String> {
    use sim_core::{Placement, RunConfig};
    // Its own relaxation kernel, no application version.
    e.begin(p, &[], &[], &[Platform::Svm])?;
    let params = apps::ocean::OceanParams::at(p.scale);
    let nprocs = p.nprocs;
    let run_with_quantum = |quantum: u64| {
        // The applications' run paths fix the quantum, so drive the
        // platform directly with the configuration they use.
        let cfg = RunConfig {
            quantum,
            ..RunConfig::new(nprocs)
        };
        sim_core::run(Platform::Svm.boxed(nprocs), cfg, |p| {
            let n = params.n;
            if p.pid() == 0 {
                let g = p.alloc_shared((n * n * 8) as u64, 4096, Placement::RoundRobin);
                for k in 0..n * n {
                    p.store(g + (k * 8) as u64, 8, ((k % 97) as f64 * 0.013).to_bits());
                }
            }
            p.barrier(100);
            p.start_timing();
            let base = sim_core::HEAP_BASE;
            let rows = n - 2;
            let per = rows / p.nprocs();
            let r0 = 1 + p.pid() * per;
            let r1 = if p.pid() == p.nprocs() - 1 {
                n - 2
            } else {
                r0 + per - 1
            };
            for _sweep in 0..params.sweeps {
                for i in r0..=r1 {
                    for j in 1..n - 1 {
                        let idx = |r: usize, c: usize| base + ((r * n + c) as u64) * 8;
                        let v = f64::from_bits(p.load(idx(i - 1, j), 8))
                            + f64::from_bits(p.load(idx(i + 1, j), 8));
                        p.store(idx(i, j), 8, (0.5 * v).to_bits());
                        p.work(6);
                    }
                }
                p.barrier(0);
            }
        })
        .total_cycles()
    };
    let mut baseline = None;
    for quantum in [200u64, 2_000, 20_000] {
        let t = run_with_quantum(quantum);
        let dev = baseline
            .map(|b: u64| 100.0 * (t as f64 - b as f64) / b as f64)
            .unwrap_or(0.0);
        baseline.get_or_insert(t);
        println!("quantum {quantum:>6}: {t:>12} cycles ({dev:+.2}% vs smallest)");
    }
    Ok(())
}
