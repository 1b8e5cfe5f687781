//! `simbench` — run one workload (the default, and what `BENCHMARK.json`
//! invokes), all five in turn, or compare two result files.
//!
//! ```text
//! simbench [run] --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//!                [--scale default|test] [--reps <n>] [--trace-out <path>]
//! simbench all   [--seed <u64>] [--seconds <s>] [--scale ..] [--reps <n>] [--out <path>]
//! simbench compare <a.json> <b.json> [--bench <BENCHMARK.json>]
//! ```
//!
//! A run prints a manifest, one line per cell and one per metric, and as
//! its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits non-zero if any cell failed.

use apps::Scale;
use sim_core::RunConfig;
use simbench::run::{run_workload, RunOpts};
use simbench::workloads::workloads;
use simbench::{compare, json, median};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  simbench [run] --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
                 [--scale default|test] [--reps <n>] [--trace-out <path>]
  simbench all   [--seed <u64>] [--seconds <s>] [--scale default|test] [--reps <n>] [--out <path>]
  simbench compare <a.json> <b.json> [--bench <BENCHMARK.json>]";

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    reps: Option<usize>,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: Scale::Default,
            reps: None,
            trace_out: None,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            let bad = |v: &str| format!("{flag}: cannot use {v:?}");
            match flag.as_str() {
                "--workload" => o.workload = Some(value()?.to_string()),
                "--seed" => {
                    let v = value()?;
                    o.seed = v.parse().map_err(|_| bad(v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    o.seconds = v.parse().map_err(|_| bad(v))?;
                    if !(o.seconds >= 0.0 && o.seconds <= 3600.0) {
                        return Err(bad(v));
                    }
                }
                "--trace" => {
                    o.trace = match value()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad(v)),
                    }
                }
                "--scale" => {
                    o.scale = match value()? {
                        "default" => Scale::Default,
                        "test" => Scale::Test,
                        v => return Err(bad(v)),
                    }
                }
                "--reps" => {
                    let v = value()?;
                    let n: usize = v.parse().map_err(|_| bad(v))?;
                    if !(1..=1000).contains(&n) {
                        return Err(bad(v));
                    }
                    o.reps = Some(n);
                }
                "--trace-out" => o.trace_out = Some(value()?.into()),
                "--out" => o.out = Some(value()?.into()),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(o)
    }

    fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Test => "test",
            _ => "default",
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        _ => cmd_run(&args),
    };
    std::process::exit(code);
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("simbench: {msg}\n{USAGE}");
    2
}

/// The fields of a `RunConfig` that select what a cell measures.
fn describe(cfg: &RunConfig) -> String {
    format!(
        "{{\"nprocs\": {}, \"quantum\": {}, \"shards\": {}, \"shard_fused\": {}, \
         \"shard_batch\": {}, \"bulk\": {}, \"detect_races\": {}, \"sharing_profile\": {}, \
         \"trace\": {}, \"metrics\": {}}}",
        cfg.nprocs,
        cfg.quantum,
        cfg.shards,
        cfg.shard_fused,
        cfg.shard_batch,
        cfg.bulk,
        cfg.detect_races,
        cfg.sharing_profile,
        cfg.trace,
        cfg.metrics
    )
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, 0.0), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// Run one workload and print the summary, the trace file's path and the
/// result line.
fn cmd_run(args: &[String]) -> i32 {
    let o = match Opts::parse(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| Some(w.name) == o.workload.as_deref()) else {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        return usage_error(&format!("--workload must be one of {}", names.join(", ")));
    };
    let mut r = run_workload(
        w,
        &RunOpts {
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
            scale: o.scale,
            reps: o.reps,
        },
    );

    println!("simbench workload={} trace={}", w.name, u8::from(o.trace));
    println!("manifest: {}", r.manifest.to_json());
    let mut cells_json = Vec::new();
    for (cell, log) in &r.cells {
        let cfg = describe(&cell.run_config());
        let (lo, hi) = min_max(&log.plain);
        println!(
            "cell {:<34} median {:.4} s  min {lo:.4}  max {hi:.4}  n={}  config: {cfg}",
            cell.label(),
            median(&log.plain),
            log.plain.len()
        );
        cells_json.push(format!(
            "{{\"cell\": \"{}\", \"median_s\": {}, \"n\": {}, \"config\": {cfg}}}",
            json::escape(&cell.label()),
            median(&log.plain),
            log.plain.len()
        ));
    }
    let cells_json = format!("[{}]", cells_json.join(", "));
    println!("cells: {cells_json}");
    let c = &r.sim.counters;
    println!(
        "sim: events={} cycles={} accesses={} lock_acquires={} barriers={} remote_fetches={}",
        r.sim.events(),
        r.sim.cycles,
        c.accesses,
        c.lock_acquires,
        c.barriers,
        c.remote_fetches
    );
    let (lo, hi) = min_max(&r.factors);
    println!(
        "host speed factor (timed regions are divided by it): median {:.3}  min {lo:.3}  \
         max {hi:.3}  n={}",
        median(&r.factors),
        r.factors.len()
    );
    for m in &r.metrics {
        println!("metric {:<36} = {} {}", m.name, m.value, m.unit);
    }

    if o.trace {
        let path = o.trace_out.clone().unwrap_or_else(|| {
            // Beside the executable, i.e. inside the build directory.
            let dir = std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(PathBuf::from))
                .unwrap_or_else(|| PathBuf::from("."));
            dir.join(format!("simbench-trace-{}-seed{}.json", w.name, o.seed))
        });
        let other = format!(
            "{{\"manifest\": {}, \"workload\": \"{}\", \"cells\": {cells_json}}}",
            r.manifest.to_json(),
            w.name
        );
        match std::fs::write(&path, r.spans.to_chrome_json(&other)) {
            Ok(()) => println!("trace: {} spans -> {}", r.spans.len(), path.display()),
            Err(e) => {
                r.failed += 1;
                r.notes.push(format!("trace file {}: {e}", path.display()));
            }
        }
    }
    println!(
        "fail_share = {}/{} (cell executions, set-ups and ledger runs that failed, over those \
         attempted)",
        r.failed, r.attempted
    );
    for n in &r.notes {
        println!("FAILED {n}");
    }

    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        body.join(", ")
    );
    i32::from(r.failed != 0)
}

/// Run every workload in its own process, untraced then traced, and
/// collect the result lines into one document.
fn cmd_all(args: &[String]) -> i32 {
    let o = match Opts::parse(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    if o.workload.is_some() || o.trace_out.is_some() {
        return usage_error("`all` takes neither --workload nor --trace-out");
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("simbench: cannot find my own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    let mut sections = Vec::new();
    for w in workloads() {
        let mut parts = Vec::new();
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--scale", o.scale_name()])
                .stdout(Stdio::piped());
            if let Some(r) = o.reps {
                cmd.args(["--reps", &r.to_string()]);
            }
            // `output` waits for the child and collects its stdout; stderr
            // is inherited so panics of failed cells stay visible.
            let out = match cmd.stderr(Stdio::inherit()).output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("simbench: cannot start {}: {e}", exe.display());
                    return 1;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            if !out.status.success() {
                eprintln!(
                    "simbench: {} (trace {trace}) exited with {}",
                    w.name, out.status
                );
                code = 1;
            }
            let line = |prefix| {
                text.lines()
                    .find_map(|l| l.strip_prefix(prefix))
                    .unwrap_or("null")
            };
            let (manifest, cells) = (line("manifest: "), line("cells: "));
            match text.lines().last().and_then(|l| l.strip_prefix('{')) {
                Some(rest) if json::parse(&format!("{{{rest}")).is_ok() => {
                    parts.push(format!(
                        "\"{section}\": {{\"manifest\": {manifest}, \"cells\": {cells}, {rest}"
                    ));
                }
                _ => {
                    eprintln!(
                        "simbench: {} (trace {trace}) printed no result line",
                        w.name
                    );
                    code = 1;
                }
            }
        }
        sections.push(format!("\"{}\": {{{}}}", w.name, parts.join(", ")));
    }
    let doc = format!(
        "{{\"manifest\": {{\"seed\": {}, \"scale\": \"{}\"}},\n\"workloads\": {{\n{}\n}}}}\n",
        o.seed,
        o.scale_name(),
        sections.join(",\n")
    );
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("simbench: cannot write {}: {e}", path.display());
            return 1;
        }
        println!("wrote {}", path.display());
    }
    code
}

fn cmd_compare(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            match it.next() {
                Some(p) => bench = p.into(),
                None => return usage_error("--bench needs a value"),
            }
        } else {
            files.push(PathBuf::from(a));
        }
    }
    if files.len() != 2 {
        return usage_error("compare takes exactly two result files");
    }
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|s| json::parse(&s))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let report = read(&files[0]).and_then(|a| {
        let b = read(&files[1])?;
        compare::compare(&a, &b, &read(&bench)?)
    });
    match report {
        Ok(r) => {
            print!("{}", r.text);
            i32::from(!r.pass)
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            2
        }
    }
}
