//! cli — the one argument parser of the `figures` binary.
//!
//! Every subcommand reads `--scale test|default|paper` and `--procs N`. A
//! subcommand's [`Flags`] say what else it reads: the cell grid (`--app
//! NAME --class orig|pa|ds|alg --platform svm|tmk|dsm|smp`, each one value
//! or `all`) and its own value flags and switches, by name. Anything else
//! on the command line is an error, returned as one line naming the
//! argument — the binary prints it with the usage table and exits 2.

use crate::FAMILIES;
use apps::{App, AppSpec, OptClass, Platform, Scale};
use sim_core::coherence::MAX_PROCS;
use sim_core::{RunConfig, RunStats};

/// What one subcommand reads beyond `--scale` and `--procs`.
#[derive(Clone, Copy, Debug)]
pub struct Flags {
    /// Reads the cell grid `--app` / `--class` / `--platform`.
    pub cell: bool,
    /// Flags that take one value.
    pub values: &'static [&'static str],
    /// Bare switches.
    pub switches: &'static [&'static str],
}

impl Flags {
    /// `--scale` and `--procs` only.
    pub const NONE: Flags = Flags {
        cell: false,
        values: &[],
        switches: &[],
    };
}

/// Parse a `--scale` value.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s.to_ascii_lowercase().as_str() {
        "test" => Ok(Scale::Test),
        "default" => Ok(Scale::Default),
        "paper" => Ok(Scale::Paper),
        other => Err(format!("unknown scale {other} (test|default|paper)")),
    }
}

/// The `--scale` spelling of a scale.
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::Default => "default",
        Scale::Paper => "paper",
    }
}

/// Parse a `--class` value.
pub fn parse_class(s: &str) -> Result<OptClass, String> {
    match s.to_ascii_lowercase().as_str() {
        "orig" => Ok(OptClass::Orig),
        "pa" | "p/a" | "padalign" => Ok(OptClass::PadAlign),
        "ds" | "datastruct" => Ok(OptClass::DataStruct),
        "alg" | "algorithm" => Ok(OptClass::Algorithm),
        other => Err(format!("unknown class {other} (orig|pa|ds|alg)")),
    }
}

/// Parse a `--platform` value.
pub fn parse_platform(s: &str) -> Result<Platform, String> {
    match s.to_ascii_lowercase().as_str() {
        "svm" => Ok(Platform::Svm),
        "tmk" => Ok(Platform::Tmk),
        "dsm" => Ok(Platform::Dsm),
        "smp" => Ok(Platform::Smp),
        other => Err(format!("unknown platform {other} (svm|tmk|dsm|smp)")),
    }
}

/// Parse a `--app` value by (case-insensitive) application name.
pub fn parse_app(s: &str) -> Result<App, String> {
    let name = s.to_ascii_lowercase();
    App::ALL
        .into_iter()
        .find(|a| a.name().to_ascii_lowercase() == name)
        .ok_or_else(|| format!("unknown app {name}"))
}

/// One axis of the cell grid: `all` of it, or the one value `one` parses.
fn axis<T: Copy>(s: &str, all: &[T], one: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    if s.eq_ignore_ascii_case("all") {
        Ok(all.to_vec())
    } else {
        Ok(vec![one(s)?])
    }
}

/// Parsed command line: scale, processor count, the cell grid and the
/// subcommand's own flags.
#[derive(Clone, Debug)]
pub struct Parsed {
    /// Problem scale preset.
    pub scale: Scale,
    /// Processor count for the run (paper: 16).
    pub nprocs: usize,
    /// Applications under study.
    pub apps: Vec<App>,
    /// Optimization classes under study.
    pub classes: Vec<OptClass>,
    /// Platform models under study (`all` is [`FAMILIES`]).
    pub platforms: Vec<Platform>,
    extras: Vec<(String, Option<String>)>,
}

impl Parsed {
    /// Value of a subcommand value flag (e.g. `extra("--out")`), if given.
    pub fn extra(&self, flag: &str) -> Option<&str> {
        self.extras
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether a subcommand switch was given.
    pub fn has(&self, flag: &str) -> bool {
        self.extras.iter().any(|(f, _)| f == flag)
    }

    /// Numeric value of a subcommand value flag, `default` when not given.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.extra(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag} {v}: not a number")),
            None => Ok(default),
        }
    }

    /// A metrics sampling period in cycles: [`Parsed::num`], but zero (the
    /// engine's "off") is a mistake where the subcommand needs the engine.
    pub fn period(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.num(flag, default)? {
            0 => Err(format!("{flag} 0: the sampling period must be nonzero")),
            n => Ok(n),
        }
    }

    /// `--procs` must fit every platform the subcommand is about to run
    /// on: the hardware-coherent models track sharers in a bit mask.
    pub fn check_procs(&self, platforms: &[Platform]) -> Result<(), String> {
        match platforms
            .iter()
            .find(|pf| matches!(pf, Platform::Dsm | Platform::Smp))
        {
            Some(pf) if self.nprocs > MAX_PROCS => Err(format!(
                "--procs {}: {} models at most {MAX_PROCS} processors",
                self.nprocs,
                pf.name()
            )),
            _ => Ok(()),
        }
    }

    /// `--procs` must suit every application version the subcommand is
    /// about to run (see [`apps::check_nprocs`]).
    pub fn check_apps(&self, apps: &[App], classes: &[OptClass]) -> Result<(), String> {
        for &app in apps {
            for &class in classes {
                apps::check_nprocs(app, class, self.nprocs, self.scale)
                    .map_err(|e| format!("--procs {}: {e}", self.nprocs))?;
            }
        }
        Ok(())
    }

    /// Run one application cell at the parsed scale and processor count,
    /// with `layers` switching diagnostic layers on over the default
    /// configuration (`|c| c` for a plain run).
    pub fn run(
        &self,
        app: App,
        class: OptClass,
        platform: Platform,
        layers: impl FnOnce(RunConfig) -> RunConfig,
    ) -> RunStats {
        AppSpec { app, class }.run_cfg(
            platform,
            self.nprocs,
            self.scale,
            layers(RunConfig::new(self.nprocs)),
        )
    }
}

/// Parse a subcommand's arguments (everything after its name).
pub fn parse(args: &[String], flags: &Flags) -> Result<Parsed, String> {
    let mut p = Parsed {
        scale: Scale::Default,
        nprocs: 16,
        apps: vec![App::Ocean],
        classes: vec![OptClass::Orig],
        platforms: vec![Platform::Svm],
        extras: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let named = |e: String| format!("{flag}: {e}");
        match flag {
            "--scale" => p.scale = parse_scale(value()?).map_err(named)?,
            "--procs" => {
                let v = value()?;
                p.nprocs = match v.parse() {
                    Ok(0) => return Err("--procs 0: at least one processor".to_string()),
                    Ok(n) => n,
                    Err(_) => return Err(format!("--procs {v}: not a number")),
                }
            }
            "--app" if flags.cell => {
                p.apps = axis(value()?, &App::ALL, parse_app).map_err(named)?
            }
            "--class" if flags.cell => {
                p.classes = axis(value()?, &OptClass::ALL, parse_class).map_err(named)?
            }
            "--platform" if flags.cell => {
                p.platforms = axis(value()?, &FAMILIES, parse_platform).map_err(named)?
            }
            _ if flags.values.contains(&flag) => {
                let v = value()?.to_string();
                p.extras.push((flag.to_string(), Some(v)));
            }
            _ if flags.switches.contains(&flag) => p.extras.push((flag.to_string(), None)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOOL: Flags = Flags {
        cell: true,
        values: &["--out"],
        switches: &["--strict"],
    };

    fn parse_strs(args: &[&str], flags: &Flags) -> Result<Parsed, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&args, flags)
    }

    #[test]
    fn defaults_and_standard_flags() {
        let p = parse_strs(&[], &Flags::NONE).unwrap();
        assert_eq!(p.nprocs, 16);
        assert_eq!(p.apps, [App::Ocean]);
        assert_eq!(p.classes, [OptClass::Orig]);
        assert_eq!(p.platforms, [Platform::Svm]);
        let p = parse_strs(
            &[
                "--scale",
                "test",
                "--procs",
                "4",
                "--app",
                "lu",
                "--class",
                "ds",
                "--platform",
                "tmk",
            ],
            &TOOL,
        )
        .unwrap();
        assert!(matches!(p.scale, Scale::Test));
        assert_eq!(p.nprocs, 4);
        assert_eq!(p.apps, [App::Lu]);
        assert_eq!(p.classes, [OptClass::DataStruct]);
        assert_eq!(p.platforms, [Platform::Tmk]);
    }

    #[test]
    fn all_selects_a_whole_axis() {
        let p = parse_strs(
            &["--app", "all", "--class", "ALL", "--platform", "all"],
            &TOOL,
        )
        .unwrap();
        assert_eq!(p.apps, App::ALL);
        assert_eq!(p.classes, OptClass::ALL);
        assert_eq!(p.platforms, FAMILIES);
    }

    #[test]
    fn extra_value_and_bool_flags() {
        let p = parse_strs(&["--out", "x.json", "--strict", "--procs", "2"], &TOOL).unwrap();
        assert_eq!(p.extra("--out"), Some("x.json"));
        assert!(p.has("--strict"));
        assert!(!p.has("--json"));
        assert_eq!(p.extra("--json"), None);
        assert_eq!(p.nprocs, 2);
        assert_eq!(p.num("--top", 8usize), Ok(8));
    }

    #[test]
    fn mistakes_are_one_line_naming_the_argument() {
        let err = |args: &[&str], flags: &Flags| parse_strs(args, flags).unwrap_err();
        assert_eq!(err(&["--bogus"], &TOOL), "unknown argument --bogus");
        // A flag the subcommand does not read is unknown to it.
        assert_eq!(
            err(&["--app", "lu"], &Flags::NONE),
            "unknown argument --app"
        );
        assert_eq!(err(&["--out", "x"], &Flags::NONE), "unknown argument --out");
        assert_eq!(err(&["--procs"], &Flags::NONE), "--procs needs a value");
        assert_eq!(err(&["--out"], &TOOL), "--out needs a value");
        assert_eq!(
            err(&["--procs", "0"], &Flags::NONE),
            "--procs 0: at least one processor"
        );
        assert_eq!(
            err(&["--procs", "four"], &Flags::NONE),
            "--procs four: not a number"
        );
        assert_eq!(
            err(&["--scale", "huge"], &Flags::NONE),
            "--scale: unknown scale huge (test|default|paper)"
        );
        assert_eq!(err(&["--app", "doom"], &TOOL), "--app: unknown app doom");
        let p = parse_strs(&["--out", "x"], &TOOL).unwrap();
        assert_eq!(p.num("--out", 1usize), Err("--out x: not a number".into()));
        assert_eq!(
            p.period("--top", 0),
            Err("--top 0: the sampling period must be nonzero".into())
        );
        // A processor count an application version cannot use.
        let at = |procs| parse_strs(&["--scale", "test", "--procs", procs], &Flags::NONE).unwrap();
        for (procs, app, class, why) in [
            (
                "2",
                App::Ocean,
                OptClass::PadAlign,
                "Ocean P/A: square partitions need a square processor count",
            ),
            (
                "9",
                App::Ocean,
                OptClass::DataStruct,
                "Ocean DS: the 32-point grid does not divide into 3x3 partitions",
            ),
            (
                "5",
                App::Volrend,
                OptClass::DataStruct,
                "Volrend DS: the 48-pixel image edge does not divide into a 1x5 block grid",
            ),
            (
                "6",
                App::Barnes,
                OptClass::Orig,
                "Barnes Alg: 64 bodies do not divide evenly among 6 processors",
            ),
            (
                "6",
                App::Radix,
                OptClass::Orig,
                "Radix Alg: 4096 keys do not divide evenly among 6 processors",
            ),
            (
                "6",
                App::Kv,
                OptClass::Orig,
                "KV Alg: 32 buckets do not divide evenly among 6 processors",
            ),
        ] {
            let err = at(procs).check_apps(&[App::Lu, app], &[OptClass::Algorithm, class]);
            assert_eq!(err, Err(format!("--procs {procs}: {why}")));
        }
        // Row-wise Ocean and the other applications take any count.
        let any = [App::Lu, App::ShearWarp, App::Raytrace, App::Ocean];
        assert_eq!(at("7").check_apps(&any, &[OptClass::Algorithm]), Ok(()));
    }

    #[test]
    fn procs_must_fit_the_hardware_platforms() {
        let p = parse_strs(&["--procs", "33"], &Flags::NONE).unwrap();
        assert_eq!(p.check_procs(&[Platform::Svm, Platform::Tmk]), Ok(()));
        assert_eq!(
            p.check_procs(&[Platform::Svm, Platform::Dsm]),
            Err("--procs 33: DSM models at most 32 processors".into())
        );
        let p = parse_strs(&["--procs", "32"], &Flags::NONE).unwrap();
        assert_eq!(p.check_procs(&[Platform::Smp]), Ok(()));
    }

    #[test]
    fn class_and_platform_aliases() {
        assert_eq!(parse_class("P/A"), Ok(OptClass::PadAlign));
        assert_eq!(parse_class("algorithm"), Ok(OptClass::Algorithm));
        assert_eq!(parse_platform("SMP"), Ok(Platform::Smp));
        assert_eq!(parse_app("Radix"), Ok(App::Radix));
        assert_eq!(scale_name(parse_scale("Paper").unwrap()), "paper");
    }
}
