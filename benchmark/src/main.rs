//! One seeded end-to-end benchmark of the Zendoo reproduction: the
//! transfer lifecycle on four workloads, with per-layer attribution.
//!
//! ```text
//! zendoo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! zendoo-benchmark all [--seed <n>] [--seconds <s>] [--quick]
//! zendoo-benchmark calibrate --sets <N> [--seed <n>] [--seconds <s>]
//! zendoo-benchmark compare <before-dir> <after-dir>
//! zendoo-benchmark catalogue        # BENCHMARK.json, from the code
//! ```
//!
//! The first form is what the driver runs (see `BENCHMARK.json`): one
//! process per workload, the result as one JSON object on the last line
//! of standard output. See `README.md` for the glossary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod commands;
mod host;
mod json;
mod probes;
mod restart;
mod result;
mod stats;
mod tracker;
mod worlds;

use std::path::PathBuf;
use std::process::ExitCode;

use result::{RunResult, WORKLOADS};
use worlds::WorldKind;

/// The seed `all` and `calibrate` start from when none is given.
pub const DEFAULT_SEED: u64 = 20_200_704;
/// `run_seconds` of `BENCHMARK.json`: what the workloads are sized for
/// when `--seconds` is not given.
pub const DEFAULT_SECONDS: u32 = 10;
/// `--quick`: every workload at about a tenth of the scale, all checks
/// on — the smoke test.
pub const QUICK_SECONDS: u32 = 1;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Every input derives from it.
    pub seed: u64,
    /// The measured phase is sized to last about this long on the
    /// reference host.
    pub seconds: u32,
    /// The traced run: spans, shadow nodes, probes, per-layer metrics.
    pub traced: bool,
    /// Where to write `<workload>[.trace].json`; nowhere when absent.
    pub out: Option<PathBuf>,
}

/// Runs one workload in this process.
pub fn run_workload(options: &RunOptions) -> Result<RunResult, String> {
    let mut result = match options.workload.as_str() {
        "sc_mesh" => worlds::run(WorldKind::ScMesh, options),
        "mc_flood" => worlds::run(WorldKind::McFlood, options),
        "bridge_rush" => worlds::run(WorldKind::BridgeRush, options),
        "node_restart" => restart::run(options),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS
                .iter()
                .map(|(name, _)| *name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }?;
    if options.traced {
        probes::run(options.seed, &mut result);
    }
    let measured = result
        .catalogue()
        .iter()
        .all(|def| options.traced || result.metrics.get(def.name).copied().flatten().is_some());
    result.check("every end-to-end metric was measured", measured);
    result.check("no operation failed", result.failed == 0);
    Ok(result)
}

fn usage() -> String {
    "usage:\n  \
     zendoo-benchmark [run] --workload <name> --seed <u64> --seconds <1-60> --trace <0|1> [--out <dir>]\n  \
     zendoo-benchmark all [--seed <u64>] [--seconds <1-60>] [--quick] [--out <dir>]\n  \
     zendoo-benchmark calibrate --sets <N> [--seed <u64>] [--seconds <1-60>] [--out <dir>]\n  \
     zendoo-benchmark compare <before-dir> <after-dir>\n  \
     zendoo-benchmark catalogue"
        .to_string()
}

/// Flags shared by the subcommands.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    traced: bool,
    sets: usize,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        sets: 0,
        out: None,
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned 64-bit integer".to_string())?;
            }
            "--seconds" => {
                flags.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                flags.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--traced" => flags.traced = true,
            "--quick" => flags.seconds = QUICK_SECONDS,
            "--sets" => {
                flags.sets = value("--sets")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--sets takes a whole number from 1 to 100")?;
            }
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(name @ ("run" | "all" | "calibrate" | "compare" | "catalogue")) => (name, &args[1..]),
        _ => ("run", args),
    };
    let flags = parse_flags(rest)?;
    match command {
        "run" => {
            if !flags.positional.is_empty() {
                return Err(format!("unexpected argument {:?}", flags.positional[0]));
            }
            let options = RunOptions {
                workload: flags.workload.ok_or("--workload is required")?,
                seed: flags.seed,
                seconds: flags.seconds,
                traced: flags.traced,
                out: flags.out,
            };
            commands::run(&options)
        }
        "all" => commands::all(flags.seed, flags.seconds, flags.out),
        "catalogue" => commands::catalogue(),
        "calibrate" => {
            if flags.sets == 0 {
                return Err("calibrate needs --sets <N>".into());
            }
            commands::calibrate(flags.sets, flags.seed, flags.seconds, flags.out)
        }
        _ => match flags.positional.as_slice() {
            [before, after] => commands::compare(before.as_ref(), after.as_ref()),
            _ => Err("compare takes <before-dir> <after-dir>".into()),
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
