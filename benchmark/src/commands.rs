//! The subcommands: `run` (one workload, this process), `all`,
//! `calibrate` (child processes, one per workload so that `peak_rss_mb`
//! is per workload) and `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::clock;
use crate::host;
use crate::json::Value;
use crate::result::{Better, MetricDef, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::{run_workload, RunOptions};

fn file_name(workload: &str, traced: bool) -> String {
    if traced {
        format!("{workload}.trace.json")
    } else {
        format!("{workload}.json")
    }
}

fn write_result(dir: &Path, result: &RunResult) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut doc = result.to_json(&host::describe());
    if let (true, Value::Obj(map)) = (result.traced, &mut doc) {
        // The span file: every harness span of the run, in start order.
        let spans = result.spans.iter().enumerate().map(|(index, span)| {
            Value::object([
                ("name", Value::Str(span.name.into())),
                ("start_us", Value::Num(span.start_ns as f64 / 1e3)),
                ("end_us", Value::Num(span.end_ns as f64 / 1e3)),
                (
                    "self_us",
                    Value::Num(clock::self_time_ns(&result.spans, index) as f64 / 1e3),
                ),
                (
                    "parent",
                    Value::number(span.parent.map(|index| index as f64)),
                ),
                ("tick", Value::Num(f64::from(span.tick))),
                ("system", Value::Bool(span.system)),
            ])
        });
        map.insert("spans".into(), Value::Arr(spans.collect()));
    }
    let path = dir.join(file_name(&result.workload, result.traced));
    std::fs::write(&path, doc.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// `catalogue`: `BENCHMARK.json` as the catalogue in code implies it.
pub fn catalogue() -> Result<bool, String> {
    let metrics = |defs: &[MetricDef], with_bound: bool| {
        let entries = defs.iter().map(|def| {
            let mut entry = vec![
                ("name", Value::Str(def.name.into())),
                ("unit", Value::Str(def.unit.into())),
                ("better", Value::Str(def.better.name().into())),
            ];
            if with_bound {
                entry.push(("bound", Value::Num(def.bound)));
            }
            Value::object(entry)
        });
        Value::Arr(entries.collect())
    };
    let strings =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let doc = Value::object([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Num(f64::from(crate::DEFAULT_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::object([
                            ("name", Value::Str(name.to_string())),
                            ("why", Value::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(END_TO_END, true)),
        ("per_layer", metrics(PER_LAYER, false)),
    ]);
    println!("{}", doc.to_line());
    Ok(true)
}

/// `run`: one workload in this process. Prints the checks, then — as
/// the last line of standard output — the object the driver reads.
pub fn run(options: &RunOptions) -> Result<bool, String> {
    let result = run_workload(options)?;
    for (name, _) in result.checks.iter().filter(|(_, passed)| !passed) {
        eprintln!("check FAILED: {name}");
    }
    eprintln!(
        "{}: {} of {} checks passed, {} of {} operations failed",
        result.workload,
        result.checks.iter().filter(|(_, passed)| *passed).count(),
        result.checks.len(),
        result.failed,
        result.attempted,
    );
    if let Some(dir) = &options.out {
        write_result(dir, &result)?;
    }
    println!("{}", result.driver_line());
    Ok(true)
}

/// Runs one workload in a child process and reads its result file back.
fn run_child(options: &RunOptions, dir: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let status = Command::new(exe)
        .args(["run", "--workload", &options.workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(dir)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawning {}: {e}", options.workload))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", options.workload));
    }
    read_result(&dir.join(file_name(&options.workload, options.traced)))
}

fn read_result(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn text<'a>(result: &'a Value, key: &str) -> &'a str {
    result.get(key).and_then(Value::as_str).unwrap_or("")
}

fn number(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn print_metrics(result: &Value, defs: &[MetricDef]) {
    for def in defs {
        let entry = result.get("metrics").and_then(|m| m.get(def.name));
        let value = entry.and_then(|e| e.get("value")).and_then(Value::as_f64);
        let samples = entry.and_then(|e| e.get("samples")).and_then(Value::as_f64);
        println!(
            "  {:<36} {:>16} {:<7}{}",
            def.name,
            value.map_or_else(|| "null".into(), |v| format!("{v:.4}")),
            def.unit,
            samples.map_or_else(String::new, |n| format!(" n={n}")),
        );
    }
}

/// `all`: every workload untraced, then traced, then untraced on a
/// second seed; prints every metric by name with its unit and runs the
/// checks, among them the determinism guard.
pub fn all(seed: u64, seconds: u32, out: Option<PathBuf>) -> Result<bool, String> {
    let dir = out.unwrap_or_else(host::results_dir);
    let mut ok = true;
    let verdict = |ok: &mut bool, passed: bool, what: String| {
        println!("  check {}: {what}", if passed { "ok  " } else { "FAIL" });
        *ok &= passed;
    };
    for (workload, why) in WORKLOADS {
        println!("== {workload} (seed {seed}, sized for {seconds} s)\n   {why}");
        let options = |seed: u64, traced: bool| RunOptions {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            out: None,
        };
        let untraced = run_child(&options(seed, false), &dir)?;
        print_metrics(&untraced, END_TO_END);
        let traced = run_child(&options(seed, true), &dir)?;
        print_metrics(&traced, PER_LAYER);
        let overhead = number(&traced, "system_s") / number(&untraced, "system_s");
        println!(
            "  {:<36} {overhead:>16.4} ratio   (traced ÷ untraced system clock)",
            "telemetry.overhead_ratio"
        );
        let other = run_child(
            &options(seed.wrapping_add(1), false),
            &dir.join("other-seed"),
        )?;

        for run in [&untraced, &traced, &other] {
            let label = format!(
                "seed {}{}",
                text(run, "seed"),
                if run.get("traced") == Some(&Value::Bool(true)) {
                    ", traced"
                } else {
                    ""
                }
            );
            if let Some(checks) = run.get("checks").and_then(Value::as_object) {
                for (name, passed) in checks {
                    if passed != &Value::Bool(true) {
                        verdict(&mut ok, false, format!("{label}: {name}"));
                    }
                }
            }
            verdict(
                &mut ok,
                run.get("correct") == Some(&Value::Bool(true)) && number(run, "ops_failed") == 0.0,
                format!(
                    "{label}: every check passed, {} operations attempted, {} failed",
                    number(run, "ops_attempted"),
                    number(run, "ops_failed")
                ),
            );
        }
        verdict(
            &mut ok,
            text(&untraced, "counts_digest") == text(&traced, "counts_digest"),
            format!(
                "counts_digest repeats for one seed, traced or not ({})",
                text(&untraced, "counts_digest")
            ),
        );
        verdict(
            &mut ok,
            text(&untraced, "counts_digest") != text(&other, "counts_digest"),
            "counts_digest differs for another seed".into(),
        );
    }
    println!("results written to {}", dir.display());
    Ok(ok)
}

/// Every `<workload>.json` under `dir`: directly in it, or one level
/// down (`set-0/`, `set-1/`, …). Workload → runs.
fn load_runs(dir: &Path) -> Result<BTreeMap<String, Vec<Value>>, String> {
    let mut dirs = vec![dir.to_path_buf()];
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut subdirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.is_dir())
        .collect();
    subdirs.sort();
    dirs.extend(subdirs);
    let mut runs: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for dir in dirs {
        for (workload, _) in WORKLOADS {
            let path = dir.join(file_name(workload, false));
            if path.is_file() {
                runs.entry(workload.to_string())
                    .or_default()
                    .push(read_result(&path)?);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| metric_value(run, metric))
        .collect()
}

/// `calibrate`: `sets` full sets of the same code, each on another
/// seed, as the driver measures; prints every metric's spread — the
/// distance between its quartiles as a share of its median — and the
/// bound it implies: max(suggested, 2 × spread).
pub fn calibrate(
    sets: usize,
    seed: u64,
    seconds: u32,
    out: Option<PathBuf>,
) -> Result<bool, String> {
    let dir = out.unwrap_or_else(|| host::results_dir().join("calibrate"));
    let mut within = true;
    for set in 0..sets {
        for (workload, _) in WORKLOADS {
            let options = RunOptions {
                workload: workload.to_string(),
                seed: seed.wrapping_add(set as u64),
                seconds,
                traced: false,
                out: None,
            };
            let run = run_child(&options, &dir.join(format!("set-{set}")))?;
            if run.get("correct") != Some(&Value::Bool(true)) {
                println!(
                    "set {set} {workload}: a check FAILED (seed {})",
                    options.seed
                );
                within = false;
            }
            eprintln!(
                "set {set} {workload}: wall {:.1} s, system {:.1} s",
                number(&run, "wall_s"),
                number(&run, "system_s")
            );
        }
    }
    let runs = load_runs(&dir)?;
    println!("host: {}", host::describe().to_line());
    println!(
        "{sets} sets, seeds {seed}..{}, sized for {seconds} s",
        seed + sets as u64 - 1
    );
    println!(
        "{:<13} {:<30} {:>14} {:>9} {:>7} {:>9}",
        "workload", "metric", "median", "spread", "bound", "implied"
    );
    let mut implied: BTreeMap<&str, f64> = BTreeMap::new();
    for (workload, runs) in &runs {
        for def in END_TO_END {
            let samples = values(runs, def.name);
            let mid = median(&samples);
            let wide = spread(&samples);
            let need = wide.map_or(def.bound, |wide| def.bound.max(2.0 * wide));
            let slot = implied.entry(def.name).or_insert(def.bound);
            *slot = slot.max(need);
            within &= def.name == "setup_s" || wide.is_some_and(|wide| wide <= def.bound);
            println!(
                "{workload:<13} {:<30} {:>14} {:>9} {:>7.3} {need:>9.3}",
                def.name,
                mid.map_or_else(|| "null".into(), |v| format!("{v:.4}")),
                wide.map_or_else(|| "n/a".into(), |v| format!("{v:.4}")),
                def.bound,
            );
        }
    }
    println!("bounds implied across workloads (the contract caps a bound at 0.25):");
    for def in END_TO_END {
        println!("  {:<30} {:.3}", def.name, implied[def.name]);
    }
    Ok(within)
}

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the parent's own spread.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The parent's own spread exceeds the bound, and the change's runs
    /// do not all beat the parent's.
    Unresolved,
}

/// Judges `after` against `before` for one metric. Returns the verdict
/// and by how much the median got worse, as a share of the parent's.
pub fn judge(def: &MetricDef, before: &[f64], after: &[f64]) -> Option<(Verdict, f64)> {
    let (base, new) = (median(before)?, median(after)?);
    if base == 0.0 {
        return None;
    }
    let sign = if def.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let worse_by = sign * (new - base) / base.abs();
    let noise = spread(before).unwrap_or(0.0);
    let beats_all = before.iter().all(|b| {
        after.iter().all(|a| {
            if def.better == Better::Lower {
                a < b
            } else {
                a > b
            }
        })
    });
    let verdict = if noise > def.bound {
        if beats_all {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > def.bound {
        Verdict::Worse
    } else if -worse_by > noise && beats_all {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((verdict, worse_by))
}

/// `compare`: one row per (workload, end-to-end metric) with both
/// medians, the ratio and its base, the bound and a verdict. `false`
/// on any `worse`, or when a larger share of operations failed.
pub fn compare(before_dir: &Path, after_dir: &Path) -> Result<bool, String> {
    let (before, after) = (load_runs(before_dir)?, load_runs(after_dir)?);
    println!(
        "{:<13} {:<30} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "before", "after", "after/before (base)", "bound"
    );
    let mut ok = true;
    for (workload, before_runs) in &before {
        let Some(after_runs) = after.get(workload) else {
            println!("{workload:<13} missing from {}", after_dir.display());
            ok = false;
            continue;
        };
        for def in END_TO_END {
            let (b, a) = (values(before_runs, def.name), values(after_runs, def.name));
            let Some((verdict, _)) = judge(def, &b, &a) else {
                println!("{workload:<13} {:<30} not measured on both sides", def.name);
                ok = false;
                continue;
            };
            let (base, new) = (median(&b).unwrap_or(0.0), median(&a).unwrap_or(0.0));
            println!(
                "{workload:<13} {:<30} {base:>14.4} {new:>14.4} {:>22} {:>6.2}  {}",
                def.name,
                format!("{:.4} ({base:.4} {})", new / base, def.unit),
                def.bound,
                format!("{verdict:?}").to_lowercase(),
            );
            ok &= verdict != Verdict::Worse;
        }
        let failed_share = |runs: &[Value]| {
            let failed: f64 = runs.iter().map(|run| number(run, "ops_failed")).sum();
            let attempted: f64 = runs.iter().map(|run| number(run, "ops_attempted")).sum();
            failed / attempted.max(1.0)
        };
        let (b, a) = (failed_share(before_runs), failed_share(after_runs));
        println!(
            "{workload:<13} {:<30} {b:>14.6} {a:>14.6}{:>31}  {}",
            "ops_failed / ops_attempted",
            "",
            if a > b { "worse" } else { "same" }
        );
        ok &= a <= b;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "block_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_parents_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let verdict = |def, before: &[f64], after: &[f64]| judge(def, before, after).unwrap().0;
        // Within the bound either way.
        assert_eq!(
            verdict(&LOWER, &steady, &[104.0, 105.0, 103.0]),
            Verdict::Same
        );
        // Worse by more than the bound, in the metric's own direction.
        assert_eq!(
            verdict(&LOWER, &steady, &[115.0, 116.0, 114.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&HIGHER, &steady, &[85.0, 86.0, 84.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&HIGHER, &steady, &[115.0, 116.0, 114.0]),
            Verdict::Better
        );
        // Better than every run of the parent, beyond its spread.
        assert_eq!(
            verdict(&LOWER, &steady, &[90.0, 91.0, 89.0]),
            Verdict::Better
        );
        // Better on the median but not on every run: not claimed.
        assert_eq!(verdict(&LOWER, &steady, &[97.0, 96.0, 99.8]), Verdict::Same);
        // A parent noisier than the bound resolves nothing…
        let noisy = [100.0, 140.0, 80.0, 120.0, 90.0];
        assert_eq!(
            verdict(&LOWER, &noisy, &[130.0, 131.0]),
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the parent.
        assert_eq!(verdict(&LOWER, &noisy, &[70.0, 75.0]), Verdict::Better);
        // The ratio comes with its base: +15% of 100.
        let (_, worse_by) = judge(&LOWER, &steady, &[115.0]).unwrap();
        assert!((worse_by - 0.15).abs() < 1e-9);
        assert!(judge(&LOWER, &[], &[1.0]).is_none());
    }
}
