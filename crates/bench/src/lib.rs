//! The one scaling curve worth a committed record, and its reporter.
//!
//! The repository has **one** benchmark system, split by one rule:
//!
//! * anything end-to-end, or per-layer *on a workload* (stage times,
//!   cache ratios, admission, settlement batching, lane efficiency,
//!   restart), is a named metric of the standalone `benchmark/` package
//!   that `BENCHMARK.json` declares — it judges every claim;
//! * how a cost *scales* with a parameter the paper's claims are about
//!   is a statement on operation counts, asserted by the root
//!   `tests/paper_claims.rs` (`make test-claims`), not a curve;
//! * this crate keeps the one curve whose wall clock *is* the result:
//!   `indexer` (10⁶ UTXOs / 10⁵ pending transfers), a plain program
//!   that times itself and writes `BENCH_indexer.json` through
//!   [`write_report`] (`make bench-smoke` regenerates it) — plus
//!   `tests/noop_overhead.rs`.

use std::process::Command;

/// Cores available to this process (`host_cores` in every report).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git describe` of HEAD where the bench runs: the abbreviated commit,
/// `-dirty` appended when the working tree differs from it (a report is
/// necessarily produced before the commit that carries it exists).
fn git_rev() -> String {
    Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=12",
            "--exclude=*",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_owned())
}

/// The one reporter: writes `BENCH_<bench>.json` at the workspace root
/// with where the numbers come from (`host_cores`, `git_rev`), at what
/// size (`scale`) and what was measured (`results`). `scale` and
/// `results` are JSON values the bench formats itself.
///
/// # Panics
///
/// When the file cannot be written — a bench whose record is lost has
/// failed.
pub fn write_report(bench: &str, scale: &str, results: &str) {
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host_cores\": {},\n  \"git_rev\": \"{}\",\n  \"scale\": {scale},\n  \"results\": {results}\n}}\n",
        host_cores(),
        git_rev(),
    );
    let file = format!("BENCH_{bench}.json");
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("{bench}/report written to {file}");
}
