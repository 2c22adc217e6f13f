//! The metric catalogue and the result of one run.
//!
//! The catalogue below is the single list of metric names in code;
//! `BENCHMARK.json` at the repository root repeats it for the driver
//! (a unit test keeps the two equal).

use std::collections::BTreeMap;

use crate::clock::Span;
use crate::json::Value;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which it may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of the system sees. Every
/// workload reports every one (see the README for what each means on
/// each workload). A bound is max(the issue's suggestion, 2 × the widest
/// spread `calibrate` measured in five rounds of ten sets), capped at
/// the contract's 0.25. The reference host drifts by 10–45% for minutes
/// at a time (neighbours, not this code: whole runs slow down together),
/// so every timing and throughput metric spread up to 0.135 in its
/// worst round and sits at the cap; in a calm round the same metrics
/// spread 2–8%. Timings are means of the fastest third of their samples
/// (`RunResult::set_timing`), so no name carries `p50`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("block_ms", "ms", Lower, 0.25),
    e2e("epoch_block_ms", "ms", Lower, 0.25),
    e2e("submit_us", "us", Lower, 0.25),
    e2e("credit_ms", "ms", Lower, 0.25),
    e2e("credit_blocks_p50", "blocks", Lower, 0.05),
    e2e("follower_block_ms", "ms", Lower, 0.25),
    e2e("cold_start_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// The per-layer metrics, measured in the traced run only. A metric
/// that does not apply to a workload, or whose optional program span
/// is absent, is `null` in the result file and `0` on the driver line.
pub const PER_LAYER: &[MetricDef] = &[
    // primitives — fixed-count probes of leaf functions.
    layer("primitives.poseidon_hash2_us", "us", Lower),
    layer("primitives.smt_insert_us", "us", Lower),
    layer("primitives.smt_remove_us", "us", Lower),
    layer("primitives.smt_proof_verify_us", "us", Lower),
    layer("primitives.schnorr_sign_us", "us", Lower),
    layer("primitives.schnorr_verify_us", "us", Lower),
    layer("primitives.sha256_mb_s", "MB/s", Higher),
    // snark — probes.
    layer("snark.prove_us", "us", Lower),
    layer("snark.verify_us", "us", Lower),
    layer("snark.batch_verify8_ms", "ms", Lower),
    layer("snark.aggregate_build8_ms", "ms", Lower),
    layer("snark.aggregate_verify_us", "us", Lower),
    // core — probes.
    layer("core.sc_commitment_us", "us", Lower),
    layer("core.settlement_codec_us", "us", Lower),
    // mainchain — harness timings and counts, then program spans.
    layer("mainchain.admit_us_per_tx", "us", Lower),
    layer("mainchain.sig_checks", "count", Lower),
    layer("mainchain.pool_refused", "count", Lower),
    layer("mainchain.follower_us_per_tx", "us", Lower),
    layer("mainchain.follower_cert_block_p50_ms", "ms", Lower),
    layer("mainchain.block_txs_p50", "count", Higher),
    layer("mainchain.utxo_count_end", "count", Lower),
    layer("mainchain.prepare_ms", "ms", Lower),
    layer("mainchain.submit_ms", "ms", Lower),
    layer("mainchain.stage1_ms", "ms", Lower),
    layer("mainchain.stage2_ms", "ms", Lower),
    layer("mainchain.stage3_ms", "ms", Lower),
    layer("mainchain.sig_batch_verify_ms", "ms", Lower),
    layer("mainchain.verdict_cache_hit_ratio", "ratio", Higher),
    layer("mainchain.sig_cache_hit_ratio", "ratio", Higher),
    layer("mainchain.precheck_skipped_ratio", "ratio", Higher),
    // latus.
    layer("latus.submit_pay_us", "us", Lower),
    layer("latus.submit_withdraw_us", "us", Lower),
    layer("latus.submit_xct_us", "us", Lower),
    layer("latus.submit_p99_us", "us", Lower),
    layer("latus.bt_credit_p50_ms", "ms", Lower),
    layer("latus.bt_credit_blocks_p50", "blocks", Lower),
    layer("latus.follower_receive_p50_ms", "ms", Lower),
    layer("latus.produce_certificate_p50_ms", "ms", Lower),
    layer("latus.mst_add_us", "us", Lower),
    layer("latus.sc_blocks_forged", "count", Higher),
    layer("latus.certificates_produced", "count", Higher),
    layer("latus.sc_txs_per_block_p50", "count", Higher),
    layer("latus.mst_len_end", "count", Lower),
    layer("latus.shard_sync_work_ms", "ms", Lower),
    layer("latus.shard_sync_p50_ms", "ms", Lower),
    // crosschain.
    layer("crosschain.observe_p50_us", "us", Lower),
    layer("crosschain.collect_p95_ms", "ms", Lower),
    layer("crosschain.delivered", "count", Higher),
    layer("crosschain.refunded", "count", Lower),
    layer("crosschain.settlement_batch_p50", "count", Higher),
    layer("crosschain.settlement_txs_saved", "count", Higher),
    layer("crosschain.pending_peak", "count", Lower),
    // store.
    layer("store.replay_ms", "ms", Lower),
    layer("store.index_rebuild_ms", "ms", Lower),
    layer("store.apply_event_p50_us", "us", Lower),
    layer("store.commit_p50_us", "us", Lower),
    layer("store.indexer_apply_p50_us", "us", Lower),
    layer("store.query_balance_ns", "ns", Lower),
    layer("store.query_pending_point_ns", "ns", Lower),
    layer("store.query_pending_list_us", "us", Lower),
    layer("store.inbound_root_ns", "ns", Lower),
    layer("store.state_digest_ms", "ms", Lower),
    layer("store.journal_bytes", "bytes", Lower),
    layer("store.records_replayed", "count", Lower),
    layer("store.torn_bytes", "bytes", Lower),
    // sim.
    layer("sim.world_new_ms", "ms", Lower),
    layer("sim.step_total_ms", "ms", Lower),
    layer("sim.fork_recover_ms", "ms", Lower),
    layer("sim.heal_replay_ms", "ms", Lower),
    layer("sim.ft_credit_blocks_p50", "blocks", Lower),
    layer("sim.coordinator_ms", "ms", Lower),
    layer("sim.prologue_ms", "ms", Lower),
    layer("sim.fold_ms", "ms", Lower),
    layer("sim.shard_critical_ms", "ms", Lower),
    layer("sim.parallel_efficiency", "ratio", Higher),
    layer("sim.span_coverage", "ratio", Higher),
    // loadgen — the harness's own cost, never on the system clock.
    layer("loadgen.population_s", "s", Lower),
    layer("loadgen.batch_us_per_tx", "us", Lower),
    layer("loadgen.generator_share", "ratio", Lower),
    // telemetry — the traced run's system clock; `all` divides it by
    // the untraced run's to get `telemetry.overhead_ratio`.
    layer("telemetry.system_s", "s", Lower),
];

/// The four workloads, in running order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sc_mesh",
        "8 sidechains, 32 users: forward, pay, cross-chain and backward transfers; Latus, the router and the SNARK do the work, the mainchain sees ~33 txs a block",
    ),
    (
        "mc_flood",
        "2 idle sidechains, a flash crowd of signed transfers into a pool small enough to evict; mainchain admission and validation do the work, Latus forges empty blocks",
    ),
    (
        "bridge_rush",
        "8 sidechains, a rush of forward transfers: mainchain admission writes the registry, Latus ingests foreign UTXOs in bulk and folds them into epoch proofs",
    ),
    (
        "node_restart",
        "the journaled store and indexer driven directly: kill and cold-start, then durable block applies beside mixed queries on one SMT-backed structure",
    ),
];

/// Looks a metric up in either list.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// Everything one run measured.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// The workload's name.
    pub workload: String,
    /// The seed every input was derived from.
    pub seed: u64,
    /// The `--seconds` the run was sized for.
    pub seconds: u32,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Metric values by name (`None`: not applicable / span absent).
    pub metrics: BTreeMap<String, Option<f64>>,
    /// Sample counts behind the timing metrics.
    pub samples: BTreeMap<String, u64>,
    /// Everything that must repeat exactly for one seed.
    pub counts: BTreeMap<String, String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (see the README for what counts).
    pub failed: u64,
    /// Correctness checks: `(name, passed)`.
    pub checks: Vec<(String, bool)>,
    /// System clock of the measured phase, seconds.
    pub system_s: f64,
    /// Wall time of the measured phase, seconds.
    pub wall_s: f64,
    /// The harness spans of a traced run.
    pub spans: Vec<Span>,
}

/// Lower-case hex of a digest (its `Display` abbreviates).
pub fn hex(digest: &zendoo_primitives::digest::Digest32) -> String {
    digest
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

impl RunResult {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: Option<f64>) {
        debug_assert!(metric_def(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a metric to the median of `samples` and records the sample
    /// count beside it: counts, set-up time, per-layer timings.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, crate::stats::median(samples));
        self.samples.insert(name.to_string(), samples.len() as u64);
    }

    /// Sets an end-to-end timing to the mean of the fastest third of
    /// `samples` (see [`crate::stats::fastest_third_mean`] for why) and
    /// records the sample count beside it.
    pub fn set_timing(&mut self, name: &str, samples: &[f64]) {
        self.set(name, crate::stats::fastest_third_mean(samples));
        self.samples.insert(name.to_string(), samples.len() as u64);
    }

    /// Records a count that must repeat exactly for one seed.
    pub fn count(&mut self, name: &str, value: impl ToString) {
        self.counts.insert(name.to_string(), value.to_string());
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, passed: bool) {
        self.checks.push((name.to_string(), passed));
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, passed)| *passed)
    }

    /// A digest of every count: identical for two runs of one seed,
    /// different for another seed.
    pub fn counts_digest(&self) -> String {
        let mut parts: Vec<&[u8]> = Vec::new();
        for (name, value) in &self.counts {
            parts.push(name.as_bytes());
            parts.push(value.as_bytes());
        }
        hex(&zendoo_primitives::digest::Digest32::hash_tagged(
            "zendoo/benchmark-counts",
            &parts,
        ))
    }

    /// The metric list this run answers for.
    pub fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The line the driver reads: `correct`, `attempted`, `failed`,
    /// `metrics` and nothing else. An absent per-layer metric reads 0.
    pub fn driver_line(&self) -> String {
        let metrics = self.catalogue().iter().map(|def| {
            let value = self.metrics.get(def.name).copied().flatten().unwrap_or(0.0);
            (
                def.name,
                Value::object([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(def.unit.into())),
                ]),
            )
        });
        Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::object(metrics)),
        ])
        .to_line()
    }

    /// The full record written to `results/<workload>[.trace].json`.
    pub fn to_json(&self, host: &Value) -> Value {
        Value::object([
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Str(self.seed.to_string())),
            ("seconds", Value::Num(f64::from(self.seconds))),
            ("traced", Value::Bool(self.traced)),
            ("host", host.clone()),
            ("correct", Value::Bool(self.correct())),
            ("ops_attempted", Value::Num(self.attempted as f64)),
            ("ops_failed", Value::Num(self.failed as f64)),
            ("system_s", Value::Num(self.system_s)),
            ("wall_s", Value::Num(self.wall_s)),
            ("counts_digest", Value::Str(self.counts_digest())),
            (
                "counts",
                Value::object(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.as_str(), Value::Str(v.clone()))),
                ),
            ),
            (
                "checks",
                Value::object(
                    self.checks
                        .iter()
                        .map(|(k, v)| (k.as_str(), Value::Bool(*v))),
                ),
            ),
            (
                "metrics",
                Value::object(self.catalogue().iter().map(|def| {
                    (
                        def.name,
                        Value::object([
                            (
                                "value",
                                Value::number(self.metrics.get(def.name).copied().flatten()),
                            ),
                            ("unit", Value::Str(def.unit.into())),
                            (
                                "samples",
                                Value::number(self.samples.get(def.name).map(|n| *n as f64)),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = metric_def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        // set-up gets the largest bound
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `BENCHMARK.json` repeats the catalogue for the driver; the two
    /// must not drift apart.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<BTreeMap<String, Value>> {
            match doc.get(key) {
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|item| item.as_object().expect("object").clone())
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        for (key, defs, with_bound) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry["name"].as_str(), Some(def.name));
                assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
                assert_eq!(
                    entry["better"].as_str(),
                    Some(def.better.name()),
                    "{}",
                    def.name
                );
                assert_eq!(entry.contains_key("bound"), with_bound);
                if with_bound {
                    assert_eq!(entry["bound"].as_f64(), Some(def.bound), "{}", def.name);
                }
            }
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(entry["name"].as_str(), Some(*name));
            assert_eq!(entry["why"].as_str(), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(
            doc.get("paths"),
            Some(&Value::Arr(vec![Value::Str("benchmark".into())]))
        );
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut run = RunResult {
            workload: "sc_mesh".into(),
            attempted: 10,
            ..RunResult::default()
        };
        run.set("setup_s", Some(0.25));
        run.check("conservation", true);
        let doc = Value::parse(&run.driver_line()).unwrap();
        let keys: Vec<_> = doc.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"],
            Value::object([
                ("value", Value::Num(0.25)),
                ("unit", Value::Str("s".into()))
            ])
        );

        run.check("follower tip", false);
        assert!(!run.correct());
        run.traced = true;
        let doc = Value::parse(&run.driver_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn counts_digest_depends_on_every_count() {
        let mut a = RunResult::default();
        a.count("ops.xct", 715);
        a.count("tip", "abcd");
        let mut b = a.clone();
        assert_eq!(a.counts_digest(), b.counts_digest());
        b.count("ops.xct", 716);
        assert_ne!(a.counts_digest(), b.counts_digest());
    }
}
