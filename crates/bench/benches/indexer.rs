//! Persistent store + indexer at scale: cold-start recovery (journal
//! replay + index rebuild) and query latency with 10^6 UTXOs and 10^5
//! pending inbound transfers on disk.
//!
//! Shape to reproduce: cold start is one linear journal scan plus one
//! linear index build; balance and pending-inbound point queries stay
//! logarithmic in the set size afterwards.
//!
//! This bench builds the full-scale store from synthetic chain events,
//! generated one block at a time, kills it, recovers, and records
//! `BENCH_indexer.json` through [`zendoo_bench::write_report`] with the
//! measured cold-start breakdown and per-query-class latency
//! percentiles — all read from the `store.*` / `indexer.*` telemetry
//! spans the components record about themselves — and the process's
//! peak resident set (`VmHWM`), which the store's in-memory mirror and
//! the rebuilt index set: no more than one block's events is held
//! besides them. (Cold start at workload size is the benchmark's
//! `node_restart`: `cold_start_s`, `store.replay_ms`,
//! `store.index_rebuild_ms`.)

use std::path::{Path, PathBuf};

use zendoo_bench::write_report;
use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::{ChainEvent, OutPoint, TxOut};
use zendoo_primitives::digest::Digest32;
use zendoo_store::{Indexer, UtxoStore};
use zendoo_telemetry::{Snapshot, Telemetry};

/// Full-scale report parameters: ~10^6 live UTXOs (after churn) with
/// 10^5 of them escrow-kind pending transfers, spread over 16
/// destination sidechains.
const BLOCKS: usize = 100;
const CREATED_PER_BLOCK: usize = 10_500;
const SPENT_PER_BLOCK: usize = 500;
const PENDING: usize = 100_000;
const DESTS: usize = 16;
/// Distinct funded addresses (balances map size).
const ADDRESSES: usize = 10_000;

fn digest(tag: &str, i: u64) -> Digest32 {
    Digest32::hash_tagged("bench.indexer", &[tag.as_bytes(), &i.to_be_bytes()])
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("zendoo-bench-indexer-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Deterministic synthetic chain events, made as they are consumed:
/// `blocks` connects, each creating `created` outputs (every 10th an
/// escrow until `pending` escrows exist) and spending `spent` regular
/// outputs of the previous block.
fn synthetic_events(
    blocks: usize,
    created: usize,
    spent: usize,
    pending: usize,
) -> impl Iterator<Item = ChainEvent> {
    let dests: Vec<SidechainId> = (0..DESTS as u64)
        .map(|d| SidechainId(digest("dest", d)))
        .collect();
    let source = SidechainId(digest("source", 0));
    let mut escrows = 0usize;
    let mut global = 0u64;
    let mut prev_regular: Vec<(OutPoint, TxOut)> = Vec::new();
    (0..blocks).map(move |block| {
        let mut created_now = Vec::with_capacity(created);
        let mut regular_now = Vec::with_capacity(created);
        for i in 0..created {
            let outpoint = OutPoint {
                txid: digest("tx", global),
                index: 0,
            };
            let address = Address(digest("addr", global % ADDRESSES as u64));
            let amount = Amount::from_units(1_000 + global % 9_000);
            let out = if i % 10 == 0 && escrows < pending {
                let tag = EscrowTag {
                    source,
                    epoch: block as u32,
                    dest: dests[escrows % DESTS],
                    payback: address,
                    nullifier: Nullifier(digest("null", escrows as u64)),
                };
                escrows += 1;
                TxOut::escrow(address, amount, tag)
            } else {
                let out = TxOut::regular(address, amount);
                regular_now.push((outpoint, out));
                out
            };
            created_now.push((outpoint, out));
            global += 1;
        }
        let spent_now: Vec<(OutPoint, TxOut)> = if block == 0 {
            Vec::new()
        } else {
            prev_regular
                .drain(..spent.min(prev_regular.len()))
                .collect()
        };
        prev_regular = regular_now;
        ChainEvent::Connected {
            hash: digest("block", block as u64 + 1),
            height: block as u64 + 1,
            created: created_now,
            spent: spent_now,
        }
    })
}

/// Bootstraps a store in `dir` from an empty chain and feeds it the
/// synthetic events (committing once per block, as the sim does).
fn populate(
    dir: &Path,
    events: impl Iterator<Item = ChainEvent>,
    telemetry: Telemetry,
) -> UtxoStore {
    let chain = Blockchain::new(ChainParams::default());
    let mut store = UtxoStore::open(dir, telemetry).expect("open");
    store.bootstrap(&chain).expect("bootstrap");
    for event in events {
        store.apply_event(&event).expect("apply");
        store.commit().expect("commit");
    }
    store
}

/// The process's peak resident set in MB (`VmHWM`), `None` where
/// `/proc` does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn quantiles(snapshot: &Snapshot, span: &str) -> (u64, u64, u64, u64) {
    let stats = snapshot
        .spans
        .get(span)
        .unwrap_or_else(|| panic!("span {span} was never recorded"));
    (
        stats.count,
        stats.nanos.quantile(0.5),
        stats.nanos.quantile(0.99),
        stats.nanos.max(),
    )
}

fn query_block(name: &str, (count, p50, p99, max): (u64, u64, u64, u64)) -> String {
    format!(
        "\"{name}\": {{\"count\": {count}, \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"max_ns\": {max}}}"
    )
}

/// The full-scale run: populate, kill, recover cold, query — and write
/// the JSON report.
fn main() {
    let dir = temp_dir("report");
    let events = synthetic_events(BLOCKS, CREATED_PER_BLOCK, SPENT_PER_BLOCK, PENDING);
    let store = populate(&dir, events, Telemetry::disabled());
    let utxos = store.utxo_count();
    assert!(utxos >= 1_000_000, "scale floor missed: {utxos} UTXOs");
    let journal_bytes = std::fs::metadata(dir.join("utxo-journal.log"))
        .expect("journal exists")
        .len();
    // Kill: no graceful shutdown.
    drop(store);

    // Cold start under a recording telemetry: journal replay
    // (`store.replay`) then index rebuild (`indexer.coldstart`).
    let (telemetry, recorder) = Telemetry::in_memory();
    let store = UtxoStore::open(&dir, telemetry.clone()).expect("recover");
    let indexer = Indexer::from_store(&store, telemetry);
    let cold = recorder.drain();
    let replay_ns = cold.spans["store.replay"].total_nanos;
    let rebuild_ns = cold.spans["indexer.coldstart"].total_nanos;
    let records = cold.counters["store.records_replayed"];
    assert_eq!(indexer.pending_total(), PENDING);

    // Query latency, one drained snapshot per query class so the
    // shared span paths don't mix.
    let dests: Vec<SidechainId> = (0..DESTS as u64)
        .map(|d| SidechainId(digest("dest", d)))
        .collect();
    for i in 0..10_000u64 {
        let address = Address(digest("addr", (i * 97) % ADDRESSES as u64));
        std::hint::black_box(indexer.balance(&address));
    }
    let balance = quantiles(&recorder.drain(), "indexer.query.balance");
    for i in 0..10_000u64 {
        let n = (i * 97) % PENDING as u64;
        let nullifier = Nullifier(digest("null", n));
        let dest = dests[n as usize % DESTS];
        std::hint::black_box(
            indexer
                .pending_inbound_for(&dest, &nullifier)
                .expect("pending entry exists"),
        );
    }
    let pending_point = quantiles(&recorder.drain(), "indexer.query.pending");
    for i in 0..256u64 {
        std::hint::black_box(indexer.pending_inbound(&dests[i as usize % DESTS]).len());
    }
    let pending_list = quantiles(&recorder.drain(), "indexer.query.pending");

    let peak_rss = peak_rss_mb().map_or_else(|| "null".into(), |mb| format!("{mb:.1}"));
    write_report(
        "indexer",
        &format!(
            "{{\"utxos\": {utxos}, \"pending_inbound\": {PENDING}, \"destinations\": {DESTS}, \"funded_addresses\": {}, \"journal_bytes\": {journal_bytes}}}",
            indexer.funded_addresses(),
        ),
        &format!(
            "{{\n    \"cold_start\": {{\"records_replayed\": {records}, \"journal_replay_ms\": {}, \"index_rebuild_ms\": {}, \"total_ms\": {}}},\n    \"memory\": {{\"peak_rss_mb\": {peak_rss}}},\n    \"queries\": {{\n      {},\n      {},\n      {}\n    }}\n  }}",
            replay_ns / 1_000_000,
            rebuild_ns / 1_000_000,
            (replay_ns + rebuild_ns) / 1_000_000,
            query_block("balance", balance),
            query_block("pending_inbound_point", pending_point),
            query_block("pending_inbound_list", pending_list),
        ),
    );
    println!(
        "indexer/report: {utxos} UTXOs replayed in {}ms + rebuilt in {}ms; pending point query p99 {}ns; peak RSS {peak_rss} MB",
        replay_ns / 1_000_000,
        rebuild_ns / 1_000_000,
        pending_point.2,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
