//! Block-level recursive proof aggregation: O(1) mainchain
//! verification per block.
//!
//! Shape to reproduce: a receiving node under `VerifyMode::Individual`
//! verifies one SNARK per statement in the block — linear in the
//! block's certificate count. Under `VerifyMode::Aggregated` the block
//! carries one recursive proof folded from all its statements, and the
//! receiver checks **one** SNARK regardless of block size; the only
//! per-statement work left is recomputing the multiset statement
//! digest (one hash each), orders of magnitude cheaper than a curve
//! verification.
//!
//! This bench records `BENCH_proof_agg.json` through
//! [`zendoo_bench::write_report`]. For 1/16/256 certificates per block
//! it reports (medians of five passes; aggregate validity is asserted
//! during the run):
//!
//! * `individual_ns` — full stage-2 verification, one SNARK per
//!   statement (single worker: the linear baseline);
//! * `aggregated_ns` — full aggregate-mode stage 2: recollect the work
//!   list, recompute the expected digest, verify one SNARK;
//! * `aggregate_verify_ns` — the SNARK-verification component alone
//!   (work list and digest already in hand): flat across block sizes —
//!   the O(1) claim, asserted as *one* verification at every size by
//!   `tests/paper_claims.rs`; this file records what it takes;
//! * `build_ns` — the block builder's one-time cost to fold the
//!   aggregate (wrap per statement + fold tree, all cores).

use std::time::Instant;

use zendoo_bench::{host_cores, write_report, AcceptAll};
use zendoo_core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo_core::ids::SidechainId;
use zendoo_core::proofdata::ProofData;
use zendoo_core::SidechainConfigBuilder;
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::pipeline::{self, VerifyMode};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::{Block, Wallet};
use zendoo_primitives::digest::Digest32;
use zendoo_snark::aggregate::{expected_statement, AggregationSystem, BlockProof};
use zendoo_snark::backend::{prove, setup_deterministic, ProvingKey};
use zendoo_snark::batch::BatchItem;
use zendoo_telemetry::Telemetry;

/// Measurement passes per data point (medians reported).
const SAMPLES: usize = 5;

fn sc_id(i: usize) -> SidechainId {
    SidechainId::from_label(&format!("bench-agg-{i}"))
}

/// An aggregated-mode chain with `n` sidechains and a prepared block
/// at height 8 carrying one proven certificate per sidechain plus its
/// recursive block proof.
fn chain_with_cert_block(n: usize) -> (Blockchain, Block, BlockProof, Vec<Digest32>) {
    let miner = Wallet::from_seed(b"bench-agg-miner");
    let mut chain = Blockchain::new(ChainParams::default());
    chain.set_verify_mode(VerifyMode::Aggregated);
    let mut pks: Vec<ProvingKey> = Vec::with_capacity(n);
    let mut declarations = Vec::with_capacity(n);
    for i in 0..n {
        let (pk, vk) = setup_deterministic(&AcceptAll("wcert"), format!("a{i}").as_bytes());
        pks.push(pk);
        declarations.push(McTransaction::SidechainDeclaration(Box::new(
            SidechainConfigBuilder::new(sc_id(i), vk)
                .start_block(2)
                .epoch_len(6)
                .submit_len(2)
                .build()
                .unwrap(),
        )));
    }
    chain
        .mine_next_block(miner.address(), declarations, 1)
        .unwrap();
    for t in 2..=7 {
        chain.mine_next_block(miner.address(), vec![], t).unwrap();
    }
    let prev_end = chain.hash_at_height(1).unwrap();
    let epoch_end = chain.hash_at_height(7).unwrap();
    let certs: Vec<McTransaction> = (0..n)
        .map(|i| {
            let mut cert = WithdrawalCertificate {
                sidechain_id: sc_id(i),
                epoch_id: 0,
                quality: 1,
                bt_list: vec![],
                proofdata: ProofData::empty(),
                proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
            };
            let sysdata = WcertSysData::for_certificate(&cert, prev_end, epoch_end);
            let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
            cert.proof = prove(&pks[i], &AcceptAll("wcert"), &inputs, &()).unwrap();
            McTransaction::Certificate(Box::new(cert))
        })
        .collect();
    let prepared = chain.prepare_block(miner.address(), certs, 8).unwrap();
    let proof = prepared.proof.expect("aggregated builder attaches a proof");
    let active: Vec<Digest32> = (0..=chain.height())
        .map(|h| chain.hash_at_height(h).unwrap())
        .collect();
    (chain, prepared.block, proof, active)
}

/// The receiver's own collected work list for `block`.
fn work_list(chain: &Blockchain, block: &Block, active: &[Digest32]) -> Vec<BatchItem> {
    pipeline::collect_proof_checks(chain.state(), block, block.hash(), active)
        .into_iter()
        .map(|check| BatchItem {
            vk: check.vk,
            inputs: check.inputs,
            proof: check.proof,
        })
        .collect()
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One full measurement pass per block size, emitting the JSON report.
fn main() {
    let cores = host_cores();
    let telemetry = Telemetry::disabled();
    let system = AggregationSystem::shared();
    let mut entries = String::new();
    for (slot, n) in [1usize, 16, 256].into_iter().enumerate() {
        let (chain, block, proof, active) = chain_with_cert_block(n);
        let hash = block.hash();
        // The receiver's own collected work list and expected digest,
        // shared by all aggregate-side measurements below.
        let items = work_list(&chain, &block, &active);
        assert_eq!(items.len(), n, "one statement per certificate");
        let (digest, count) = expected_statement(&items);

        let mut individual = Vec::new();
        let mut aggregated = Vec::new();
        let mut verify_only = Vec::new();
        let mut build = Vec::new();
        for _ in 0..SAMPLES {
            let start = Instant::now();
            let verdicts = pipeline::verify_block_proofs(
                chain.state(),
                &block,
                hash,
                &active,
                Some(1),
                &telemetry,
            );
            individual.push(start.elapsed().as_nanos() as u64);
            assert_eq!(verdicts.proofs.len(), n);

            let start = Instant::now();
            let cached = pipeline::verify_block_aggregate(
                chain.state(),
                &block,
                hash,
                &active,
                &proof,
                &telemetry,
            );
            aggregated.push(start.elapsed().as_nanos() as u64);
            assert!(cached.is_some(), "the honest aggregate verifies");

            let start = Instant::now();
            let ok = system.verify_block_proof(&proof, &digest, count);
            verify_only.push(start.elapsed().as_nanos() as u64);
            assert!(ok);

            let start = Instant::now();
            let rebuilt = system.aggregate(&items, cores).unwrap();
            build.push(start.elapsed().as_nanos() as u64);
            assert_eq!(rebuilt.count(), proof.count());
        }
        let individual = median(individual);
        let aggregated = median(aggregated);
        let verify_only = median(verify_only);
        let build = median(build);
        println!(
            "proof_aggregation/report {n} certs: individual {:.2} ms, aggregated {:.3} ms (verify-only {:.3} ms), build {:.2} ms => {:.1}x stage-2 speedup",
            individual as f64 / 1e6,
            aggregated as f64 / 1e6,
            verify_only as f64 / 1e6,
            build as f64 / 1e6,
            individual as f64 / aggregated as f64,
        );
        if slot > 0 {
            entries.push(',');
        }
        entries.push_str(&format!(
            "\n    {{\"certs\": {n}, \"individual_ns\": {individual}, \"aggregated_ns\": {aggregated}, \"aggregate_verify_ns\": {verify_only}, \"build_ns\": {build}, \"stage2_speedup\": {:.3}}}",
            individual as f64 / aggregated as f64,
        ));
    }
    write_report(
        "proof_agg",
        &format!("{{\"certs_per_block\": [1, 16, 256], \"samples\": {SAMPLES}}}"),
        &format!("[{entries}\n  ]"),
    );
}
