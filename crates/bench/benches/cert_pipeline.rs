//! Multi-certificate block verification: the staged pipeline's stage 2
//! collects every SNARK check of a block and verifies them on worker
//! threads before state application.
//!
//! Shape to reproduce: stateful block validation with 1/4/16
//! certificates. The serial path verifies each proof inline during
//! application; the pipeline path prefetches all verdicts in parallel
//! and applies from the cache — on ≥2 cores the parallel path wins for
//! multi-certificate blocks (verification dominates; each check is an
//! independent Schnorr verification), while a 1-certificate block
//! shows the two paths converging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zendoo_bench::AcceptAll;
use zendoo_core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo_core::ids::SidechainId;
use zendoo_core::proofdata::ProofData;
use zendoo_core::SidechainConfigBuilder;
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::pipeline::{self, ProofVerdicts};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::{Block, Wallet};
use zendoo_primitives::digest::Digest32;
use zendoo_snark::backend::{prove, setup_deterministic, ProvingKey};
use zendoo_telemetry::Telemetry;

fn sc_id(i: usize) -> SidechainId {
    SidechainId::from_label(&format!("bench-pipe-{i}"))
}

/// A chain with `n` sidechains declared and epoch 0 closed, plus a
/// block at height 8 carrying one proven certificate per sidechain.
fn chain_with_cert_block(n: usize) -> (Blockchain, Block, Vec<Digest32>) {
    let miner = Wallet::from_seed(b"bench-pipe-miner");
    let mut chain = Blockchain::new(ChainParams::default());
    let mut pks: Vec<ProvingKey> = Vec::with_capacity(n);
    let mut declarations = Vec::with_capacity(n);
    for i in 0..n {
        let (pk, vk) = setup_deterministic(&AcceptAll("wcert"), format!("b{i}").as_bytes());
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
    let block = chain
        .prepare_block(miner.address(), certs, 8)
        .unwrap()
        .block;
    let active: Vec<Digest32> = (0..=chain.height())
        .map(|h| chain.hash_at_height(h).unwrap())
        .collect();
    (chain, block, active)
}

fn bench_block_validation(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group(format!("cert_pipeline/validate_block[{cores}-core]"));
    for n in [1usize, 4, 16] {
        let (chain, block, active) = chain_with_cert_block(n);
        let hash = block.hash();
        let subsidy = chain.params().block_subsidy;

        // Serial: every proof verifies inline during application.
        group.bench_with_input(BenchmarkId::new("serial", n), &block, |b, block| {
            b.iter(|| {
                let mut state = chain.state().clone();
                let undo = pipeline::apply_block(
                    &mut state,
                    block,
                    hash,
                    &active,
                    subsidy,
                    &ProofVerdicts::inline(),
                )
                .unwrap();
                undo.len()
            })
        });

        // Pipeline: stage-2 parallel prefetch + stage-3 cached apply.
        group.bench_with_input(BenchmarkId::new("parallel", n), &block, |b, block| {
            b.iter(|| {
                let verdicts = pipeline::verify_block_proofs(
                    chain.state(),
                    block,
                    hash,
                    &active,
                    None,
                    &Telemetry::disabled(),
                );
                let mut state = chain.state().clone();
                let undo =
                    pipeline::apply_block(&mut state, block, hash, &active, subsidy, &verdicts)
                        .unwrap();
                undo.len()
            })
        });
    }
    group.finish();
}

fn bench_stage2_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("cert_pipeline/verify_block_proofs");
    for n in [1usize, 4, 16] {
        let (chain, block, active) = chain_with_cert_block(n);
        let hash = block.hash();
        group.bench_with_input(BenchmarkId::new("1-worker", n), &block, |b, block| {
            b.iter(|| {
                pipeline::verify_block_proofs(
                    chain.state(),
                    block,
                    hash,
                    &active,
                    Some(1),
                    &Telemetry::disabled(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("all-cores", n), &block, |b, block| {
            b.iter(|| {
                pipeline::verify_block_proofs(
                    chain.state(),
                    block,
                    hash,
                    &active,
                    None,
                    &Telemetry::disabled(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_block_validation, bench_stage2_only);
criterion_main!(benches);
