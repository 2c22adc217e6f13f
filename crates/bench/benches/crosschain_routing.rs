//! Cross-chain routing hot path: declared-list codec, certificate
//! declaration validation (the work the mainchain adds per accepted
//! certificate), and router observation (queueing + nullifier dedup).
//!
//! Shape to reproduce: per-certificate routing cost is linear in the
//! number of declared transfers and independent of chain length — the
//! router adds no per-block overhead for certificates without
//! declarations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zendoo_bench::AcceptAll;
use zendoo_core::crosschain::{
    decode_xct_list, encode_xct_list, escrow_address, validate_declarations, CrossChainTransfer,
};
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_core::proofdata::{ProofData, ProofDataElem};
use zendoo_core::transfer::BackwardTransfer;
use zendoo_core::{SidechainConfigBuilder, WithdrawalCertificate};
use zendoo_crosschain::CrossChainRouter;
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::Wallet;

fn source_id() -> SidechainId {
    SidechainId::from_label("bench-source")
}

fn transfers(n: usize) -> Vec<CrossChainTransfer> {
    (0..n)
        .map(|i| {
            CrossChainTransfer::new(
                source_id(),
                SidechainId::from_label("bench-dest"),
                Address::from_label(&format!("recv-{i}")),
                Amount::from_units(100 + i as u64),
                i as u64,
                Address::from_label(&format!("payback-{i}")),
            )
        })
        .collect()
}

/// A certificate-shaped posting declaring `n` transfers with matching
/// escrow backward transfers (the router never checks the SNARK — the
/// registry did that at acceptance).
fn cert_with_transfers(n: usize) -> WithdrawalCertificate {
    let declared = transfers(n);
    let kp = zendoo_primitives::schnorr::Keypair::from_seed(b"bench");
    let sig = kp.secret.sign("zendoo/snark-proof-v1", b"bench");
    WithdrawalCertificate {
        sidechain_id: source_id(),
        epoch_id: 0,
        quality: 1,
        bt_list: declared
            .iter()
            .map(|xct| BackwardTransfer {
                receiver: escrow_address(),
                amount: xct.amount,
            })
            .collect(),
        proofdata: ProofData(vec![ProofDataElem::Bytes(encode_xct_list(&declared))]),
        proof: zendoo_snark::backend::Proof::from_bytes(&sig.to_bytes()).unwrap(),
    }
}

/// A chain with the bench source sidechain registered (the router reads
/// its epoch schedule for maturity heights).
fn chain_with_source() -> Blockchain {
    let (_, vk) = zendoo_snark::backend::setup_deterministic(&AcceptAll("bench-wcert"), b"b");
    let config = SidechainConfigBuilder::new(source_id(), vk)
        .start_block(2)
        .epoch_len(6)
        .submit_len(2)
        .build()
        .unwrap();
    let miner = Wallet::from_seed(b"bench-miner");
    let mut chain = Blockchain::new(ChainParams::default());
    chain
        .mine_next_block(
            miner.address(),
            vec![McTransaction::SidechainDeclaration(Box::new(config))],
            1,
        )
        .unwrap();
    chain
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("crosschain/codec");
    for n in [1usize, 8, 64] {
        let encoded = encode_xct_list(&transfers(n));
        group.bench_with_input(BenchmarkId::new("decode", n), &encoded, |b, encoded| {
            b.iter(|| decode_xct_list(encoded).unwrap().unwrap())
        });
    }
    group.finish();
}

fn bench_validate(c: &mut Criterion) {
    let mut group = c.benchmark_group("crosschain/validate_declarations");
    for n in [1usize, 8, 64] {
        let cert = cert_with_transfers(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &cert, |b, cert| {
            b.iter(|| validate_declarations(cert).unwrap())
        });
    }
    group.finish();
}

fn bench_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("crosschain/router_observe");
    let chain = chain_with_source();
    let miner = Wallet::from_seed(b"bench-miner");
    for n in [1usize, 8, 64] {
        // The block shape carrying the certificate is built once; the
        // router (nullifier + pending state) is fresh per iteration. A
        // raw certificate tx would fail full block validation (no real
        // proof), so the certificate is appended after mining — the
        // router only reads the transaction list.
        let mut block = chain_with_source()
            .prepare_block(miner.address(), vec![], 2)
            .unwrap()
            .block;
        block
            .transactions
            .push(McTransaction::Certificate(Box::new(cert_with_transfers(n))));
        group.bench_with_input(BenchmarkId::from_parameter(n), &block, |b, block| {
            b.iter_batched(
                CrossChainRouter::new,
                |mut router| {
                    router.observe_block(&chain, block);
                    router
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_validate, bench_observe);
criterion_main!(benches);
