//! Fixed-count probes of leaf functions: what one call of each layer's
//! primitive costs on this host, beside the run that used it. Inputs
//! derive from the seed; counts are fixed so that two commits do the
//! same work. Traced run only.

use std::hint::black_box;
use std::time::Instant;

use zendoo_core::crosschain::CrossChainTransfer;
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_core::settlement::{decode_settlement_metadata, SettlementBatch};
use zendoo_latus::mst::{Mst, Utxo};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::field::Fp;
use zendoo_primitives::poseidon;
use zendoo_primitives::schnorr::Keypair;
use zendoo_primitives::sha256::sha256;
use zendoo_primitives::smt::SparseMerkleTree;
use zendoo_snark::aggregate::{expected_statement, AggregationSystem};
use zendoo_snark::backend::{prove, setup_deterministic, verify};
use zendoo_snark::batch::{verify_batch, BatchItem};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;

use crate::host;
use crate::result::RunResult;

/// Depth of the indexer's inbound trees (one Poseidon combine a level).
const SMT_DEPTH: u32 = 48;
/// Depth the world workloads run their MSTs at.
const MST_DEPTH: u32 = 40;

/// Mean seconds per call of `f` over `count` calls.
fn per_call(count: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..count {
        f(i);
    }
    started.elapsed().as_secs_f64() / count as f64
}

/// A circuit that accepts everything: the probes time the proof system
/// around a circuit, not a circuit.
struct AcceptAll;

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("zendoo/benchmark-probe", &[b"accept-all"])
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

/// Runs every probe and records the `primitives.*`, `snark.*`,
/// `core.settlement_codec_us` and `latus.mst_add_us` metrics.
pub fn run(seed: u64, result: &mut RunResult) {
    let digest = |tag: &str, i: u64| {
        Digest32::hash_tagged(
            "zendoo/benchmark-probe",
            &[tag.as_bytes(), &seed.to_be_bytes(), &i.to_be_bytes()],
        )
    };
    let fp = |tag: &str, i: u64| Fp::from_be_bytes_reduced(digest(tag, i).as_bytes());

    // ---- primitives
    let (a, b) = (fp("a", 0), fp("b", 0));
    let secs = per_call(2_000, |_| {
        black_box(poseidon::hash2(black_box(&a), black_box(&b)));
    });
    result.set("primitives.poseidon_hash2_us", Some(secs * 1e6));

    let mut tree = SparseMerkleTree::new(SMT_DEPTH);
    let slots: Vec<u64> = (0..200u64)
        .map(|i| {
            let bytes = digest("slot", i);
            u64::from_be_bytes(bytes.as_bytes()[..8].try_into().expect("8 bytes"))
                >> (64 - SMT_DEPTH)
        })
        .collect();
    let secs = per_call(slots.len(), |i| {
        tree.insert(slots[i], fp("leaf", i as u64))
            .expect("distinct slots");
    });
    result.set("primitives.smt_insert_us", Some(secs * 1e6));
    let root = tree.root();
    let proofs: Vec<_> = slots.iter().map(|slot| tree.proof(*slot)).collect();
    let secs = per_call(slots.len(), |i| {
        assert!(black_box(&proofs[i]).verify_occupied(&root, &fp("leaf", i as u64)));
    });
    result.set("primitives.smt_proof_verify_us", Some(secs * 1e6));
    let secs = per_call(slots.len(), |i| {
        tree.remove(slots[i]).expect("inserted above");
    });
    result.set("primitives.smt_remove_us", Some(secs * 1e6));

    let keys = Keypair::from_seed(digest("keys", 0).as_bytes());
    let message = digest("message", 0);
    let secs = per_call(200, |_| {
        black_box(keys.secret.sign("probe", black_box(message.as_bytes())));
    });
    result.set("primitives.schnorr_sign_us", Some(secs * 1e6));
    let signature = keys.secret.sign("probe", message.as_bytes());
    let secs = per_call(200, |_| {
        assert!(keys
            .public
            .verify("probe", black_box(message.as_bytes()), &signature));
    });
    result.set("primitives.schnorr_verify_us", Some(secs * 1e6));

    let data: Vec<u8> = (0..64 * 1024).map(|i| (i as u64 ^ seed) as u8).collect();
    let secs = per_call(50, |_| {
        black_box(sha256(black_box(&data)));
    });
    result.set(
        "primitives.sha256_mb_s",
        Some(data.len() as f64 / (1 << 20) as f64 / secs),
    );

    // ---- snark
    let (pk, vk) = setup_deterministic(&AcceptAll, &seed.to_be_bytes());
    let inputs_of = |i: u64| {
        let mut inputs = PublicInputs::new();
        inputs.push_digest(&digest("statement", i)).push_u64(i);
        inputs
    };
    let inputs = inputs_of(0);
    let secs = per_call(20, |_| {
        black_box(prove(&pk, &AcceptAll, black_box(&inputs), &()).expect("accept-all proves"));
    });
    result.set("snark.prove_us", Some(secs * 1e6));
    let proof = prove(&pk, &AcceptAll, &inputs, &()).expect("accept-all proves");
    let secs = per_call(50, |_| {
        assert!(verify(&vk, black_box(&inputs), &proof));
    });
    result.set("snark.verify_us", Some(secs * 1e6));

    let items: Vec<BatchItem> = (0..8)
        .map(|i| {
            let inputs = inputs_of(i);
            BatchItem {
                vk,
                proof: prove(&pk, &AcceptAll, &inputs, &()).expect("accept-all proves"),
                inputs,
            }
        })
        .collect();
    let workers = host::workers();
    let secs = per_call(5, |_| {
        assert!(verify_batch(black_box(&items), workers)
            .iter()
            .all(|ok| *ok));
    });
    result.set("snark.batch_verify8_ms", Some(secs * 1e3));
    let system = AggregationSystem::shared();
    let mut block_proof = None;
    let secs = per_call(2, |_| {
        block_proof = Some(
            system
                .aggregate(&items, workers)
                .expect("valid statements fold"),
        );
    });
    result.set("snark.aggregate_build8_ms", Some(secs * 1e3));
    let block_proof = block_proof.expect("built above");
    let (expected, count) = expected_statement(&items);
    let secs = per_call(20, |_| {
        assert!(system.verify_block_proof(black_box(&block_proof), &expected, count));
    });
    result.set("snark.aggregate_verify_us", Some(secs * 1e6));

    // ---- core: an 8-entry settlement batch, encoded and decoded.
    let (source, dest) = (
        SidechainId(digest("source", 0)),
        SidechainId(digest("dest", 0)),
    );
    let batch = SettlementBatch::new(
        source,
        3,
        dest,
        (0..8)
            .map(|i| {
                CrossChainTransfer::new(
                    source,
                    dest,
                    Address(digest("receiver", i)),
                    Amount::from_units(1_000 + i),
                    i,
                    Address(digest("payback", i)),
                )
            })
            .collect(),
    );
    let secs = per_call(500, |_| {
        let bytes = black_box(&batch).receiver_metadata();
        let decoded = decode_settlement_metadata(&bytes);
        assert!(matches!(decoded, Some(Ok(ref round)) if *round == batch));
    });
    result.set("core.settlement_codec_us", Some(secs * 1e6));

    // ---- latus: MST insertion at the depth the worlds run.
    let mut mst = Mst::new(MST_DEPTH);
    let utxos: Vec<Utxo> = (0..200)
        .map(|i| Utxo {
            address: Address(digest("owner", i)),
            amount: Amount::from_units(1_000 + i),
            nonce: digest("nonce", i),
        })
        .collect();
    let secs = per_call(utxos.len(), |i| {
        // A slot collision (two of 200 in 2^24) skips one insertion.
        let _ = black_box(mst.add(&utxos[i]));
    });
    result.set("latus.mst_add_us", Some(secs * 1e6));
}
