//! E5 — Merkle State Tree operations (paper §5.2, Fig 9): insert,
//! remove, proof generation and proof verification across tree depths
//! and occupancies. With the compact tree a lone leaf is hashed where
//! it sits, so cost per operation is `O(log occupancy)` and independent
//! of the depth: the `insert_by_depth` curve is flat, the
//! `ops_at_depth24` curves grow by one hash per doubling of the
//! occupancy (`primitives::smt` asserts the permutation count; these
//! curves only show the wall clock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zendoo_core::ids::{Address, Amount};
use zendoo_latus::mst::{mst_position, Mst, Utxo};
use zendoo_primitives::digest::Digest32;

fn utxo(i: u64) -> Utxo {
    Utxo {
        address: Address::from_label(&format!("owner-{}", i % 16)),
        amount: Amount::from_units(i + 1),
        nonce: Digest32::hash_bytes(&i.to_be_bytes()),
    }
}

fn populated(depth: u32, occupancy: u64) -> Mst {
    let mut mst = Mst::new(depth);
    let mut i = 0u64;
    let mut inserted = 0u64;
    while inserted < occupancy {
        if mst.add(&utxo(i)).is_ok() {
            inserted += 1;
        }
        i += 1;
    }
    mst
}

fn bench_insert_by_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("mst/insert_by_depth");
    for depth in [8u32, 16, 24, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter_batched(
                || (Mst::new(depth), utxo(12345)),
                |(mut mst, u)| {
                    mst.add(&u).unwrap();
                    mst
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_ops_by_occupancy(c: &mut Criterion) {
    let mut group = c.benchmark_group("mst/ops_at_depth24");
    group.sample_size(30);
    for occupancy in [100u64, 1_000, 10_000] {
        let mst = populated(24, occupancy);
        let probe = utxo(999_999_999);
        group.bench_with_input(
            BenchmarkId::new("insert_remove", occupancy),
            &occupancy,
            |b, _| {
                b.iter_batched(
                    || mst.clone(),
                    |mut mst| {
                        mst.add(&probe).unwrap();
                        mst.remove(&probe).unwrap();
                        mst
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
        let position = mst.iter().next().unwrap().0;
        group.bench_with_input(
            BenchmarkId::new("proof_generate", occupancy),
            &occupancy,
            |b, _| b.iter(|| mst.proof(std::hint::black_box(position))),
        );
        let proof = mst.proof(position);
        let leaf = mst.utxo_at(position).unwrap().leaf();
        let root = mst.root();
        group.bench_with_input(
            BenchmarkId::new("proof_verify", occupancy),
            &occupancy,
            |b, _| b.iter(|| assert!(proof.verify_occupied(&root, &leaf))),
        );
    }
    group.finish();
}

fn bench_position(c: &mut Criterion) {
    let mut group = c.benchmark_group("mst/position");
    let u = utxo(42);
    group.bench_function("mst_position", |b| {
        b.iter(|| mst_position(std::hint::black_box(&u), 32))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_insert_by_depth,
    bench_ops_by_occupancy,
    bench_position
);
criterion_main!(benches);
