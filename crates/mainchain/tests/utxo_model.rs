//! `UtxoSet` against a model: random sequences of inserts (regular and
//! escrow outputs, onto fresh, regular and escrow outpoints), removes
//! and lookups agree step by step with one `BTreeMap<OutPoint, TxOut>`
//! holding whole outputs. After every step each reading of the set
//! agrees too: `len`, `is_empty`, `escrows()` in order, `iter` as a
//! set, `balance_of`, `owned_by`, `total_value` and `==`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_mainchain::transaction::{OutPoint, TxOut};
use zendoo_mainchain::utxo::UtxoSet;
use zendoo_primitives::digest::Digest32;

/// Few outpoints, so an insert lands on a fresh, a regular or an escrow
/// outpoint about equally often.
const OUTPOINTS: u64 = 8;
const ADDRESSES: u64 = 3;

fn outpoint(n: u64) -> OutPoint {
    OutPoint {
        txid: Digest32::hash_bytes(&(n / 2).to_be_bytes()),
        index: (n % 2) as u32,
    }
}

fn address(n: u64) -> Address {
    Address::from_label(&format!("holder-{}", n % ADDRESSES))
}

/// Output `arg` of the given kind: its address, amount and (for an
/// escrow) tag all drawn from `arg`.
fn output(escrow: bool, arg: u64) -> TxOut {
    let (holder, amount) = (address(arg), Amount::from_units(arg % 50));
    if !escrow {
        return TxOut::regular(holder, amount);
    }
    let tag = EscrowTag {
        source: SidechainId::from_label("source"),
        epoch: (arg % 3) as u32,
        dest: SidechainId::from_label(&format!("dest-{}", arg % 2)),
        payback: address(arg / 7),
        nullifier: Nullifier(Digest32::hash_bytes(&arg.to_be_bytes())),
    };
    TxOut::escrow(holder, amount, tag)
}

/// Every reading of `set` equals the model's.
fn agrees(set: &UtxoSet, model: &BTreeMap<OutPoint, TxOut>) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    let escrows: Vec<(OutPoint, TxOut)> = set.escrows().map(|(op, out)| (*op, *out)).collect();
    let model_escrows: Vec<(OutPoint, TxOut)> = model
        .iter()
        .filter(|(_, out)| out.is_escrow())
        .map(|(op, out)| (*op, *out))
        .collect();
    prop_assert_eq!(escrows, model_escrows);
    let entries: Vec<(OutPoint, TxOut)> = set.iter().map(|(op, out)| (*op, out)).collect();
    let as_set: BTreeMap<OutPoint, TxOut> = entries.iter().copied().collect();
    prop_assert_eq!(entries.len(), as_set.len(), "iter repeats an outpoint");
    prop_assert_eq!(&as_set, model);
    for n in 0..OUTPOINTS {
        let op = outpoint(n);
        prop_assert_eq!(set.get(&op), model.get(&op).copied());
        prop_assert_eq!(set.contains(&op), model.contains_key(&op));
    }
    for n in 0..ADDRESSES {
        let holder = address(n);
        let owned: Vec<(OutPoint, TxOut)> = model
            .iter()
            .filter(|(_, out)| out.address == holder)
            .map(|(op, out)| (*op, *out))
            .collect();
        let balance = Amount::checked_sum(owned.iter().map(|(_, out)| out.amount)).unwrap();
        prop_assert_eq!(set.balance_of(&holder), balance);
        prop_assert_eq!(set.owned_by(&holder), owned);
    }
    let total = Amount::checked_sum(model.values().map(|out| out.amount)).unwrap();
    prop_assert_eq!(set.total_value(), total);
    // A set built from the model, in reverse order, equals this one;
    // one entry fewer or one amount off does not.
    let mut rebuilt = UtxoSet::new();
    for (op, out) in model.iter().rev() {
        rebuilt.insert(*op, *out);
    }
    prop_assert!(rebuilt == *set);
    if let Some((op, out)) = model.iter().next() {
        let mut fewer = rebuilt.clone();
        fewer.remove(op);
        prop_assert!(fewer != *set);
        let mut off = rebuilt;
        let more = out.amount.checked_add(Amount::from_units(1)).unwrap();
        off.insert(
            *op,
            TxOut {
                amount: more,
                ..*out
            },
        );
        prop_assert!(off != *set);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Inserts of either kind onto any outpoint (fresh, regular or
    /// escrow: an overwrite returns the previous output and leaves one
    /// entry), removes present and absent, and lookups agree with the
    /// model after every step.
    #[test]
    fn prop_every_operation_agrees_with_one_map_of_whole_outputs(
        ops in proptest::collection::vec((0u8..4, 0u64..OUTPOINTS, 0u64..1_000), 1..120),
    ) {
        let mut set = UtxoSet::new();
        let mut model: BTreeMap<OutPoint, TxOut> = BTreeMap::new();
        for (step, &(op, n, arg)) in ops.iter().enumerate() {
            let at = outpoint(n);
            match op {
                0 | 1 => {
                    let out = output(op == 1, arg);
                    let previous = model.insert(at, out);
                    prop_assert_eq!(set.insert(at, out), previous, "insert at step {}", step);
                }
                2 => {
                    prop_assert_eq!(set.remove(&at), model.remove(&at), "remove at step {}", step);
                }
                _ => {
                    prop_assert_eq!(set.get(&at), model.get(&at).copied(), "get at step {}", step);
                }
            }
            agrees(&set, &model)?;
        }
    }
}

/// An overwrite that changes an outpoint's kind moves it between the
/// two maps, both ways, and leaves one entry.
#[test]
fn an_overwrite_moves_an_outpoint_between_the_maps() {
    let at = outpoint(0);
    let mut set = UtxoSet::new();
    let (regular, escrow) = (output(false, 5), output(true, 6));
    assert_eq!(set.insert(at, escrow), None);
    assert_eq!(set.insert(at, regular), Some(escrow));
    assert_eq!((set.len(), set.escrows().count()), (1, 0));
    assert_eq!(set.insert(at, escrow), Some(regular));
    assert_eq!((set.len(), set.escrows().count()), (1, 1));
    assert_eq!(set.remove(&at), Some(escrow));
    assert!(set.is_empty());
}
