//! A sidechain wallet: key management, coin selection and transaction
//! construction for Latus users.

use zendoo_core::ids::{Address, Amount};
use zendoo_primitives::schnorr::Keypair;

use crate::mst::Utxo;
use crate::state::SidechainState;
use crate::tx::{BackwardTransferTx, PaymentTx, ScTransaction};

/// Wallet operation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScWalletError {
    /// Spendable funds below the requested amount.
    InsufficientFunds {
        /// Requested amount.
        requested: Amount,
        /// Spendable balance.
        available: Amount,
    },
}

impl std::fmt::Display for ScWalletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScWalletError::InsufficientFunds {
                requested,
                available,
            } => write!(
                f,
                "insufficient sidechain funds: requested {requested}, available {available}"
            ),
        }
    }
}

impl std::error::Error for ScWalletError {}

/// A single-key Latus wallet.
///
/// # Examples
///
/// ```
/// use zendoo_latus::wallet::ScWallet;
///
/// let wallet = ScWallet::from_seed(b"alice");
/// assert_eq!(wallet.address(), ScWallet::from_seed(b"alice").address());
/// ```
#[derive(Clone, Debug)]
pub struct ScWallet {
    keypair: Keypair,
    address: Address,
}

impl ScWallet {
    /// Creates a wallet from a deterministic seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        let keypair = Keypair::from_seed(seed);
        let address = Address::from_public_key(&keypair.public);
        ScWallet { keypair, address }
    }

    /// Creates a wallet with a random key.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let keypair = Keypair::random(rng);
        let address = Address::from_public_key(&keypair.public);
        ScWallet { keypair, address }
    }

    /// The wallet's sidechain address.
    pub fn address(&self) -> Address {
        self.address
    }

    /// The underlying keypair (for BTR/CSW authorization).
    pub fn keypair(&self) -> &Keypair {
        &self.keypair
    }

    /// Spendable balance in `state`.
    pub fn balance(&self, state: &SidechainState) -> Amount {
        state.balance_of(&self.address)
    }

    /// The one coin-selection routine: walks this wallet's UTXOs in
    /// MST position order and takes them until `target` is covered
    /// (first-fit), returning the selection and its total.
    ///
    /// # Errors
    ///
    /// [`ScWalletError::InsufficientFunds`].
    pub fn select(
        &self,
        state: &SidechainState,
        target: Amount,
    ) -> Result<(Vec<Utxo>, Amount), ScWalletError> {
        let mut selected = Vec::new();
        let mut total = Amount::ZERO;
        for (_, coin) in state.mst().owned_by(&self.address) {
            if total >= target {
                break;
            }
            total = total
                .checked_add(coin.amount)
                .expect("sidechain supply fits in u64");
            selected.push(coin);
        }
        if total < target {
            return Err(ScWalletError::InsufficientFunds {
                requested: target,
                available: total,
            });
        }
        Ok((selected, total))
    }

    /// Builds a signed payment of `amount` to `recipient` with change
    /// back to this wallet (§5.3.1).
    ///
    /// # Errors
    ///
    /// [`ScWalletError::InsufficientFunds`].
    pub fn pay(
        &self,
        state: &SidechainState,
        recipient: Address,
        amount: Amount,
    ) -> Result<ScTransaction, ScWalletError> {
        let (selected, total) = self.select(state, amount)?;
        let mut outputs = vec![(recipient, amount)];
        let change = total.checked_sub(amount).expect("selection covers");
        if !change.is_zero() {
            outputs.push((self.address, change));
        }
        let inputs: Vec<(Utxo, &zendoo_primitives::schnorr::SecretKey)> = selected
            .iter()
            .map(|u| (*u, &self.keypair.secret))
            .collect();
        Ok(ScTransaction::Payment(PaymentTx::create(inputs, outputs)))
    }

    /// Builds a signed withdrawal of `amount` to the mainchain address
    /// `mc_receiver` (§5.3.3). Change — a backward-transfer transaction
    /// has no sidechain outputs — is refunded to `mc_receiver` as a
    /// second backward transfer.
    ///
    /// # Errors
    ///
    /// [`ScWalletError::InsufficientFunds`].
    pub fn withdraw(
        &self,
        state: &SidechainState,
        mc_receiver: Address,
        amount: Amount,
    ) -> Result<ScTransaction, ScWalletError> {
        let (selected, total) = self.select(state, amount)?;
        let mut withdrawals = vec![(mc_receiver, amount)];
        let change = total.checked_sub(amount).expect("selection covers");
        if !change.is_zero() {
            withdrawals.push((mc_receiver, change));
        }
        let inputs: Vec<(Utxo, &zendoo_primitives::schnorr::SecretKey)> = selected
            .iter()
            .map(|u| (*u, &self.keypair.secret))
            .collect();
        Ok(ScTransaction::BackwardTransfer(BackwardTransferTx::create(
            inputs,
            withdrawals,
        )))
    }

    /// Builds an exact-UTXO withdrawal (no change): spends whole
    /// selected coins, withdrawing their exact sum. Useful where the
    /// caller wants to keep value on the sidechain.
    ///
    /// # Errors
    ///
    /// [`ScWalletError::InsufficientFunds`] if no coin covers the
    /// request.
    pub fn withdraw_utxo(&self, utxo: &Utxo, mc_receiver: Address) -> ScTransaction {
        ScTransaction::BackwardTransfer(BackwardTransferTx::create(
            vec![(*utxo, &self.keypair.secret)],
            vec![(mc_receiver, utxo.amount)],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LatusParams;
    use crate::tx::apply_transaction;
    use zendoo_core::ids::SidechainId;
    use zendoo_primitives::digest::Digest32;

    fn params() -> LatusParams {
        LatusParams::new(SidechainId::from_label("wallet-test"), 16)
    }

    fn funded(wallet: &ScWallet, amounts: &[u64]) -> SidechainState {
        let mut state = SidechainState::new(16);
        for (i, a) in amounts.iter().enumerate() {
            state
                .mst_mut()
                .add(&Utxo {
                    address: wallet.address(),
                    amount: Amount::from_units(*a),
                    nonce: Digest32::hash_bytes(&[i as u8]),
                })
                .unwrap();
        }
        state
    }

    #[test]
    fn pay_with_change() {
        let alice = ScWallet::from_seed(b"alice");
        let mut state = funded(&alice, &[10, 20]);
        let tx = alice
            .pay(&state, Address::from_label("bob"), Amount::from_units(15))
            .unwrap();
        apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(
            state.balance_of(&Address::from_label("bob")),
            Amount::from_units(15)
        );
        assert_eq!(alice.balance(&state), Amount::from_units(15));
    }

    #[test]
    fn pay_exact_no_change_output() {
        let alice = ScWallet::from_seed(b"alice");
        let mut state = funded(&alice, &[15]);
        let tx = alice
            .pay(&state, Address::from_label("bob"), Amount::from_units(15))
            .unwrap();
        if let ScTransaction::Payment(p) = &tx {
            assert_eq!(p.outputs.len(), 1, "no zero change output");
        } else {
            panic!("expected payment");
        }
        apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(alice.balance(&state), Amount::ZERO);
    }

    #[test]
    fn insufficient_funds_reported() {
        let alice = ScWallet::from_seed(b"alice");
        let state = funded(&alice, &[10]);
        let err = alice
            .pay(&state, Address::from_label("bob"), Amount::from_units(11))
            .unwrap_err();
        assert_eq!(
            err,
            ScWalletError::InsufficientFunds {
                requested: Amount::from_units(11),
                available: Amount::from_units(10),
            }
        );
    }

    #[test]
    fn withdraw_appends_backward_transfers() {
        let alice = ScWallet::from_seed(b"alice");
        let mut state = funded(&alice, &[30]);
        let tx = alice
            .withdraw(
                &state,
                Address::from_label("alice-mc"),
                Amount::from_units(12),
            )
            .unwrap();
        apply_transaction(&params(), &mut state, &tx).unwrap();
        // 12 withdrawn + 18 change — both as backward transfers.
        assert_eq!(state.backward_transfers().len(), 2);
        assert_eq!(state.total_value(), Amount::ZERO);
    }

    #[test]
    fn withdraw_utxo_spends_exactly_one_coin() {
        let alice = ScWallet::from_seed(b"alice");
        let mut state = funded(&alice, &[5, 7]);
        let utxo = state.mst().owned_by(&alice.address())[0].1;
        let tx = alice.withdraw_utxo(&utxo, Address::from_label("mc"));
        apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(state.backward_transfers().len(), 1);
        assert_eq!(
            alice.balance(&state),
            Amount::from_units(12).checked_sub(utxo.amount).unwrap()
        );
    }

    #[test]
    fn multi_coin_selection_takes_coins_in_position_order() {
        let alice = ScWallet::from_seed(b"alice");
        let state = funded(&alice, &[1, 2, 3, 50]);
        let coins: Vec<Utxo> = state
            .mst()
            .owned_by(&alice.address())
            .into_iter()
            .map(|(_, coin)| coin)
            .collect();
        for target in [1, 3, 6, 40, 56] {
            let (selected, total) = alice.select(&state, Amount::from_units(target)).unwrap();
            // First-fit: the shortest prefix of the position-ordered
            // coins that covers the target, whatever their sizes.
            assert_eq!(selected, coins[..selected.len()]);
            assert!(total >= Amount::from_units(target));
            let without_last = Amount::checked_sum(
                selected[..selected.len() - 1]
                    .iter()
                    .map(|coin| coin.amount),
            )
            .unwrap();
            assert!(without_last < Amount::from_units(target));
        }
        let tx = alice
            .pay(&state, Address::from_label("bob"), Amount::from_units(40))
            .unwrap();
        let ScTransaction::Payment(payment) = &tx else {
            panic!("expected payment");
        };
        let (selected, _) = alice.select(&state, Amount::from_units(40)).unwrap();
        let spent: Vec<Utxo> = payment.inputs.iter().map(|input| input.utxo).collect();
        assert_eq!(spent, selected, "pay spends exactly the selection");
    }
}
