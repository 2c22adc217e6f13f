//! Shared by the integration tests that tamper with mined blocks, or
//! hand a node a block its own builder would not make.

use zendoo_core::ids::Address;
use zendoo_mainchain::block::{Block, BlockHeader};
use zendoo_mainchain::chain::Blockchain;
use zendoo_mainchain::pow;
use zendoo_mainchain::transaction::{CoinbaseTx, McTransaction, TxOut};
use zendoo_primitives::digest::Digest32;

/// Recomputes a tampered block's roots and re-mines its header, so it
/// passes stage 1 again and only what was tampered with differs.
pub fn remine(chain: &Blockchain, mut block: Block) -> Block {
    let mut header = block.header;
    header.tx_root = Block::tx_root_of(&block.txids());
    header.sc_txs_commitment = Blockchain::build_commitment(&block.transactions).root();
    header.nonce = pow::mine(
        &chain.params().target,
        |nonce| {
            let mut h = header;
            h.nonce = nonce;
            h.hash()
        },
        chain.params().max_mine_attempts,
    )
    .expect("re-mining at test difficulty");
    block.header = header;
    block
}

/// The block `transactions` make on `chain`'s tip at `time`, assembled
/// by hand and mined, but neither validated nor connected: the chain is
/// left as it was. Its coinbase pays `miner` the subsidy alone (any fees
/// are burned, which consensus allows).
pub fn assemble(
    chain: &Blockchain,
    miner: Address,
    transactions: Vec<McTransaction>,
    time: u64,
) -> Block {
    let height = chain.height() + 1;
    let coinbase = McTransaction::Coinbase(CoinbaseTx {
        height,
        outputs: vec![TxOut::regular(miner, chain.params().block_subsidy)],
    });
    let block = Block {
        header: BlockHeader {
            parent: chain.tip_hash(),
            height,
            time,
            tx_root: Digest32::ZERO,
            sc_txs_commitment: Digest32::ZERO,
            target: chain.params().target,
            nonce: 0,
        },
        transactions: std::iter::once(coinbase).chain(transactions).collect(),
    };
    remine(chain, block)
}
