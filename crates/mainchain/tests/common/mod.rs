//! Shared by the integration tests that tamper with mined blocks.

use zendoo_mainchain::block::Block;
use zendoo_mainchain::chain::Blockchain;
use zendoo_mainchain::pow;

/// Recomputes a tampered block's roots and re-mines its header, so it
/// passes stage 1 again and only what was tampered with differs.
pub fn remine(chain: &Blockchain, mut block: Block) -> Block {
    let mut header = block.header;
    header.tx_root = Block::compute_tx_root(&block.transactions);
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
