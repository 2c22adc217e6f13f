//! Simulation metrics.

/// Counters collected while a scenario runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Mainchain blocks mined.
    pub mc_blocks: u64,
    /// Sidechain blocks forged.
    pub sc_blocks: u64,
    /// Forward transfers submitted.
    pub forward_transfers: u64,
    /// Forward transfers submitted with deliberately malformed receiver
    /// metadata (fault injection; each must be refunded, never
    /// stranded).
    pub forward_transfers_malformed: u64,
    /// Sidechain payments applied.
    pub sc_payments: u64,
    /// Backward transfers initiated on the sidechain.
    pub backward_transfers: u64,
    /// Certificates produced by the node.
    pub certificates_produced: u64,
    /// Certificates accepted by the mainchain.
    pub certificates_accepted: u64,
    /// Certificates the mainchain rejected.
    pub certificates_rejected: u64,
    /// Certificates deliberately withheld (fault injection).
    pub certificates_withheld: u64,
    /// Mainchain reorganizations observed.
    pub reorgs: u64,
    /// Sidechain blocks reverted due to MC reorgs.
    pub sc_blocks_reverted: u64,
    /// BTRs accepted by the mainchain.
    pub btrs_accepted: u64,
    /// CSWs accepted by the mainchain.
    pub csws_accepted: u64,
    /// Cross-chain transfers initiated on source sidechains.
    pub cross_transfers_initiated: u64,
    /// Cross-chain transfers delivered into their destination.
    pub cross_transfers_delivered: u64,
    /// Cross-chain transfers refunded (unknown/ceased destination).
    pub cross_transfers_refunded: u64,
    /// Escrowed cross-chain transfers that settled neither way. Always
    /// 0: a replayed or malformed declaration is refused with its
    /// certificate, and the block after maturity settles every escrow
    /// (the auditor's stranded-escrow check). Kept as a slot of
    /// [`Metrics::report`] so recorded reports stay comparable.
    pub cross_transfers_rejected: u64,
    /// Settlements of a maturity window, one per window and block.
    pub settlement_windows: u64,
    /// Batched settlement transactions mined (delivery + refund).
    pub settlement_txs: u64,
    /// Mainchain transactions saved by windowed batching versus one
    /// delivery transaction per transfer (`transfers − transactions`,
    /// summed over windows).
    pub settlement_txs_saved: u64,
    /// Transactions rejected anywhere in the pipeline, plus scripted
    /// actions the world refused (see `Action::fire`).
    pub rejections: u64,
    /// Shard panics contained by the coordinator (each quarantines its
    /// sidechain, which then ceases like any liveness fault).
    pub shard_panics: u64,
    /// Network partitions injected (shard cut off from the mainchain).
    pub partitions: u64,
    /// Equivocating sibling blocks delivered by a faulty relay.
    pub relay_equivocations: u64,
    /// Canonical blocks buffered for partitioned/diverged shards.
    pub blocks_buffered: u64,
    /// Buffered blocks replayed into healed shards.
    pub blocks_replayed: u64,
    /// Forged competing certificates injected by quality wars.
    pub certificates_forged: u64,
}

impl Metrics {
    /// Folds one rejected mainchain candidate in — the single
    /// bookkeeping path shared by admission rejections
    /// (`World::queue_mc_tx`, `World::admit_mc_batch`), build-time
    /// rejections and re-pooling after a reorg, so no source is under-
    /// or double-counted.
    pub(crate) fn note_rejection(&mut self, certificate: bool) {
        self.rejections += 1;
        if certificate {
            self.certificates_rejected += 1;
        }
    }

    /// Renders a compact human-readable report.
    pub fn report(&self) -> String {
        format!(
            "mc_blocks={} sc_blocks={} fts={} payments={} bts={} certs(produced/accepted/rejected/withheld)={}/{}/{}/{} reorgs={} sc_reverted={} btrs={} csws={} xct(init/delivered/refunded/rejected)={}/{}/{}/{} settle(windows/txs/saved)={}/{}/{} rejections={} shard_panics={} faults(partitions/equivocations/buffered/replayed/forged_certs)={}/{}/{}/{}/{}",
            self.mc_blocks,
            self.sc_blocks,
            self.forward_transfers,
            self.sc_payments,
            self.backward_transfers,
            self.certificates_produced,
            self.certificates_accepted,
            self.certificates_rejected,
            self.certificates_withheld,
            self.reorgs,
            self.sc_blocks_reverted,
            self.btrs_accepted,
            self.csws_accepted,
            self.cross_transfers_initiated,
            self.cross_transfers_delivered,
            self.cross_transfers_refunded,
            self.cross_transfers_rejected,
            self.settlement_windows,
            self.settlement_txs,
            self.settlement_txs_saved,
            self.rejections,
            self.shard_panics,
            self.partitions,
            self.relay_equivocations,
            self.blocks_buffered,
            self.blocks_replayed,
            self.certificates_forged,
        )
    }
}
