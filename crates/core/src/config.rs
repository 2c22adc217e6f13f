//! Sidechain creation parameters (paper §4.2).
//!
//! Creating a sidechain registers, once and immutably: its epoch
//! calendar, the three SNARK verification keys (certificate, BTR, CSW)
//! and the proofdata schemas for each. `btr_vk`/`csw_vk` may be `None`
//! ("NULL" in the paper), disabling mainchain-managed withdrawals for
//! that sidechain.

use zendoo_snark::backend::VerifyingKey;

use crate::epoch::{EpochSchedule, ScheduleError};
use crate::ids::SidechainId;
use crate::proofdata::ProofDataSchema;

/// Immutable configuration registered at sidechain creation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SidechainConfig {
    /// Unique sidechain identifier (`ledgerId`).
    pub id: SidechainId,
    /// Withdrawal-epoch calendar (`start_block`, `epoch_len`,
    /// `submit_len`).
    pub schedule: EpochSchedule,
    /// Verification key for withdrawal-certificate proofs (`wcert_vk`).
    pub wcert_vk: VerifyingKey,
    /// Verification key for BTR proofs (`btr_vk`); `None` disables BTRs.
    pub btr_vk: Option<VerifyingKey>,
    /// Verification key for CSW proofs (`csw_vk`); `None` disables CSWs.
    pub csw_vk: Option<VerifyingKey>,
    /// Declared certificate proofdata shape (`wcert_proofdata`).
    pub wcert_proofdata: ProofDataSchema,
    /// Declared BTR proofdata shape (`btr_proofdata`).
    pub btr_proofdata: ProofDataSchema,
    /// Declared CSW proofdata shape (`csw_proofdata`).
    pub csw_proofdata: ProofDataSchema,
}

/// Invalid sidechain configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The id collides with a commitment-tree sentinel.
    ReservedId(SidechainId),
    /// The epoch calendar is malformed.
    Schedule(ScheduleError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ReservedId(id) => write!(f, "sidechain id {id} is reserved"),
            ConfigError::Schedule(e) => write!(f, "invalid epoch schedule: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ScheduleError> for ConfigError {
    fn from(e: ScheduleError) -> Self {
        ConfigError::Schedule(e)
    }
}

impl SidechainConfig {
    /// Validates the configuration as the mainchain would at creation.
    ///
    /// # Errors
    ///
    /// Rejects reserved ids (commitment-tree sentinels).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.id.is_reserved() {
            return Err(ConfigError::ReservedId(self.id));
        }
        Ok(())
    }
}

/// Builder for [`SidechainConfig`] with sensible defaults (C-BUILDER).
///
/// # Examples
///
/// ```
/// use zendoo_core::config::SidechainConfigBuilder;
/// use zendoo_core::ids::SidechainId;
/// use zendoo_snark::backend::setup_deterministic;
/// use zendoo_snark::circuit::{Circuit, Unsatisfied};
/// use zendoo_snark::inputs::PublicInputs;
/// use zendoo_primitives::digest::Digest32;
///
/// struct Trivial;
/// impl Circuit for Trivial {
///     type Witness = ();
///     fn id(&self) -> Digest32 { Digest32::hash_bytes(b"trivial") }
///     fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> { Ok(()) }
/// }
///
/// let (_, vk) = setup_deterministic(&Trivial, b"doc");
/// let config = SidechainConfigBuilder::new(SidechainId::from_label("app"), vk)
///     .start_block(10)
///     .epoch_len(20)
///     .submit_len(5)
///     .build()
///     .unwrap();
/// assert_eq!(config.schedule.epoch_len(), 20);
/// ```
#[derive(Clone, Debug)]
pub struct SidechainConfigBuilder {
    id: SidechainId,
    start_block: u64,
    epoch_len: u32,
    submit_len: u32,
    wcert_vk: VerifyingKey,
    btr_vk: Option<VerifyingKey>,
    csw_vk: Option<VerifyingKey>,
    wcert_proofdata: ProofDataSchema,
    btr_proofdata: ProofDataSchema,
    csw_proofdata: ProofDataSchema,
}

impl SidechainConfigBuilder {
    /// Starts a builder with the mandatory id and certificate key.
    pub fn new(id: SidechainId, wcert_vk: VerifyingKey) -> Self {
        SidechainConfigBuilder {
            id,
            start_block: 0,
            epoch_len: 10,
            submit_len: 5,
            wcert_vk,
            btr_vk: None,
            csw_vk: None,
            wcert_proofdata: ProofDataSchema::empty(),
            btr_proofdata: ProofDataSchema::empty(),
            csw_proofdata: ProofDataSchema::empty(),
        }
    }

    /// Sets the activation height.
    pub fn start_block(mut self, height: u64) -> Self {
        self.start_block = height;
        self
    }

    /// Sets the epoch length in MC blocks.
    pub fn epoch_len(mut self, len: u32) -> Self {
        self.epoch_len = len;
        self
    }

    /// Sets the certificate submission window length.
    pub fn submit_len(mut self, len: u32) -> Self {
        self.submit_len = len;
        self
    }

    /// Enables BTRs with the given verification key.
    pub fn btr_vk(mut self, vk: VerifyingKey) -> Self {
        self.btr_vk = Some(vk);
        self
    }

    /// Enables CSWs with the given verification key.
    pub fn csw_vk(mut self, vk: VerifyingKey) -> Self {
        self.csw_vk = Some(vk);
        self
    }

    /// Declares the certificate proofdata schema.
    pub fn wcert_proofdata(mut self, schema: ProofDataSchema) -> Self {
        self.wcert_proofdata = schema;
        self
    }

    /// Declares the BTR proofdata schema.
    pub fn btr_proofdata(mut self, schema: ProofDataSchema) -> Self {
        self.btr_proofdata = schema;
        self
    }

    /// Declares the CSW proofdata schema.
    pub fn csw_proofdata(mut self, schema: ProofDataSchema) -> Self {
        self.csw_proofdata = schema;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on reserved ids or malformed schedules.
    pub fn build(self) -> Result<SidechainConfig, ConfigError> {
        let schedule = EpochSchedule::new(self.start_block, self.epoch_len, self.submit_len)?;
        let config = SidechainConfig {
            id: self.id,
            schedule,
            wcert_vk: self.wcert_vk,
            btr_vk: self.btr_vk,
            csw_vk: self.csw_vk,
            wcert_proofdata: self.wcert_proofdata,
            btr_proofdata: self.btr_proofdata,
            csw_proofdata: self.csw_proofdata,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_primitives::digest::Digest32;
    use zendoo_snark::circuit::{Circuit, Unsatisfied};
    use zendoo_snark::inputs::PublicInputs;

    struct Trivial;

    impl Circuit for Trivial {
        type Witness = ();

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"trivial")
        }

        fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
            Ok(())
        }
    }

    fn vk() -> VerifyingKey {
        zendoo_snark::backend::setup_deterministic(&Trivial, b"t").1
    }

    #[test]
    fn builder_defaults_build() {
        let config = SidechainConfigBuilder::new(SidechainId::from_label("a"), vk())
            .build()
            .unwrap();
        assert!(config.btr_vk.is_none());
        assert!(config.csw_vk.is_none());
    }

    #[test]
    fn builder_full_configuration() {
        let config = SidechainConfigBuilder::new(SidechainId::from_label("a"), vk())
            .start_block(7)
            .epoch_len(30)
            .submit_len(10)
            .btr_vk(vk())
            .csw_vk(vk())
            .build()
            .unwrap();
        assert!(config.btr_vk.is_some());
        assert!(config.csw_vk.is_some());
        assert_eq!(config.schedule.start_block(), 7);
    }

    #[test]
    fn reserved_ids_rejected() {
        let err = SidechainConfigBuilder::new(SidechainId::MIN_SENTINEL, vk())
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ReservedId(_)));
    }

    #[test]
    fn bad_schedule_rejected() {
        let err = SidechainConfigBuilder::new(SidechainId::from_label("a"), vk())
            .epoch_len(5)
            .submit_len(6)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Schedule(_)));
    }
}
