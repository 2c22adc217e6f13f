//! Latus sidechain parameters.

use zendoo_core::ids::SidechainId;

/// Static parameters of one Latus deployment.
///
/// # Examples
///
/// ```
/// use zendoo_latus::params::LatusParams;
/// use zendoo_core::ids::SidechainId;
///
/// let params = LatusParams::new(SidechainId::from_label("app"), 16);
/// assert_eq!(params.mst_depth, 16);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatusParams {
    /// The sidechain's registered `ledgerId`.
    pub sidechain_id: SidechainId,
    /// Depth of the Merkle State Tree (`D_MST`, §5.2).
    pub mst_depth: u32,
}

impl LatusParams {
    /// Creates parameters.
    pub fn new(sidechain_id: SidechainId, mst_depth: u32) -> Self {
        LatusParams {
            sidechain_id,
            mst_depth,
        }
    }
}
