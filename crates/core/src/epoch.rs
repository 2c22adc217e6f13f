//! Withdrawal-epoch schedule (paper §4.1.2, Fig 3).
//!
//! A withdrawal epoch is a fixed-length range of mainchain blocks,
//! anchored at the sidechain's `start_block`. A certificate for epoch `i`
//! must land within the first `submit_len` blocks of epoch `i + 1`; if the
//! window closes without one, the sidechain is **ceased** (Def 4.2).

use crate::ids::EpochId;

/// The deterministic epoch calendar of one sidechain.
///
/// # Examples
///
/// ```
/// use zendoo_core::epoch::EpochSchedule;
///
/// let sched = EpochSchedule::new(100, 10, 3).unwrap();
/// assert_eq!(sched.epoch_of_height(100), Some(0));
/// assert_eq!(sched.epoch_of_height(109), Some(0));
/// assert_eq!(sched.epoch_of_height(110), Some(1));
/// // Certificate for epoch 0 is due in heights 110..113.
/// assert!(sched.in_submission_window(0, 110));
/// assert!(!sched.in_submission_window(0, 113));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpochSchedule {
    start_block: u64,
    epoch_len: u32,
    submit_len: u32,
}

/// Invalid epoch parameters at sidechain creation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// `epoch_len` must be at least 1.
    ZeroEpochLength,
    /// `submit_len` must satisfy `1 <= submit_len <= epoch_len`.
    BadSubmitLength {
        /// Supplied submission-window length.
        submit_len: u32,
        /// Supplied epoch length.
        epoch_len: u32,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::ZeroEpochLength => write!(f, "epoch length must be at least 1"),
            ScheduleError::BadSubmitLength {
                submit_len,
                epoch_len,
            } => write!(
                f,
                "submission window {submit_len} must be in 1..={epoch_len}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl EpochSchedule {
    /// Creates a schedule with epoch 0 starting at MC height
    /// `start_block`.
    ///
    /// # Errors
    ///
    /// Rejects zero-length epochs and submission windows outside
    /// `1..=epoch_len` (a window longer than an epoch would let two
    /// certificates race across epochs).
    pub fn new(start_block: u64, epoch_len: u32, submit_len: u32) -> Result<Self, ScheduleError> {
        if epoch_len == 0 {
            return Err(ScheduleError::ZeroEpochLength);
        }
        if submit_len == 0 || submit_len > epoch_len {
            return Err(ScheduleError::BadSubmitLength {
                submit_len,
                epoch_len,
            });
        }
        Ok(EpochSchedule {
            start_block,
            epoch_len,
            submit_len,
        })
    }

    /// Height at which the sidechain becomes active (epoch 0 begins).
    pub fn start_block(&self) -> u64 {
        self.start_block
    }

    /// Blocks per withdrawal epoch.
    pub fn epoch_len(&self) -> u32 {
        self.epoch_len
    }

    /// Length of the certificate submission window.
    pub fn submit_len(&self) -> u32 {
        self.submit_len
    }

    /// The epoch containing MC height `height`, or `None` before
    /// activation.
    pub fn epoch_of_height(&self, height: u64) -> Option<EpochId> {
        if height < self.start_block {
            return None;
        }
        Some(((height - self.start_block) / self.epoch_len as u64) as EpochId)
    }

    /// First MC height of `epoch`.
    pub fn epoch_first_height(&self, epoch: EpochId) -> u64 {
        self.start_block + epoch as u64 * self.epoch_len as u64
    }

    /// Last MC height of `epoch` (the block whose hash enters
    /// `wcert_sysdata` as `H(B^i_last)`).
    pub fn epoch_last_height(&self, epoch: EpochId) -> u64 {
        self.epoch_first_height(epoch) + self.epoch_len as u64 - 1
    }

    /// Returns `true` if a certificate for `epoch` may be included at MC
    /// height `height` (the first `submit_len` blocks of `epoch + 1`).
    pub fn in_submission_window(&self, epoch: EpochId, height: u64) -> bool {
        let window_start = self.epoch_first_height(epoch + 1);
        height >= window_start && height < window_start + self.submit_len as u64
    }

    /// The first height at which the submission window for `epoch` is
    /// definitively over: if no certificate for `epoch` landed before this
    /// height, the sidechain is ceased (Def 4.2).
    pub fn ceasing_height(&self, epoch: EpochId) -> u64 {
        self.epoch_first_height(epoch + 1) + self.submit_len as u64
    }

    /// The newest epoch whose submission window is already closed at
    /// `height` (i.e. a certificate for it must exist by now), if any.
    pub fn latest_due_epoch(&self, height: u64) -> Option<EpochId> {
        // Epoch e is due once height >= ceasing_height(e).
        let current = self.epoch_of_height(height)?;
        let mut candidate = current;
        loop {
            if self.ceasing_height(candidate) <= height {
                return Some(candidate);
            }
            if candidate == 0 {
                return None;
            }
            candidate -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sched() -> EpochSchedule {
        EpochSchedule::new(1000, 20, 5).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(EpochSchedule::new(0, 0, 1).is_err());
        assert!(EpochSchedule::new(0, 10, 0).is_err());
        assert!(EpochSchedule::new(0, 10, 11).is_err());
        assert!(EpochSchedule::new(0, 10, 10).is_ok());
    }

    #[test]
    fn epoch_boundaries() {
        let s = sched();
        assert_eq!(s.epoch_of_height(999), None);
        assert_eq!(s.epoch_of_height(1000), Some(0));
        assert_eq!(s.epoch_of_height(1019), Some(0));
        assert_eq!(s.epoch_of_height(1020), Some(1));
        assert_eq!(s.epoch_first_height(2), 1040);
        assert_eq!(s.epoch_last_height(2), 1059);
    }

    #[test]
    fn submission_window_bounds() {
        let s = sched();
        // Certificate for epoch 0 due in [1020, 1025).
        assert!(!s.in_submission_window(0, 1019));
        assert!(s.in_submission_window(0, 1020));
        assert!(s.in_submission_window(0, 1024));
        assert!(!s.in_submission_window(0, 1025));
        assert_eq!(s.ceasing_height(0), 1025);
    }

    #[test]
    fn latest_due_epoch_progression() {
        let s = sched();
        assert_eq!(s.latest_due_epoch(1000), None);
        assert_eq!(s.latest_due_epoch(1024), None);
        assert_eq!(s.latest_due_epoch(1025), Some(0));
        assert_eq!(s.latest_due_epoch(1044), Some(0));
        assert_eq!(s.latest_due_epoch(1045), Some(1));
    }

    proptest! {
        #[test]
        fn prop_epoch_of_height_consistent(
            start in 0u64..10_000,
            len in 1u32..100,
            submit in 1u32..100,
            offset in 0u64..100_000,
        ) {
            prop_assume!(submit <= len);
            let s = EpochSchedule::new(start, len, submit).unwrap();
            let height = start + offset;
            let epoch = s.epoch_of_height(height).unwrap();
            prop_assert!(s.epoch_first_height(epoch) <= height);
            prop_assert!(height <= s.epoch_last_height(epoch));
            // Windows of distinct epochs never overlap.
            prop_assert!(s.ceasing_height(epoch) > s.epoch_first_height(epoch + 1) - 1);
            prop_assert!(s.ceasing_height(epoch) <= s.epoch_last_height(epoch + 1) + 1);
        }

        #[test]
        fn prop_window_iff_heights(len in 1u32..50, submit in 1u32..50, h in 0u64..5_000) {
            prop_assume!(submit <= len);
            let s = EpochSchedule::new(100, len, submit).unwrap();
            for epoch in 0..5u32 {
                let in_window = s.in_submission_window(epoch, h);
                let expected = h >= s.epoch_first_height(epoch + 1)
                    && h < s.epoch_first_height(epoch + 1) + submit as u64;
                prop_assert_eq!(in_window, expected);
            }
        }
    }
}
