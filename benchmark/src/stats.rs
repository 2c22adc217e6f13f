//! Sample statistics: medians, the fastest third, flag-selected modes,
//! quartile spread.

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The `q`-quantile by nearest rank (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The mean of the fastest third of `samples` (rounded up: 2 of 4,
/// 8 of 24); `None` when empty. What every end-to-end timing reports.
///
/// The shared reference host slows single-threaded work by half for
/// seconds at a time, and only ever adds time: one run's samples sit on
/// a calm plateau and on a disturbed one in shares that differ from run
/// to run, so a median lands on either. The fastest third stays on the
/// calm plateau while a third of the run is calm, and a mean over it,
/// unlike a low percentile, does not flip where a series has several
/// kinds of operation with a boundary near the percentile.
pub fn fastest_third_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[..sorted.len().div_ceil(3)];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Timed samples that belong to one of two *modes*, told apart by
/// something the harness observes (a certificate was produced this
/// tick), never by the sample's own value. Ticks are bimodal — one in
/// `epoch_len` carries the epoch's proving — so a p85–p95 of the pooled
/// samples sits on the mode boundary at these run lengths and flips
/// between runs; the median of each mode does not.
#[derive(Clone, Debug, Default)]
pub struct Modal {
    samples: Vec<(f64, bool)>,
}

impl Modal {
    /// Records one sample; `heavy` selects the second mode.
    pub fn push(&mut self, value: f64, heavy: bool) {
        self.samples.push((value, heavy));
    }

    /// The samples of one mode.
    pub fn mode(&self, heavy: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(_, h)| *h == heavy)
            .map(|(v, _)| *v)
            .collect()
    }

    /// Every sample, both modes pooled.
    pub fn all(&self) -> Vec<f64> {
        self.samples.iter().map(|(v, _)| *v).collect()
    }

    /// Sum over both modes.
    pub fn total(&self) -> f64 {
        self.samples.iter().map(|(v, _)| *v).sum()
    }
}

/// The quartiles of `values`, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive*
/// method) gives them — the driver judges spreads with that function,
/// so `calibrate` must reproduce it. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the distance between the first and the third
/// quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fastest_third_ignores_the_disturbed_two_thirds() {
        assert_eq!(fastest_third_mean(&[]), None);
        assert_eq!(fastest_third_mean(&[7.0]), Some(7.0));
        // 2 of 4, 2 of 5, 3 of 9.
        assert_eq!(fastest_third_mean(&[9.0, 1.0, 3.0, 50.0]), Some(2.0));
        assert_eq!(fastest_third_mean(&[9.0, 1.0, 3.0, 50.0, 60.0]), Some(2.0));
        let calm = [10.0, 11.0, 12.0];
        let mut run = calm.to_vec();
        run.extend([15.0, 15.5, 16.0, 16.5, 17.0, 18.0]);
        assert_eq!(fastest_third_mean(&run), Some(11.0));
    }

    #[test]
    fn mode_is_selected_by_flag_not_by_value() {
        // One tick in three is heavy; one light tick is an outlier
        // slower than every heavy one and must stay in its own mode.
        let mut ticks = Modal::default();
        for (value, heavy) in [
            (80.0, false),
            (85.0, false),
            (950.0, true),
            (84.0, false),
            (2000.0, false),
            (900.0, true),
            (82.0, false),
        ] {
            ticks.push(value, heavy);
        }
        assert_eq!(median(&ticks.mode(true)), Some(925.0));
        assert_eq!(median(&ticks.mode(false)), Some(84.0));
        assert_eq!(median(&ticks.all()), Some(85.0));
        assert_eq!(
            ticks.total(),
            80.0 + 85.0 + 950.0 + 84.0 + 2000.0 + 900.0 + 82.0
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.99), Some(5.0));
    }
}
