//! Order statistics for timing samples: a median with its quartiles and the
//! highest tail percentile the sample count supports.

/// Percentiles a tail may be reported at, ascending, in tenths of a percent
/// so the sample-count test below is exact integer arithmetic.
const TAIL_LADDER_PERMILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// What one timing metric's record carries; the gated value is the median.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub mean: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest ladder percentile with at least
    /// ten samples beyond it; `None` below forty samples.
    pub tail: Option<(f64, f64)>,
}

/// The `q`-quantile (`0..=1`) of ascending `sorted`, linearly interpolated
/// between the two nearest ranks. Panics on an empty slice: every caller
/// holds at least the warm-up's successor sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest ladder percentile with at least ten of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rfind(|pm| n * (1000 - **pm) >= MIN_BEYOND * 1000)
        .map(|pm| *pm as f64 / 10.0)
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Panics on an empty slice, like [`quantile`].
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        tail: tail_percentile(sorted.len()).map(|p| (p, quantile(&sorted, p / 100.0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
        assert_eq!((s.min, s.mean), (1.0, 3.0));
        assert_eq!(s.tail, None);
        assert_eq!(summarize(&[1.0, 2.0]).median, 1.5);
        assert_eq!(summarize(&[7.0]).q3, 7.0);
    }

    #[test]
    fn tail_value_is_read_at_the_chosen_percentile() {
        let samples: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(summarize(&samples).tail, Some((90.0, 90.0)));
    }
}
