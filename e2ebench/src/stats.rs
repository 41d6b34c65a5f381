//! The benchmark's own arithmetic: order statistics, the tail rule,
//! per-check ratios. Kept free of I/O so the self-tests cover it.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding up a
/// rank that is exact on paper.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median by interpolation between the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly after the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it, and its value. With too few samples for even the median
/// to qualify the maximum is returned, labelled `100`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    for p in TAIL_LADDER {
        if beyond(v.len(), p) >= TAIL_BEYOND {
            return (p, percentile(&v, p));
        }
    }
    (100.0, v[v.len() - 1])
}

/// The tail of a run, robust to one burst: `values` (in completion
/// order) are cut into contiguous chunks of `size` samples, the tail
/// rule is applied to each, and the median of the chunk tails is
/// returned with the percentile the chunks used. A remainder shorter
/// than a chunk is left out. A host hiccup inflates one chunk's tail,
/// not the reported figure.
pub fn chunked_tail(values: &[f64], size: usize) -> (f64, f64) {
    if size == 0 || values.len() < size {
        return tail(values);
    }
    let tails: Vec<(f64, f64)> = values.chunks_exact(size).map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (tails[0].0, median(&values))
}

/// A per-check (or per-event, per-frame) ratio that keeps its base, so
/// every reported ratio can be printed with what it was divided by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator total.
    pub total: f64,
    /// Denominator: the count the total is spread over.
    pub base: u64,
}

impl Ratio {
    /// `total / base`, or 0 when nothing was counted.
    pub fn value(self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.total / self.base as f64
        }
    }
}

/// Counter growth across a measured window, spread over `base` items.
pub fn per(before: u64, after: u64, base: u64) -> Ratio {
    Ratio {
        total: after.saturating_sub(before) as f64,
        base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        // 1000 samples: p99 leaves exactly ten beyond, p99.5 only five.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        // 999 samples: p99 would leave nine, so the rule steps down.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).0, 98.0);
        // 2000 samples reach p99.5; 10 000 reach p99.9.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.5, 1990.0));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.9, 9990.0));
        // Too few for the median to qualify: the maximum, labelled 100.
        let v = [3.0, 1.0, 2.0];
        assert_eq!(tail(&v), (100.0, 3.0));
    }

    #[test]
    fn chunked_tail_is_the_median_of_equal_chunks() {
        // Five chunks of 600: each chunk's p98 leaves 12 beyond it.
        let mut v: Vec<f64> = Vec::new();
        for chunk in 0..5u32 {
            v.extend((1..=600).map(|i| f64::from(i + chunk * 1000)));
        }
        // Chunk tails are 588, 1588, ..., 4588; the median is 2588.
        assert_eq!(chunked_tail(&v, 600), (98.0, 2588.0));
        // One wild chunk moves the maximum, not the median.
        v[599] = 1e9;
        assert_eq!(chunked_tail(&v, 600), (98.0, 2588.0));
        // A remainder that does not fill a chunk is left out.
        v.push(5e9);
        assert_eq!(chunked_tail(&v, 600), (98.0, 2588.0));
        // Too few samples for one chunk: the plain rule.
        assert_eq!(chunked_tail(&[1.0, 2.0, 3.0], 5), tail(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=600).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), (98.0, 588.0));
    }

    #[test]
    fn median_and_percentile_agree_on_small_sets() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
    }

    #[test]
    fn ratios_keep_their_base_and_never_divide_by_zero() {
        let r = per(100, 340, 8);
        assert_eq!(
            r,
            Ratio {
                total: 240.0,
                base: 8
            }
        );
        assert_eq!(r.value(), 30.0);
        assert_eq!(per(5, 5, 0).value(), 0.0);
        // A counter that went backwards (a reset) counts as no growth.
        assert_eq!(per(9, 3, 2).value(), 0.0);
    }
}
