//! Order statistics over the samples of one run.

/// Median of `values` (mean of the two middle values for an even count;
/// 0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The fastest of `values` (0 for none).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// A metric as printed: the value, and the samples it was taken over.
/// With fewer than twenty samples no percentile has ten samples beyond
/// it, so the count, minimum, median and maximum are printed instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Summary {
    fn over(samples: &[f64], value: f64) -> Self {
        Summary {
            value,
            n: samples.len(),
            min: fastest(samples),
            median: median(samples),
            max: samples.iter().copied().reduce(f64::max).unwrap_or(0.0),
        }
    }

    /// A time: the fastest sample.  Other tenants of the host only ever
    /// add time, in bursts that last from one repetition to minutes; on
    /// the reference box the medians of ten runs of the same code spread
    /// 10–28 % (interquartile range over median) and the minima 2–14 %.
    pub fn fastest(samples: &[f64]) -> Self {
        Self::over(samples, fastest(samples))
    }

    /// A count that depends on the schedule: the median sample.
    pub fn typical(samples: &[f64]) -> Self {
        Self::over(samples, median(samples))
    }

    /// A single derived or exact value.
    pub fn single(value: f64) -> Self {
        Self::over(&[value], value)
    }

    /// A value derived from `n` samples whose spread is not its own
    /// (a ratio of two times, a sum over repetitions).
    pub fn derived(value: f64, n: usize) -> Self {
        Summary {
            n,
            ..Summary::single(value)
        }
    }
}

/// `part / whole`, or 0 when the layer did no work.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(fastest(&[]), 0.0);
        let samples = [0.5, 0.1, 0.9, 0.3];
        let time = Summary::fastest(&samples);
        assert_eq!((time.value, time.n, time.min, time.max), (0.1, 4, 0.1, 0.9));
        assert!((time.median - 0.4).abs() < 1e-12);
        let count = Summary::typical(&samples);
        assert_eq!(
            (count.value, count.min, count.max),
            (count.median, 0.1, 0.9)
        );
        let derived = Summary::derived(2.0, 7);
        assert_eq!(
            (derived.n, derived.min, derived.median, derived.max),
            (7, 2.0, 2.0, 2.0)
        );
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
