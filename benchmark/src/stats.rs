//! Latency histograms, percentiles and failure accounting.

/// Sub-buckets per power of two: values are kept to within 1/128 (<0.8%).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB as usize;

/// A log-linear latency histogram over nanoseconds.
///
/// Percentiles interpolate linearly inside the bucket that holds the
/// requested rank, so they move with the counts instead of snapping to
/// bucket edges.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let shift = exp - SUB_BITS;
    ((exp - SUB_BITS + 1) as u64 * SUB + ((value >> shift) - SUB)) as usize
}

/// `(low edge, width)` of bucket `index`.
fn bucket_span(index: usize) -> (f64, f64) {
    let index = index as u64;
    if index < SUB {
        return (index as f64, 1.0);
    }
    let shift = index / SUB - 1;
    let mantissa = SUB + index % SUB;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The nearest-rank `q`-quantile in nanoseconds (`0.0` when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && below + count >= rank {
                let (low, width) = bucket_span(index);
                let within = (rank - below) as f64 - 0.5;
                return low + width * within / count as f64;
            }
            below += count;
        }
        unreachable!(
            "rank {rank} lies within the {} recorded samples",
            self.total
        )
    }
}

/// Samples a percentile may have beyond it before it is reported.
pub const TAIL_SAMPLES: u64 = 10;

/// The highest quantile of `n` samples that still has at least
/// [`TAIL_SAMPLES`] samples beyond its nearest rank, or `None` when there
/// are too few samples for any.
pub fn highest_tail_quantile(n: u64) -> Option<f64> {
    (n >= TAIL_SAMPLES).then(|| (n - TAIL_SAMPLES) as f64 / n as f64)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Operations attempted and failed.  A failure is an error returned by
/// the system, a refusal (an error frame), or a result that disagrees
/// with the oracle; each attempted operation counts at most once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcomes {
    /// Counts one operation, failed unless `ok`.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (`0.0` before any attempt).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for value in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456_789,
            u64::MAX / 3,
        ] {
            let (low, width) = bucket_span(bucket_of(value));
            assert!(
                low <= value as f64 && (value as f64) < low + width,
                "{value}"
            );
            assert!(width <= 1.0f64.max(value as f64 / SUB as f64));
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_track_exact_ranks_within_a_bucket() {
        let mut hist = Histogram::default();
        for value in 1..=1000u64 {
            hist.record(value * 100);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = (q * 1000.0) * 100.0;
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: {got} vs {exact}"
            );
        }
        let mut other = Histogram::default();
        other.record(7);
        hist.merge(&other);
        assert_eq!(hist.len(), 1001);
        assert!(hist.quantile(0.0) < 10.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_tail_quantile(9), None);
        assert_eq!(highest_tail_quantile(10), Some(0.0));
        assert_eq!(highest_tail_quantile(1000), Some(0.99));
        for n in [10u64, 11, 999, 1000, 1001, 54_321] {
            let q = highest_tail_quantile(n).unwrap();
            let rank = (q * n as f64).ceil() as u64;
            assert_eq!(n - rank, TAIL_SAMPLES, "n={n}");
        }
        // p99 needs a thousand samples.
        assert!(highest_tail_quantile(999).unwrap() < 0.99);
    }

    #[test]
    fn fail_frac_counts_each_attempt_once() {
        let mut outcomes = Outcomes::default();
        assert_eq!(outcomes.fail_frac(), 0.0);
        for ok in [true, true, false, true] {
            outcomes.note(ok);
        }
        let mut other = Outcomes::default();
        other.note(false);
        outcomes.add(other);
        assert_eq!(
            outcomes,
            Outcomes {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(outcomes.fail_frac(), 0.4);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
