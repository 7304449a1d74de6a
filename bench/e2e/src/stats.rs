//! Order statistics for trial samples: median, MAD, percentiles, quartiles.

/// Sort a sample in place (NaN-free by construction: every sample here is a
/// measured time or count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of a sample (mean of the two middle values for even sizes).
/// Returns 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the better half of the sample (the faster trials: the upper
/// half when `higher_is_better`, else the lower half; at least one value) —
/// a run's value for a sampled metric.
///
/// The reference host is a small shared VM. Whatever disturbs a trial there
/// — a neighbour on the core, the host faulting guest memory back in, the
/// scheduler letting the wrong thread run first after a wake-up — only ever
/// makes it slower, for a few trials at a time, and how many trials of a run
/// are hit differs from run to run: between a fifth and half of them. The
/// half of the trials on the good side of the median is the half least
/// touched, and averaging it uses every one of those samples. Over the same
/// five whole-benchmark runs the spread of this value was 2-9 %, where the
/// median's was 3-16 % and a 10 %-trimmed mean's 5-13 %. A change that slows
/// the code down slows every trial and moves this value with it; a change
/// that slows only a minority of trials shows in the median, MAD and samples
/// kept beside it.
pub fn better_half_mean(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    if higher_is_better {
        v.reverse();
    }
    let kept = &v[..(v.len() / 2).max(1).min(v.len())];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them — the rule the driver's spread check
/// uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        // Position q*(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// One metric's trial values reduced: the reported value (mean of the
/// better half), median, extremes, MAD and count, and the values themselves
/// in the order they were measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub mad: f64,
    pub n: usize,
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn of(values: &[f64], higher_is_better: bool) -> Summary {
        let mut v = values.to_vec();
        sort(&mut v);
        Summary {
            value: better_half_mean(values, higher_is_better),
            median: median_sorted(&v),
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            mad: mad(values),
            n: v.len(),
            samples: values.to_vec(),
        }
    }

    /// A value that was counted once, not sampled.
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            min: value,
            max: value,
            mad: 0.0,
            n: 1,
            samples: vec![value],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // median 3, deviations [2,1,0,1,97] -> median deviation 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn better_half_mean_keeps_the_faster_trials() {
        // Throughputs: the upper half; latencies: the lower half.
        assert_eq!(better_half_mean(&[10.0, 40.0, 20.0, 30.0], true), 35.0);
        assert_eq!(better_half_mean(&[10.0, 40.0, 20.0, 30.0], false), 15.0);
        // Odd sizes keep the smaller half; one value is its own half.
        assert_eq!(better_half_mean(&[1.0, 2.0, 3.0, 4.0, 100.0], false), 1.5);
        assert_eq!(better_half_mean(&[7.0], true), 7.0);
        assert_eq!(better_half_mean(&[], true), 0.0);
        // Slowing a minority of the trials down, by however much, does not
        // move it; slowing all of them does.
        let clean = [50.0, 51.0, 49.0, 50.0, 52.0, 50.0];
        let hit = [50.0, 51.0, 30.0, 50.0, 52.0, 25.0];
        assert_eq!(better_half_mean(&clean, true), better_half_mean(&hit, true));
        let slower: Vec<f64> = clean.iter().map(|x| x * 0.8).collect();
        assert!(better_half_mean(&slower, true) < 0.81 * better_half_mean(&clean, true));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((spread(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0], false);
        assert_eq!(
            (s.value, s.median, s.min, s.max, s.n),
            (2.0, 4.0, 2.0, 9.0, 3)
        );
        assert_eq!(s.mad, 2.0);
    }
}
