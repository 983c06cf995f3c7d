//! Summary statistics: Python-compatible quartiles and the steady-state
//! statistic every timed quantity of a run is reduced with.
//!
//! On a small shared host, repetitions of the same operation vary by up
//! to 1.5x: other tenants contend for the memory system in phases that
//! last seconds to minutes, and a pointer chase over 8 MB slows by up to
//! 1.48x in them while a register-only loop slows by 1.25x at most.
//! Contention only ever slows a repetition, so a run times many short
//! repetitions spread over its whole length and reports the *fastest*:
//! it moves only if no moment of the run is free of contention. In
//! batches of twelve runs, its run-to-run deviation was 4-10% against
//! 8-19% for the median and 9-14% for the lower quartile.
/// The values in ascending order (NaNs last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points of `statistics.quantiles(xs, n=4)` in Python
/// (its default "exclusive" method), so quartiles printed here match
/// the ones an outside reader computes from the same values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(xs);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    // Python's integer arithmetic: `delta` goes negative when the cut
    // point is clamped up to the first pair.
    let m = ld as i64 + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let k = j as usize;
        *slot = (data[k - 1] * (n as f64 - delta) + data[k] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the spread figure
/// the benchmark's bounds are compared with.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The steady-state duration of a repeated operation: the fastest of its
/// repetitions.
pub fn steady(durations: &[f64]) -> Option<f64> {
    durations.iter().copied().reduce(f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&xs).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn steady_ignores_slow_phases_of_any_length() {
        // Two fast repetitions, then a slow phase at twice the time
        // covering the rest of the run.
        let mut xs = vec![1.0; 2];
        xs.extend([2.0; 30]);
        assert_eq!(steady(&xs), Some(1.0));
        xs.reverse();
        assert_eq!(steady(&xs), Some(1.0));
        assert_eq!(steady(&[]), None);
        assert_eq!(steady(&[0.25]), Some(0.25));
    }
}
