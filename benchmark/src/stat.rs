//! Order statistics over small samples.

/// Sorts ascending; timings are never NaN.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of a sorted sample; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile of an unsorted sample, as Python's
/// `statistics.quantiles(v, n=4)` computes them (the rule the benchmark's
/// acceptance uses); both equal the lone value of a one-element sample.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        // Exclusive method: position q(n+1)/4, clamped to the sample, interpolated.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        100.0 * (q3 - q1) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_match_python() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0];
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        let mut s = v.to_vec();
        sort(&mut s);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
