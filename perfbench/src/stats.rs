//! Exact percentiles over raw samples, and the `slo_qps` search.

/// Percentile `p` (0..=1) of `sorted`, interpolated linearly between the
/// two closest ranks. Exact: computed from every sample, no bucketing.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The highest rate whose latency `y` stays within `limit` on a measured
/// rate → latency curve: walk the points in rate order to the first that
/// misses the limit and interpolate linearly between it and the point
/// before. A point that missed for any other reason carries `y = inf` and
/// the answer is the last passing rate. Past the last point, the answer is
/// that point's rate; missing at the first point, 0.
pub fn slo_from_curve(points: &[(f64, f64)], limit: f64) -> f64 {
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut prev: Option<(f64, f64)> = None;
    for (rate, y) in pts {
        if y > limit {
            return match prev {
                None => 0.0,
                Some((r0, y0)) if y.is_finite() => r0 + (rate - r0) * (limit - y0) / (y - y0),
                Some((r0, _)) => r0,
            };
        }
        prev = Some((rate, y));
    }
    prev.map_or(0.0, |p| p.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_synthetic_samples() {
        let s = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert!((percentile(&s, 0.5) - 50.5).abs() < 1e-12);
        assert!((percentile(&s, 0.9) - 90.1).abs() < 1e-12);
        assert!((percentile(&s, 0.99) - 99.01).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // A value between log2 bucket edges is reported as itself.
        let s = sorted(vec![3.0, 3.3, 3.3, 3.3, 900.0]);
        assert_eq!(percentile(&s, 0.5), 3.3);
    }

    #[test]
    fn slo_from_curve_interpolates_at_the_limit() {
        let curve = [
            (20.0, 30.0),
            (40.0, 50.0),
            (60.0, 90.0),
            (70.0, 300.0),
            (80.0, 900.0),
        ];
        // Crosses 150 between 60 (90) and 70 (300).
        let slo = slo_from_curve(&curve, 150.0);
        assert!((slo - (60.0 + 10.0 * 60.0 / 210.0)).abs() < 1e-9, "{slo}");
        // Order of the points does not matter.
        let mut shuffled = curve;
        shuffled.reverse();
        assert_eq!(slo_from_curve(&shuffled, 150.0), slo);
        // Everything passes: the highest rate measured.
        assert_eq!(slo_from_curve(&curve, 1000.0), 80.0);
        // The first point already misses.
        assert_eq!(slo_from_curve(&curve, 10.0), 0.0);
        // A failed probe (errors) is not interpolated through.
        let failed = [(20.0, 30.0), (40.0, f64::INFINITY)];
        assert_eq!(slo_from_curve(&failed, 150.0), 20.0);
    }
}
