//! The benchmark's statistics: percentiles that the sample supports,
//! Spearman rank correlation, open-loop latency and span self time.

use std::time::Instant;

/// Samples that must lie beyond a reported percentile for it to count
/// as measured rather than extrapolated.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile at or below `want` that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it (nearest-rank), or `None`
/// when even the median is unsupported.
#[must_use]
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    let cap = 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64;
    Some(want.min(cap))
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Arithmetic mean (0 for an empty sample).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Share of a sample dropped from each end by [`trimmed_mean`].
pub const TRIM: f64 = 0.1;

/// Mean of a sample after dropping the lowest and the highest [`TRIM`]
/// of it (rounded down). Used for events a run repeats a few dozen
/// times, such as replica boots: a host that switches between a fast
/// and a slow speed for seconds at a time splits such a sample into two
/// modes, and a median jumps from one to the other as their shares
/// cross one half, where this mean moves in proportion. The trim keeps
/// single stalls out.
#[must_use]
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * TRIM) as usize;
    mean(&v[cut..v.len() - cut])
}

/// The percentile, counted from the fast end, at which [`fast_time`]
/// and [`fast_rate`] read a run's windows.
pub const FAST_PCT: f64 = 2.0;

/// The time at [`FAST_PCT`] of `windows` (one time per window, unsorted)
/// from the fast end. Used where each window is short and holds the same
/// work: a host that runs at one of a few speeds up to 1.8× apart for
/// seconds to minutes at a time moves any figure over the whole run with
/// its share of slow time, and a median or a mean of the windows with it,
/// but a few seconds at full speed are enough for this one. Timing noise
/// only ever adds time, so the fast end is the steady one.
///
/// # Panics
///
/// When `windows` is empty.
#[must_use]
pub fn fast_time(windows: &[f64]) -> f64 {
    let mut v = windows.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, FAST_PCT)
}

/// The rate at [`FAST_PCT`] of `windows` from the fast end: as
/// [`fast_time`], for rates.
///
/// # Panics
///
/// When `windows` is empty.
#[must_use]
pub fn fast_rate(windows: &[f64]) -> f64 {
    let mut v = windows.to_vec();
    // Descending, so the rank counts from the top as `fast_time`'s
    // counts from the bottom.
    v.sort_by(|a, b| b.total_cmp(a));
    percentile(&v, FAST_PCT)
}

/// A latency sample's supported tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The tail percentile actually reported (≤ 99).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// Summarize a sample: the highest percentile up to p99 with at least
/// [`TAIL_SAMPLES`] samples beyond it. `None` on fewer than
/// `2 * TAIL_SAMPLES` samples.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let tail_pct = supported_percentile(values.len(), 99.0)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        n: v.len(),
        tail_pct,
        tail: percentile(&v, tail_pct),
    })
}

/// Ranks `1..=n` of `values`, ties sharing the mean of the ranks they
/// span.
#[must_use]
pub fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for &at in &order[i..=j] {
            out[at] = mean_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation: Pearson correlation of the tie-averaged
/// ranks. `None` when fewer than two pairs, or when either side is
/// constant (the correlation is undefined).
#[must_use]
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "spearman needs paired samples");
    if x.len() < 2 {
        return None;
    }
    let (rx, ry) = (ranks(x), ranks(y));
    let n = x.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Open-loop latency of one request, in milliseconds: from when it was
/// *due* to be sent, not from when the generator got round to sending
/// it, so a stall that delays later sends is charged to them.
#[must_use]
pub fn due_latency_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// A closed interval on the trace clock, in microseconds.
pub type Interval = (u64, u64);

/// Self time of a span covering `span`: its duration minus the part of
/// it that the union of `children` covers. Children are clipped to the
/// span, and overlapping children count once.
#[must_use]
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let (lo, hi) = span;
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(5000, 99.0), Some(99.0));
        // 500 samples support p98 at most: 10 lie beyond it.
        assert_eq!(supported_percentile(500, 99.0), Some(98.0));
        assert_eq!(supported_percentile(19, 99.0), None);
        let sorted: Vec<f64> = (1..=500).map(f64::from).collect();
        let p = supported_percentile(sorted.len(), 99.0).unwrap();
        let v = percentile(&sorted, p);
        let beyond = sorted.iter().filter(|&&x| x > v).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn nearest_rank_percentiles_median_and_mean() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 90.0), 9.0);
        assert_eq!(percentile(&sorted, 100.0), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn fast_end_reads_the_full_speed_windows() {
        // 95 windows at a slow speed and 5 at full speed, in any order:
        // the fast end reads full speed, whatever the slow share above
        // a few percent.
        let mut times = vec![16.0; 95];
        times.extend([10.0, 10.2, 10.1, 10.3, 10.4]);
        times.rotate_left(40);
        assert_eq!(fast_time(&times), 10.1);
        let rates: Vec<f64> = times.iter().map(|t| 1e3 / t).collect();
        assert!((fast_rate(&rates) - 1e3 / 10.1).abs() < 1e-9);
        // Below the fast end nothing counts but the windows themselves.
        assert_eq!(fast_time(&[7.0]), 7.0);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        // Fewer than ten samples: nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        // Ten samples: the lowest and the highest go.
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.extend([-1000.0, 1000.0]);
        assert_eq!(trimmed_mean(&v), 4.5);
        // Two modes: the figure moves with their shares instead of
        // jumping between them as a median does.
        let mix = |slow: usize| {
            let mut v = vec![10.0; 20 - slow];
            v.extend(vec![15.0; slow]);
            v
        };
        assert_eq!(median(&mix(9)), 10.0);
        assert_eq!(median(&mix(11)), 15.0);
        let (a, b) = (trimmed_mean(&mix(9)), trimmed_mean(&mix(11)));
        assert!(a > 10.0 && b < 15.0 && b - a < 1.5, "{a} {b}");
    }

    #[test]
    fn spearman_averages_tied_ranks() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((spearman(&x, &[2.0, 4.0, 6.0, 8.0, 10.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&x, &[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
        // With ties: x ranks [1, 2.5, 2.5, 4], y ranks [1, 2, 3, 4];
        // Pearson of those is 4.5 / sqrt(4.5 * 5).
        let rho = spearman(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((rho - 4.5 / (4.5f64 * 5.0).sqrt()).abs() < 1e-12, "{rho}");
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(spearman(&[1.0], &[1.0]), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(2);
        // The generator ran 30 ms late: the request's latency is 32 ms,
        // not the 2 ms it spent in the system after being sent.
        assert!((due_latency_ms(due, done) - 32.0).abs() < 1e-9);
        // A reply stamped before its due time reads as zero, never
        // negative.
        assert_eq!(due_latency_ms(done, due), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        // A child nested inside another child changes nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn summaries_need_enough_samples() {
        assert!(summarize(&[1.0; 19]).is_none());
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 2000);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 1980.0);
    }
}
