//! Summary statistics the metrics are built from.

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending-sorted `sorted`: the sample at
/// rank `ceil(p/100 · n)`. `None` unless at least [`MIN_BEYOND`] samples
/// lie beyond that rank, so a reported p99 always rests on ≥ 1000
/// samples and a p90 on ≥ 100.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// A latency percentile, in the samples' unit, over a run made of
/// passes that time the same items in the same order: the percentile of
/// the items' typical times ([`typical_items`]) when there are enough
/// items for it — so a stall that hits a few items in one pass cannot
/// move it, nor reorder the items around it — else the percentile of
/// all samples pooled.
pub fn run_percentile(passes: &[&[u64]], p: f64) -> Option<f64> {
    let mut typical = typical_items(passes);
    typical.sort_by(f64::total_cmp);
    percentile(&typical, p).or_else(|| {
        let mut pooled: Vec<f64> = passes
            .iter()
            .flat_map(|s| s.iter().map(|&n| n as f64))
            .collect();
        pooled.sort_by(f64::total_cmp);
        percentile(&pooled, p)
    })
}

/// Each item's typical time: its median across passes. A stall that
/// hits a few items in one pass does not move it; every pass must time
/// the same items in the same order.
pub fn typical_items(passes: &[&[u64]]) -> Vec<f64> {
    let items = passes.first().map_or(0, |p| p.len());
    (0..items)
        .map(|i| median(&passes.iter().map(|p| p[i] as f64).collect::<Vec<_>>()))
        .collect()
}

/// Time for one pass with each item at its typical speed.
pub fn typical_pass(passes: &[&[u64]]) -> f64 {
    typical_items(passes).iter().sum()
}

/// Median of a small set of run-level values (no tail rule: these are
/// per-pass aggregates, not latency samples).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Cost per instruction of the top size class over that of the bottom
/// class. Each class is `(nanoseconds, instructions)`; 1.0 means cost
/// grows linearly with input size.
pub fn growth(bottom: (f64, f64), top: (f64, f64)) -> f64 {
    (top.0 / top.1) / (bottom.0 / bottom.1)
}

/// Share of attempts that did useful work (0 when nothing was tried).
pub fn useful_ratio(useful: u64, attempts: u64) -> f64 {
    if attempts == 0 {
        0.0
    } else {
        useful as f64 / attempts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(200);
        assert_eq!(percentile(&s, 50.0), Some(100.0));
        assert_eq!(percentile(&s, 90.0), Some(180.0));
        // 0.901 · 200 = 180.2 → rank 181.
        assert_eq!(percentile(&s, 90.1), Some(181.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly 10 beyond — reported.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // 99 samples: rank 90, only 9 beyond — withheld.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // The median needs 20 samples for 10 to lie beyond it.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn run_percentile_takes_typical_items_first() {
        // 20 items over 6 passes; each of the first 3 passes stalls a
        // different 5 items, so the 15 stalled samples are 100..=1500.
        let base: Vec<u64> = (1..=20).collect();
        let mut passes = vec![base; 6];
        for (k, pass) in passes.iter_mut().take(3).enumerate() {
            for v in &mut pass[k * 5..k * 5 + 5] {
                *v *= 100;
            }
        }
        let passes: Vec<&[u64]> = passes.iter().map(Vec::as_slice).collect();
        // Every item's median is its unstalled time: p50 of 1..=20.
        assert_eq!(run_percentile(&passes, 50.0), Some(10.0));
        // 20 items leave too few beyond p90: all 120 samples pooled,
        // rank 108, the third stalled sample.
        assert_eq!(run_percentile(&passes, 90.0), Some(300.0));
        assert_eq!(run_percentile(&passes[..1], 99.0), None);
        assert_eq!(run_percentile(&[], 50.0), None);
    }

    #[test]
    fn typical_pass_takes_each_items_median() {
        // Item 0 stalls in pass 1, item 1 in pass 2: neither counts.
        let passes: [&[u64]; 3] = [&[10, 20], &[90, 20], &[10, 80]];
        assert_eq!(typical_items(&passes), vec![10.0, 20.0]);
        assert_eq!(typical_pass(&passes), 30.0);
        assert_eq!(typical_pass(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn growth_is_one_for_linear_cost() {
        assert_eq!(growth((1_000.0, 100.0), (16_000.0, 1_600.0)), 1.0);
        // 16× the input at 4× the cost per instruction.
        assert_eq!(growth((1_000.0, 100.0), (64_000.0, 1_600.0)), 4.0);
        // Fixed per-call overhead makes larger inputs cheaper per inst.
        assert_eq!(growth((2_000.0, 100.0), (16_000.0, 1_600.0)), 0.5);
    }

    #[test]
    fn useful_ratio_counts_changes_over_runs() {
        assert_eq!(useful_ratio(3, 12), 0.25);
        assert_eq!(useful_ratio(0, 8), 0.0);
        assert_eq!(useful_ratio(0, 0), 0.0);
    }
}
