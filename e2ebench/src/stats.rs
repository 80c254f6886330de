//! Order statistics and process measurements.

/// Nearest-rank percentile `q` (in `[0, 1]`) of unsorted observations; `0`
/// when there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median: the middle observation, or the mean of the two middle ones; `0`
/// when there are none.
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

/// Arithmetic mean; `0` when there are no observations.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median over consecutive windows of `values` of `stat` of each window: a
/// brief disturbance moves one window's figure, not the reported one. Every
/// window holds the same whole number of `align`-long groups; trailing
/// observations that fill no window are left out.
pub fn windowed(values: &[f64], windows: usize, align: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let len = (values.len() / windows.max(1) / align.max(1)).max(1) * align.max(1);
    let per_window: Vec<f64> = values.chunks(len).filter(|w| w.len() == len).map(&stat).collect();
    if per_window.is_empty() {
        stat(values)
    } else {
        median(&per_window)
    }
}

/// Observations strictly above the `q` percentile: how many samples a
/// percentile rests on.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = percentile(values, q);
    values.iter().filter(|v| **v > cut).count()
}

/// Peak resident set (`VmHWM`) of a process in MiB; `None` where `/proc`
/// does not report it.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.95), 95.0);
        assert_eq!(beyond(&values, 0.95), 5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Three windows of four; the outlier window does not move the median.
        let mut values = vec![1.0; 8];
        values.extend([100.0; 4]);
        assert_eq!(windowed(&values, 3, 1, |w| percentile(w, 0.5)), 1.0);
        assert_eq!(windowed(&values, 3, 4, mean), 1.0);
        assert_eq!(windowed(&[2.0, 4.0], 5, 1, mean), 3.0);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
    }
}
