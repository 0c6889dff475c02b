//! Order statistics for pooled job timings, and the process's peak
//! resident set.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest value with at least `p` percent
/// of the samples at or below it. With n = 120, `p = 90` leaves 12
/// samples beyond the reported value.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN, or `p` is outside (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let s = sorted(values);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// `a / b`, or 0 where the base is 0: a ratio whose layer is idle on this
/// workload (no wire bytes on one machine, no UDF in a native job).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Extracts `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm(status: &str) -> Option<f64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_of_120_samples_leaves_twelve_beyond() {
        let values: Vec<f64> = (1..=120).map(f64::from).collect();
        let p90 = percentile(&values, 90.0);
        assert_eq!(p90, 108.0);
        assert_eq!(values.iter().filter(|&&v| v > p90).count(), 12);
        assert_eq!(percentile(&values, 100.0), 120.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn pooling_rounds_is_order_independent() {
        let rounds = [vec![10.0, 30.0], vec![20.0, 40.0], vec![25.0]];
        let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
        let mut reversed = pooled.clone();
        reversed.reverse();
        assert_eq!(median(&pooled), 25.0);
        assert_eq!(median(&reversed), 25.0);
        assert_eq!(percentile(&pooled, 90.0), percentile(&reversed, 90.0));
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(20.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb().expect("VmHWM on Linux") > 0.0);
    }
}
