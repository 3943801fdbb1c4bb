//! Process-level readings from `/proc` (Linux) and small statistics
//! helpers shared by every workload.

/// The process's resident-set high-water mark (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib * 1024.0 / 1e6
}

/// Smallest value of a sample (0.0 when empty).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Elementwise minimum over equally long samples: each item's fastest
/// repetition.
pub fn min_each(samples: &[Vec<f64>]) -> Vec<f64> {
    let n = samples.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| min(&samples.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect()
}

/// Median of a sample (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of an unsorted sample (0.0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    hc_bench::load::percentile(&sorted, q)
}

/// `part / whole`, or 0.0 when nothing was measured.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
