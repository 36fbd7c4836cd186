//! Order statistics, the sample-count rule, the result digest and the
//! process's peak memory.

/// The `p`-th percentile (`0 < p ≤ 1`) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `p·n` samples at
/// or below it. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of an unsorted sample (mean of the two middle values when
/// the count is even, as Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A percentile is reported with confidence only when at least ten
/// samples lie beyond it (choosing-metrics §1): p90 needs 100 samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread
/// the acceptance rule is written in. Fewer than two values have none.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        // Taken after clamping, as Python does: beyond the ends the
        // quartile is extrapolated from the two outermost values.
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

/// FNV-1a over bytes: the per-workload `result_digest`. Stable across
/// runs, hosts and toolchains, which `std`'s hashers do not promise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string and a separator, so `("ab","c")` ≠ `("a","bc")`.
    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
