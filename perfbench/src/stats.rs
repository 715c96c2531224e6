//! Sample statistics and `/proc` readers.

use std::time::Duration;

/// Milliseconds in `d`, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolation quantile of an ascending sample (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Fewest samples a reported latency percentile must have beyond it.
pub const TAIL: usize = 10;

/// Median, quartiles and size of a sample, plus how many samples lie beyond
/// a requested percentile.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    sorted: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            sorted,
        }
    }

    /// The `p`-th percentile and the number of samples strictly above it.
    pub fn percentile(&self, p: f64) -> (f64, usize) {
        let v = quantile(&self.sorted, p / 100.0);
        (v, self.sorted.iter().filter(|&&x| x > v).count())
    }

    /// The `p`-th percentile, lowered where the sample is too small for it
    /// to the highest percentile that still has [`TAIL`] samples beyond it,
    /// but never below the median. Returns the value and the percentile
    /// used. A tail read off a few samples is their maximum and moves with
    /// every hiccup of the host; one with `TAIL` beyond it does not.
    pub fn tail_percentile(&self, p: f64) -> (f64, f64) {
        let n = self.sorted.len();
        let cap = n.saturating_sub(TAIL + 1) as f64 / n.saturating_sub(1).max(1) as f64;
        let q = (p / 100.0).min(cap.max(0.5));
        (quantile(&self.sorted, q), q * 100.0)
    }
}

/// Geometric mean (of positive values).
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// User + system CPU time of process `pid` in milliseconds, from
/// `/proc/<pid>/stat` (clock ticks of `USER_HZ` = 100 on Linux).
pub fn cpu_ms(pid: u32) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // The command name may contain spaces; fields resume after its `)`.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15 of the whole line.
    (tick(11) + tick(12)) as f64 * 10.0
}

/// Resets the peak resident set of process `pid` to its current size
/// (Linux 4.0+), so that the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss(pid: u32) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.percentile(90.0), (4.6, 1));
    }

    #[test]
    fn tail_percentile_keeps_ten_beyond() {
        let s = Summary::of(&(1..=41).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_percentile(50.0), (21.0, 50.0));
        assert_eq!(s.tail_percentile(99.0), (31.0, 75.0));
        let s = Summary::of(&(1..=20).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_percentile(90.0), (10.5, 50.0));
        let s = Summary::of(&(1..=1001).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_percentile(99.0).1, 99.0);
        assert_eq!(Summary::of(&[3.0, 1.0]).tail_percentile(90.0), (2.0, 50.0));
        assert_eq!(Summary::of(&[3.0]).tail_percentile(99.0), (3.0, 50.0));
    }

    #[test]
    fn own_process_is_visible() {
        assert!(peak_rss_mb(std::process::id()) > 0.0);
        assert!(cpu_ms(std::process::id()) >= 0.0);
    }
}
