//! Percentile math and the open-loop schedule's due-time accounting.

use std::time::{Duration, Instant};

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (`q` in `[0, 1]`).
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, for `n` samples; `None` when even p90 has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|q| n as f64 * (1.0 - q) >= TAIL_BEYOND as f64 - 1e-9)
}

/// A latency distribution as the benchmark reports it: the median, p99,
/// and the highest percentile the sample count supports.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(samples.len()).unwrap_or(0.5);
        Summary {
            n: samples.len(),
            p50: percentile(&samples, 0.5),
            p99: percentile(&samples, 0.99),
            tail_q,
            tail: percentile(&samples, tail_q),
        }
    }

    /// `p50=… p99.9=… (n=…)`, values in the caller's unit.
    pub fn describe(&self) -> String {
        format!(
            "p50={:.2} p{}={:.2} (n={})",
            self.p50,
            trim_q(self.tail_q * 100.0),
            self.tail,
            self.n
        )
    }
}

fn trim_q(pct: f64) -> String {
    let s = format!("{pct:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Completions per second in each whole `window_s` window of a phase
/// that ran `span_s` seconds, from the completion times `at_s` (seconds
/// since the phase began). The median over windows is what the
/// throughputs report: a stall on a shared host costs the windows it
/// hits, not the whole figure.
pub fn window_rates(at_s: &[f64], window_s: f64, span_s: f64) -> Vec<f64> {
    let mut counts = vec![0.0; (span_s / window_s).floor() as usize];
    for &at in at_s {
        if let Some(c) = counts.get_mut((at / window_s).max(0.0) as usize) {
            *c += 1.0;
        }
    }
    counts.iter().map(|c| c / window_s).collect()
}

/// A fixed-rate open-loop schedule: request `k` is due at
/// `start + k / rate`, whether or not earlier replies have arrived.
/// Latency is timed from the due instant, so a stall in the generator
/// or the daemon is charged to every request it delays.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    interval_ns: f64,
    pub total: u64,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64, span: Duration) -> Schedule {
        let total = (rate_per_s * span.as_secs_f64()).round().max(1.0) as u64;
        Schedule { start, interval_ns: 1e9 / rate_per_s, total }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_nanos((k as f64 * self.interval_ns) as u64)
    }

    /// How many requests are due by `now` (capped at `total`).
    pub fn due_by(&self, now: Instant) -> u64 {
        match now.checked_duration_since(self.start) {
            None => 0,
            Some(elapsed) => {
                let k = (elapsed.as_nanos() as f64 / self.interval_ns).floor() as u64 + 1;
                k.min(self.total)
            }
        }
    }

    /// Latency of request `k` answered at `answered`: measured from its
    /// due time, never from when the generator got round to sending it.
    pub fn latency(&self, k: u64, answered: Instant) -> Duration {
        answered.saturating_duration_since(self.due(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        assert_eq!(tail_quantile(10_000_000), Some(0.9999));
    }

    #[test]
    fn summary_reports_supported_tail() {
        let s = Summary::of((0..20_000).rev().map(f64::from).collect());
        assert_eq!(s.n, 20_000);
        assert_eq!(s.p50, 9_999.0);
        assert_eq!(s.p99, 19_799.0);
        assert_eq!(s.tail_q, 0.999);
        assert_eq!(s.tail, 19_979.0);
        assert_eq!(Summary::of(vec![1.0; 500]).tail_q, 0.9);
        assert_eq!(s.describe(), "p50=9999.00 p99.9=19979.00 (n=20000)");
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windowed_figures_ignore_a_stalled_window() {
        // 100 completions per 0.1 s window for 1 s, except one window
        // that a stall emptied; completions past the span are dropped.
        let mut at = Vec::new();
        for w in 0..11 {
            if w == 4 {
                continue;
            }
            at.extend((0..100).map(|i| (w * 100 + i) as f64 * 0.001 + 0.0004));
        }
        let rates = window_rates(&at, 0.1, 1.05);
        assert_eq!(rates.len(), 10);
        assert_eq!(rates[4], 0.0);
        assert_eq!(median(&rates), 1_000.0);
    }

    #[test]
    fn schedule_due_times_follow_the_rate() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 20_000.0, Duration::from_millis(500));
        assert_eq!(s.total, 10_000);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(20), t0 + Duration::from_millis(1));
        assert_eq!(s.due_by(t0), 1);
        assert_eq!(s.due_by(t0 + Duration::from_micros(49)), 1);
        assert_eq!(s.due_by(t0 + Duration::from_micros(50)), 2);
        assert_eq!(s.due_by(t0 + Duration::from_secs(5)), 10_000);
    }

    #[test]
    fn a_stall_is_charged_to_every_delayed_request() {
        // 10 ms stall at 1 kHz: requests 0..=10 all go out at t0+10ms.
        // Timed from due, they wait 10, 9, ..., 0 ms — not 0 each, as
        // timing from the send would claim.
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1_000.0, Duration::from_secs(1));
        let sent = t0 + Duration::from_millis(10);
        assert_eq!(s.due_by(sent), 11);
        let waits: Vec<u128> = (0..11).map(|k| s.latency(k, sent).as_millis()).collect();
        assert_eq!(waits, vec![10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
        // A reply can never be earlier than its due time.
        assert_eq!(s.latency(50, sent), Duration::ZERO);
    }
}
