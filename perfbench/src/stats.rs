//! The benchmark's own arithmetic: medians, quartiles, the percentile
//! rule, ratios that carry their base, and the open-loop accounting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Median of `values` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The percentile levels the benchmark may report, highest first.
pub const LEVELS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest reportable percentile for `n` samples: the highest level
/// with at least ten samples beyond it. `None` below the median's need.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LEVELS
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10.0)
}

/// How many of `n` samples lie beyond percentile `p` (rounded to a
/// millionth, so `100 - 99.9` counts as exactly a thousandth).
pub fn samples_beyond(n: usize, p: f64) -> f64 {
    (n as f64 * (100.0 - p) / 100.0 * 1e6).round() / 1e6
}

/// Percentile `p` (0–100) of `values`, refusing a level the sample count
/// cannot support under the ten-samples-beyond rule.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples_beyond(values.len(), p);
    if beyond < 10.0 {
        return Err(format!(
            "p{p} needs ten samples beyond it; {} samples leave {beyond:.1}",
            values.len()
        ));
    }
    quantile(values, p / 100.0).ok_or_else(|| "no samples".to_string())
}

/// True when the two halves of `values` agree on percentile `p` within a
/// tenth of their mean: the "repeats within a tenth" half of the rule,
/// checked inside one run.
pub fn percentile_repeats(values: &[f64], p: f64) -> bool {
    let (a, b) = values.split_at(values.len() / 2);
    match (quantile(a, p / 100.0), quantile(b, p / 100.0)) {
        (Some(x), Some(y)) => (x - y).abs() <= 0.1 * (x + y) / 2.0,
        _ => false,
    }
}

/// The percentile to report for `values`, at most `cap`: the highest of
/// [`LEVELS`] with at least ten samples beyond it that also repeats within
/// a tenth across the two halves of the samples. When no level repeats,
/// the median, the steadiest of them; `None` when too few samples leave
/// even the median ten beyond it.
pub fn reportable_level(values: &[f64], cap: f64) -> Option<f64> {
    let supported = |p: f64| samples_beyond(values.len(), p) >= 10.0;
    LEVELS
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| supported(p) && percentile_repeats(values, p))
        .or_else(|| supported(50.0).then_some(50.0))
}

/// A ratio that keeps its numerator and base, so every reported ratio can
/// be printed with what it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Base (denominator).
    pub base: f64,
}

impl Ratio {
    /// `num / base`.
    pub fn new(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// The quotient; 0 over an empty base.
    pub fn value(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.num / self.base
        }
    }

    /// `value (num / base)`, the form every ratio is printed in.
    pub fn show(&self) -> String {
        format!("{:.4} ({} / {})", self.value(), self.num, self.base)
    }
}

/// One open-loop request as the generator saw it, in seconds since the
/// schedule's start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due: f64,
    /// When it was actually written to the socket.
    pub sent: f64,
    /// When its reply arrived (`None` if it never did).
    pub done: Option<f64>,
}

impl Timing {
    /// Latency counted from the due time, so a generator or server stall
    /// is charged to every request it delayed.
    pub fn latency(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Latencies (ms) of answered requests, from their due times.
pub fn latencies_ms(timings: &[Timing]) -> Vec<f64> {
    timings
        .iter()
        .filter_map(Timing::latency)
        .map(|s| s * 1e3)
        .collect()
}

/// Generator lateness (ms) of every request sent.
pub fn lateness_ms(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| t.lateness() * 1e3).collect()
}

/// Requests outstanding (sent, unanswered) at each send instant, in send
/// order. A reply arriving exactly at a send instant counts as done.
pub fn backlog_at_sends(timings: &[Timing]) -> Vec<usize> {
    let mut order: Vec<&Timing> = timings.iter().collect();
    order.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    let mut done: Vec<f64> = timings
        .iter()
        .map(|t| t.done.unwrap_or(f64::INFINITY))
        .collect();
    done.sort_by(f64::total_cmp);
    let mut finished = 0usize;
    order
        .iter()
        .enumerate()
        .map(|(ix, t)| {
            while finished < done.len() && done[finished] <= t.sent {
                finished += 1;
            }
            (ix + 1).saturating_sub(finished)
        })
        .collect()
}

/// True when the backlog grows over a step: its mean over the last
/// quarter of the sends exceeds twice its mean over the first quarter
/// plus `slack`.
pub fn backlog_grows(backlog: &[usize], slack: usize) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    mean(&backlog[backlog.len() - q..]) > 2.0 * mean(&backlog[..q]) + slack as f64
}

/// Seeded Poisson arrivals of independent users: `n` due times scattered
/// uniformly over the `n / rate` seconds of the window and sorted, which is
/// a Poisson stream at `rate` conditioned on `n` arrivals in the window.
/// Every schedule thus spans the same time, whatever its seed.
pub fn poisson_schedule(n: usize, rate: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let window = n as f64 / rate;
    let mut dues: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * window).collect();
    dues.sort_by(f64::total_cmp);
    dues
}

/// FNV-1a over `bytes`, chained from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
    }

    #[test]
    fn percentile_level_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(19), None);
        let xs: Vec<f64> = (0..160).map(f64::from).collect();
        assert!(percentile(&xs, 90.0).is_ok());
        let err = percentile(&xs, 99.0).unwrap_err();
        assert!(err.contains("ten samples beyond"), "{err}");
    }

    #[test]
    fn percentile_repeat_check_compares_halves() {
        let steady: Vec<f64> = (0..200).map(|i| f64::from(i % 100)).collect();
        assert!(percentile_repeats(&steady, 90.0));
        let drifting: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(!percentile_repeats(&drifting, 90.0));
    }

    #[test]
    fn a_tail_that_does_not_repeat_falls_back_to_the_next_level() {
        // 2000 samples support p99 (20 beyond it), and the two halves share
        // their body; only the first half has a 10 ms tail (2% of it).
        let half = |tail: f64| -> Vec<f64> {
            (0..1000)
                .map(|i| {
                    if i % 50 == 49 {
                        tail
                    } else {
                        1.0 + f64::from(i % 100) / 100.0
                    }
                })
                .collect()
        };
        let steady = [half(1.0), half(1.0)].concat();
        assert_eq!(reportable_level(&steady, 99.0), Some(99.0));
        let uneven = [half(10.0), half(1.0)].concat();
        assert!(!percentile_repeats(&uneven, 99.0));
        assert_eq!(reportable_level(&uneven, 99.0), Some(90.0));
        // The cap bounds the level even when more samples would allow more.
        assert_eq!(reportable_level(&steady, 90.0), Some(90.0));
        // Too few samples for p90: the median is the highest level left.
        let few: Vec<f64> = (0..50).map(|i| f64::from(i % 5)).collect();
        assert_eq!(reportable_level(&few, 99.0), Some(50.0));
        // Halves that disagree everywhere leave the median.
        let drifting: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(reportable_level(&drifting, 99.0), Some(50.0));
        assert_eq!(reportable_level(&drifting[..19], 99.0), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t = Timing {
            due: 1.0,
            sent: 1.004,
            done: Some(1.005),
        };
        assert!((t.latency().unwrap() - 0.005).abs() < 1e-12);
        assert!((t.lateness() - 0.004).abs() < 1e-12);
        // Sent early (clock granularity) is not negative lateness.
        let early = Timing {
            due: 2.0,
            sent: 1.999,
            done: None,
        };
        assert_eq!(early.lateness(), 0.0);
        assert_eq!(early.latency(), None);
        assert_eq!(latencies_ms(&[t, early]).len(), 1);
        assert_eq!(lateness_ms(&[t, early]).len(), 2);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // Three requests due 10ms apart; the generator stalls and sends all
        // three at t=30ms, each answered 1ms after sending.
        let timings: Vec<Timing> = (0..3)
            .map(|i| {
                let due = 0.01 * f64::from(i);
                Timing {
                    due,
                    sent: 0.03,
                    done: Some(0.031),
                }
            })
            .collect();
        let lat = latencies_ms(&timings);
        assert!((lat[0] - 31.0).abs() < 1e-9);
        assert!((lat[2] - 11.0).abs() < 1e-9);
        let late = lateness_ms(&timings);
        assert!((late[0] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn backlog_counts_outstanding_requests_at_each_send() {
        let t = |sent: f64, done: Option<f64>| Timing {
            due: sent,
            sent,
            done,
        };
        let timings = [
            t(0.0, Some(0.5)),
            t(1.0, Some(1.5)),
            t(2.0, None),
            t(3.0, Some(3.1)),
        ];
        assert_eq!(backlog_at_sends(&timings), vec![1, 1, 1, 2]);
        assert!(!backlog_grows(&[1, 2, 1, 2, 2, 1, 2, 1], 0));
        assert!(backlog_grows(&[1, 1, 2, 3, 5, 8, 13, 21], 0));
        assert!(!backlog_grows(&[1, 1, 2, 3, 5, 8, 13, 21], 20));
        assert!(!backlog_grows(&[9, 9], 0), "too short to judge");
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.show(), "0.7500 (3 / 4)");
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_nominal_rate() {
        let a = poisson_schedule(5000, 500.0, 7);
        assert_eq!(a, poisson_schedule(5000, 500.0, 7));
        assert_ne!(a, poisson_schedule(5000, 500.0, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 500.0).abs() < 5.0, "{rate}");
        // Exponential gaps: about a third of them exceed the mean gap.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let long = gaps.iter().filter(|&&g| g > 1.0 / 500.0).count() as f64;
        assert!((long / gaps.len() as f64 - (-1.0f64).exp()).abs() < 0.03);
    }
}
