//! Summary statistics and client-side request timestamps.

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean of `xs`; NaN for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail levels in units of 0.01 %, lowest first.
const TAIL_LEVELS: [u64; 9] = [5000, 7500, 9000, 9500, 9800, 9900, 9950, 9990, 9999];

/// The tail of a latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile level, in percent (100 when no level qualifies).
    pub level: f64,
    /// The latency at that level.
    pub value: f64,
    /// Samples strictly after the level's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile of `xs` with at least [`MIN_BEYOND`] samples
/// beyond it, by the nearest-rank rule (rank `ceil(level · n)`). With
/// too few samples for any level the maximum is reported at level 100
/// with nothing beyond it. `None` for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let qualifying = TAIL_LEVELS.iter().rev().find_map(|&level| {
        let rank = (level * n as u64).div_ceil(10_000).max(1) as usize;
        (n - rank >= MIN_BEYOND).then_some((level, rank))
    });
    Some(match qualifying {
        Some((level, rank)) => Tail {
            level: level as f64 / 100.0,
            value: v[rank - 1],
            beyond: n - rank,
            samples: n,
        },
        None => Tail {
            level: 100.0,
            value: v[n - 1],
            beyond: 0,
            samples: n,
        },
    })
}

/// Samples per window of [`run_tail`].
pub const TAIL_WINDOW: usize = 200;

/// The tail of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunTail {
    /// Median over the windows of each window's [`tail`] value.
    pub value: f64,
    /// Lowest tail level among the windows, in percent.
    pub level: f64,
    /// Fewest samples beyond the level in any window.
    pub beyond: usize,
    /// Windows the run was cut into.
    pub windows: usize,
    /// Sample count of the whole run.
    pub samples: usize,
}

/// The tail of a run's latencies, given in the order the requests were
/// due. The run is cut into `max(1, n / TAIL_WINDOW)` consecutive
/// windows of near-equal size, and the median of the windows' [`tail`]
/// values is reported: a stall of a shared host then lands in one
/// window's figure, not in the run's. Fewer than `2 · TAIL_WINDOW`
/// samples make one window, whose tail is the plain [`tail`]. `None`
/// for an empty slice.
pub fn run_tail(xs: &[f64]) -> Option<RunTail> {
    let n = xs.len();
    let windows = (n / TAIL_WINDOW).max(1);
    let tails: Vec<Tail> = (0..windows)
        .map(|k| tail(&xs[k * n / windows..(k + 1) * n / windows]))
        .collect::<Option<_>>()?;
    Some(RunTail {
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        level: tails.iter().map(|t| t.level).fold(f64::INFINITY, f64::min),
        beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
        windows,
        samples: n,
    })
}

/// Client-side timestamps of one request, in ns since the run's base
/// instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stamps {
    /// When the request was due: its slot on the open-loop schedule, or
    /// the moment the previous reply arrived in a closed loop.
    pub due: f64,
    /// Just before the request line was written.
    pub sent: f64,
    /// When the `accepted` line was read.
    pub accepted: Option<f64>,
    /// When the terminal line was read.
    pub done: Option<f64>,
}

impl Stamps {
    /// Observed latency, timed from the due time rather than the actual
    /// send, so a stalled generator's backlog counts against the system.
    pub fn latency_ns(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// Submit written → `accepted` read.
    pub fn admit_ns(&self) -> Option<f64> {
        self.accepted.map(|a| a - self.sent)
    }
}

/// Due time of request `i` of an open loop at `rate` requests/s.
pub fn open_loop_due_ns(i: usize, rate: f64) -> f64 {
    i as f64 * 1e9 / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(
            (t.level, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // One fewer sample leaves only 9 beyond p99, so p98 is the tail.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.level, t.beyond), (98.0, 19));
        // 20 samples: the median is the highest level with 10 beyond.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.level, t.value, t.beyond), (50.0, 10.0, 10));
        // Order of the input does not matter.
        let mut shuffled = ramp(20);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&ramp(20)));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_when_samples_are_few() {
        let t = tail(&ramp(19)).unwrap();
        assert_eq!(
            (t.level, t.value, t.beyond, t.samples),
            (100.0, 19.0, 0, 19)
        );
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn run_tail_is_the_median_of_window_tails() {
        // Fewer than two windows' worth: the plain tail.
        let t = run_tail(&ramp(399)).unwrap();
        let plain = tail(&ramp(399)).unwrap();
        assert_eq!(
            (t.value, t.level, t.beyond, t.windows, t.samples),
            (plain.value, plain.level, plain.beyond, 1, 399)
        );
        // 800 samples: four windows of 200, each at p95 with 10 beyond.
        let mut xs = vec![1.0; 800];
        for (k, w) in xs.chunks_mut(TAIL_WINDOW).enumerate() {
            w[..20].fill(10.0 * (k + 1) as f64);
        }
        let t = run_tail(&xs).unwrap();
        assert_eq!(
            (t.level, t.beyond, t.windows, t.samples),
            (95.0, 10, 4, 800)
        );
        assert_eq!(t.value, 25.0, "median of 10, 20, 30 and 40");
        // A stall that slows one window does not move the run's tail.
        xs[..TAIL_WINDOW].fill(1e3);
        assert_eq!(run_tail(&xs).unwrap().value, 35.0);
        assert_eq!(run_tail(&[]), None);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // Due at 10 ms, sent 15 ms late, answered 5 ms after the send.
        let s = Stamps {
            due: open_loop_due_ns(1, 100.0),
            sent: 25e6,
            accepted: Some(25.5e6),
            done: Some(30e6),
        };
        assert_eq!(s.due, 10e6);
        assert_eq!(s.latency_ns(), Some(20e6), "not the 5 ms since the send");
        assert_eq!(s.late_ns(), 15e6);
        assert_eq!(s.admit_ns(), Some(0.5e6));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(median(&[]).is_nan());
    }
}
