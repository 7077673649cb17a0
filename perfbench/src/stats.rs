//! Order statistics for latency samples and chunked rates.

/// Percentile ladder the tail helper climbs, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile must leave above it before it is reported as a
/// tail: fewer and it is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// A latency distribution, sorted once.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

/// The highest supported percentile of a distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples it was taken from.
    pub n: usize,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (`pct` in 0..=100); `NaN` when empty.
    pub fn pct(&self, pct: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let rank = (pct / 100.0 * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// Whether at least [`MIN_BEYOND`] samples lie above `pct`.
    pub fn supports(&self, pct: f64) -> bool {
        let beyond = self.sorted.len() as f64 * (1.0 - pct / 100.0);
        beyond + 1e-9 >= MIN_BEYOND as f64
    }

    /// The highest ladder percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, with the sample count; `None` below 20 samples.
    pub fn tail(&self) -> Option<Tail> {
        LADDER
            .iter()
            .rev()
            .find(|&&p| self.supports(p))
            .map(|&pct| Tail {
                pct,
                value: self.pct(pct),
                n: self.len(),
            })
    }
}

/// Median of a slice (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).median()
}

/// Samples kept apart by round, and within a round in windows: stretches
/// long enough for the figures taken in them. A figure is the median over
/// a round's windows, and then the median over rounds. A burst of host
/// contention moves the windows it covers, not the figure; and since
/// each round runs on its own tree, the figure does not depend on how
/// many windows each tree happened to fill.
#[derive(Clone, Debug, Default)]
pub struct Windows(Vec<Vec<Vec<f64>>>);

impl Windows {
    /// Starts a round; later samples go to a fresh window of it.
    pub fn start_round(&mut self) {
        self.0.push(vec![Vec::new()]);
    }

    /// Closes the current window; later samples open a new one.
    pub fn close(&mut self) {
        match self.0.last_mut() {
            Some(round) if round.last().is_some_and(|w| !w.is_empty()) => round.push(Vec::new()),
            Some(_) => {}
            None => self.start_round(),
        }
    }

    pub fn push(&mut self, v: f64) {
        if self.0.is_empty() {
            self.start_round();
        }
        let round = self.0.last_mut().expect("a round is open");
        round.last_mut().expect("a window is open").push(v);
    }

    /// Pushes `v`, closing the window once it holds `size` samples.
    pub fn push_sized(&mut self, v: f64, size: usize) {
        self.push(v);
        if self.current_len() >= size {
            self.close();
        }
    }

    /// Samples in the open window.
    pub fn current_len(&self) -> usize {
        self.0.last().and_then(|r| r.last()).map_or(0, Vec::len)
    }

    /// All samples.
    pub fn pooled(&self) -> Dist {
        Dist::new(self.0.concat().concat())
    }

    pub fn len(&self) -> usize {
        self.0.iter().flatten().map(Vec::len).sum()
    }

    /// Median over rounds of the median over the round's windows of
    /// `figure`, skipping windows it declines and rounds left empty.
    pub fn median_of(&self, figure: impl Fn(&Dist) -> Option<f64>) -> f64 {
        let per_round: Vec<f64> = self
            .0
            .iter()
            .filter_map(|round| {
                let per_window: Vec<f64> = round
                    .iter()
                    .filter_map(|w| figure(&Dist::new(w.clone())))
                    .collect();
                (!per_window.is_empty()).then(|| median(&per_window))
            })
            .collect();
        median(&per_round)
    }

    /// The `pct` percentile over the windows that support it.
    pub fn pct(&self, pct: f64) -> f64 {
        self.median_of(|d| d.supports(pct).then(|| d.pct(pct)))
    }

    /// Number of rounds with at least one window that supports `pct`.
    pub fn rounds_supporting(&self, pct: f64) -> usize {
        self.0
            .iter()
            .filter(|round| round.iter().any(|w| Dist::new(w.clone()).supports(pct)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: 10 lie beyond p95, only 2 beyond p99.
        let t = ramp(200).tail().unwrap();
        assert_eq!((t.pct, t.value, t.n), (95.0, 190.0, 200));
        // 1000 samples: exactly 10 beyond p99.
        let t = ramp(1000).tail().unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 199 samples: p95 leaves 9.95 beyond, so only p90 qualifies.
        let t = ramp(199).tail().unwrap();
        assert_eq!((t.pct, t.n), (90.0, 199));
        // 10 000 samples reach p99.9.
        assert_eq!(ramp(10_000).tail().unwrap().pct, 99.9);
        // Too few samples for any tail above the median.
        assert_eq!(ramp(19).tail(), None);
    }

    #[test]
    fn slow_windows_and_busy_trees_do_not_move_the_figure() {
        let mut w = Windows::default();
        // Round 0: a fast tree that fills four windows, one of them slow.
        // Rounds 1 and 2: slower trees that fill one window each.
        let rounds: [&[f64]; 3] = [&[1.0, 1.0, 10.0, 1.0], &[2.0], &[3.0]];
        for windows in rounds {
            w.start_round();
            for &scale in windows {
                for i in 1..=200 {
                    w.push_sized(i as f64 * scale, 200);
                }
            }
        }
        assert_eq!((w.len(), w.rounds_supporting(95.0)), (1200, 3));
        assert_eq!(w.rounds_supporting(99.0), 0);
        // Per round: 190, 380, 570; the median is the middle tree's.
        assert_eq!(w.pct(95.0), 380.0);
        assert_eq!(w.pct(50.0), 200.0);
        assert!(w.pooled().pct(95.0) > 570.0);
        // A short last window is left out of the figures.
        w.push(5.0);
        assert_eq!(w.pct(50.0), 200.0);
        assert!(Windows::default().pct(50.0).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(d.median(), 3.0);
        assert_eq!(d.pct(100.0), 5.0);
        assert_eq!(d.pct(0.0), 1.0);
        assert!(Dist::default().median().is_nan());
        assert!(!d.supports(95.0));
    }
}
