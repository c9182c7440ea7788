//! EWMA drift tracking with change-point flags.
//!
//! A smoothed level per metric and the
//! window indices where the raw series jumped out of its recent band.
//! Deliberately simple — an exponentially weighted mean plus an
//! exponentially weighted mean absolute deviation, with a point
//! flagged when it lands more than `BAND` deviations from the level.
//! No allocation beyond the output, no second pass, suitable for
//! online use.

/// Smoothing factor: weight of the newest observation.
const ALPHA: f64 = 0.3;

/// Flag threshold, in units of the tracked mean absolute deviation.
const BAND: f64 = 3.0;

/// Observations to absorb before flagging anything (the EWMA needs a
/// few points to mean something).
const WARMUP_POINTS: usize = 3;

/// The result of tracking one metric series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriftTrack {
    /// Final EWMA level (`None` for an empty series).
    pub ewma: Option<f64>,
    /// Indices (into the series) flagged as change points.
    pub change_points: Vec<usize>,
}

/// The one-point-at-a-time form of [`ewma_change_points`]: feed it a
/// series incrementally with [`push`](OnlineEwma::push) and it flags
/// exactly the indices the offline pass would (same alpha, band, and
/// warmup), with no buffering of the series: O(1) state per tracked
/// metric.
#[derive(Clone, Debug, Default)]
pub struct OnlineEwma {
    /// Noise floor for the deviation band (the metric's `eps`).
    eps: f64,
    /// Points absorbed so far.
    n: usize,
    mean: f64,
    dev: f64,
}

impl OnlineEwma {
    /// A fresh tracker with the metric's noise scale `eps`.
    pub fn new(eps: f64) -> OnlineEwma {
        OnlineEwma {
            eps,
            ..OnlineEwma::default()
        }
    }

    /// Absorb one observation; `true` when it is a change point (lands
    /// more than `BAND` tracked mean-absolute-deviations from the
    /// level, after the warmup points).
    pub fn push(&mut self, x: f64) -> bool {
        let i = self.n;
        self.n += 1;
        if i == 0 {
            self.mean = x;
            return false;
        }
        let err = (x - self.mean).abs();
        let flagged = i >= WARMUP_POINTS && err > BAND * self.dev.max(self.eps);
        self.mean += ALPHA * (x - self.mean);
        self.dev += ALPHA * (err - self.dev);
        flagged
    }

    /// Current EWMA level (`None` before any observation).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Observations absorbed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no observation has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Track `xs` with an EWMA (alpha 0.3) and flag change points: index
/// `i` is flagged when `xs[i]` deviates from the running level by more
/// than 3 tracked mean-absolute-deviations (floored at `eps`, the
/// metric's noise scale). The first few points are never flagged.
/// The offline batch form of [`OnlineEwma`] — the two flag identical
/// indices on identical series.
pub fn ewma_change_points(xs: &[f64], eps: f64) -> DriftTrack {
    let mut track = DriftTrack::default();
    let mut online = OnlineEwma::new(eps);
    for (i, &x) in xs.iter().enumerate() {
        if online.push(x) {
            track.change_points.push(i);
        }
        track.ewma = online.mean();
    }
    track
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_series() {
        assert_eq!(ewma_change_points(&[], 0.1), DriftTrack::default());
        let t = ewma_change_points(&[2.0], 0.1);
        assert_eq!(t.ewma, Some(2.0));
        assert!(t.change_points.is_empty());
    }

    #[test]
    fn steady_series_flags_nothing() {
        let xs: Vec<f64> = (0..50).map(|i| 1.0 + 0.01 * ((i % 3) as f64)).collect();
        let t = ewma_change_points(&xs, 0.1);
        assert!(t.change_points.is_empty(), "{:?}", t.change_points);
        assert!((t.ewma.unwrap() - 1.0).abs() < 0.1);
    }

    #[test]
    fn step_change_is_flagged_once_then_absorbed() {
        // 20 windows at 1.0, then a jump to 5.0 that persists.
        let xs: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect();
        let t = ewma_change_points(&xs, 0.1);
        assert!(t.change_points.contains(&20), "{:?}", t.change_points);
        // Once the level adapts, the new plateau stops flagging.
        assert!(!t.change_points.contains(&39), "{:?}", t.change_points);
        assert!((t.ewma.unwrap() - 5.0).abs() < 0.1);
    }

    #[test]
    fn on_a_flat_series_the_band_is_eps_wide() {
        // A flat level has no deviation, so `eps` alone sets the band:
        // BAND * eps = 0.3 here.
        let flat_then = |x: f64| -> Vec<f64> {
            let mut xs = vec![1.0; 10];
            xs.push(x);
            xs
        };
        let t = ewma_change_points(&flat_then(1.25), 0.1);
        assert!(t.change_points.is_empty(), "{:?}", t.change_points);
        assert_eq!(
            ewma_change_points(&flat_then(1.35), 0.1).change_points,
            vec![10]
        );
        // The same jump inside a wider floor is noise.
        assert!(ewma_change_points(&flat_then(1.35), 0.2)
            .change_points
            .is_empty());
    }

    #[test]
    fn drops_are_flagged_like_rises() {
        // The mirror of the step test: 20 windows at 5.0, then 1.0.
        let xs: Vec<f64> = (0..40).map(|i| if i < 20 { 5.0 } else { 1.0 }).collect();
        let t = ewma_change_points(&xs, 0.1);
        assert_eq!(t.change_points.first(), Some(&20), "{:?}", t.change_points);
        assert!(!t.change_points.contains(&39), "{:?}", t.change_points);
        assert!((t.ewma.unwrap() - 1.0).abs() < 0.1);
    }

    #[test]
    fn early_points_are_never_flagged() {
        let t = ewma_change_points(&[0.0, 100.0, 0.0], 0.1);
        assert!(t.change_points.is_empty(), "{:?}", t.change_points);
    }

    #[test]
    fn online_detector_matches_the_offline_pass_exactly() {
        // The incremental detector and the analyzer's batch pass must
        // flag identical change points on identical series.
        let serieses: Vec<Vec<f64>> = vec![
            vec![],
            vec![2.0],
            (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect(),
            (0..50).map(|i| 1.0 + 0.01 * ((i % 3) as f64)).collect(),
            vec![0.0, 100.0, 0.0],
            (0..60)
                .map(|i| {
                    // Two regimes plus deterministic jitter.
                    let base = if i < 30 { 2.0 } else { 9.0 };
                    base + 0.05 * (((i * 7919) % 13) as f64)
                })
                .collect(),
        ];
        for xs in serieses {
            for eps in [0.05, 0.1, 1.0] {
                let offline = ewma_change_points(&xs, eps);
                let mut online = OnlineEwma::new(eps);
                let mut flagged = Vec::new();
                for (i, &x) in xs.iter().enumerate() {
                    if online.push(x) {
                        flagged.push(i);
                    }
                }
                assert_eq!(flagged, offline.change_points, "eps {eps}, xs {xs:?}");
                assert_eq!(online.mean(), offline.ewma);
                assert_eq!(online.len(), xs.len());
                assert_eq!(online.is_empty(), xs.is_empty());
            }
        }
    }
}
