//! Statistics for paired repeated-run experiments (`ccs_bench::sweep`).
//!
//! Hardware counter readings are noisy: the OS schedules other work,
//! the PMU multiplexes, frequencies drift. A single run per cell (as in
//! `e20_cache_counters`) is a point estimate; comparing two point
//! estimates says nothing about whether an observed llc-vs-rr delta is
//! signal or noise. The tools here turn R interleaved repeats per cell
//! into a statistical claim:
//!
//! * [`Summary`] — per-cell sample mean and (sample) standard
//!   deviation;
//! * [`bootstrap_mean_ci`] — a percentile-bootstrap confidence interval
//!   for the mean, driven by the *deterministic* vendored `SmallRng`
//!   (splitmix64), so a report is bit-reproducible for a given seed;
//! * [`bootstrap_mean_pvalue`] — a two-sided bootstrap test of
//!   `mean == 0` over the same deterministic resampling;
//! * [`benjamini_hochberg`] — step-up false-discovery-rate adjustment
//!   across a *family* of comparisons, so a sweep that declares many
//!   pairwise deltas does not manufacture significance by volume.
//!
//! All pure `f64` math, unit-tested without hardware.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sample mean; `None` for an empty sample.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample standard deviation (Bessel-corrected, `n - 1` denominator);
/// `None` below two observations.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// Mean and spread of one cell's repeated measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation; `None` below two observations.
    pub stddev: Option<f64>,
}

impl Summary {
    /// Summarize a sample; `None` when it is empty.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: xs.len(),
            mean: mean(xs)?,
            stddev: stddev(xs),
        })
    }
}

/// Percentile-bootstrap confidence interval for the mean of `xs`:
/// resample `xs` with replacement `iters` times, take the empirical
/// `(1-confidence)/2` and `1-(1-confidence)/2` quantiles of the
/// resampled means. Deterministic for a given `seed` (vendored
/// splitmix64 `SmallRng`). `None` for an empty sample, degenerate
/// `iters = 0`, or a `confidence` outside `(0, 1)`.
///
/// With very small R (CI smoke runs use R = 2) the interval is honest
/// but wide — it brackets the handful of achievable resample means —
/// which is exactly the warning a reader should get from two repeats.
pub fn bootstrap_mean_ci(
    xs: &[f64],
    iters: usize,
    confidence: f64,
    seed: u64,
) -> Option<(f64, f64)> {
    if xs.is_empty() || iters == 0 || !(confidence > 0.0 && confidence < 1.0) {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(iters);
    for _ in 0..iters {
        let s: f64 = (0..xs.len()).map(|_| xs[rng.gen_range(0..xs.len())]).sum();
        means.push(s / xs.len() as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
    let alpha = (1.0 - confidence) / 2.0;
    let pick = |q: f64| {
        let i = ((iters as f64 - 1.0) * q).round() as usize;
        means[i.min(iters - 1)]
    };
    Some((pick(alpha), pick(1.0 - alpha)))
}

/// Two-sided percentile-bootstrap p-value for the null hypothesis that
/// the mean of `xs` is zero: resample with replacement `iters` times
/// and take twice the smaller tail fraction of resampled means landing
/// at or beyond zero, with add-one smoothing so the p-value never
/// reaches an impossible exact 0 (the floor is `2/(iters+1)`). It is
/// floored, too, at `2^(1−n)` for `n` pairs, the least p an exact
/// sign-flip test reaches: `n` one-signed deltas are one of the `2^n`
/// equally likely sign patterns under the null, two of them as extreme
/// (n = 1 → 1, n = 3 → 0.25, n = 10 → 1/512). A bootstrap of a few
/// one-signed pairs would otherwise read as certain as one of many.
/// Deterministic for a given `seed` — the same splitmix64 stream as
/// [`bootstrap_mean_ci`]. `None` for an empty sample or `iters = 0`.
///
/// This is the per-comparison input to [`benjamini_hochberg`]: a sweep
/// computes one such p-value per declared paired delta, then adjusts
/// the whole family.
pub fn bootstrap_mean_pvalue(xs: &[f64], iters: usize, seed: u64) -> Option<f64> {
    if xs.is_empty() || iters == 0 {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut le, mut ge) = (0usize, 0usize);
    for _ in 0..iters {
        let s: f64 = (0..xs.len()).map(|_| xs[rng.gen_range(0..xs.len())]).sum();
        let m = s / xs.len() as f64;
        if m <= 0.0 {
            le += 1;
        }
        if m >= 0.0 {
            ge += 1;
        }
    }
    let p_lo = (le + 1) as f64 / (iters + 1) as f64;
    let p_hi = (ge + 1) as f64 / (iters + 1) as f64;
    let sign_flip = 0.5f64.powi(xs.len() as i32 - 1);
    Some((2.0 * p_lo.min(p_hi)).max(sign_flip).min(1.0))
}

/// Benjamini–Hochberg step-up adjustment: given the raw p-values of a
/// family of comparisons, returns the adjusted p-values (q-values) in
/// the same order. Rejecting every comparison with `adjusted <= alpha`
/// controls the false-discovery rate at `alpha`. The adjustment is
/// `p[i] · n / rank(i)` made monotone from the largest rank down and
/// clamped to 1. Empty input yields an empty vector; p-values must be
/// finite.
pub fn benjamini_hochberg(ps: &[f64]) -> Vec<f64> {
    let n = ps.len();
    if n == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| ps[a].partial_cmp(&ps[b]).expect("finite p-values"));
    let mut adjusted = vec![0.0f64; n];
    let mut running = 1.0f64;
    for rank in (0..n).rev() {
        let i = order[rank];
        running = running.min(ps[i] * n as f64 / (rank + 1) as f64);
        adjusted[i] = running.min(1.0);
    }
    adjusted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basics() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(stddev(&[1.0]), None);
        // {2, 4, 4, 4, 5, 5, 7, 9}: sample variance 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let sd = stddev(&xs).unwrap();
        assert!((sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn bootstrap_is_deterministic_and_brackets_the_mean() {
        let xs = [4.0, 4.5, 5.0, 5.5, 6.0, 5.2, 4.8, 5.1];
        let a = bootstrap_mean_ci(&xs, 1000, 0.9, 42).unwrap();
        let b = bootstrap_mean_ci(&xs, 1000, 0.9, 42).unwrap();
        assert_eq!(a, b, "same seed, same interval");
        let c = bootstrap_mean_ci(&xs, 1000, 0.9, 43).unwrap();
        assert_ne!(a, c, "different seed, different resamples");
        let m = mean(&xs).unwrap();
        assert!(a.0 <= m && m <= a.1, "{a:?} should bracket {m}");
        assert!(a.0 >= 4.0 && a.1 <= 6.0, "within the sample range");
        // Wider confidence, wider (or equal) interval.
        let wide = bootstrap_mean_ci(&xs, 1000, 0.99, 42).unwrap();
        assert!(wide.0 <= a.0 && wide.1 >= a.1);
    }

    #[test]
    fn bootstrap_pvalue_is_deterministic_and_directionless() {
        // Ten pairs far from zero: every resampled mean is positive, so
        // the p-value sits at the smoothing floor, 2/(iters+1), above
        // the sign-flip floor 2^-9.
        let far = [5.0, 5.5, 6.0, 5.2, 5.8, 5.1, 5.4, 5.9, 5.3, 5.6];
        let p = bootstrap_mean_pvalue(&far, 999, 42).unwrap();
        assert!((p - 2.0 / 1000.0).abs() < 1e-12, "{p}");
        // Same for the mirrored sample (two-sided symmetry).
        let neg: Vec<f64> = far.iter().map(|x| -x).collect();
        assert_eq!(bootstrap_mean_pvalue(&neg, 999, 42), Some(p));
        // A sample straddling zero is not significant.
        let noisy = [1.0, -1.2, 0.8, -0.9, 0.3, -0.1];
        let p = bootstrap_mean_pvalue(&noisy, 999, 42).unwrap();
        assert!(p > 0.1, "{p}");
        // Deterministic in the seed.
        assert_eq!(
            bootstrap_mean_pvalue(&noisy, 999, 7),
            bootstrap_mean_pvalue(&noisy, 999, 7)
        );
        // Degenerate inputs.
        assert_eq!(bootstrap_mean_pvalue(&[], 100, 1), None);
        assert_eq!(bootstrap_mean_pvalue(&[1.0], 0, 1), None);
    }

    #[test]
    fn a_few_one_signed_pairs_reach_no_lower_than_an_exact_sign_flip_test() {
        // n one-signed pairs: the bootstrap alone reads 2/(iters+1)
        // whatever n is; the p-value is floored at 2^(1-n).
        for (n, want) in [(1usize, 1.0), (3, 0.25), (10, 2.0 / 1000.0)] {
            let xs: Vec<f64> = (0..n).map(|i| 5.0 + i as f64 / 10.0).collect();
            assert_eq!(bootstrap_mean_pvalue(&xs, 999, 42), Some(want), "n = {n}");
            let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
            assert_eq!(bootstrap_mean_pvalue(&neg, 999, 42), Some(want), "n = {n}");
        }
        // Five pairs, the least that can pass FDR 0.1 alone: 1/16.
        assert_eq!(
            bootstrap_mean_pvalue(&[1.0, 2.0, 3.0, 4.0, 5.0], 999, 42),
            Some(0.0625)
        );
    }

    #[test]
    fn benjamini_hochberg_matches_hand_computed_fixtures() {
        // n = 4, ps sorted: .005, .01, .03, .04 with raw step-up values
        // .02, .02, .04, .04 — already monotone, so the adjusted
        // p-values (in input order) are:
        let adj = benjamini_hochberg(&[0.01, 0.04, 0.03, 0.005]);
        let want = [0.02, 0.04, 0.04, 0.02];
        for (a, w) in adj.iter().zip(want) {
            assert!((a - w).abs() < 1e-12, "{adj:?}");
        }
        // Monotone enforcement: raw values .06, .045, .04 collapse to
        // the running minimum .04 everywhere.
        let adj = benjamini_hochberg(&[0.02, 0.03, 0.04]);
        for a in &adj {
            assert!((a - 0.04).abs() < 1e-12, "{adj:?}");
        }
        // A single comparison is untouched.
        assert_eq!(benjamini_hochberg(&[0.2]), vec![0.2]);
        // Clamped to 1.
        let adj = benjamini_hochberg(&[0.9, 0.95]);
        assert!(adj.iter().all(|a| *a <= 1.0), "{adj:?}");
        assert!(benjamini_hochberg(&[]).is_empty());
    }

    #[test]
    fn benjamini_hochberg_rejection_set_is_step_up() {
        // Classic example: alpha = 0.05 over 5 p-values. The largest i
        // with p(i) <= alpha*i/n is i = 2 (0.02 <= 0.02), so exactly
        // the two smallest survive adjustment at 0.05.
        let ps = [0.01, 0.02, 0.04, 0.3, 0.8];
        let adj = benjamini_hochberg(&ps);
        let rejected: Vec<bool> = adj.iter().map(|a| *a <= 0.05).collect();
        assert_eq!(rejected, vec![true, true, false, false, false], "{adj:?}");
        // Adjustment preserves the ordering of the raw p-values.
        for w in ps.windows(2).zip(adj.windows(2)) {
            let ((p1, p2), (a1, a2)) = ((w.0[0], w.0[1]), (w.1[0], w.1[1]));
            assert!((p1 <= p2) == (a1 <= a2));
        }
    }

    #[test]
    fn benjamini_hochberg_commutes_with_reordering_the_family() {
        // The order comparisons are declared in is not evidence: a
        // permuted family gets the same adjusted p-values, permuted.
        let ps = [0.03, 0.001, 0.2, 0.04, 0.012, 0.6];
        let adj = benjamini_hochberg(&ps);
        let perm = [4, 0, 5, 2, 1, 3];
        let permuted: Vec<f64> = perm.iter().map(|&i| ps[i]).collect();
        let adj_permuted = benjamini_hochberg(&permuted);
        for (k, &i) in perm.iter().enumerate() {
            assert_eq!(adj_permuted[k], adj[i], "{adj:?} vs {adj_permuted:?}");
        }
        // Correction never makes a comparison look stronger.
        for (a, p) in adj.iter().zip(ps) {
            assert!(*a >= p, "{a} < {p}");
        }
    }

    #[test]
    fn bootstrap_ci_moves_with_a_shifted_sample() {
        // Same seed, same resample indices: shifting every observation
        // by c shifts the interval by c.
        let xs = [4.0, 4.5, 5.0, 5.5, 6.0, 5.2, 4.8, 5.1];
        let (lo, hi) = bootstrap_mean_ci(&xs, 1000, 0.9, 42).unwrap();
        let shifted: Vec<f64> = xs.iter().map(|x| x - 3.25).collect();
        let (slo, shi) = bootstrap_mean_ci(&shifted, 1000, 0.9, 42).unwrap();
        assert!((slo - (lo - 3.25)).abs() < 1e-9, "{slo} vs {lo}");
        assert!((shi - (hi - 3.25)).abs() < 1e-9, "{shi} vs {hi}");
    }

    #[test]
    fn bootstrap_pvalue_ignores_the_unit_of_measurement() {
        // Milliseconds or quarter-milliseconds: a power-of-two scale is
        // exact in floating point, so every resampled mean keeps its
        // sign and the p-value is bit-identical.
        for xs in [
            vec![1.0, -1.2, 0.8, -0.9, 0.3, -0.1],
            vec![0.4, 0.1, -0.05, 0.3, 0.2],
            vec![5.0, 5.5, 6.0, 5.2, 5.8],
        ] {
            let p = bootstrap_mean_pvalue(&xs, 999, 11).unwrap();
            let scaled: Vec<f64> = xs.iter().map(|x| x * 4.0).collect();
            assert_eq!(bootstrap_mean_pvalue(&scaled, 999, 11), Some(p), "{xs:?}");
        }
    }

    #[test]
    fn an_all_zero_sample_is_never_significant() {
        // Two identical cells pair to zero deltas: every resampled mean
        // sits on zero, in both tails, so p = 1 and the interval is the
        // point zero.
        let zeros = [0.0; 5];
        assert_eq!(bootstrap_mean_pvalue(&zeros, 500, 3), Some(1.0));
        assert_eq!(bootstrap_mean_ci(&zeros, 500, 0.9, 3), Some((0.0, 0.0)));
        assert_eq!(benjamini_hochberg(&[1.0, 1.0]), vec![1.0, 1.0]);
    }

    #[test]
    fn bootstrap_degenerate_inputs() {
        assert_eq!(bootstrap_mean_ci(&[], 100, 0.9, 1), None);
        assert_eq!(bootstrap_mean_ci(&[1.0], 0, 0.9, 1), None);
        assert_eq!(bootstrap_mean_ci(&[1.0], 100, 1.0, 1), None);
        assert_eq!(bootstrap_mean_ci(&[1.0], 100, 0.0, 1), None);
        // A constant sample has a zero-width interval.
        let ci = bootstrap_mean_ci(&[3.0, 3.0, 3.0], 200, 0.9, 7).unwrap();
        assert_eq!(ci, (3.0, 3.0));
        // A single observation resamples to itself.
        let ci = bootstrap_mean_ci(&[2.5], 100, 0.9, 7).unwrap();
        assert_eq!(ci, (2.5, 2.5));
    }
}
