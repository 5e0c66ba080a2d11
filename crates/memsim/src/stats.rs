//! Small statistical toolbox used by the failure model and Monte-Carlo
//! engine.
//!
//! Everything here is implemented from first principles (no external
//! statistics crates): the standard normal CDF via an `erfc` rational
//! approximation, its inverse via the Acklam algorithm, log-gamma via a
//! Lanczos approximation (for binomial terms with large `M`), and Box–Muller
//! normal sampling.

use rand::Rng;

/// Natural logarithm of the gamma function, Lanczos approximation (g = 7).
///
/// Accurate to roughly 1e-13 relative error for positive arguments, which is
/// ample for binomial probabilities over memory-sized populations.
///
/// # Panics
///
/// Panics if `x <= 0`.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    // Lanczos coefficients for g = 7, n = 9.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
#[must_use]
pub fn ln_binomial_coefficient(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Binomial probability mass `Pr(N = k)` for `n` trials with success
/// probability `p` (Eq. (4) of the paper with `n = M`, `p = P_cell`).
///
/// Computed in log space so it stays finite for memory-sized `n`.
#[must_use]
pub fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    // ln(1 - p) computed via ln_1p for accuracy when p is tiny.
    let ln_p = ln_binomial_coefficient(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p();
    ln_p.exp()
}

/// Complementary error function, Numerical-Recipes rational Chebyshev
/// approximation (absolute error below 1.2e-7, adequate for yield curves).
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse of the standard normal CDF (Acklam's algorithm, relative error
/// below 1.15e-9).
///
/// # Panics
///
/// Panics if `p` is not strictly between 0 and 1.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires 0 < p < 1, got {p}"
    );
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Draws a standard normal sample using the Box–Muller transform.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would produce ln(0).
    let u1: f64 = loop {
        let candidate: f64 = rng.gen();
        if candidate > f64::MIN_POSITIVE {
            break candidate;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a binomially distributed failure count `N ~ Bin(n, p)`.
///
/// Uses direct Bernoulli summation for small `n·p` and a normal approximation
/// with continuity correction for large populations, which is the regime of
/// memory-sized arrays.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if n <= 1024 {
        let mut count = 0;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                count += 1;
            }
        }
        return count;
    }
    if mean < 32.0 {
        // Poisson-like regime: inversion by sequential search over the pmf.
        let mut k = 0u64;
        let mut cumulative = binomial_pmf(n, 0, p);
        let target: f64 = rng.gen();
        while cumulative < target && k < n {
            k += 1;
            cumulative += binomial_pmf(n, k, p);
        }
        return k;
    }
    let std_dev = (mean * (1.0 - p)).sqrt();
    let sample = mean + std_dev * sample_standard_normal(rng);
    sample.round().clamp(0.0, n as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The mean and population variance of a sample.
    fn moments(values: &[f64]) -> (f64, f64) {
        let count = values.len() as f64;
        let mean = values.iter().sum::<f64>() / count;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count;
        (mean, variance)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // ln(Γ(n)) = ln((n-1)!)
        let cases = [
            (1.0, 0.0),
            (2.0, 0.0),
            (5.0, 24.0f64.ln()),
            (11.0, 3_628_800.0f64.ln()),
        ];
        for (x, expected) in cases {
            assert!((ln_gamma(x) - expected).abs() < 1e-9, "ln_gamma({x})");
        }
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn ln_gamma_rejects_non_positive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn binomial_coefficients_are_exact_for_small_inputs() {
        assert!((ln_binomial_coefficient(5, 2).exp() - 10.0).abs() < 1e-9);
        assert!((ln_binomial_coefficient(10, 5).exp() - 252.0).abs() < 1e-6);
        assert_eq!(ln_binomial_coefficient(3, 7), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let n = 50;
        let p = 0.07;
        let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binomial_pmf_handles_degenerate_probabilities() {
        assert_eq!(binomial_pmf(10, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(10, 3, 0.0), 0.0);
        assert_eq!(binomial_pmf(10, 10, 1.0), 1.0);
        assert!(binomial_pmf(10, 1, 1.5).is_nan());
    }

    #[test]
    fn binomial_pmf_is_finite_for_memory_sized_populations() {
        // 16KB memory = 131072 cells at Pcell = 1e-3: mean ≈ 131 failures.
        let p = binomial_pmf(131_072, 131, 1e-3);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.959_964) - 0.025).abs() < 1e-4);
        assert!(normal_cdf(-8.0) < 1e-14);
        assert!(normal_cdf(8.0) > 1.0 - 1e-14);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-4, "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "0 < p < 1")]
    fn normal_quantile_rejects_invalid_probability() {
        let _ = normal_quantile(0.0);
    }

    #[test]
    fn box_muller_samples_have_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_standard_normal(&mut rng))
            .collect();
        let (mean, variance) = moments(&samples);
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((variance - 1.0).abs() < 0.05, "var = {variance}");
    }

    #[test]
    fn binomial_sampler_matches_mean_small_n() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100;
        let p = 0.2;
        let draws: Vec<f64> = (0..5000)
            .map(|_| sample_binomial(&mut rng, n, p) as f64)
            .collect();
        let (mean, _) = moments(&draws);
        assert!((mean - 20.0).abs() < 0.6, "mean = {mean}");
    }

    #[test]
    fn binomial_sampler_matches_mean_memory_sized() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 131_072;
        let p = 1e-3;
        let draws: Vec<f64> = (0..2000)
            .map(|_| sample_binomial(&mut rng, n, p) as f64)
            .collect();
        let (mean, _) = moments(&draws);
        assert!((mean - 131.07).abs() < 2.5, "mean = {mean}");
    }

    #[test]
    fn binomial_sampler_degenerate_cases() {
        let mut rng = StdRng::seed_from_u64(17);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
    }
}
