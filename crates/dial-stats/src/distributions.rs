//! Probability-distribution helpers: normal CDF, log-gamma and Poisson pmf.

use std::f64::consts::PI;
use std::sync::LazyLock;

/// Error function, via the Abramowitz & Stegun 7.1.26 rational approximation
/// (|error| < 1.5e-7, ample for p-value reporting).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal probability density function.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * PI).sqrt()
}

/// Two-sided p-value for a z statistic.
pub fn two_sided_p(z: f64) -> f64 {
    2.0 * (1.0 - normal_cdf(z.abs()))
}

/// Significance stars as reported in the paper's tables.
pub fn significance_stars(p: f64) -> &'static str {
    if p < 0.001 {
        "***"
    } else if p < 0.01 {
        "**"
    } else if p < 0.05 {
        "*"
    } else {
        ""
    }
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
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
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln(k!)` is read from a table for `k` below this bound.
const LN_FACTORIAL_TABLE_LEN: usize = 1024;

/// `ln_gamma(k + 1)` for every `k < LN_FACTORIAL_TABLE_LEN`, filled on first
/// use by the very call [`ln_factorial`] makes past the table, so a lookup
/// returns the bits the direct evaluation would.
static LN_FACTORIALS: LazyLock<Vec<f64>> = LazyLock::new(|| {
    (0..LN_FACTORIAL_TABLE_LEN as u64).map(|k| ln_gamma(k as f64 + 1.0)).collect()
});

/// `ln(k!)` via `ln_gamma`, tabulated for small `k` (every ZIP likelihood
/// pass evaluates it for each positive count).
pub fn ln_factorial(k: u64) -> f64 {
    match usize::try_from(k).ok().and_then(|i| LN_FACTORIALS.get(i)) {
        Some(v) => *v,
        None => ln_gamma(k as f64 + 1.0),
    }
}

/// Log of the Poisson pmf `P(X = k | λ)`. Defined for `λ > 0`; for `λ = 0`
/// it degenerates to the point mass at zero.
pub fn poisson_ln_pmf(k: u64, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    k as f64 * lambda.ln() - lambda - ln_factorial(k)
}

/// Numerically stable `log(sum(exp(xs)))`.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry_and_tails() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-4);
    }

    #[test]
    fn p_values_and_stars() {
        assert_eq!(significance_stars(two_sided_p(3.5)), "***");
        assert_eq!(significance_stars(two_sided_p(2.8)), "**");
        assert_eq!(significance_stars(two_sided_p(2.1)), "*");
        assert_eq!(significance_stars(two_sided_p(1.0)), "");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for k in 1..15u64 {
            let fact: f64 = (1..=k).map(|i| i as f64).product();
            assert!(
                (ln_gamma(k as f64 + 1.0) - fact.ln()).abs() < 1e-9,
                "ln_gamma({k}+1) vs ln({k}!)"
            );
        }
        // Γ(0.5) = √π.
        assert!((ln_gamma(0.5) - PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_table_matches_ln_gamma_bitwise() {
        // Every table entry, then the first two values evaluated directly.
        for k in 0..LN_FACTORIAL_TABLE_LEN as u64 + 2 {
            assert_eq!(
                ln_factorial(k).to_bits(),
                ln_gamma(k as f64 + 1.0).to_bits(),
                "ln_factorial({k})"
            );
        }
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        let lambda = 4.2;
        let total: f64 = (0..200).map(|k| poisson_ln_pmf(k, lambda).exp()).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn poisson_degenerate_at_zero_lambda() {
        assert_eq!(poisson_ln_pmf(0, 0.0), 0.0);
        assert_eq!(poisson_ln_pmf(3, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_stable() {
        assert!((log_sum_exp(&[-1000.0, -1000.0]) - (-1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
