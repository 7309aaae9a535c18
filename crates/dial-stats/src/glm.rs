//! Generalised linear models fitted by iteratively reweighted least squares:
//! Poisson regression (log link) and logistic regression (logit link), both
//! with optional prior observation weights — fractional weights are what the
//! zero-inflated EM algorithm feeds back into these fitters.

use crate::distributions::{ln_factorial, two_sided_p};
use crate::matrix::{Matrix, SingularMatrix};
use serde::{Deserialize, Serialize};

/// Maximum IRLS iterations before giving up.
const MAX_ITER: usize = 100;
/// Convergence threshold on the max absolute coefficient change.
const TOL: f64 = 1e-8;

/// A fitted GLM: coefficients with their inferential statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlmFit {
    /// Coefficient estimates (same order as the design-matrix columns).
    pub coef: Vec<f64>,
    /// Standard errors from the inverse Fisher information.
    pub std_err: Vec<f64>,
    /// Wald z-values (`coef / std_err`).
    pub z_values: Vec<f64>,
    /// Two-sided p-values.
    pub p_values: Vec<f64>,
    /// Maximised log-likelihood.
    pub log_lik: f64,
    /// Number of observations.
    pub n: usize,
    /// Number of IRLS iterations used.
    pub iterations: usize,
}

impl GlmFit {
    /// Akaike information criterion.
    pub fn aic(&self) -> f64 {
        2.0 * self.coef.len() as f64 - 2.0 * self.log_lik
    }

    /// Bayesian information criterion.
    pub fn bic(&self) -> f64 {
        (self.n as f64).ln() * self.coef.len() as f64 - 2.0 * self.log_lik
    }

    fn from_irls(
        coef: Vec<f64>,
        info: &Matrix,
        log_lik: f64,
        n: usize,
        iterations: usize,
    ) -> Result<Self, SingularMatrix> {
        let cov = info.inverse_spd().or_else(|_| {
            // Ridge the information matrix slightly if near-singular; the
            // tiny jitter changes SEs negligibly but keeps inference usable
            // on nearly-collinear designs.
            let mut jittered = info.clone();
            for i in 0..jittered.rows() {
                jittered[(i, i)] += 1e-8;
            }
            jittered.inverse_spd()
        })?;
        let std_err: Vec<f64> = (0..coef.len()).map(|i| cov[(i, i)].max(0.0).sqrt()).collect();
        let z_values: Vec<f64> =
            coef.iter().zip(&std_err).map(|(b, s)| if *s > 0.0 { b / s } else { 0.0 }).collect();
        let p_values: Vec<f64> = z_values.iter().map(|z| two_sided_p(*z)).collect();
        Ok(Self { coef, std_err, z_values, p_values, log_lik, n, iterations })
    }
}

/// Shared IRLS driver. `step` maps the current linear predictor to
/// `(irls_weight, working_response)` per observation; `loglik` gives one
/// observation's log-likelihood contribution.
///
/// The reported log-likelihood is summed once, in row order, after the
/// loop, over the linear predictor the final coefficient update was solved
/// from. A fresh one from the returned coefficients would move the reported
/// bits.
fn irls(
    x: &Matrix,
    init: Vec<f64>,
    step: impl Fn(usize, f64) -> (f64, f64),
    loglik: impl Fn(usize, f64) -> f64,
) -> Result<(Vec<f64>, Matrix, f64, usize), SingularMatrix> {
    let n = x.rows();
    let mut beta = init;
    let mut info = Matrix::zeros(x.cols(), x.cols());
    let mut eta = Vec::new();
    let mut w = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut iterations = 0;

    for iter in 1..=MAX_ITER {
        iterations = iter;
        eta = x.mul_vec(&beta);
        for i in 0..n {
            (w[i], z[i]) = step(i, eta[i]);
        }
        info = x.xtwx(&w);
        let rhs = x.xtwz(&w, &z);
        let new_beta = info.solve_spd(&rhs).or_else(|_| {
            let mut jittered = info.clone();
            for d in 0..jittered.rows() {
                jittered[(d, d)] += 1e-8;
            }
            jittered.solve_spd(&rhs)
        })?;
        let delta = new_beta.iter().zip(&beta).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        beta = new_beta;
        if delta < TOL {
            break;
        }
    }
    let mut log_lik = 0.0;
    for (i, e) in eta.iter().enumerate() {
        log_lik += loglik(i, *e);
    }
    Ok((beta, info, log_lik, iterations))
}

/// Poisson regression with log link.
pub struct PoissonRegression;

impl PoissonRegression {
    /// Fits `y ~ Poisson(exp(Xβ))`, optionally with prior weights (each
    /// observation contributes `weight × loglik`).
    ///
    /// `x` must include an intercept column if one is desired.
    pub fn fit(
        x: &Matrix,
        y: &[f64],
        prior_weights: Option<&[f64]>,
    ) -> Result<GlmFit, SingularMatrix> {
        let n = x.rows();
        assert_eq!(y.len(), n);
        if let Some(pw) = prior_weights {
            assert_eq!(pw.len(), n);
        }
        let weight = |i: usize| prior_weights.map_or(1.0, |pw| pw[i]);

        // Initialise the intercept at log(weighted mean) for stability.
        let mut init = vec![0.0; x.cols()];
        let wsum: f64 = (0..n).map(weight).sum();
        let wy: f64 = (0..n).map(|i| weight(i) * y[i]).sum();
        if wsum > 0.0 {
            init[0] = (wy / wsum).max(1e-6).ln();
        }

        let cap = 30.0; // bound η to avoid overflow on wild steps
        let (coef, info, log_lik, iterations) = irls(
            x,
            init,
            |i, eta| {
                let eta = eta.clamp(-cap, cap);
                let mu = eta.exp();
                (weight(i) * mu, eta + (y[i] - mu) / mu)
            },
            |i, eta| {
                let eta = eta.clamp(-cap, cap);
                weight(i) * (y[i] * eta - eta.exp() - ln_factorial(y[i].round() as u64))
            },
        )?;
        GlmFit::from_irls(coef, &info, log_lik, n, iterations)
    }
}

/// Logistic regression with logit link.
pub struct LogisticRegression;

impl LogisticRegression {
    /// Fits `y ~ Bernoulli(sigmoid(Xβ))`. `y` may be fractional in `[0, 1]`
    /// (quasi-binomial responses, as produced by EM E-steps).
    pub fn fit(
        x: &Matrix,
        y: &[f64],
        prior_weights: Option<&[f64]>,
    ) -> Result<GlmFit, SingularMatrix> {
        let n = x.rows();
        assert_eq!(y.len(), n);
        if let Some(pw) = prior_weights {
            assert_eq!(pw.len(), n);
        }
        let weight = |i: usize| prior_weights.map_or(1.0, |pw| pw[i]);

        let init = vec![0.0; x.cols()];
        let cap = 30.0;
        let mean = |eta: f64| 1.0 / (1.0 + (-eta).exp());
        let (coef, info, log_lik, iterations) = irls(
            x,
            init,
            |i, eta| {
                let eta = eta.clamp(-cap, cap);
                let mu = mean(eta);
                let v = (mu * (1.0 - mu)).max(1e-10);
                (weight(i) * v, eta + (y[i] - mu) / v)
            },
            |i, eta| {
                let mu = mean(eta.clamp(-cap, cap));
                weight(i)
                    * (y[i] * mu.max(1e-300).ln() + (1.0 - y[i]) * (1.0 - mu).max(1e-300).ln())
            },
        )?;
        GlmFit::from_irls(coef, &info, log_lik, n, iterations)
    }
}

/// Builds a design matrix with a leading intercept column from raw
/// covariate rows.
pub fn design_with_intercept(rows: &[Vec<f64>]) -> Matrix {
    let n = rows.len();
    let p = rows.first().map_or(0, Vec::len);
    let mut x = Matrix::zeros(n, p + 1);
    for (i, row) in rows.iter().enumerate() {
        x[(i, 0)] = 1.0;
        for (j, v) in row.iter().enumerate() {
            x[(i, j + 1)] = *v;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::ln_gamma;

    /// Deterministic inverse-CDF Poisson sampler for test data.
    fn poisson_draw(lambda: f64, u: f64) -> f64 {
        let mut k = 0u64;
        let mut p = (-lambda).exp();
        let mut cdf = p;
        while u > cdf && k < 1000 {
            k += 1;
            p *= lambda / k as f64;
            cdf += p;
        }
        k as f64
    }

    /// A simple deterministic uniform stream.
    fn uniforms(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                // xorshift64*
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// The IRLS driver as it was when the log-likelihood was summed inside
    /// the loop on every iteration: the reference the bit-identity tests
    /// hold [`irls`] to.
    fn reference_irls(
        x: &Matrix,
        init: Vec<f64>,
        step: impl Fn(usize, f64) -> (f64, f64, f64),
    ) -> (Vec<f64>, Matrix, f64, usize) {
        let n = x.rows();
        let mut beta = init;
        let mut info = Matrix::zeros(x.cols(), x.cols());
        let mut log_lik = 0.0;
        let mut iterations = 0;
        for iter in 1..=MAX_ITER {
            iterations = iter;
            let eta = x.mul_vec(&beta);
            let mut w = vec![0.0; n];
            let mut z = vec![0.0; n];
            log_lik = 0.0;
            for i in 0..n {
                let (wi, zi, ll) = step(i, eta[i]);
                w[i] = wi;
                z[i] = zi;
                log_lik += ll;
            }
            info = x.xtwx(&w);
            let rhs = x.xtwz(&w, &z);
            let new_beta = info.solve_spd(&rhs).unwrap_or_else(|_| {
                let mut jittered = info.clone();
                for d in 0..jittered.rows() {
                    jittered[(d, d)] += 1e-8;
                }
                jittered.solve_spd(&rhs).expect("reference fixture is solvable")
            });
            let delta =
                new_beta.iter().zip(&beta).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            beta = new_beta;
            if delta < TOL {
                break;
            }
        }
        (beta, info, log_lik, iterations)
    }

    /// Poisson regression with the per-row expressions inlined as before.
    fn reference_poisson(x: &Matrix, y: &[f64], pw: Option<&[f64]>) -> GlmFit {
        let n = x.rows();
        let weight = |i: usize| pw.map_or(1.0, |pw| pw[i]);
        let mut init = vec![0.0; x.cols()];
        let wsum: f64 = (0..n).map(weight).sum();
        let wy: f64 = (0..n).map(|i| weight(i) * y[i]).sum();
        if wsum > 0.0 {
            init[0] = (wy / wsum).max(1e-6).ln();
        }
        let cap = 30.0;
        let (coef, info, log_lik, iterations) = reference_irls(x, init, |i, eta| {
            let eta = eta.clamp(-cap, cap);
            let mu = eta.exp();
            let pw = weight(i);
            let w = pw * mu;
            let z = eta + (y[i] - mu) / mu;
            let ll = pw * (y[i] * eta - mu - ln_gamma(y[i].round() as u64 as f64 + 1.0));
            (w, z, ll)
        });
        GlmFit::from_irls(coef, &info, log_lik, n, iterations).unwrap()
    }

    /// Logistic regression with the per-row expressions inlined as before.
    fn reference_logistic(x: &Matrix, y: &[f64], pw: Option<&[f64]>) -> GlmFit {
        let n = x.rows();
        let weight = |i: usize| pw.map_or(1.0, |pw| pw[i]);
        let cap = 30.0;
        let (coef, info, log_lik, iterations) = reference_irls(x, vec![0.0; x.cols()], |i, eta| {
            let eta = eta.clamp(-cap, cap);
            let mu = 1.0 / (1.0 + (-eta).exp());
            let pw = weight(i);
            let v = (mu * (1.0 - mu)).max(1e-10);
            let w = pw * v;
            let z = eta + (y[i] - mu) / v;
            let ll = pw * (y[i] * mu.max(1e-300).ln() + (1.0 - y[i]) * (1.0 - mu).max(1e-300).ln());
            (w, z, ll)
        });
        GlmFit::from_irls(coef, &info, log_lik, n, iterations).unwrap()
    }

    fn assert_same_bits(fit: &GlmFit, reference: &GlmFit) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fit.coef), bits(&reference.coef), "coefficients");
        assert_eq!(bits(&fit.std_err), bits(&reference.std_err), "standard errors");
        assert_eq!(fit.log_lik.to_bits(), reference.log_lik.to_bits(), "log-likelihood");
        assert_eq!(fit.iterations, reference.iterations, "iterations");
    }

    /// A two-covariate design, Poisson counts, a fractional response in
    /// [0, 1] (as ZIP's E-step produces) and fractional prior weights.
    fn bit_fixture(n: usize) -> (Matrix, Vec<f64>, Vec<f64>, Vec<f64>) {
        let us = uniforms(5 * n, 31);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![us[i] * 2.0 - 1.0, (us[n + i] * 9.0).sqrt()]).collect();
        let counts: Vec<f64> = (0..n)
            .map(|i| poisson_draw((0.3 + 0.7 * rows[i][0] + 0.2 * rows[i][1]).exp(), us[2 * n + i]))
            .collect();
        let share: Vec<f64> =
            (0..n).map(|i| if counts[i] > 0.0 { 0.0 } else { us[3 * n + i] }).collect();
        let weights: Vec<f64> = (0..n).map(|i| 0.05 + us[4 * n + i]).collect();
        (design_with_intercept(&rows), counts, share, weights)
    }

    #[test]
    fn poisson_log_lik_matches_per_iteration_sum_bitwise() {
        let (x, counts, _, weights) = bit_fixture(700);
        for pw in [None, Some(weights.as_slice())] {
            let fit = PoissonRegression::fit(&x, &counts, pw).unwrap();
            assert_same_bits(&fit, &reference_poisson(&x, &counts, pw));
            assert!(fit.iterations > 2, "fixture converges too fast to test anything");
        }
    }

    #[test]
    fn logistic_log_lik_matches_per_iteration_sum_bitwise() {
        let (x, counts, share, weights) = bit_fixture(700);
        let binary: Vec<f64> = counts.iter().map(|c| f64::from(*c > 1.0)).collect();
        for y in [&share, &binary] {
            for pw in [None, Some(weights.as_slice())] {
                let fit = LogisticRegression::fit(&x, y, pw).unwrap();
                assert_same_bits(&fit, &reference_logistic(&x, y, pw));
                assert!(fit.iterations > 2, "fixture converges too fast to test anything");
            }
        }
    }

    #[test]
    fn poisson_recovers_true_coefficients() {
        // y ~ Poisson(exp(0.5 + 0.8 x)).
        let n = 5000;
        let us = uniforms(2 * n, 42);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![us[i] * 2.0 - 1.0]).collect();
        let x = design_with_intercept(&rows);
        let y: Vec<f64> =
            (0..n).map(|i| poisson_draw((0.5 + 0.8 * rows[i][0]).exp(), us[n + i])).collect();
        let fit = PoissonRegression::fit(&x, &y, None).unwrap();
        assert!((fit.coef[0] - 0.5).abs() < 0.06, "intercept {}", fit.coef[0]);
        assert!((fit.coef[1] - 0.8).abs() < 0.06, "slope {}", fit.coef[1]);
        assert!(fit.p_values[1] < 1e-6);
    }

    #[test]
    fn logistic_recovers_true_coefficients() {
        // y ~ Bernoulli(sigmoid(-0.3 + 1.2 x)).
        let n = 8000;
        let us = uniforms(2 * n, 7);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![us[i] * 2.0 - 1.0]).collect();
        let x = design_with_intercept(&rows);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let p = 1.0 / (1.0 + (-(-0.3 + 1.2 * rows[i][0])).exp());
                if us[n + i] < p {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let fit = LogisticRegression::fit(&x, &y, None).unwrap();
        assert!((fit.coef[0] + 0.3).abs() < 0.1, "intercept {}", fit.coef[0]);
        assert!((fit.coef[1] - 1.2).abs() < 0.12, "slope {}", fit.coef[1]);
    }

    #[test]
    fn weights_replicate_observations() {
        // Weighting an observation by 2 must equal duplicating it.
        let rows = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let x = design_with_intercept(&rows);
        let y = vec![1.0, 2.0, 4.0, 8.0];
        let w = vec![2.0, 1.0, 1.0, 1.0];
        let fit_weighted = PoissonRegression::fit(&x, &y, Some(&w)).unwrap();

        let rows2 = vec![vec![0.0], vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let x2 = design_with_intercept(&rows2);
        let y2 = vec![1.0, 1.0, 2.0, 4.0, 8.0];
        let fit_dup = PoissonRegression::fit(&x2, &y2, None).unwrap();

        for (a, b) in fit_weighted.coef.iter().zip(&fit_dup.coef) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!((fit_weighted.log_lik - fit_dup.log_lik).abs() < 1e-6);
    }

    #[test]
    fn aic_bic_penalise_parameters() {
        // BIC's per-parameter penalty ln(n) exceeds AIC's 2 once n ≥ 8.
        let rows: Vec<Vec<f64>> = (0..9).map(|i| vec![f64::from(i)]).collect();
        let x = design_with_intercept(&rows);
        let y = vec![1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0];
        let fit = PoissonRegression::fit(&x, &y, None).unwrap();
        assert!(fit.aic() > -2.0 * fit.log_lik);
        assert!(fit.bic() > fit.aic());
    }

    #[test]
    fn perfectly_flat_response() {
        // Constant y: slope ≈ 0, intercept ≈ ln(mean).
        let rows = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let x = design_with_intercept(&rows);
        let y = vec![3.0, 3.0, 3.0, 3.0];
        let fit = PoissonRegression::fit(&x, &y, None).unwrap();
        assert!((fit.coef[0] - 3.0f64.ln()).abs() < 1e-6);
        assert!(fit.coef[1].abs() < 1e-6);
    }
}
