//! Latent Class Analysis: a finite mixture of independent Poissons over
//! multivariate count vectors, fitted by EM (§5.1).
//!
//! Each observation is a D-dimensional count vector (here: the number of
//! contracts a user made/accepted per contract type in one month). The model
//! assumes K latent classes; class `k` has mixing weight `π_k` and emits
//! dimension `d` as `Poisson(λ_{kd})`. The paper selects K = 12 by AIC/BIC
//! ("using a Poisson curve due to non-overdispersed count data, the most
//! accurate and parsimonious is a 12-class model").

use crate::distributions::{ln_factorial, log_sum_exp};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// EM iteration cap.
const MAX_ITER: usize = 500;
/// Convergence threshold on mean log-likelihood improvement.
const TOL: f64 = 1e-7;
/// Rate floor: keeps zero-count classes from degenerating.
const RATE_FLOOR: f64 = 1e-4;
/// Rows per E-step task: one result vector per block instead of per row.
const E_STEP_BLOCK: usize = 64;

/// Latent class model specification.
#[derive(Debug, Clone, Copy)]
pub struct LcaModel {
    /// Number of latent classes.
    pub k: usize,
}

/// A fitted latent class model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LcaFit {
    /// Number of classes.
    pub k: usize,
    /// Dimensionality of the count vectors.
    pub d: usize,
    /// Observations used.
    pub n: usize,
    /// Mixing weights `π` (sum to 1).
    pub weights: Vec<f64>,
    /// Poisson rates `λ`, `k × d`.
    pub rates: Vec<Vec<f64>>,
    /// Maximised log-likelihood.
    pub log_lik: f64,
    /// EM iterations used.
    pub iterations: usize,
}

impl LcaFit {
    /// Number of free parameters: (K−1) weights + K·D rates.
    pub fn n_params(&self) -> usize {
        (self.k - 1) + self.k * self.d
    }

    /// Akaike information criterion.
    pub fn aic(&self) -> f64 {
        2.0 * self.n_params() as f64 - 2.0 * self.log_lik
    }

    /// Bayesian information criterion.
    pub fn bic(&self) -> f64 {
        (self.n as f64).ln() * self.n_params() as f64 - 2.0 * self.log_lik
    }

    /// Log joint `log(π_k) + log P(row | class k)` for each class.
    fn log_joint(&self, row: &[f64]) -> Vec<f64> {
        (0..self.k)
            .map(|c| {
                let mut ll = self.weights[c].max(1e-300).ln();
                for (d, y) in row.iter().enumerate() {
                    let lam = self.rates[c][d];
                    ll += y * lam.ln() - lam - ln_factorial(y.round() as u64);
                }
                ll
            })
            .collect()
    }

    /// Posterior class probabilities for one observation.
    pub fn responsibilities(&self, row: &[f64]) -> Vec<f64> {
        let lj = self.log_joint(row);
        let norm = log_sum_exp(&lj);
        lj.iter().map(|l| (l - norm).exp()).collect()
    }

    /// Maximum a-posteriori class for one observation.
    pub fn assign(&self, row: &[f64]) -> usize {
        let lj = self.log_joint(row);
        lj.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)
    }
}

impl LcaModel {
    /// Fits the mixture by EM with a random-responsibility initialisation
    /// drawn from `rng`.
    ///
    /// # Panics
    /// Panics if `data` is empty, ragged, or `k == 0`.
    pub fn fit(&self, data: &[Vec<f64>], rng: &mut impl Rng) -> LcaFit {
        let resp = self.draw_init(data.len(), rng);
        self.fit_with_init(data, resp)
    }

    /// Draws the random-responsibility initialisation for one restart: a
    /// perturbed uniform per observation so classes break symmetry. Split
    /// out from [`LcaModel::fit`] so `fit_best` can pre-draw every
    /// restart's initialisation serially and run the EM fits in parallel.
    pub fn draw_init(&self, n: usize, rng: &mut impl Rng) -> Vec<Vec<f64>> {
        let k = self.k;
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = (0..k).map(|_| rng.random_range(0.05..1.0)).collect();
                let s: f64 = row.iter().sum();
                row.iter_mut().for_each(|v| *v /= s);
                row
            })
            .collect()
    }

    /// Runs EM from explicit initial responsibilities (consumes no
    /// randomness).
    ///
    /// # Panics
    /// Panics if `data` is empty, ragged, `k == 0`, or `init` does not
    /// have one responsibility row per observation.
    pub fn fit_with_init(&self, data: &[Vec<f64>], init: Vec<Vec<f64>>) -> LcaFit {
        let k = self.k;
        let n = data.len();
        assert!(k > 0, "k must be positive");
        assert!(n > 0, "no data");
        let d = data[0].len();
        assert!(data.iter().all(|r| r.len() == d), "ragged data");
        assert!(init.len() == n, "one responsibility row per observation");
        assert!(init.iter().all(|r| r.len() == k), "one responsibility per class");
        // Responsibilities, row-major `n × k`.
        let mut resp: Vec<f64> = init.into_iter().flatten().collect();
        // `ln(y!)` per row and dimension, row-major `n × d`: fixed for the fit.
        let ln_fact: Vec<f64> =
            data.iter().flatten().map(|y| ln_factorial(y.round() as u64)).collect();

        let mut weights = vec![1.0 / k as f64; k];
        let mut rates = vec![vec![1.0; d]; k];
        let mut log_lik = f64::NEG_INFINITY;
        let mut iterations = 0;

        for iter in 1..=MAX_ITER {
            iterations = iter;
            // M-step: classes are independent given the responsibilities,
            // so each class's weight/rate sums run on their own lane; the
            // per-class serial sums over observations are untouched, so
            // the floats match the legacy loop bit-for-bit.
            let per_class: Vec<(f64, Vec<f64>)> = dial_par::parallel_map((0..k).collect(), |c| {
                let nc: f64 = resp.chunks_exact(k).map(|r| r[c]).sum();
                let weight = (nc / n as f64).max(1e-10);
                let class_rates: Vec<f64> = (0..d)
                    .map(|dd| {
                        let s: f64 =
                            resp.chunks_exact(k).zip(data).map(|(r, row)| r[c] * row[dd]).sum();
                        (s / nc.max(1e-12)).max(RATE_FLOOR)
                    })
                    .collect();
                (weight, class_rates)
            });
            for (c, (weight, class_rates)) in per_class.into_iter().enumerate() {
                weights[c] = weight;
                rates[c] = class_rates;
            }
            let wsum: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= wsum);

            // E-step: `ln π_c` and `ln λ_cd` are taken once per iteration,
            // by the expressions `LcaFit::log_joint` uses, so each row's log
            // joint has its bits; blocks of rows overwrite their
            // responsibilities in place. The log-likelihood folds serially
            // over the ordered per-row norms, in row order.
            let ln_weights: Vec<f64> = weights.iter().map(|w| w.max(1e-300).ln()).collect();
            let ln_rates: Vec<f64> = rates.iter().flatten().map(|lam| lam.ln()).collect();
            let blocks: Vec<(usize, &mut [f64])> =
                resp.chunks_mut(E_STEP_BLOCK * k).enumerate().collect();
            let norms: Vec<Vec<f64>> = dial_par::parallel_map(blocks, |(b, block)| {
                let first = b * E_STEP_BLOCK;
                block
                    .chunks_exact_mut(k)
                    .enumerate()
                    .map(|(j, lj)| {
                        let i = first + j;
                        let (row, lf) = (&data[i], &ln_fact[i * d..(i + 1) * d]);
                        for (c, l) in lj.iter_mut().enumerate() {
                            let (lr, lam) = (&ln_rates[c * d..(c + 1) * d], &rates[c]);
                            let mut ll = ln_weights[c];
                            for dd in 0..d {
                                ll += row[dd] * lr[dd] - lam[dd] - lf[dd];
                            }
                            *l = ll;
                        }
                        let norm = log_sum_exp(lj);
                        lj.iter_mut().for_each(|l| *l = (*l - norm).exp());
                        norm
                    })
                    .collect()
            });
            let mut new_ll = 0.0;
            for norm in norms.iter().flatten() {
                new_ll += norm;
            }

            let improved = (new_ll - log_lik) / n as f64;
            log_lik = new_ll;
            if improved.abs() < TOL {
                break;
            }
        }

        LcaFit { k, d, n, weights, rates, log_lik, iterations }
    }

    /// Fits with `restarts` random initialisations, keeping the best
    /// log-likelihood (EM is sensitive to initialisation).
    ///
    /// Initialisations are pre-drawn serially (EM itself consumes no
    /// RNG), so the restarts run in parallel while the RNG stream and the
    /// winner — ties keep the earliest restart — match the serial loop
    /// exactly at any pool width.
    pub fn fit_best(&self, data: &[Vec<f64>], restarts: usize, rng: &mut impl Rng) -> LcaFit {
        let inits: Vec<Vec<Vec<f64>>> =
            (0..restarts.max(1)).map(|_| self.draw_init(data.len(), rng)).collect();
        let fits = dial_par::parallel_map(inits, |init| self.fit_with_init(data, init));
        let mut best: Option<LcaFit> = None;
        for fit in fits {
            if best.as_ref().is_none_or(|b| fit.log_lik > b.log_lik) {
                best = Some(fit);
            }
        }
        best.unwrap()
    }
}

/// Fits every K in `range` and returns `(all fits, index of BIC-minimal)`.
pub fn select_k(
    data: &[Vec<f64>],
    range: std::ops::RangeInclusive<usize>,
    restarts: usize,
    rng: &mut impl Rng,
) -> (Vec<LcaFit>, usize) {
    let fits: Vec<LcaFit> = range.map(|k| LcaModel { k }.fit_best(data, restarts, rng)).collect();
    let best = fits
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.bic().total_cmp(&b.1.bic()))
        .map(|(i, _)| i)
        .expect("non-empty range");
    (fits, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn poisson_draw(lambda: f64, rng: &mut impl Rng) -> f64 {
        // Knuth's method; rates here are small.
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.random_range(0.0..1.0f64);
            if p <= l || k > 10_000 {
                return f64::from(k);
            }
            k += 1;
        }
    }

    /// Two planted classes with very different rate profiles.
    fn planted(n: usize, rng: &mut impl Rng) -> (Vec<Vec<f64>>, Vec<usize>) {
        let rates = [vec![0.2, 5.0, 0.1], vec![6.0, 0.3, 2.0]];
        let mut data = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for i in 0..n {
            let c = usize::from(i % 3 == 0); // ~1/3 class 1
            truth.push(c);
            data.push(rates[c].iter().map(|l| poisson_draw(*l, rng)).collect());
        }
        (data, truth)
    }

    /// `fit_with_init` as it was before the E-step hoisted its logarithms:
    /// each iteration clones the fit to call [`LcaFit::log_joint`], which
    /// takes `ln π_c`, `ln λ_cd` and `ln y!` afresh for every row.
    fn reference_fit(k: usize, data: &[Vec<f64>], init: Vec<Vec<f64>>) -> LcaFit {
        let n = data.len();
        let d = data[0].len();
        let mut resp = init;
        let mut weights = vec![1.0 / k as f64; k];
        let mut rates = vec![vec![1.0; d]; k];
        let mut log_lik = f64::NEG_INFINITY;
        let mut iterations = 0;
        for iter in 1..=MAX_ITER {
            iterations = iter;
            for c in 0..k {
                let nc: f64 = resp.iter().map(|r| r[c]).sum();
                weights[c] = (nc / n as f64).max(1e-10);
                rates[c] = (0..d)
                    .map(|dd| {
                        let s: f64 = resp.iter().zip(data).map(|(r, row)| r[c] * row[dd]).sum();
                        (s / nc.max(1e-12)).max(RATE_FLOOR)
                    })
                    .collect();
            }
            let wsum: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= wsum);
            let fit = LcaFit {
                k,
                d,
                n,
                weights: weights.clone(),
                rates: rates.clone(),
                log_lik: 0.0,
                iterations,
            };
            let mut new_ll = 0.0;
            for (i, row) in data.iter().enumerate() {
                let lj = fit.log_joint(row);
                let norm = log_sum_exp(&lj);
                resp[i] = lj.iter().map(|l| (l - norm).exp()).collect();
                new_ll += norm;
            }
            let improved = (new_ll - log_lik) / n as f64;
            log_lik = new_ll;
            if improved.abs() < TOL {
                break;
            }
        }
        LcaFit { k, d, n, weights, rates, log_lik, iterations }
    }

    #[test]
    fn fit_matches_log_joint_reference_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        // 300 rows: several E-step blocks, the last one partial.
        let (data, _) = planted(300, &mut rng);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in 1..=4 {
            let model = LcaModel { k };
            let init = model.draw_init(data.len(), &mut rng);
            let fit = model.fit_with_init(&data, init.clone());
            let reference = reference_fit(k, &data, init);
            assert_eq!(fit.iterations, reference.iterations, "k={k}: iterations");
            assert_eq!(fit.log_lik.to_bits(), reference.log_lik.to_bits(), "k={k}: log-lik");
            assert_eq!(bits(&fit.weights), bits(&reference.weights), "k={k}: weights");
            for (a, b) in fit.rates.iter().zip(&reference.rates) {
                assert_eq!(bits(a), bits(b), "k={k}: rates");
            }
            assert!(k == 1 || fit.iterations > 3, "k={k}: fixture converges too fast");
        }
    }

    #[test]
    fn recovers_planted_classes() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let (data, truth) = planted(1200, &mut rng);
        let fit = LcaModel { k: 2 }.fit_best(&data, 3, &mut rng);

        // Identify which fitted class corresponds to planted class 0.
        let assign: Vec<usize> = data.iter().map(|r| fit.assign(r)).collect();
        let agree: usize = assign.iter().zip(&truth).filter(|(a, t)| a == t).count();
        let accuracy = agree.max(data.len() - agree) as f64 / data.len() as f64;
        assert!(accuracy > 0.95, "accuracy {accuracy}");

        // Rates recovered up to label permutation.
        let c0 = fit.assign(&[0.0, 5.0, 0.0]);
        assert!((fit.rates[c0][1] - 5.0).abs() < 0.5, "λ[1] = {}", fit.rates[c0][1]);
    }

    #[test]
    fn bic_selects_true_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let (data, _) = planted(900, &mut rng);
        let (fits, best) = select_k(&data, 1..=4, 2, &mut rng);
        assert_eq!(fits[best].k, 2, "BICs: {:?}", fits.iter().map(LcaFit::bic).collect::<Vec<_>>());
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (data, _) = planted(200, &mut rng);
        let fit = LcaModel { k: 3 }.fit(&data, &mut rng);
        for row in data.iter().take(20) {
            let r = fit.responsibilities(row);
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(r.iter().all(|p| (0.0..=1.0).contains(p)));
        }
        let w: f64 = fit.weights.iter().sum();
        assert!((w - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loglik_increases_with_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (data, _) = planted(400, &mut rng);
        let f1 = LcaModel { k: 1 }.fit_best(&data, 2, &mut rng);
        let f3 = LcaModel { k: 3 }.fit_best(&data, 4, &mut rng);
        assert!(f3.log_lik >= f1.log_lik - 1e-6);
    }
}
