//! Latent transition modelling proper: a hidden Markov model with
//! independent-Poisson emissions, fitted by Baum–Welch.
//!
//! [`crate::lca`] treats each user-month as an exchangeable case, which is
//! how class *profiles* (Table 6) are estimated; the latent **transition**
//! layer of §5.1 is the dynamics — how users move between classes month to
//! month. This module estimates that jointly: initial class probabilities,
//! a row-stochastic transition matrix and per-class Poisson rates, by EM
//! (forward–backward) over user activity sequences, with Viterbi decoding
//! for hard class paths.

use crate::distributions::{ln_factorial, log_sum_exp};
use crate::lca::LcaFit;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// EM iteration cap.
const MAX_ITER: usize = 200;
/// Convergence threshold on mean log-likelihood improvement.
const TOL: f64 = 1e-6;
/// Rate floor, as in the LCA.
const RATE_FLOOR: f64 = 1e-4;

/// A fitted Poisson-emission HMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HmmFit {
    /// Number of latent classes.
    pub k: usize,
    /// Emission dimensionality.
    pub d: usize,
    /// Initial class distribution.
    pub initial: Vec<f64>,
    /// Row-stochastic transition matrix `a[from][to]`.
    pub transitions: Vec<Vec<f64>>,
    /// Per-class Poisson emission rates, `k × d`.
    pub rates: Vec<Vec<f64>>,
    /// Total log-likelihood over all sequences.
    pub log_lik: f64,
    /// EM iterations used.
    pub iterations: usize,
    /// Number of sequences fitted.
    pub n_sequences: usize,
}

fn emission_log_prob(rates: &[f64], obs: &[f64]) -> f64 {
    rates.iter().zip(obs).map(|(lam, y)| y * lam.ln() - lam - ln_factorial(y.round() as u64)).sum()
}

/// The latent transition model fitter.
pub struct HmmLtm {
    /// Number of latent classes.
    pub k: usize,
}

impl HmmLtm {
    /// Fits the HMM to `sequences` (each a chronological run of D-dim count
    /// vectors). `warm_start` seeds the emission rates (typically from an
    /// [`LcaFit`], mirroring the standard LCA→LTA workflow); otherwise
    /// rates initialise from perturbed global means.
    ///
    /// # Panics
    /// Panics on empty input, ragged dimensions or `k == 0`.
    pub fn fit(
        &self,
        sequences: &[Vec<Vec<f64>>],
        warm_start: Option<&LcaFit>,
        rng: &mut impl Rng,
    ) -> HmmFit {
        let k = self.k;
        assert!(k > 0, "k must be positive");
        let nonempty: Vec<&Vec<Vec<f64>>> = sequences.iter().filter(|s| !s.is_empty()).collect();
        assert!(!nonempty.is_empty(), "no non-empty sequences");
        let d = nonempty[0][0].len();
        for s in &nonempty {
            for obs in s.iter() {
                assert_eq!(obs.len(), d, "ragged observation");
            }
        }

        // Initialise.
        let mut rates: Vec<Vec<f64>> = match warm_start {
            Some(fit) => {
                assert_eq!(fit.d, d, "warm start dimensionality mismatch");
                assert_eq!(fit.k, k, "warm start class-count mismatch");
                fit.rates.clone()
            }
            None => {
                let mut means = vec![0.0; d];
                let mut count = 0.0f64;
                for s in &nonempty {
                    for obs in s.iter() {
                        for (m, y) in means.iter_mut().zip(obs) {
                            *m += y;
                        }
                        count += 1.0;
                    }
                }
                means.iter_mut().for_each(|m| *m /= count.max(1.0));
                (0..k)
                    .map(|_| {
                        means
                            .iter()
                            .map(|m| (m * rng.random_range(0.3..3.0)).max(RATE_FLOOR))
                            .collect()
                    })
                    .collect()
            }
        };
        let mut initial = vec![1.0 / k as f64; k];
        let mut transitions = vec![vec![1.0 / k as f64; k]; k];
        let mut log_lik = f64::NEG_INFINITY;
        let mut iterations = 0;

        // `ln(y!)` per observation, `t_len × d` per sequence: fixed for the
        // fit. The per-sequence buffers below are row-major `t_len × k` and
        // reused from one sequence to the next.
        let ln_fact: Vec<Vec<f64>> = nonempty
            .iter()
            .map(|s| s.iter().flatten().map(|y| ln_factorial(y.round() as u64)).collect())
            .collect();
        let (mut lp, mut alpha, mut beta) = (Vec::new(), Vec::new(), Vec::new());
        let mut terms = vec![0.0; k];

        for iter in 1..=MAX_ITER {
            iterations = iter;
            let mut new_initial = vec![1e-10; k];
            let mut new_trans = vec![vec![1e-10; k]; k];
            let mut rate_num = vec![vec![0.0; d]; k];
            let mut rate_den = vec![1e-10; k];
            let mut total_ll = 0.0;

            let ln_init: Vec<f64> = initial.iter().map(|p| p.max(1e-300).ln()).collect();
            let ln_trans: Vec<Vec<f64>> = transitions
                .iter()
                .map(|row| row.iter().map(|p| p.max(1e-300).ln()).collect())
                .collect();
            let ln_rates: Vec<Vec<f64>> =
                rates.iter().map(|row| row.iter().map(|lam| lam.ln()).collect()).collect();

            for (seq, lf) in nonempty.iter().zip(&ln_fact) {
                let t_len = seq.len();
                // Emission log-probs: `emission_log_prob` with its
                // logarithms read from the hoisted tables.
                lp.clear();
                for (t, obs) in seq.iter().enumerate() {
                    let lf = &lf[t * d..(t + 1) * d];
                    for c in 0..k {
                        let e: f64 = (0..d)
                            .map(|dd| obs[dd] * ln_rates[c][dd] - rates[c][dd] - lf[dd])
                            .sum();
                        lp.push(e);
                    }
                }

                // Forward pass (log space).
                alpha.clear();
                alpha.resize(t_len * k, 0.0);
                for c in 0..k {
                    alpha[c] = ln_init[c] + lp[c];
                }
                for t in 1..t_len {
                    for c in 0..k {
                        for (p, term) in terms.iter_mut().enumerate() {
                            *term = alpha[(t - 1) * k + p] + ln_trans[p][c];
                        }
                        alpha[t * k + c] = log_sum_exp(&terms) + lp[t * k + c];
                    }
                }
                let seq_ll = log_sum_exp(&alpha[(t_len - 1) * k..]);
                total_ll += seq_ll;

                // Backward pass.
                beta.clear();
                beta.resize(t_len * k, 0.0);
                for t in (0..t_len.saturating_sub(1)).rev() {
                    for c in 0..k {
                        for (n, term) in terms.iter_mut().enumerate() {
                            *term = ln_trans[c][n] + lp[(t + 1) * k + n] + beta[(t + 1) * k + n];
                        }
                        beta[t * k + c] = log_sum_exp(&terms);
                    }
                }

                // Accumulate expected counts.
                for c in 0..k {
                    let gamma0 = (alpha[c] + beta[c] - seq_ll).exp();
                    new_initial[c] += gamma0;
                }
                for t in 0..t_len {
                    for c in 0..k {
                        let gamma = (alpha[t * k + c] + beta[t * k + c] - seq_ll).exp();
                        rate_den[c] += gamma;
                        for dd in 0..d {
                            rate_num[c][dd] += gamma * seq[t][dd];
                        }
                    }
                }
                for t in 0..t_len.saturating_sub(1) {
                    for from in 0..k {
                        for to in 0..k {
                            let xi = (alpha[t * k + from]
                                + ln_trans[from][to]
                                + lp[(t + 1) * k + to]
                                + beta[(t + 1) * k + to]
                                - seq_ll)
                                .exp();
                            new_trans[from][to] += xi;
                        }
                    }
                }
            }

            // M-step: normalise.
            let init_total: f64 = new_initial.iter().sum();
            initial = new_initial.iter().map(|v| v / init_total).collect();
            transitions = new_trans
                .iter()
                .map(|row| {
                    let s: f64 = row.iter().sum();
                    row.iter().map(|v| v / s).collect()
                })
                .collect();
            for c in 0..k {
                for dd in 0..d {
                    rates[c][dd] = (rate_num[c][dd] / rate_den[c]).max(RATE_FLOOR);
                }
            }

            let improved = (total_ll - log_lik) / nonempty.len() as f64;
            log_lik = total_ll;
            if improved.abs() < TOL {
                break;
            }
        }

        HmmFit {
            k,
            d,
            initial,
            transitions,
            rates,
            log_lik,
            iterations,
            n_sequences: nonempty.len(),
        }
    }
}

impl HmmFit {
    /// Viterbi decoding: the most probable class path for one sequence.
    pub fn decode(&self, seq: &[Vec<f64>]) -> Vec<usize> {
        if seq.is_empty() {
            return Vec::new();
        }
        let k = self.k;
        let t_len = seq.len();
        let ln_init: Vec<f64> = self.initial.iter().map(|p| p.max(1e-300).ln()).collect();
        let ln_trans: Vec<Vec<f64>> = self
            .transitions
            .iter()
            .map(|row| row.iter().map(|p| p.max(1e-300).ln()).collect())
            .collect();

        let mut delta = vec![vec![f64::NEG_INFINITY; k]; t_len];
        let mut back = vec![vec![0usize; k]; t_len];
        for c in 0..k {
            delta[0][c] = ln_init[c] + emission_log_prob(&self.rates[c], &seq[0]);
        }
        for t in 1..t_len {
            for c in 0..k {
                let (best_prev, best_score) = (0..k)
                    .map(|p| (p, delta[t - 1][p] + ln_trans[p][c]))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                delta[t][c] = best_score + emission_log_prob(&self.rates[c], &seq[t]);
                back[t][c] = best_prev;
            }
        }
        let mut path = vec![0usize; t_len];
        path[t_len - 1] =
            (0..k).max_by(|&a, &b| delta[t_len - 1][a].total_cmp(&delta[t_len - 1][b])).unwrap();
        for t in (0..t_len - 1).rev() {
            path[t] = back[t + 1][path[t + 1]];
        }
        path
    }

    /// Per-class expected holding time `1 / (1 − a_cc)` in months.
    pub fn expected_holding_time(&self, class: usize) -> f64 {
        let stay = self.transitions[class][class].min(1.0 - 1e-9);
        1.0 / (1.0 - stay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn poisson_draw(lambda: f64, rng: &mut impl Rng) -> f64 {
        let l = (-lambda).exp();
        let mut kk = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.random_range(0.0..1.0f64);
            if p <= l || kk > 10_000 {
                return f64::from(kk);
            }
            kk += 1;
        }
    }

    /// Generates sequences from a planted 2-state chain.
    fn planted(
        n_seq: usize,
        len: usize,
        rng: &mut impl Rng,
    ) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<usize>>) {
        let rates = [vec![0.3, 6.0], vec![5.0, 0.2]];
        let trans = [[0.9, 0.1], [0.3, 0.7]];
        let mut seqs = Vec::new();
        let mut states = Vec::new();
        for _ in 0..n_seq {
            let mut s = usize::from(rng.random_range(0.0..1.0) < 0.5);
            let mut seq = Vec::with_capacity(len);
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(s);
                seq.push(rates[s].iter().map(|l| poisson_draw(*l, rng)).collect());
                s = usize::from(rng.random_range(0.0..1.0) >= trans[s][0]);
            }
            seqs.push(seq);
            states.push(path);
        }
        (seqs, states)
    }

    /// Baum–Welch as it was before the emission logarithms were hoisted:
    /// [`emission_log_prob`] per (observation, class) on every iteration
    /// and fresh `terms` vectors in both passes. Starts from `rates`.
    fn reference_fit(k: usize, sequences: &[Vec<Vec<f64>>], rates: Vec<Vec<f64>>) -> HmmFit {
        let nonempty: Vec<&Vec<Vec<f64>>> = sequences.iter().filter(|s| !s.is_empty()).collect();
        let d = nonempty[0][0].len();
        let mut rates = rates;
        let mut initial = vec![1.0 / k as f64; k];
        let mut transitions = vec![vec![1.0 / k as f64; k]; k];
        let mut log_lik = f64::NEG_INFINITY;
        let mut iterations = 0;
        for iter in 1..=MAX_ITER {
            iterations = iter;
            let mut new_initial = vec![1e-10; k];
            let mut new_trans = vec![vec![1e-10; k]; k];
            let mut rate_num = vec![vec![0.0; d]; k];
            let mut rate_den = vec![1e-10; k];
            let mut total_ll = 0.0;
            let ln_init: Vec<f64> = initial.iter().map(|p| p.max(1e-300).ln()).collect();
            let ln_trans: Vec<Vec<f64>> = transitions
                .iter()
                .map(|row| row.iter().map(|p| p.max(1e-300).ln()).collect())
                .collect();
            for seq in &nonempty {
                let t_len = seq.len();
                let lp: Vec<Vec<f64>> = seq
                    .iter()
                    .map(|obs| (0..k).map(|c| emission_log_prob(&rates[c], obs)).collect())
                    .collect();
                let mut alpha = vec![vec![0.0; k]; t_len];
                for c in 0..k {
                    alpha[0][c] = ln_init[c] + lp[0][c];
                }
                for t in 1..t_len {
                    for c in 0..k {
                        let terms: Vec<f64> =
                            (0..k).map(|p| alpha[t - 1][p] + ln_trans[p][c]).collect();
                        alpha[t][c] = log_sum_exp(&terms) + lp[t][c];
                    }
                }
                let seq_ll = log_sum_exp(&alpha[t_len - 1]);
                total_ll += seq_ll;
                let mut beta = vec![vec![0.0; k]; t_len];
                for t in (0..t_len.saturating_sub(1)).rev() {
                    for c in 0..k {
                        let terms: Vec<f64> = (0..k)
                            .map(|n| ln_trans[c][n] + lp[t + 1][n] + beta[t + 1][n])
                            .collect();
                        beta[t][c] = log_sum_exp(&terms);
                    }
                }
                for c in 0..k {
                    new_initial[c] += (alpha[0][c] + beta[0][c] - seq_ll).exp();
                }
                for t in 0..t_len {
                    for c in 0..k {
                        let gamma = (alpha[t][c] + beta[t][c] - seq_ll).exp();
                        rate_den[c] += gamma;
                        for dd in 0..d {
                            rate_num[c][dd] += gamma * seq[t][dd];
                        }
                    }
                }
                for t in 0..t_len.saturating_sub(1) {
                    for from in 0..k {
                        for to in 0..k {
                            new_trans[from][to] += (alpha[t][from]
                                + ln_trans[from][to]
                                + lp[t + 1][to]
                                + beta[t + 1][to]
                                - seq_ll)
                                .exp();
                        }
                    }
                }
            }
            let init_total: f64 = new_initial.iter().sum();
            initial = new_initial.iter().map(|v| v / init_total).collect();
            transitions = new_trans
                .iter()
                .map(|row| {
                    let s: f64 = row.iter().sum();
                    row.iter().map(|v| v / s).collect()
                })
                .collect();
            for c in 0..k {
                for dd in 0..d {
                    rates[c][dd] = (rate_num[c][dd] / rate_den[c]).max(RATE_FLOOR);
                }
            }
            let improved = (total_ll - log_lik) / nonempty.len() as f64;
            log_lik = total_ll;
            if improved.abs() < TOL {
                break;
            }
        }
        HmmFit {
            k,
            d,
            initial,
            transitions,
            rates,
            log_lik,
            iterations,
            n_sequences: nonempty.len(),
        }
    }

    #[test]
    fn fit_matches_emission_log_prob_reference_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let (mut seqs, _) = planted(60, 9, &mut rng);
        // Uneven lengths, an empty and a one-observation sequence.
        for (i, s) in seqs.iter_mut().enumerate() {
            s.truncate(1 + i % 9);
        }
        seqs.push(Vec::new());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let starts = [
            vec![vec![1.0, 3.0], vec![2.5, 0.5]],
            vec![vec![0.5, 4.0], vec![3.0, 1.0], vec![1.5, 1.5]],
        ];
        for rates in starts {
            let k = rates.len();
            let warm = LcaFit {
                k,
                d: 2,
                n: 0,
                weights: vec![1.0 / k as f64; k],
                rates: rates.clone(),
                log_lik: 0.0,
                iterations: 0,
            };
            let fit = HmmLtm { k }.fit(&seqs, Some(&warm), &mut rng);
            let reference = reference_fit(k, &seqs, rates);
            assert_eq!(fit.iterations, reference.iterations, "k={k}: iterations");
            assert!(fit.iterations > 3, "k={k}: fixture converges too fast");
            assert_eq!(fit.log_lik.to_bits(), reference.log_lik.to_bits(), "k={k}: log-lik");
            assert_eq!(bits(&fit.initial), bits(&reference.initial), "k={k}: initial");
            for (a, b) in fit.transitions.iter().zip(&reference.transitions) {
                assert_eq!(bits(a), bits(b), "k={k}: transitions");
            }
            for (a, b) in fit.rates.iter().zip(&reference.rates) {
                assert_eq!(bits(a), bits(b), "k={k}: rates");
            }
        }
    }

    #[test]
    fn recovers_planted_dynamics() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (seqs, truth) = planted(150, 12, &mut rng);
        let fit = HmmLtm { k: 2 }.fit(&seqs, None, &mut rng);

        // Identify the fitted index of planted state 0 (high dim-1 rate).
        let s0 = usize::from(fit.rates[0][1] < fit.rates[1][1]);
        let map = |c: usize| if c == 0 { s0 } else { 1 - s0 };

        // Transition probabilities recovered within a few points.
        assert!(
            (fit.transitions[map(0)][map(0)] - 0.9).abs() < 0.06,
            "a00 {}",
            fit.transitions[map(0)][map(0)]
        );
        assert!(
            (fit.transitions[map(1)][map(1)] - 0.7).abs() < 0.08,
            "a11 {}",
            fit.transitions[map(1)][map(1)]
        );
        // Emission rates recovered.
        assert!((fit.rates[map(0)][1] - 6.0).abs() < 0.5);
        assert!((fit.rates[map(1)][0] - 5.0).abs() < 0.5);

        // Viterbi paths agree with the truth almost everywhere.
        let mut agree = 0usize;
        let mut total = 0usize;
        for (seq, t) in seqs.iter().zip(&truth) {
            let path = fit.decode(seq);
            for (p, tt) in path.iter().zip(t) {
                total += 1;
                if map(*p) == *tt {
                    agree += 1;
                }
            }
        }
        let acc = agree as f64 / total as f64;
        assert!(acc > 0.93, "viterbi accuracy {acc}");

        // Holding times reflect the stickiness asymmetry.
        assert!(fit.expected_holding_time(map(0)) > fit.expected_holding_time(map(1)));
    }

    #[test]
    fn rows_stay_stochastic_and_ll_climbs() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (seqs, _) = planted(40, 8, &mut rng);
        let fit = HmmLtm { k: 3 }.fit(&seqs, None, &mut rng);
        assert!((fit.initial.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for row in &fit.transitions {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!(fit.log_lik.is_finite());
        assert!(fit.iterations >= 2);
    }

    #[test]
    fn single_observation_sequences_degenerate_gracefully() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let seqs: Vec<Vec<Vec<f64>>> = (0..30).map(|i| vec![vec![f64::from(i % 5), 1.0]]).collect();
        let fit = HmmLtm { k: 2 }.fit(&seqs, None, &mut rng);
        // No transitions observed: the matrix stays near its uniform prior.
        for row in &fit.transitions {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_eq!(fit.decode(&seqs[0]).len(), 1);
        assert!(fit.decode(&[]).is_empty());
    }
}
