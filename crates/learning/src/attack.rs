//! Byzantine attack models against distributed learning.
//!
//! §V-B: "an adversary may control red/gray nodes and … supply malicious
//! inputs (i.e., inputs modified to yield erroneous model outputs)". Each
//! attack consumes the honest workers' gradients and produces what the
//! compromised workers submit instead.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// What compromised workers submit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzantineAttack {
    /// Submit the negated honest mean, scaled by `scale` — drives the
    /// model backwards.
    SignFlip {
        /// Magnification of the reversed gradient.
        scale: f64,
    },
    /// Submit pure Gaussian noise with the given standard deviation.
    GaussianNoise {
        /// Noise standard deviation.
        std: f64,
    },
    /// "A little is enough"-style collusion: all attackers submit the
    /// honest mean shifted by `z` honest standard deviations per
    /// coordinate — crafted to stay inside robust aggregators' tolerance
    /// while still biasing the result.
    Collusion {
        /// Shift in per-coordinate standard deviations.
        z: f64,
    },
}

impl ByzantineAttack {
    /// Produces the gradients submitted by `num_attackers` compromised
    /// workers, given the honest gradients this round.
    ///
    /// Returns an empty vector when `honest` is empty.
    pub fn forge(
        &self,
        honest: &[Vec<f64>],
        num_attackers: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        if honest.is_empty() || num_attackers == 0 {
            return Vec::new();
        }
        let dim = honest[0].len();
        let mean = crate::aggregate::mean(honest);
        match *self {
            ByzantineAttack::SignFlip { scale } => {
                let forged: Vec<f64> = mean.iter().map(|v| -scale * v).collect();
                vec![forged; num_attackers]
            }
            ByzantineAttack::GaussianNoise { std } => {
                let mut rng = StdRng::seed_from_u64(seed);
                #[expect(clippy::expect_used, reason = "std is clamped to at least 1e-12, so the distribution is valid")]
                let normal = Normal::new(0.0, std.max(1e-12)).expect("finite std");
                (0..num_attackers)
                    .map(|_| (0..dim).map(|_| normal.sample(&mut rng)).collect())
                    .collect()
            }
            ByzantineAttack::Collusion { z } => {
                // Per-coordinate honest standard deviation.
                let n = honest.len() as f64;
                let mut var = vec![0.0; dim];
                for g in honest {
                    for (v, (gi, mi)) in var.iter_mut().zip(g.iter().zip(&mean)) {
                        *v += (gi - mi) * (gi - mi) / n;
                    }
                }
                let forged: Vec<f64> = mean
                    .iter()
                    .zip(&var)
                    .map(|(m, v)| m - z * v.sqrt())
                    .collect();
                vec![forged; num_attackers]
            }
        }
    }
}

impl std::fmt::Display for ByzantineAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ByzantineAttack::SignFlip { scale } => write!(f, "sign-flip(x{scale})"),
            ByzantineAttack::GaussianNoise { std } => write!(f, "gaussian(std={std})"),
            ByzantineAttack::Collusion { z } => write!(f, "collusion(z={z})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn honest() -> Vec<Vec<f64>> {
        vec![vec![1.0, -1.0], vec![1.2, -0.8], vec![0.8, -1.2]]
    }

    #[test]
    fn sign_flip_reverses_mean() {
        let forged = ByzantineAttack::SignFlip { scale: 2.0 }.forge(&honest(), 2, 0);
        assert_eq!(forged.len(), 2);
        assert!((forged[0][0] + 2.0).abs() < 1e-9);
        assert!((forged[0][1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn noise_attack_is_deterministic_per_seed() {
        let attack = ByzantineAttack::GaussianNoise { std: 5.0 };
        assert_eq!(attack.forge(&honest(), 3, 7), attack.forge(&honest(), 3, 7));
        assert_ne!(attack.forge(&honest(), 3, 7), attack.forge(&honest(), 3, 8));
    }

    #[test]
    fn collusion_stays_near_the_honest_cloud() {
        let forged = ByzantineAttack::Collusion { z: 1.5 }.forge(&honest(), 2, 0);
        // Shifted by 1.5 sigma: close to but below the mean.
        let mean = crate::aggregate::mean(&honest());
        assert!(forged[0][0] < mean[0]);
        assert!((forged[0][0] - mean[0]).abs() < 1.0, "small shift");
        assert_eq!(forged[0], forged[1], "attackers collude identically");
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let attack = ByzantineAttack::SignFlip { scale: 1.0 };
        assert!(attack.forge(&[], 3, 0).is_empty());
        assert!(attack.forge(&honest(), 0, 0).is_empty());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            ByzantineAttack::SignFlip { scale: 10.0 }.to_string(),
            "sign-flip(x10)"
        );
    }
}
