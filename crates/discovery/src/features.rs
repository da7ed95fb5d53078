//! Side-channel emission features and their generative model.
//!
//! §III of the paper calls for "algorithms for discovery of gray/red nodes
//! using side channel emanations". Real RF fingerprinting extracts features
//! from captured traffic; since no battlefield captures exist, we use a
//! class-conditional generative model whose features mimic what a spectrum
//! monitor would measure. The class overlap is tuned so classification is
//! informative but imperfect — reproducing the precision/recall trade-off
//! the paper's discovery challenge is about.

use iobt_types::Affiliation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Number of features in an [`EmissionFeatures`] vector.
pub const FEATURE_DIM: usize = 6;

/// Features extracted from observing a node's RF emissions over a window.
///
/// All features are continuous; see [`EmissionFeatures::as_array`] for the
/// canonical ordering used by classifiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmissionFeatures {
    /// Fraction of the window the node was transmitting, in `[0, 1]`.
    pub duty_cycle: f64,
    /// Mean interval between transmissions, seconds.
    pub mean_interval_s: f64,
    /// Coefficient of variation of intervals (regularity; military
    /// scheduled waveforms are low, human-driven traffic is high).
    pub interval_cv: f64,
    /// Mean burst length, milliseconds.
    pub burst_ms: f64,
    /// Frequency-hop rate, hops per second (military anti-jam waveforms hop).
    pub hop_rate_hz: f64,
    /// Mean received power, dBm (proxy for transmit power class).
    pub power_dbm: f64,
}

impl EmissionFeatures {
    /// The features as a fixed-size array in canonical order.
    pub fn as_array(&self) -> [f64; FEATURE_DIM] {
        [
            self.duty_cycle,
            self.mean_interval_s,
            self.interval_cv,
            self.burst_ms,
            self.hop_rate_hz,
            self.power_dbm,
        ]
    }

    /// Builds features from the canonical array order.
    pub fn from_array(a: [f64; FEATURE_DIM]) -> Self {
        EmissionFeatures {
            duty_cycle: a[0],
            mean_interval_s: a[1],
            interval_cv: a[2],
            burst_ms: a[3],
            hop_rate_hz: a[4],
            power_dbm: a[5],
        }
    }
}

/// Class-conditional means for each affiliation, in canonical feature order.
///
/// Blue: scheduled, frequency-hopping, moderate power tactical waveforms.
/// Red: covert — low duty cycle, irregular, short weak bursts, some hopping.
/// Gray: commercial — chatty, no hopping, strong consumer radios.
fn class_mean(class: Affiliation) -> [f64; FEATURE_DIM] {
    match class {
        Affiliation::Blue => [0.30, 2.0, 0.25, 12.0, 150.0, -55.0],
        Affiliation::Red => [0.05, 9.0, 0.9, 4.0, 60.0, -75.0],
        Affiliation::Gray => [0.45, 1.0, 1.2, 30.0, 2.0, -50.0],
    }
}

/// Class-conditional standard deviations (same for every class, scaled per
/// feature). The `noise` multiplier widens them to model poor collection
/// geometry.
fn class_sigma(noise: f64) -> [f64; FEATURE_DIM] {
    let base = [0.10, 2.0, 0.35, 8.0, 40.0, 10.0];
    let mut out = [0.0; FEATURE_DIM];
    for (o, b) in out.iter_mut().zip(base) {
        *o = b * noise;
    }
    out
}

/// Generative model of emission observations.
///
/// `observation_window_s` controls estimation quality: features are averages
/// over the window, so their sampling noise shrinks as `1/sqrt(window)`
/// (longer surveillance of a node pins down its fingerprint). `noise`
/// scales all spreads; `1.0` is the calibrated default.
#[derive(Debug, Clone)]
pub struct EmissionModel {
    rng: StdRng,
    observation_window_s: f64,
    noise: f64,
}

impl EmissionModel {
    /// Reference window length at which `noise` applies unscaled.
    pub const REFERENCE_WINDOW_S: f64 = 60.0;

    /// Creates a model with the given seed, a 60 s window and unit noise.
    pub fn new(seed: u64) -> Self {
        EmissionModel {
            rng: StdRng::seed_from_u64(seed),
            observation_window_s: Self::REFERENCE_WINDOW_S,
            noise: 1.0,
        }
    }

    /// Sets the observation window (clamped to ≥ 1 s).
    pub fn with_window_s(mut self, window_s: f64) -> Self {
        self.observation_window_s = window_s.max(1.0);
        self
    }

    /// Sets the noise multiplier (clamped to ≥ 0.01).
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise.max(0.01);
        self
    }

    /// Effective per-feature sigma after window averaging.
    fn effective_sigma(&self) -> [f64; FEATURE_DIM] {
        let shrink = (Self::REFERENCE_WINDOW_S / self.observation_window_s).sqrt();
        let mut s = class_sigma(self.noise);
        for v in &mut s {
            *v *= shrink;
        }
        s
    }

    /// Samples one observation of a node of the given class.
    pub fn observe(&mut self, class: Affiliation) -> EmissionFeatures {
        let mean = class_mean(class);
        let sigma = self.effective_sigma();
        let mut values = [0.0; FEATURE_DIM];
        for i in 0..FEATURE_DIM {
            #[expect(clippy::expect_used, reason = "mean is a fixed table and sigma is clamped positive, so the params are valid")]
            let normal = Normal::new(mean[i], sigma[i].max(1e-9)).expect("finite params");
            values[i] = normal.sample(&mut self.rng);
        }
        // Physical clamps.
        values[0] = values[0].clamp(0.0, 1.0); // duty cycle
        values[1] = values[1].max(0.01); // interval
        values[2] = values[2].max(0.0); // CV
        values[3] = values[3].max(0.1); // burst
        values[4] = values[4].max(0.0); // hop rate
        EmissionFeatures::from_array(values)
    }

    /// Samples a labelled dataset of `per_class` observations per
    /// affiliation, interleaved deterministically.
    pub fn labelled_dataset(
        &mut self,
        per_class: usize,
    ) -> Vec<(EmissionFeatures, Affiliation)> {
        let mut data = Vec::with_capacity(per_class * 3);
        for i in 0..per_class {
            for class in Affiliation::ALL {
                let _ = i;
                data.push((self.observe(class), class));
            }
        }
        data
    }

    /// Samples an observation with a mislabeling adversary: with
    /// probability `spoof_prob`, a red node imitates the gray feature
    /// profile (traffic-shape camouflage).
    pub fn observe_with_spoofing(
        &mut self,
        class: Affiliation,
        spoof_prob: f64,
    ) -> EmissionFeatures {
        if class == Affiliation::Red && self.rng.gen::<f64>() < spoof_prob {
            self.observe(Affiliation::Gray)
        } else {
            self.observe(class)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_roundtrip() {
        let f = EmissionFeatures {
            duty_cycle: 0.2,
            mean_interval_s: 3.0,
            interval_cv: 0.5,
            burst_ms: 10.0,
            hop_rate_hz: 100.0,
            power_dbm: -60.0,
        };
        assert_eq!(EmissionFeatures::from_array(f.as_array()), f);
    }

    #[test]
    fn observations_are_physically_valid() {
        let mut m = EmissionModel::new(1).with_noise(3.0);
        for class in Affiliation::ALL {
            for _ in 0..200 {
                let f = m.observe(class);
                assert!((0.0..=1.0).contains(&f.duty_cycle));
                assert!(f.mean_interval_s > 0.0);
                assert!(f.interval_cv >= 0.0);
                assert!(f.burst_ms > 0.0);
                assert!(f.hop_rate_hz >= 0.0);
            }
        }
    }

    #[test]
    fn classes_are_separated_on_average() {
        let mut m = EmissionModel::new(2);
        let avg_hop = |m: &mut EmissionModel, c| {
            (0..200).map(|_| m.observe(c).hop_rate_hz).sum::<f64>() / 200.0
        };
        let blue = avg_hop(&mut m, Affiliation::Blue);
        let gray = avg_hop(&mut m, Affiliation::Gray);
        assert!(blue > gray + 50.0, "blue hops, gray does not: {blue} vs {gray}");
    }

    #[test]
    fn longer_windows_reduce_variance() {
        let sample_var = |window: f64| {
            let mut m = EmissionModel::new(3).with_window_s(window);
            let xs: Vec<f64> = (0..300).map(|_| m.observe(Affiliation::Blue).power_dbm).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
        };
        let short = sample_var(10.0);
        let long = sample_var(600.0);
        assert!(long < short, "window averaging must shrink variance: {long} vs {short}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = EmissionModel::new(9);
        let mut b = EmissionModel::new(9);
        for class in Affiliation::ALL {
            assert_eq!(a.observe(class), b.observe(class));
        }
    }

    #[test]
    fn labelled_dataset_is_balanced() {
        let mut m = EmissionModel::new(4);
        let data = m.labelled_dataset(50);
        assert_eq!(data.len(), 150);
        for class in Affiliation::ALL {
            assert_eq!(data.iter().filter(|(_, c)| *c == class).count(), 50);
        }
    }

    #[test]
    fn spoofing_shifts_red_toward_gray() {
        let mut m = EmissionModel::new(5);
        let honest: f64 = (0..300)
            .map(|_| m.observe_with_spoofing(Affiliation::Red, 0.0).duty_cycle)
            .sum::<f64>()
            / 300.0;
        let spoofed: f64 = (0..300)
            .map(|_| m.observe_with_spoofing(Affiliation::Red, 1.0).duty_cycle)
            .sum::<f64>()
            / 300.0;
        assert!(spoofed > honest + 0.2, "fully spoofed red looks gray");
    }
}
