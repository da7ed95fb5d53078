//! Wireless channel model: path loss, shadowing, jamming, and loss rates.
//!
//! The model is a standard log-distance path-loss law with log-normal
//! shadowing, a thermal noise floor, and additive jamming interference.
//! Per-hop delivery probability is a logistic function of SINR, which
//! reproduces the qualitative S-curve of real packet-error-rate data
//! without modelling any particular modulation.

use iobt_ckpt::{Dec, DecodeError, Enc, Wire};
use iobt_types::{Point, RadioKind};
use rand::Rng;

use crate::terrain::{Clutter, Terrain};

/// Reference path loss at 1 m, in dB (2.4 GHz-class radios).
pub const REFERENCE_LOSS_DB: f64 = 40.0;
/// Thermal noise floor in dBm.
pub const NOISE_FLOOR_DBM: f64 = -100.0;
/// SINR at which delivery probability is 50%.
pub const SINR_MIDPOINT_DB: f64 = 10.0;
/// Slope of the delivery-probability logistic, in dB.
pub const SINR_SLOPE_DB: f64 = 2.0;

/// Converts watts to dBm. Returns `-inf` dBm for non-positive power.
pub fn watts_to_dbm(watts: f64) -> f64 {
    if watts <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * (watts * 1_000.0).log10()
    }
}

/// Converts dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// A hostile RF emitter raising the noise floor around it (§IV-B: "a
/// wireless jamming attack").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jammer {
    /// Where the jammer sits.
    pub position: Point,
    /// Radiated power in watts.
    pub power_w: f64,
    /// Whether the jammer is currently emitting.
    pub active: bool,
}

/// Position, power, then whether it radiates; decoding goes through
/// [`Jammer::new`], so a corrupt power still clamps to zero.
impl Wire for Jammer {
    fn put(&self, e: &mut Enc) {
        let Self {
            position,
            power_w,
            active,
        } = self;
        e.put(position);
        e.f64(*power_w);
        e.bool(*active);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let mut jammer = Jammer::new(d.get()?, d.f64()?);
        jammer.active = d.bool()?;
        Ok(jammer)
    }
}

impl Jammer {
    /// Creates an active jammer. Negative power clamps to zero.
    pub fn new(position: Point, power_w: f64) -> Self {
        Jammer {
            position,
            power_w: power_w.max(0.0),
            active: true,
        }
    }
}

/// The channel model used by the simulator for every transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    terrain: Terrain,
    jammers: Vec<Jammer>,
    extra_loss_db: f64,
}

impl Channel {
    /// Creates a channel over the given terrain with no jammers.
    pub fn new(terrain: Terrain) -> Self {
        Channel {
            terrain,
            jammers: Vec::new(),
            extra_loss_db: 0.0,
        }
    }

    /// The underlying terrain.
    pub const fn terrain(&self) -> &Terrain {
        &self.terrain
    }

    /// Adds a jammer, returning its index for later toggling.
    pub fn add_jammer(&mut self, jammer: Jammer) -> usize {
        self.jammers.push(jammer);
        self.jammers.len() - 1
    }

    /// Enables/disables a jammer by index. Out-of-range indices are ignored.
    pub fn set_jammer_active(&mut self, index: usize, active: bool) {
        if let Some(j) = self.jammers.get_mut(index) {
            j.active = active;
        }
    }

    /// Currently registered jammers.
    pub fn jammers(&self) -> &[Jammer] {
        &self.jammers
    }

    /// Replaces the jammer list wholesale (checkpoint restore).
    pub(crate) fn replace_jammers(&mut self, jammers: Vec<Jammer>) {
        self.jammers = jammers;
    }

    /// Sets a channel-wide extra path loss in dB (link-degradation
    /// faults: weather, obscurants, wide-band interference). Applies to
    /// every link's SINR; negative values clamp to zero.
    pub fn set_extra_loss_db(&mut self, db: f64) {
        self.extra_loss_db = db.max(0.0);
    }

    /// The channel-wide extra path loss currently applied, in dB.
    pub fn extra_loss_db(&self) -> f64 {
        self.extra_loss_db
    }

    /// Deterministic (no-shadowing) path loss between two points in dB.
    pub fn path_loss_db(&self, from: Point, to: Point) -> f64 {
        self.path_loss_over(from, to, from.distance_to(to))
    }

    /// [`Channel::path_loss_db`] between endpoints whose distance the
    /// caller already holds.
    pub(crate) fn path_loss_over(&self, from: Point, to: Point, distance_m: f64) -> f64 {
        log_distance_loss_db(self.terrain.clutter_between(from, to), distance_m)
    }

    /// Received power at `to` for a transmitter of `tx_power_w` at `from`,
    /// in dBm, before shadowing.
    pub fn received_power_dbm(&self, from: Point, to: Point, tx_power_w: f64) -> f64 {
        watts_to_dbm(tx_power_w) - self.path_loss_db(from, to)
    }

    /// Total interference-plus-noise at a receiver, in dBm: thermal floor
    /// plus the power received from every active jammer.
    pub fn noise_dbm(&self, at: Point) -> f64 {
        let mut total_mw = dbm_to_mw(NOISE_FLOOR_DBM);
        for j in &self.jammers {
            if j.active && j.power_w > 0.0 {
                total_mw += dbm_to_mw(self.received_power_dbm(j.position, at, j.power_w));
            }
        }
        10.0 * total_mw.log10()
    }

    /// Mean SINR of a link in dB, before shadowing. Includes any active
    /// channel-wide degradation loss.
    pub fn sinr_db(&self, from: Point, to: Point, radio: RadioKind) -> f64 {
        self.received_power_dbm(from, to, radio.tx_power_w()) - self.noise_dbm(to)
            - self.extra_loss_db
    }

    /// What every transmission over one hop shares: the link's mean SINR
    /// (bit-equal to [`Channel::sinr_db`]) and its shadowing spread, from
    /// one terrain walk between the endpoints.
    pub(crate) fn hop_budget(&self, from: Point, to: Point, radio: RadioKind) -> HopBudget {
        let clutter = self.terrain.clutter_between(from, to);
        let path_loss_db = log_distance_loss_db(clutter, from.distance_to(to));
        HopBudget {
            sinr_db: watts_to_dbm(radio.tx_power_w()) - path_loss_db - self.noise_dbm(to)
                - self.extra_loss_db,
            sigma_db: clutter.shadowing_sigma_db(),
        }
    }

    /// Expected (shadowing-averaged) delivery probability; used for link
    /// weights in routing so routes do not flap with every sample.
    pub fn mean_delivery_probability(&self, from: Point, to: Point, radio: RadioKind) -> f64 {
        logistic((self.sinr_db(from, to, radio) - SINR_MIDPOINT_DB) / SINR_SLOPE_DB)
    }

    /// [`Channel::mean_delivery_probability`] over a precomputed
    /// [`LinkBudget`], for a radio whose transmit power the caller already
    /// holds in dBm. Bit-identical for the same endpoints: the SINR terms
    /// combine in the same order.
    pub(crate) fn mean_delivery_probability_at(&self, budget: LinkBudget, tx_dbm: f64) -> f64 {
        let sinr = tx_dbm - budget.path_loss_db - budget.noise_dbm - self.extra_loss_db;
        logistic((sinr - SINR_MIDPOINT_DB) / SINR_SLOPE_DB)
    }

    /// What [`Channel::noise_dbm`] returns at every receiver while no
    /// jammer radiates (its own expression, the sum left empty), or
    /// `None` while one does.
    pub(crate) fn quiet_noise_dbm(&self) -> Option<f64> {
        let quiet = !self.jammers.iter().any(|j| j.active && j.power_w > 0.0);
        quiet.then(|| self.noise_dbm(Point::ORIGIN))
    }
}

/// The radio-independent part of a link's SINR computation: path loss
/// between the endpoints and interference-plus-noise at the receiver,
/// which the pair kernel derives at most once per pair instead of once
/// per shared radio. Valid only for the channel state (jammers,
/// degradation, terrain) it was computed under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkBudget {
    pub(crate) path_loss_db: f64,
    pub(crate) noise_dbm: f64,
}

/// What every transmission over one hop shares, from
/// [`Channel::hop_budget`]; valid for the channel state and endpoint
/// positions it was computed under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HopBudget {
    sinr_db: f64,
    sigma_db: f64,
}

/// One transmission's delivery probability over a hop: samples
/// log-normal shadowing around the budget's mean SINR.
pub(crate) fn sample_delivery<R: Rng + ?Sized>(rng: &mut R, budget: HopBudget) -> f64 {
    // Box-Muller-free: rand_distr is available but a simple sum of
    // uniforms (Irwin-Hall, n=12) gives a good normal with exactly one
    // RNG word per uniform and no rejection loop.
    let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
    let sinr = budget.sinr_db + z * budget.sigma_db;
    logistic((sinr - SINR_MIDPOINT_DB) / SINR_SLOPE_DB)
}

/// The log-distance law: path loss over `distance_m` through `clutter`.
fn log_distance_loss_db(clutter: Clutter, distance_m: f64) -> f64 {
    REFERENCE_LOSS_DB + 10.0 * clutter.path_loss_exponent() * distance_m.max(1.0).log10()
}

impl Default for Channel {
    fn default() -> Self {
        Channel::new(Terrain::default())
    }
}

fn logistic(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::Clutter;
    use iobt_types::Rect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn open_channel() -> Channel {
        Channel::new(Terrain::uniform(Rect::square(10_000.0), Clutter::Open))
    }

    #[test]
    fn dbm_conversions() {
        assert!((watts_to_dbm(1.0) - 30.0).abs() < 1e-9);
        assert!((watts_to_dbm(0.001) - 0.0).abs() < 1e-9);
        assert_eq!(watts_to_dbm(0.0), f64::NEG_INFINITY);
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_loss_grows_with_distance() {
        let ch = open_channel();
        let a = Point::new(0.0, 0.0);
        let near = ch.path_loss_db(a, Point::new(10.0, 0.0));
        let far = ch.path_loss_db(a, Point::new(1_000.0, 0.0));
        assert!(far > near);
        // Sub-meter distances clamp to the reference distance.
        assert!((ch.path_loss_db(a, Point::new(0.5, 0.0)) - REFERENCE_LOSS_DB).abs() < 1e-9);
    }

    #[test]
    fn urban_is_lossier_than_open() {
        let open = open_channel();
        let urban = Channel::new(Terrain::uniform(Rect::square(10_000.0), Clutter::Urban));
        let a = Point::new(0.0, 0.0);
        let b = Point::new(200.0, 0.0);
        assert!(urban.path_loss_db(a, b) > open.path_loss_db(a, b));
    }

    #[test]
    fn jammer_raises_noise_and_kills_nearby_links() {
        let mut ch = open_channel();
        let rx = Point::new(100.0, 0.0);
        let tx = Point::new(0.0, 0.0);
        let clean = ch.sinr_db(tx, rx, RadioKind::Wifi);
        let idx = ch.add_jammer(Jammer::new(Point::new(110.0, 0.0), 10.0));
        let jammed = ch.sinr_db(tx, rx, RadioKind::Wifi);
        assert!(jammed < clean - 20.0, "jamming should crush SINR");
        ch.set_jammer_active(idx, false);
        let restored = ch.sinr_db(tx, rx, RadioKind::Wifi);
        assert!((restored - clean).abs() < 1e-9);
    }

    #[test]
    fn delivery_probability_monotone_in_distance() {
        let ch = open_channel();
        let tx = Point::new(0.0, 0.0);
        let near = ch.mean_delivery_probability(tx, Point::new(20.0, 0.0), RadioKind::Wifi);
        let far = ch.mean_delivery_probability(tx, Point::new(400.0, 0.0), RadioKind::Wifi);
        assert!(near > 0.9, "short open-field wifi link should be reliable: {near}");
        assert!(far < near);
    }

    #[test]
    fn sampled_probability_in_unit_interval_and_deterministic() {
        let ch = open_channel();
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        for i in 0..100 {
            let to = Point::new(10.0 + i as f64 * 5.0, 0.0);
            let budget = ch.hop_budget(Point::ORIGIN, to, RadioKind::Wifi);
            let (p1, p2) = (sample_delivery(&mut rng1, budget), sample_delivery(&mut rng2, budget));
            assert!((0.0..=1.0).contains(&p1));
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn budgeted_probability_is_bit_identical() {
        let mut ch = open_channel();
        ch.add_jammer(Jammer::new(Point::new(300.0, 50.0), 5.0));
        ch.set_extra_loss_db(3.0);
        let tx = Point::ORIGIN;
        for i in 0..50 {
            let rx = Point::new(5.0 + i as f64 * 37.0, i as f64 * 11.0);
            let budget = LinkBudget {
                path_loss_db: ch.path_loss_db(tx, rx),
                noise_dbm: ch.noise_dbm(rx),
            };
            for radio in [
                RadioKind::Wifi,
                RadioKind::Bluetooth,
                RadioKind::Cellular,
                RadioKind::TacticalUhf,
                RadioKind::Satcom,
            ] {
                let plain = ch.mean_delivery_probability(tx, rx, radio);
                let tx_dbm = watts_to_dbm(radio.tx_power_w());
                let budgeted = ch.mean_delivery_probability_at(budget, tx_dbm);
                assert_eq!(plain.to_bits(), budgeted.to_bits());
            }
        }
    }

    #[test]
    fn a_hop_budget_samples_what_each_attempt_computed_alone() {
        // One transmission's probability as it was before hops shared a budget:
        // two terrain walks per attempt, one for the spread and one
        // inside `sinr_db`.
        fn per_attempt(
            ch: &Channel,
            rng: &mut StdRng,
            from: Point,
            to: Point,
            radio: RadioKind,
        ) -> f64 {
            let sigma = ch.terrain.clutter_between(from, to).shadowing_sigma_db();
            let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
            let sinr = ch.sinr_db(from, to, radio) + z * sigma;
            logistic((sinr - SINR_MIDPOINT_DB) / SINR_SLOPE_DB)
        }
        let bounds = Rect::square(3_000.0);
        for seed in 0..3u64 {
            let mut ch = Channel::new(Terrain::random_urban(bounds, 12, 12, seed));
            let jammer = ch.add_jammer(Jammer::new(Point::new(1_400.0, 1_600.0), 4.0));
            // 1.3 dB is not a round number next to the noise floor, so a
            // reassociated `- noise - extra` rounds differently there.
            let states = [false, true].into_iter().flat_map(|j| [(j, 0.0), (j, 3.0), (j, 1.3)]);
            for (jamming, extra_db) in states {
                ch.set_jammer_active(jammer, jamming);
                ch.set_extra_loss_db(extra_db);
                let mut hops = StdRng::seed_from_u64(seed);
                let (mut before, mut after) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
                for _ in 0..300 {
                    let x = hops.gen_range(0.0..3_000.0);
                    let from = Point::new(x, hops.gen_range(0.0..3_000.0));
                    let reach = [0.0, 0.5, 30.0, 400.0, 2_500.0][hops.gen_range(0..5usize)];
                    let (r, phi) = (hops.gen_range(0.0..=reach), hops.gen_range(0.0..6.3f64));
                    let to = Point::new(from.x + r * phi.cos(), from.y + r * phi.sin());
                    let radio = RadioKind::ALL[hops.gen_range(0..RadioKind::ALL.len())];
                    let budget = ch.hop_budget(from, to, radio);
                    for attempt in 0..hops.gen_range(1..4) {
                        let want = per_attempt(&ch, &mut before, from, to, radio);
                        let got = sample_delivery(&mut after, budget);
                        assert_eq!(got.to_bits(), want.to_bits(), "{from:?} -> {to:?} #{attempt}");
                        assert_eq!(after.state(), before.state());
                    }
                }
            }
        }
    }

    #[test]
    fn tactical_uhf_outranges_bluetooth() {
        let ch = open_channel();
        let tx = Point::ORIGIN;
        let rx = Point::new(500.0, 0.0);
        let uhf = ch.mean_delivery_probability(tx, rx, RadioKind::TacticalUhf);
        let bt = ch.mean_delivery_probability(tx, rx, RadioKind::Bluetooth);
        assert!(uhf > bt);
    }
}
